"""GIC-to-ac coupling: transformer reactive losses and ac power flow.

Reactive-loss convention (fixed by dimensional analysis, unit-tested):
the quasi-dc winding current I_eff [A/phase] at rated voltage corresponds
to a three-phase apparent power sqrt(3) * kV_hi * I_eff / 1000 [MVA].
The loss attached at the transformer's high-side bus is

    d_q [p.u. on system base] = gmd_k * v_pu(hi) * sqrt(3) * kV_hi * I_eff
                                / (1000 * base_mva)

which keeps gmd_k dimensionless as the data format declares.  The
transformer's own MVA base cancels out of the conversion chain
(A -> transformer p.u. -> system p.u.).  Linear in v_pu(hi), the loss is
a voltage-proportional reactive load of the power flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .data import CaseData, component_labels, slack_rule, topology_status
from .dcnet import FieldVector, GicSeries, solve_series

__all__ = [
    "AcArrays",
    "AcSolution",
    "PowerFlowError",
    "IslandError",
    "qloss",
    "energized",
    "ac_power_flow",
    "sequential_gic_ac",
]


class AcArrays:
    """The ac side of a case as arrays, built from its rows once per case:
    read them through ``case.compiled(AcArrays)``.

    Buses and branches in case order; generators grouped by bus, the buses
    in order of their first generator.
    """

    def __init__(self, case: CaseData):
        buses, branches = case.buses, case.ac_branches
        self.pos = {b.index: i for i, b in enumerate(buses)}  # bus id -> row
        self.bus_ids = tuple(self.pos)
        self.bus_type = np.array([b.bus_type for b in buses])
        self.g_shunt = np.array([b.g_shunt for b in buses], dtype=float)
        self.q_load = -np.array([b.qd for b in buses], dtype=float)
        self.branch_ids = np.array([br.index for br in branches], dtype=int)
        self.f = np.array([self.pos[br.f_bus] for br in branches], dtype=int)
        self.t = np.array([self.pos[br.t_bus] for br in branches], dtype=int)
        # lossless series model: y = 1 / (j x) with x = 1/b
        self.y = np.array([complex(0.0, -br.b) for br in branches], dtype=complex)
        self.status = np.array([bool(br.status) for br in branches], dtype=bool)  # nominal
        self.switchable = np.array([br.switchable for br in branches], dtype=bool)
        self.b, self.rating, self.angle_max = np.array(
            [(br.b, br.rating, br.angle_max) for br in branches], dtype=float).reshape(-1, 3).T

        # scheduled injections and voltage set points; each generator's share
        # of its bus's generation, by pmax
        gen_by_bus: dict[int, list] = {}
        for g in case.generators:
            gen_by_bus.setdefault(g.bus, []).append(g)
        self.p_load = np.array([b.pd for b in buses], dtype=float)
        self.p_sched = -self.p_load
        self.vset = np.ones(len(buses))
        gens, share = [], []
        for bus_id, at_bus in gen_by_bus.items():
            i = self.pos[bus_id]
            self.vset[i] = at_bus[0].vg
            if buses[i].bus_type != "slack":
                self.p_sched[i] += sum(g.pg for g in at_bus)
            wsum = sum(max(g.pmax, 1e-9) for g in at_bus)
            gens += at_bus
            share += [max(g.pmax, 1e-9) / wsum for g in at_bus]
        self.gen_ids = tuple(g.index for g in gens)
        self.gen_row = np.array([self.pos[g.bus] for g in gens], dtype=int)
        self.gen_share = np.array(share, dtype=float)
        self.gen_pg = np.array([g.pg for g in gens], dtype=float)
        self.gen_pmin, self.gen_pmax, *self.gen_cost = np.array(
            [(g.pmin, g.pmax, g.cost0, g.cost1, g.cost2) for g in gens], dtype=float).reshape(-1, 5).T
        # a load or generator bus must reach a slack bus
        self.energize = np.array([b.pd != 0 or b.qd != 0 or b.index in gen_by_bus
                                  for b in buses], dtype=bool)

        # transformer rows with a usable gmd_k (> 0): the factors of their loss
        losses = [(k, r) for k, (_, r) in enumerate(case.xfmr_rows())
                  if r.gmd_k is not None and r.gmd_k > 0]
        self.loss_xfmr = np.array([k for k, _ in losses], dtype=int)  # row of case.xfmr_rows()
        self.loss_branch = np.array([r.branch for _, r in losses], dtype=int)  # ac branch id
        self.loss_at = np.array([self.pos[r.hi_bus] for _, r in losses], dtype=int)  # bus row
        self.loss_k = np.array([r.gmd_k for _, r in losses], dtype=float)
        self.loss_kv = np.array([case.bus(r.hi_bus).base_kv for _, r in losses], dtype=float)


def qloss(case: CaseData, effective: np.ndarray, v_pu: np.ndarray | float = 1.0) -> np.ndarray:
    """Reactive loss d_q [p.u.] of each transformer row with a usable gmd_k
    (> 0), in ``AcArrays.loss_*`` order.

    ``effective`` holds I_eff [A] per transformer row, in
    ``case.xfmr_rows()`` order (a column of ``GicSeries.effective``).
    ``v_pu`` is a flat scalar or a voltage per bus, in ``AcArrays`` bus
    order; each loss reads its high-side bus.  At 1.0 each d_q is the loss
    per unit of bus voltage.
    """
    ac = case.compiled(AcArrays)
    i_eff = np.asarray(effective, dtype=float)[ac.loss_xfmr]
    v = v_pu if isinstance(v_pu, (int, float)) else np.asarray(v_pu, dtype=float)[ac.loss_at]
    return ac.loss_k * v * math.sqrt(3.0) * ac.loss_kv * i_eff / (1000.0 * case.base_mva)


class PowerFlowError(RuntimeError):
    """Newton iteration failed to converge; carries the convergence report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class IslandError(RuntimeError):
    """A load or generator bus reaches no slack bus, or an island holds two."""


def energized(case: CaseData, topology: Mapping[int, int] | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """In-service mask of the ac branches under ``topology`` (see
    ``topology_status``) and the mask of the buses they join to a slack bus.

    Raises IslandError for a load or generator bus outside that set, or for
    an island with several slack buses (``slack_rule``).
    """
    ac = case.compiled(AcArrays)
    live = topology_status(ac.branch_ids, ac.status, topology)
    labels = component_labels(len(ac.bus_ids), ac.f[live], ac.t[live])
    count, fault = slack_rule(ac.bus_ids, labels, ac.bus_type == "slack", ac.energize)
    stranded = np.flatnonzero(ac.energize & (count == 0))
    if stranded.size:
        raise IslandError(f"bus {ac.bus_ids[stranded[0]]} is islanded from every slack bus")
    if fault:  # the island of two slack buses
        raise IslandError(fault)
    return live, count > 0


@dataclass(frozen=True)
class AcSolution:
    """A power-flow solution as arrays in ``AcArrays`` order: buses and
    branches in case order, generators grouped by bus (``gen_ids``)."""

    vm: np.ndarray        # bus voltage magnitude [p.u.]
    va: np.ndarray        # bus voltage angle [rad]
    p_from: np.ndarray    # branch flow at from side [p.u.]
    q_from: np.ndarray
    p_to: np.ndarray
    q_to: np.ndarray
    gen_p: np.ndarray     # per generator
    gen_q: np.ndarray
    iterations: int
    max_mismatch: float

    @property
    def total_q_gen(self) -> float:
        return float(sum(self.gen_q.tolist()))


def ac_power_flow(case: CaseData, extra_q: np.ndarray | None = None, *,
                  tol: float = 1e-8, max_iter: int = 30,
                  topology: Mapping[int, int] | None = None,
                  start: AcSolution | None = None) -> AcSolution:
    """Newton-Raphson power flow with optional GIC reactive losses.

    Polar formulation, mismatch tolerance on both P and Q equations, flat
    start unless ``start``: a solution of the same case whose angles at
    PV/PQ buses and magnitudes at PQ buses seed the iteration (setpoints
    still fix PV and slack magnitudes).  Y is sparse; the Jacobian is
    filled on the fixed sparsity pattern of Y (``_jacobian_pattern``) and
    factored once per iteration with a sparse LU
    (``scipy.sparse.linalg.splu``).  PV buses hold the generator voltage
    setpoint; no reactive limit switching is applied.  ``extra_q`` holds
    a reactive loss per unit of voltage c for each bus, in ``AcArrays``
    order (the ``qloss`` rows at 1.0 p.u. summed onto their buses): a bus
    draws c * vm, re-evaluated at every iteration, so the losses are those
    of the solved voltages (c * vg where PV and slack buses hold vm).
    De-energized islands (no load, generation or slack) are excluded from
    the iteration and report a nominal 1.0 p.u. / 0 rad state.  A
    non-finite mismatch or Newton step, or an exactly singular Jacobian,
    raises PowerFlowError at once.
    """
    ac = case.compiled(AcArrays)
    n = len(ac.bus_ids)
    live, active = energized(case, topology)
    f, t, y = ac.f, ac.t, ac.y
    fl, tl, yl = f[live], t[live], y[live]
    diag = np.arange(n)
    Y = sp.csr_matrix((np.concatenate([yl, yl, -yl, -yl, ac.g_shunt]),
                       (np.concatenate([fl, tl, fl, tl, diag]),
                        np.concatenate([fl, tl, tl, fl, diag]))), shape=(n, n))

    p_sched, q_load = ac.p_sched, ac.q_load
    c = np.zeros(n) if extra_q is None else np.asarray(extra_q, dtype=float)

    types = np.where(active, ac.bus_type, "dead")
    pv, pq = np.flatnonzero(types == "PV"), np.flatnonzero(types == "PQ")
    ang_idx = np.concatenate([pv, pq])     # unknown angles
    mag_idx = pq                           # unknown magnitudes

    vm = np.ones(n)
    va = np.zeros(n)
    if start is not None:
        va[ang_idx] = start.va[ang_idx]
        vm[mag_idx] = start.vm[mag_idx]
    held = (types == "PV") | (types == "slack")
    vm[held] = ac.vset[held]
    jacobian = _jacobian_pattern(Y, ang_idx, mag_idx, c)

    it = 0
    max_mis = math.inf
    for it in range(1, max_iter + 1):
        V = vm * np.exp(1j * va)
        S = V * np.conj(Y @ V)
        p_inj, q_inj = S.real, S.imag
        q_sched = q_load - c * vm
        mism = np.concatenate([(p_sched - p_inj)[ang_idx], (q_sched - q_inj)[mag_idx]])
        max_mis = float(np.max(np.abs(mism))) if len(mism) else 0.0
        report = {"iterations": it, "max_mismatch": max_mis}
        if max_mis <= tol:
            break
        if not math.isfinite(max_mis):
            raise PowerFlowError(f"non-finite mismatch at iteration {it}", report=report)
        try:
            dx = splu(jacobian(vm, va)).solve(mism)
        except RuntimeError as exc:  # splu: "Factor is exactly singular"
            raise PowerFlowError(f"singular Jacobian at iteration {it}", report=report) from exc
        if not np.all(np.isfinite(dx)):
            raise PowerFlowError(f"non-finite Newton step at iteration {it}", report=report)
        va[ang_idx] += dx[:len(ang_idx)]
        vm[mag_idx] += dx[len(ang_idx):]
    else:
        raise PowerFlowError(
            f"power flow did not converge in {max_iter} iterations "
            f"(worst mismatch {max_mis:.3e} p.u.)",
            report={"iterations": max_iter, "max_mismatch": max_mis})

    # V, p_inj, q_inj and q_sched are the last iteration's: the solution's
    s_f = np.where(live, V[f] * np.conj(y * (V[f] - V[t])), 0.0)
    s_t = np.where(live, V[t] * np.conj(y * (V[t] - V[f])), 0.0)

    # distribute bus-level generation to units (slack P and PV/slack Q) by
    # their shares; net bus generation is injection minus the scheduled
    # (negative) load
    at_slack = ac.bus_type[ac.gen_row] == "slack"
    gen_p = np.where(at_slack, (p_inj - p_sched)[ac.gen_row] * ac.gen_share, ac.gen_pg)
    gen_q = (q_inj - q_sched)[ac.gen_row] * ac.gen_share
    return AcSolution(vm=vm, va=va, p_from=s_f.real, q_from=s_f.imag, p_to=s_t.real,
                      q_to=s_t.imag, gen_p=gen_p, gen_q=gen_q, iterations=it,
                      max_mismatch=max_mis)


def _jacobian_pattern(Y, ang_idx, mag_idx, loss):
    """Fill function of the polar power-flow Jacobian on the fixed pattern of Y.

    ``Y`` is a canonical CSR matrix (no duplicate entries).  Rows are the
    P equations of ``ang_idx`` then the Q equations of ``mag_idx``;
    columns the angles of ``ang_idx`` then the magnitudes of ``mag_idx``.
    Every stored entry (i, k) of Y, and every diagonal one, contributes
    dS_i/dVa_k = -j V_i conj(Y_ik V_k) and dS_i/dVm_k = V_i conj(Y_ik E_k),
    with E = exp(j Va); the diagonal adds j V_i conj(I_i) and
    conj(I_i) E_i, with I = Y V (the MATPOWER ``dSbus_dV`` form, entry by
    entry).  A bus's reactive load loss_i * vm_i (``loss``, per bus) adds
    loss_i to its Q-vm diagonal.  The CSC structure and the map from each
    entry's four partial derivatives into it are built here once; the
    returned ``fill(vm, va)`` only evaluates them and gathers the values.
    """
    n = Y.shape[0]
    r = np.repeat(np.arange(n), np.diff(Y.indptr))
    c, y = Y.indices, Y.data
    has_diag = np.zeros(n, dtype=bool)
    has_diag[r[r == c]] = True
    missing = np.flatnonzero(~has_diag)
    r, c, y = np.r_[r, missing], np.r_[c, missing], np.r_[y, np.zeros(len(missing))]
    diag = np.empty(n, dtype=int)
    diag[r[r == c]] = np.flatnonzero(r == c)

    # slot of each bus among the angle (P) and magnitude (Q) unknowns, or -1
    na, m = len(ang_idx), len(ang_idx) + len(mag_idx)
    ang_slot = np.full(n, -1)
    ang_slot[ang_idx] = np.arange(na)
    mag_slot = np.full(n, -1)
    mag_slot[mag_idx] = np.arange(na, m)
    nnz = len(r)
    rows, cols, src = [], [], []
    # blocks of the stacked values [dVa.real, dVm.real, dVa.imag, dVm.imag]
    for k, (row_slot, col_slot) in enumerate(((ang_slot, ang_slot), (ang_slot, mag_slot),
                                              (mag_slot, ang_slot), (mag_slot, mag_slot))):
        keep = np.flatnonzero((row_slot[r] >= 0) & (col_slot[c] >= 0))
        rows.append(row_slot[r[keep]])
        cols.append(col_slot[c[keep]])
        src.append(k * nnz + keep)
    rows, cols, src = np.concatenate(rows), np.concatenate(cols), np.concatenate(src)
    order = np.argsort(cols * m + rows)  # column-major; every (row, col) occurs once
    indices, gather = rows[order], src[order]
    indptr = np.r_[0, np.cumsum(np.bincount(cols, minlength=m))]

    def fill(vm, va):
        E = np.exp(1j * va)
        V = vm * E
        I = Y @ V
        d_vm = V[r] * np.conj(y * E[c])
        d_va = -1j * d_vm * vm[c]
        d_va[diag] += 1j * V * np.conj(I)
        d_vm[diag] += np.conj(I) * E + 1j * loss
        values = np.concatenate([d_va.real, d_vm.real, d_va.imag, d_vm.imag])[gather]
        return sp.csc_matrix((values, indices, indptr), shape=(m, m))

    return fill


def sequential_gic_ac(case: CaseData, field: FieldVector | None = None, *,
                      topology: Mapping[int, int] | None = None
                      ) -> tuple[GicSeries, np.ndarray, AcSolution]:
    """Sequential quasi-dc then ac analysis for one time point.

    Solves the dc network (``solve_series`` at one time point; no field
    means the stored br_v), converts effective GICs to reactive losses per
    unit of high-side voltage, sums them onto their buses and runs one
    power flow that carries them as voltage-proportional loads, so the
    losses are evaluated at the voltages they produce.

    Returns (one-row GicSeries, ``qloss`` d_q at the solved voltages, AcSolution).
    """
    series = solve_series(case, None if field is None else np.array([field]), [0.0],
                          topology=topology)
    effective = series.effective[:, 0]
    arrays = case.compiled(AcArrays)
    per_bus = np.bincount(arrays.loss_at, qloss(case, effective, 1.0),
                          minlength=len(arrays.bus_ids))
    ac = ac_power_flow(case, per_bus, topology=topology)
    return series, qloss(case, effective, ac.vm), ac
