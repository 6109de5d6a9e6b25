"""GIC-to-ac coupling: transformer reactive losses and ac power flow.

Reactive-loss convention (fixed by dimensional analysis, unit-tested):
the quasi-dc winding current I_eff [A/phase] at rated voltage corresponds
to a three-phase apparent power sqrt(3) * kV_hi * I_eff / 1000 [MVA].
The loss attached at the transformer's high-side bus is

    d_q [p.u. on system base] = gmd_k * v_pu(hi) * sqrt(3) * kV_hi * I_eff
                                / (1000 * base_mva)

which keeps gmd_k dimensionless as the data format declares.  The
transformer's own MVA base cancels out of the conversion chain
(A -> transformer p.u. -> system p.u.).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import CaseData, component_groups
from .dcnet import FieldVector, GicSolution, assemble, effective_gic, solve_dc

__all__ = [
    "QLoss",
    "QLossMap",
    "AcSolution",
    "PowerFlowError",
    "IslandError",
    "qloss",
    "ac_power_flow",
    "sequential_gic_ac",
]


@dataclass(frozen=True)
class QLoss:
    branch: int          # ac branch id (-1 for synthetic GSU rows)
    bus: int             # attribution bus (transformer high side)
    d_q: float           # reactive loss [p.u. on system base]


QLossMap = Mapping[int, QLoss]  # keyed by branch_gmd row position


def qloss(case: CaseData, sol: GicSolution,
          v_pu: Mapping[int, float] | float = 1.0) -> dict[int, QLoss]:
    """Per-transformer reactive losses from effective GICs.

    ``v_pu`` is either a per-bus voltage map or a flat scalar (first pass
    of the sequential analysis uses 1.0).  Rows without a usable gmd_k
    (absent / <= 0) contribute nothing.
    """
    eff = sol.effective
    if eff is None:
        eff = effective_gic(case, sol)
    out: dict[int, QLoss] = {}
    for pos, row in case.xfmr_rows():
        if row.gmd_k is None or row.gmd_k <= 0:
            continue
        i_eff = eff.get(pos, 0.0)
        kv_hi = case.bus(row.hi_bus).base_kv
        v = v_pu if isinstance(v_pu, (int, float)) else v_pu.get(row.hi_bus, 1.0)
        d_q = row.gmd_k * v * math.sqrt(3.0) * kv_hi * i_eff / (1000.0 * case.base_mva)
        out[pos] = QLoss(branch=row.branch, bus=row.hi_bus, d_q=d_q)
    return out


class PowerFlowError(RuntimeError):
    """Newton iteration failed to converge; carries the convergence report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class IslandError(RuntimeError):
    """A load or generator bus is not connected to a slack bus."""


@dataclass(frozen=True)
class AcSolution:
    vm: Mapping[int, float]           # bus voltage magnitude [p.u.]
    va: Mapping[int, float]           # bus voltage angle [rad]
    p_from: Mapping[int, float]       # branch flow at from side [p.u.]
    q_from: Mapping[int, float]
    p_to: Mapping[int, float]
    q_to: Mapping[int, float]
    gen_p: Mapping[int, float]        # per generator id
    gen_q: Mapping[int, float]
    iterations: int
    max_mismatch: float

    @property
    def total_q_gen(self) -> float:
        return float(sum(self.gen_q.values()))


def _branch_admittance(branch) -> complex:
    # lossless series model: y = 1 / (j x) with x = 1/b
    return complex(0.0, -branch.b)


def ac_power_flow(case: CaseData, extra_q: QLossMap | None = None, *,
                  tol: float = 1e-8, max_iter: int = 30,
                  topology: Mapping[int, int] | None = None) -> AcSolution:
    """Newton-Raphson power flow with optional GIC reactive loads.

    Polar formulation, flat start, mismatch tolerance on both P and Q
    equations.  PV buses hold the generator voltage setpoint; no reactive
    limit switching is applied.  ``extra_q`` losses are added as constant
    reactive loads at their attribution buses.  De-energized islands (no
    load, generation or slack) are excluded from the iteration and report
    a nominal 1.0 p.u. / 0 rad state.
    """
    buses = case.buses
    n = len(buses)
    pos = {b.index: i for i, b in enumerate(buses)}

    live = []
    for br in case.ac_branches:
        z = br.status
        if topology is not None and br.index in topology:
            z = topology[br.index]
        if z:
            live.append(br)

    gen_by_bus: dict[int, list] = {}
    for g in case.generators:
        gen_by_bus.setdefault(g.bus, []).append(g)

    # connectivity: every energized bus must reach a slack
    slack = {b.index for b in buses if b.bus_type == "slack"}
    active = {i for comp in component_groups([b.index for b in buses],
                                             [(br.f_bus, br.t_bus) for br in live])
              if slack.intersection(comp) for i in comp}
    for b in buses:
        energized = b.pd != 0 or b.qd != 0 or b.index in gen_by_bus
        if energized and b.index not in active:
            raise IslandError(f"bus {b.index} is islanded from every slack bus")

    Y = np.zeros((n, n), dtype=complex)
    for br in live:
        y = _branch_admittance(br)
        i, j = pos[br.f_bus], pos[br.t_bus]
        Y[i, i] += y
        Y[j, j] += y
        Y[i, j] -= y
        Y[j, i] -= y
    for b in buses:
        Y[pos[b.index], pos[b.index]] += complex(b.g_shunt, 0.0)

    # scheduled injections
    p_sched = np.zeros(n)
    q_sched = np.zeros(n)
    for b in buses:
        p_sched[pos[b.index]] -= b.pd
        q_sched[pos[b.index]] -= b.qd
    if extra_q:
        for ql in extra_q.values():
            q_sched[pos[ql.bus]] -= ql.d_q
    vset = np.ones(n)
    for bus_id, gens in gen_by_bus.items():
        i = pos[bus_id]
        vset[i] = gens[0].vg
        if buses[i].bus_type != "slack":
            p_sched[i] += sum(g.pg for g in gens)

    types = [b.bus_type if b.index in active else "dead" for b in buses]
    pv = [i for i, t in enumerate(types) if t == "PV"]
    pq = [i for i, t in enumerate(types) if t == "PQ"]
    sl = [i for i, t in enumerate(types) if t == "slack"]
    ang_idx = pv + pq     # unknown angles
    mag_idx = pq          # unknown magnitudes

    vm = np.ones(n)
    va = np.zeros(n)
    for i in pv + sl:
        vm[i] = vset[i]

    def injections(vm, va):
        V = vm * np.exp(1j * va)
        S = V * np.conj(Y @ V)
        return S.real, S.imag

    it = 0
    max_mis = math.inf
    for it in range(1, max_iter + 1):
        p_inj, q_inj = injections(vm, va)
        dP = p_sched - p_inj
        dQ = q_sched - q_inj
        mism = np.concatenate([dP[ang_idx], dQ[mag_idx]])
        max_mis = float(np.max(np.abs(mism))) if len(mism) else 0.0
        if max_mis <= tol:
            break
        J = _jacobian(Y, vm, va, ang_idx, mag_idx)
        try:
            dx = np.linalg.solve(J, mism)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"singular Jacobian at iteration {it}",
                                 report={"iterations": it, "max_mismatch": max_mis}) from exc
        va[ang_idx] += dx[:len(ang_idx)]
        vm[mag_idx] += dx[len(ang_idx):]
    else:
        raise PowerFlowError(
            f"power flow did not converge in {max_iter} iterations "
            f"(worst mismatch {max_mis:.3e} p.u.)",
            report={"iterations": max_iter, "max_mismatch": max_mis})

    p_inj, q_inj = injections(vm, va)
    V = vm * np.exp(1j * va)

    p_from, q_from, p_to, q_to = {}, {}, {}, {}
    for br in case.ac_branches:
        z = br.status
        if topology is not None and br.index in topology:
            z = topology[br.index]
        if not z:
            p_from[br.index] = q_from[br.index] = 0.0
            p_to[br.index] = q_to[br.index] = 0.0
            continue
        y = _branch_admittance(br)
        i, j = pos[br.f_bus], pos[br.t_bus]
        s_f = V[i] * np.conj(y * (V[i] - V[j]))
        s_t = V[j] * np.conj(y * (V[j] - V[i]))
        p_from[br.index], q_from[br.index] = float(s_f.real), float(s_f.imag)
        p_to[br.index], q_to[br.index] = float(s_t.real), float(s_t.imag)

    # distribute bus-level generation to units (slack P and PV/slack Q)
    gen_p, gen_q = {}, {}
    for bus_id, gens in gen_by_bus.items():
        i = pos[bus_id]
        b = buses[i]
        p_bus = p_inj[i] + b.pd
        q_bus = q_inj[i] + b.qd
        if extra_q:
            q_bus += sum(ql.d_q for ql in extra_q.values() if ql.bus == bus_id)
        wsum = sum(max(g.pmax, 1e-9) for g in gens)
        for g in gens:
            w = max(g.pmax, 1e-9) / wsum
            gen_p[g.index] = p_bus * w if b.bus_type == "slack" else g.pg
            gen_q[g.index] = q_bus * w
    return AcSolution(vm={b.index: float(vm[pos[b.index]]) for b in buses},
                      va={b.index: float(va[pos[b.index]]) for b in buses},
                      p_from=p_from, q_from=q_from, p_to=p_to, q_to=q_to,
                      gen_p=gen_p, gen_q=gen_q,
                      iterations=it, max_mismatch=max_mis)


def _jacobian(Y, vm, va, ang_idx, mag_idx):
    """Polar power-flow Jacobian restricted to the unknown blocks."""
    n = len(vm)
    V = vm * np.exp(1j * va)
    Ibus = Y @ V
    diagV = np.diag(V)
    diagI = np.diag(Ibus)
    diagVnorm = np.diag(np.exp(1j * va))
    dS_dVa = 1j * diagV @ np.conj(diagI - Y @ diagV)
    dS_dVm = diagV @ np.conj(Y @ diagVnorm) + np.conj(diagI) @ diagVnorm
    J11 = dS_dVa.real[np.ix_(ang_idx, ang_idx)]
    J12 = dS_dVm.real[np.ix_(ang_idx, mag_idx)]
    J21 = dS_dVa.imag[np.ix_(mag_idx, ang_idx)]
    J22 = dS_dVm.imag[np.ix_(mag_idx, mag_idx)]
    return np.block([[J11, J12], [J21, J22]])


def sequential_gic_ac(case: CaseData, field: FieldVector | None = None, *,
                      overrides: Mapping[int, float] | None = None,
                      topology: Mapping[int, int] | None = None,
                      tol: float = 1e-8, max_iter: int = 30):
    """Sequential quasi-dc then ac analysis for one time point.

    Solves the dc network, converts effective GICs to reactive losses and
    runs the power flow twice: first with flat (1.0 p.u.) voltages in the
    loss formula, then with the converged voltages, capturing the
    first-order voltage dependence deterministically.

    Returns (GicSolution with effective currents, final QLossMap,
    AcSolution).
    """
    sys = assemble(case, field, overrides=overrides, topology=topology)
    sol = solve_dc(sys)
    sol = sol.with_effective(effective_gic(case, sol))

    q1 = qloss(case, sol, 1.0)
    ac1 = ac_power_flow(case, q1, tol=tol, max_iter=max_iter, topology=topology)
    q2 = qloss(case, sol, ac1.vm)
    ac2 = ac_power_flow(case, q2, tol=tol, max_iter=max_iter, topology=topology)
    return sol, q2, ac2
