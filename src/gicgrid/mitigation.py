"""Time-extended dc-approximation transmission switching against GIC heating.

One binary per switchable in-service ac branch, shared across all periods.
Per period the model carries dc power flow (dispatch, angles, line flows),
relaxed effective GICs and the transformer top-oil temperature recursion.
The quasi-dc GIC circuit (node voltages, branch currents) is held once per
superposition basis of the dc engine, and a period's currents are its
basis weights times the basis currents: exact for integer switching, a
relaxation for fractional switching.  The temperature recursion and GIC
caps couple the periods to the shared switching decision.

Nonlinearities are linearized so every node relaxation is a plain LP:

* switched Ohm's law (ac and dc) via big-M pairs; the dc voltage big-M of
  a basis is the per-component sum of its induced-EMF magnitudes, a bound
  valid for every switching state by superposition and the
  resistive-network maximum principle;
* quadratic generator costs and quadratic loading-to-temperature terms by
  chord (secant) piecewise-linear over-approximation, exact at the knots,
  which keeps the model conservative for the temperature caps;
* effective-GIC absolute values by the +/- inequality pair, so the model
  Ieff upper-bounds the physical magnitude.

Reported plans carry both the exact quadratic dispatch cost recomputed
from the dispatch and the linearized model objective used for bounding.

The model is one period's circuit repeated over the periods (the dc
circuit over the bases), and it is built that way: each constraint class
is one block whose entity matrices (incidences, Ohm's laws, winding
weights W, with one period's coefficients) are expanded in time, or over
the bases, by Kronecker products, rows by entity, then period or basis,
then the +/- pair or group pattern.  The effective-GIC rows are
``kron(W, coeffs)``: winding weights times the basis weights per period.
Entity matrices, time factors and blocks are plain (row, column, value)
arrays; ``A_eq`` and ``A_ub`` are each one CSR matrix of their blocks.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .data import (ABSENT, AcBranch, CaseData, CaseReferenceError, FieldScenario, Periods,
                   dispatch_cost, topology_status)
from .coupling import AcArrays, energized
from . import thermal
from .dcnet import DcSystem, source_basis
from .lp import LpBasis, LpProblem, LpResult, dual_bound, lp_solve
from .thermal import TopOil, XfmrArrays, hotspot_temp, steady_rise

__all__ = [
    "OtsOptions",
    "OtsModel",
    "MitigationPlan",
    "MitigationInfeasible",
    "VerifyReport",
    "build_model",
    "solve",
    "enumerate_solve",
    "verify_plan",
]


_PWL_SEGMENTS = 8             # chords per quadratic term
_INTEGRALITY_TOL = 1e-6
_NODE_LIMIT = 200_000


@dataclass(frozen=True)
class OtsOptions:
    dt: float                       # period length [min]
    gap: float = 1e-4               # relative optimality gap
    time_limit: float | None = None  # seconds; None = no limit


class MitigationInfeasible(RuntimeError):
    """Model admits no feasible plan; .context holds probe diagnostics."""

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.context = context or {}


@dataclass
class OtsModel:
    case: CaseData
    scenario: FieldScenario
    options: OtsOptions
    periods: Periods                # the model's periods, held at their midpoints
    buses: list                     # model buses (connected, energized part)
    gens: list
    branches: list[AcBranch]        # in-service ac branches
    switchable: list[int]           # ac branch ids with binaries, sorted
    dc: DcSystem                    # the dc solve set: nodes, edges and source basis
    coeffs: np.ndarray              # T x B: basis weights per period (v and i are per basis)
    transformers: XfmrArrays        # the transformer rows the model holds (``_scope``)
    i_bound: np.ndarray             # per row: effective-GIC cap (data or derived) [A]
    i_derived: np.ndarray           # per row: derived cap, bounds Ieff for every switching state
    loading_row: np.ndarray         # per traced row: its ac branch's row in ``branches``
    loading_chords: np.ndarray      # traced rows x chords x (slope, intercept): steady rise
    eff_weights: sp.csr_matrix      # transformers x dc edges: winding currents -> signed Ieff
    lp: LpProblem
    z_col: dict[int, int]
    open_cols: dict[int, np.ndarray]          # branch id -> its p_e columns, 0 while open
    slices: dict[str, tuple[int, int, int]]   # name -> (offset, count, T)
    classes: dict[str, tuple[int, int]]       # ub-row ranges per constraint class
    primary_var_count: int
    ub_period: np.ndarray           # per A_ub row: its period, -1 for a row over the dc bases
    eq_period: np.ndarray           # per A_eq row: likewise

    def values(self, name: str, x: np.ndarray) -> np.ndarray:
        """One variable's part of ``x``: a row per entity, a column per period
        (per basis for the dc voltages ``v`` and currents ``i``)."""
        off, count, horizon = self.slices[name]
        return x[off:off + count * horizon].reshape(count, horizon)

    @property
    def n_periods(self) -> int:
        return self.periods.count


@dataclass
class MitigationPlan:
    z: dict[int, int]
    times: list[float]
    dt: float
    gen_p: dict[int, list[float]]
    flows: dict[int, list[float]]              # ac branch -> p_e per period
    theta: dict[int, list[float]]              # bus -> angle per period
    i_eff: dict[int, list[float]]              # branch_gmd row pos -> model Ieff
    delta_to: dict[int, list[float]]           # row pos -> top-oil rise
    hotspot: dict[int, list[float]]            # row pos -> absolute hot-spot
    xfmr_branches: dict[int, int]              # row pos -> ac branch id (-1 synth)
    objective: float                           # exact quadratic dispatch cost
    model_objective: float                     # linearized (PWL) objective
    gap: float
    nodes: int
    wall_time_s: float = 0.0
    status: str = "optimal"


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

def _chords(fn, lo: float, hi: float, segments: int):
    """(slope, intercept) pairs of the secants of fn over [lo, hi]."""
    if hi <= lo:
        hi = lo + 1e-9
    xs = np.linspace(lo, hi, segments + 1)
    ys = [fn(x) for x in xs]
    out = []
    for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
        slope = (y1 - y0) / (x1 - x0)
        out.append((slope, y0 - slope * x0))
    return out


def build_model(case: CaseData, scenario: FieldScenario, options: OtsOptions) -> OtsModel:
    """Assemble the time-extended switching model as an LP template.

    Binaries appear as [0,1]-bounded columns; branch-and-bound only ever
    tightens their bounds, so the constraint matrix is built once.
    """
    return _build_model(case, scenario, options)


def _build_model(case: CaseData, scenario: FieldScenario, opt: OtsOptions) -> OtsModel:
    periods = Periods.over(scenario, opt.dt)
    T = periods.count
    if T < 1:
        raise ValueError("scenario must span at least one period")

    # connected, energized ac subnetwork; bus_row is a bus's row among the model's
    ac = case.compiled(AcArrays)
    active, in_model, held = _scope(case)
    bus_row = np.cumsum(active) - 1
    switchable = sorted(ac.branch_ids[ac.status & ac.switchable].tolist())
    buses = [b for b, on in zip(case.buses, active) if on]
    branches = [b for b, on in zip(case.ac_branches, in_model) if on]
    gens = sorted((g for g in case.generators if active[ac.pos[g.bus]]), key=lambda g: g.index)

    # dc side: the dc engine's nominal solve set and its superposition basis;
    # one switched circuit per basis (B = 2 + overrides), since for a fixed
    # topology the currents of period t are coeffs[t] @ the basis currents
    dc, coeffs = source_basis(case, scenario, periods.mid)
    fd, td, a, comp, sources = dc.f, dc.t, dc.a, dc.comp, dc.sources
    Nd, Ed = len(dc.node_ids), len(dc.branch_ids)

    def gap_m(emf):
        """Node voltage and edge voltage-gap bounds from edge EMF magnitudes:
        a component's EMF sum bounds its voltages for every switching state
        (superposition + maximum principle)."""
        node = np.zeros((Nd,) + emf.shape[1:])
        np.add.at(node, comp[fd], emf)  # edge by edge, as a sum over components
        node = node[comp]
        return node, np.maximum(node[fd] + node[td] + emf, 1e-6)

    with np.errstate(over="ignore", invalid="ignore"):
        vsrcs = (coeffs @ sources.T).T            # edges x periods [V]
        _, period_gap_m = gap_m(np.max(np.abs(vsrcs), axis=1))
        bad = np.flatnonzero(~np.isfinite(a * period_gap_m))  # NaN/inf voltages propagate here
    if bad.size:
        raise ValueError(f"gmd_branch {dc.branch_ids[bad[0]]}: induced voltage "
                         "not finite or too large for a finite big-M")
    node_m, edge_gap_m = gap_m(np.abs(sources))
    i_m = a[:, None] * edge_gap_m                 # dc current big-M per edge and basis

    # transformers in the model (``_scope``); W (rows x dc edges) weighs their
    # solved winding currents into the signed effective GIC, as the dc engine does
    rows = case.compiled(XfmrArrays)[held]
    W = dc.W[np.flatnonzero(held)]
    W_rows = np.repeat(np.arange(W.shape[0]), np.diff(W.indptr))
    # derived effective-GIC cap: the sum over windings of |weight| * current big-M
    derived = np.maximum(np.bincount(W_rows, np.abs(W.data) * a[W.indices]
                                     * period_gap_m[W.indices], W.shape[0]), 1.0)
    i_bound = np.where(np.isinf(rows.gic_bound), derived, rows.gic_bound)
    topoil = TopOil.of(rows, opt.dt)
    traced = np.flatnonzero(rows.traced)  # a synthetic row holds no heat: du <= 0
    chords = _loading_chords(rows[traced])
    loading_sizes = np.where(rows.traced, _PWL_SEGMENTS, 0)  # chords per row

    G, N, E = len(gens), len(buses), len(branches)
    X = len(rows.pos)
    B = coeffs.shape[1]
    S = len(switchable)

    slices: dict[str, tuple[int, int, int]] = {}
    offset = 0

    def register(name: str, count: int, horizon: int) -> None:
        nonlocal offset
        slices[name] = (offset, count, horizon)
        offset += count * horizon

    register("p_g", G, T)
    register("theta", N, T)
    register("p_e", E, T)
    register("v", Nd, B)
    register("i", Ed, B)
    register("ieff", X, T)
    register("delta", X, T)
    register("z", S, 1)
    primary = offset
    register("cost", G, T)      # aux: epigraph of quadratic dispatch cost
    register("du", X, T)        # aux: PWL steady-state top-oil rise
    nvars = offset

    z_col = {bid: slices["z"][0] + k for k, bid in enumerate(switchable)}

    lb = np.full(nvars, -np.inf)
    ub = np.full(nvars, np.inf)

    # variable bounds: one (lower, upper) per entity, held over its horizon,
    # or one per entity and basis
    theta_bound = max(1.0, N * max((b.angle_big_m for b in branches), default=math.pi))
    slack = ac.bus_type[active] == "slack"  # angle 0
    theta_lo, theta_hi = np.where(slack, 0.0, -theta_bound), np.where(slack, 0.0, theta_bound)
    v_m = np.maximum(node_m, 1e-6)
    d_m = np.fmax(rows.to_rated, topoil.delta0) + 1e-6
    cost = [_cost_range(g) for g in gens]
    for name, lo, hi in (("p_g", [g.pmin for g in gens], [g.pmax for g in gens]),
                         ("theta", theta_lo, theta_hi),
                         ("p_e", [-br.rating for br in branches], [br.rating for br in branches]),
                         ("v", -v_m, v_m),
                         ("i", -i_m, i_m),
                         ("ieff", [0.0] * X, i_bound),
                         ("delta", [0.0] * X, d_m),
                         ("du", [0.0] * X, d_m),
                         ("z", [0.0] * S, [1.0] * S),
                         ("cost", [c[0] - 1.0 for c in cost], [c[1] + 1.0 for c in cost])):
        off, count, horizon = slices[name]
        for bound, vals in ((lb, lo), (ub, hi)):
            vals = np.asarray(vals, dtype=float)
            bound[off:off + count * horizon] = (vals.ravel() if vals.ndim == 2
                                                else np.repeat(vals, horizon))

    # Constraints, one block of (row, column, value) entries per class.  An
    # entity matrix maps the class's row entities onto one variable's entities
    # and holds the coefficients; _expand carries it over the periods (a
    # shared binary has one column for all of them; the dc circuit rows run
    # over the bases, and coeffs maps the basis currents to each period's)
    # and over the class's +/- pair or group pattern, so rows run by entity,
    # then period or basis, then pattern.  Entity matrices and time factors
    # are _Entries; A_eq and A_ub are each one CSR matrix of their blocks.
    gen_chords = [_chords(g.cost, g.pmin, g.pmax, _PWL_SEGMENTS if g.cost2 > 0 else 1)
                  for g in gens]
    steps = np.arange(1, T)
    each, basis = _diag(np.ones(T)), _diag(np.ones(B))
    lag = _mat((T, T), steps, steps - 1, np.ones(T - 1))
    first, later = _mat((T, T), [0], [0], [1.0]), _mat((T, T), steps, steps, np.ones(T - 1))
    shared = _mat((T, 1), np.arange(T), np.zeros(T), np.ones(T))
    pair, both = (1.0, -1.0), (1.0, 1.0)

    def held(rhs, width=1):
        """A right-hand side per row entity (or per entity and period or basis),
        held over the pattern."""
        rhs = np.asarray(rhs, dtype=float)
        rhs = np.broadcast_to(rhs[:, None], (len(rhs), T)) if rhs.ndim == 1 else rhs
        return np.broadcast_to(rhs[:, :, None], rhs.shape + (width,))

    def block(rhs, *terms, at=None, bases=False):
        """One class from its right-hand side (row entity x period x pattern
        row; x basis with ``bases``) and (variable, expanded entity matrix)
        terms: its rows, columns and values, its right-hand side, and each
        row's period (-1 over the bases).  ``at`` gives the row each
        expanded row moves to."""
        parts = [(r, cidx + slices[name][0], data) for name, (r, cidx, data) in terms]
        r, cidx, data = map(np.concatenate, zip(*parts))
        period = np.full(np.shape(rhs), -1) if bases else np.broadcast_to(
            np.arange(T)[:, None], np.shape(rhs))
        rhs, period = np.ravel(rhs), np.ravel(period)
        if at is not None:
            moved = np.empty_like(at)  # the inverse permutation of at
            moved[at] = np.arange(at.size)
            r, rhs, period = at[r], rhs[moved], period[moved]
        return r, cidx, data, rhs, period

    def on_z(rows, n, owners, coef):
        """Entity matrix of ``n`` rows onto the binaries: row rows[k] holds
        coef[k] at owners[k]'s z."""
        return _mat((n, S), rows, np.searchsorted(switchable, owners), coef)

    def epigraph(y, x, sizes, chords, x_pos):
        """y >= slope * x + intercept for every chord, rows by entity, period,
        chord: ``sizes[k]`` rows of ``chords`` (slope, intercept) per entity k in
        turn, on the ``x`` entity ``x_pos`` of each entity with chords; an entity
        without chords gets y <= 0."""
        sizes = np.asarray(sizes, dtype=int)
        owner = np.repeat(np.arange(len(sizes)), np.maximum(sizes, 1))
        real = sizes[owner] > 0
        slope, intercept = np.zeros((2, len(owner)))
        slope[real], intercept[real] = np.reshape(chords, (-1, 2)).T
        k = np.arange(len(owner))
        return block(held(np.where(real, -intercept, 0.0)),
                     (y, _expand(_mat((len(k), len(sizes)), k, owner,
                                      np.where(real, -1.0, 1.0)), each)),
                     (x, _expand(_mat((len(k), slices[x][1]), k[real],
                                      np.repeat(x_pos, sizes[sizes > 0]), slope[real]), each)),
                     at=_group_rows(np.maximum(sizes, 1), T))

    # ac side: branch-bus incidence (+1 at f, -1 at t) and Ohm's law p = b (theta_f - theta_t)
    fb, tb = bus_row[ac.f[in_model]], bus_row[ac.t[in_model]]
    b = np.array([br.b for br in branches])
    branch_bus = _ends((E, N), fb, tb, np.ones(E), -np.ones(E))
    gen_bus = _mat((N, G), bus_row[[ac.pos[g.bus] for g in gens]], np.arange(G), -np.ones(G))
    br_ids = np.array([br.index for br in branches], dtype=int)
    is_sw = np.isin(br_ids, switchable)
    sw, fixed = np.flatnonzero(is_sw), np.flatnonzero(~is_sw)
    big_m = np.array([br.angle_big_m for br in branches])
    angle_max = np.array([br.angle_max for br in branches])
    rating = np.array([br.rating for br in branches])
    m_ohm = np.abs(b) * big_m + 1e-9

    def ohm_theta(sel):
        """Ohm's law entity rows of the branches ``sel`` onto the angles."""
        return _ends((len(sel), N), fb[sel], tb[sel], -b[sel], b[sel])

    # dc side, per basis: node-edge incidence (-1 at f, +1 at t) and
    # i = a (v_f - v_t + vsrc); a switched edge's big-M holds one per basis
    is_dsw = np.isin(dc.parent, switchable)
    dsw, dfixed = np.flatnonzero(is_dsw), np.flatnonzero(~is_dsw)
    av, i_sw = a[:, None] * sources, i_m[dsw]
    dc_on_z = _mat((i_sw.size, S), np.arange(i_sw.size),
                   np.repeat(np.searchsorted(switchable, dc.parent[dsw]), B), i_sw.ravel())

    incidence = _ends((Ed, Nd), fd, td, -np.ones(Ed), np.ones(Ed)).T

    def ohm_v(sel):
        """Ohm's law entity rows of the dc edges ``sel`` onto the node voltages."""
        return _ends((len(sel), Nd), fd[sel], td[sel], -a[sel], a[sel])

    # transformers: top-oil start (steady: delta_0 = du_0, else du_-1 := delta0)
    capped = np.flatnonzero(np.isin(rows.branch, switchable))
    by_id = np.argsort(br_ids)  # each traced row's branch among the model's
    loading_row = by_id[np.searchsorted(br_ids, rows.branch[traced], sorter=by_id)]
    zeta, delta0 = topoil.zeta, topoil.delta0
    steady = np.isnan(delta0)
    start = np.zeros((X, T))
    start[~steady, 0] = (delta0 + (zeta - 1.0) * delta0)[~steady]
    minus_x = _pick(np.arange(X), X, -1.0)

    A_eq, b_eq, _, eq_period = _stack([
        # power balance: sum(out) - sum(in) - sum(gen) = -(pd + g_shunt)
        block(held([-(bus.pd + bus.g_shunt) for bus in buses]),
              ("p_e", _expand(branch_bus.T, each)), ("p_g", _expand(gen_bus, each))),
        # ac Ohm's law of the fixed branches
        block(held(np.zeros(len(fixed))),
              ("p_e", _expand(_pick(fixed, E), each)), ("theta", _expand(ohm_theta(fixed), each))),
        # dc KCL: sum(in) - sum(out) = a_i * V_i
        block(np.zeros((Nd, B)), ("i", _expand(incidence, basis)),
              ("v", _expand(_diag(-dc.ground), basis)), bases=True),
        # dc Ohm's law of the fixed edges
        block(av[dfixed], ("i", _expand(_pick(dfixed, Ed), basis)),
              ("v", _expand(ohm_v(dfixed), basis)), bases=True),
        # top-oil recursion, bidiagonal in time:
        # (1+zeta) delta_t + (1-zeta) delta_{t-1} - du_t - du_{t-1} = 0
        block(held(start), ("delta", _expand(_diag(np.where(steady, 1.0, 1.0 + zeta)), first)),
              ("delta", _expand(_diag(1.0 + zeta), later)),
              ("delta", _expand(_diag(1.0 - zeta), lag)),
              ("du", _expand(minus_x, each)), ("du", _expand(minus_x, lag))),
    ], nvars)

    n_sw = np.arange(len(sw))
    ineq = {
        # switched ac Ohm's law, ratings and angle limits by big-M pairs
        "ac_ohm": block(held(m_ohm[sw], 2), ("p_e", _expand(_pick(sw, E), each, pair)),
                        ("theta", _expand(ohm_theta(sw), each, pair)),
                        ("z", _expand(on_z(n_sw, len(sw), br_ids[sw], m_ohm[sw]), shared, both))),
        "rating": block(held(np.zeros(len(sw)), 2), ("p_e", _expand(_pick(sw, E), each, pair)),
                        ("z", _expand(on_z(n_sw, len(sw), br_ids[sw], -rating[sw]),
                                      shared, both))),
        "angle": block(held(np.where(is_sw, big_m, angle_max), 2),
                       ("theta", _expand(branch_bus, each, pair)),
                       ("z", _expand(on_z(sw, E, br_ids[sw], (big_m - angle_max)[sw]),
                                     shared, both))),
        # switched dc Ohm's law: the big-M pair, then i = 0 when open
        "dc_ohm": block(np.stack([av[dsw] + i_sw, -av[dsw] + i_sw,
                                  np.zeros_like(av[dsw]), np.zeros_like(av[dsw])], axis=-1),
                        ("i", _expand(_pick(dsw, Ed), basis, (1.0, -1.0, 1.0, -1.0))),
                        ("v", _expand(ohm_v(dsw), basis, (1.0, -1.0, 0.0, 0.0))),
                        ("z", _expand(dc_on_z, _diag([1.0]), (1.0, 1.0, -1.0, -1.0))), bases=True),
        # effective GIC relaxation: +/- W i(t) <= ieff with i(t) = coeffs[t] @ i_B
        "eff_gic": block(held(np.zeros(X), 2),
                         ("i", _expand(_mat(W.shape, W_rows, W.indices, W.data),
                                       _nonzeros(coeffs), pair)),
                         ("ieff", _expand(minus_x, each, both))),
        # support: switching forces Ieff to zero
        "gic_cap": block(held(np.zeros(len(capped))), ("ieff", _expand(_pick(capped, X), each)),
                         ("z", _expand(on_z(np.arange(len(capped)), len(capped),
                                            rows.branch[capped], -i_bound[capped]), shared))),
        # PWL steady top-oil rise over the loading; synthetic rows: du <= 0
        "pwl_loading": epigraph("du", "p_e", loading_sizes, chords, loading_row),
        "hotspot_cap": block(held((rows.limit - rows.temp_amb)[traced]),
                             ("delta", _expand(_pick(traced, X), each)),
                             ("ieff", _expand(_mat((len(traced), X), np.arange(len(traced)),
                                                   traced, rows.hs_coeff[traced]), each))),
        # cost epigraph
        "pwl_cost": epigraph("cost", "p_g", [len(c) for c in gen_chords],
                             list(itertools.chain(*gen_chords)), np.arange(G)),
    }
    A_ub, b_ub, stops, ub_period = _stack(list(ineq.values()), nvars)
    classes = {name: (int(lo), int(hi)) for name, lo, hi in zip(ineq, stops, stops[1:])}

    # lazy rows, which rarely bind, enter the LP once a solution violates
    # them: one group per switched line and period (the rating pair; with
    # its binary fixed, the column bounds of _fixed hold it), one per line
    # and period (the angle pair), one per transformer and period (its
    # loading chords)
    group_rows = {"rating": np.full(len(sw) * T, 2), "angle": np.full(E * T, 2),
                  "pwl_loading": np.repeat(np.maximum(loading_sizes, 1), T)}
    lazy, groups = np.full(len(b_ub), -1), 0
    for name, sizes in group_rows.items():
        start, end = classes[name]
        lazy[start:end] = groups + np.repeat(np.arange(sizes.size), sizes)
        groups += sizes.size

    # the rating rows hold an open line's flows at 0
    flow_cols = slices["p_e"][0] + np.arange(E * T).reshape(E, T)
    open_cols = {bid: flow_cols[br_ids == bid].ravel() for bid in switchable}

    c = np.zeros(nvars)
    off, count, horizon = slices["cost"]
    c[off:off + count * horizon] = 1.0
    lp = LpProblem(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, lb=lb, ub=ub, lazy=lazy)

    return OtsModel(case=case, scenario=scenario, options=opt, periods=periods,
                    buses=buses, gens=gens, branches=branches, switchable=switchable,
                    dc=dc, coeffs=coeffs, transformers=rows, i_bound=i_bound, i_derived=derived,
                    loading_row=loading_row, loading_chords=chords, eff_weights=W, lp=lp,
                    z_col=z_col, open_cols=open_cols, slices=slices, classes=classes,
                    primary_var_count=primary, ub_period=ub_period, eq_period=eq_period)


class _Entries(NamedTuple):
    """A sparse matrix as its entries: parallel row, column and value arrays,
    zeros included."""
    shape: tuple[int, int]
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray

    @property
    def T(self) -> _Entries:
        return _Entries(self.shape[::-1], self.col, self.row, self.val)


def _mat(shape, rows, cols, vals) -> _Entries:
    """The matrix holding every listed entry, zeros included."""
    return _Entries(shape, np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
                    np.asarray(vals, dtype=float))


def _diag(vals) -> _Entries:
    return _mat((len(vals),) * 2, np.arange(len(vals)), np.arange(len(vals)), vals)


def _pick(cols, n: int, coef: float = 1.0) -> _Entries:
    """Rows of the n x n identity (times ``coef``) at ``cols``."""
    return _mat((len(cols), n), np.arange(len(cols)), cols, np.full(len(cols), coef))


def _nonzeros(M: np.ndarray) -> _Entries:
    """The nonzero entries of a dense matrix."""
    rows, cols = np.nonzero(M)
    return _mat(M.shape, rows, cols, M[rows, cols])


def _ends(shape, f, t, at_f, at_t) -> _Entries:
    """One row per branch: ``at_f`` in its column ``f``, ``at_t`` in its column ``t``."""
    rows = np.arange(len(f))
    return _mat(shape, np.r_[rows, rows], np.r_[f, t], np.r_[at_f, at_t])


def _expand(M: _Entries, time: _Entries, pattern=(1.0,)) -> tuple[np.ndarray, ...]:
    """Rows, columns and values of kron(kron(M, time), pattern): rows (row
    entity, period, pattern row), columns (entity, period).  Zeros held in M
    or time stay, zeros of the pattern drop."""
    pattern = np.asarray(pattern, dtype=float)
    k = np.flatnonzero(pattern)
    rows = (M.row[:, None] * time.shape[0] + time.row).reshape(-1, 1) * pattern.size + k
    cols = (M.col[:, None] * time.shape[1] + time.col).reshape(-1, 1)
    data = (M.val[:, None] * time.val).reshape(-1, 1) * pattern[k]
    return rows.ravel(), np.broadcast_to(cols, rows.shape).ravel(), data.ravel()


def _group_rows(sizes: np.ndarray, T: int) -> np.ndarray:
    """Where each row of groups of ``sizes`` rows, expanded as (row, period),
    goes in the order (group, period, row)."""
    first = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(len(sizes)), sizes)
    within = np.arange(len(owner)) - first[owner]
    return ((first * T)[owner, None] + np.arange(T) * sizes[owner, None]
            + within[:, None]).ravel()


def _stack(blocks, ncols: int) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray, np.ndarray]:
    """The blocks (rows, columns, values, right-hand side, row periods) one
    under another: one CSR matrix, its right-hand side, the first row of
    each block and the row count, and each row's period."""
    stops = np.cumsum([0] + [rhs.size for *_, rhs, _ in blocks])
    rows = np.concatenate([r + start for (r, *_), start in zip(blocks, stops)])
    cols, vals, rhs, period = (np.concatenate(part) for part in list(zip(*blocks))[1:])
    return sp.csr_matrix((vals, (rows, cols)), shape=(stops[-1], ncols)), rhs, stops, period


def _cost_range(g) -> tuple[float, float]:
    vals = [g.cost(p) for p in (g.pmin, g.pmax)]
    if g.cost2 > 0:
        vertex = -g.cost1 / (2.0 * g.cost2)
        if g.pmin <= vertex <= g.pmax:
            vals.append(g.cost(vertex))
    return min(vals), max(vals)


def _loading_chords(rows: XfmrArrays) -> np.ndarray:
    """Secants (slope, intercept) of each row's steady top-oil rise over its
    branch's flow on [-rating, rating], rows x chords x 2: ``_chords`` of
    every row at once."""
    xs = np.linspace(-rows.rating, rows.rating, _PWL_SEGMENTS + 1, axis=1)
    ys = steady_rise(np.abs(xs), rows.rating[:, None], rows.to_rated[:, None])
    slope = (ys[:, 1:] - ys[:, :-1]) / (xs[:, 1:] - xs[:, :-1])
    return np.stack([slope, ys[:, :-1] - slope * xs[:, :-1]], axis=-1)


def _scope(case: CaseData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks of what the switching model holds: the energized ac buses, its ac
    branches (in service at nominal, with an energized end), and its
    transformer rows (``XfmrArrays``): a synthetic row, or one whose ac branch
    is one of its branches.  A held row's effective GIC weighs its windings in
    the nominal dc solve set, as the dc engine does.

    Raises IslandError as ``energized`` does.
    """
    ac = case.compiled(AcArrays)
    live, active = energized(case)
    in_model = live & active[ac.f]
    branch = case.compiled(XfmrArrays).branch
    return active, in_model, (branch == ABSENT) | np.isin(branch, ac.branch_ids[in_model])


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def _most_fractional(model: OtsModel, x: np.ndarray):
    """Branch variable choice: z farthest from integral, ties -> lowest id."""
    best, best_frac = None, _INTEGRALITY_TOL
    for bid in model.switchable:  # sorted: deterministic tie-break
        v = x[model.z_col[bid]]
        frac = min(v - math.floor(v), math.ceil(v) - v)
        if frac > best_frac + 1e-12:
            best, best_frac = bid, frac
    return best


def solve(model: OtsModel) -> MitigationPlan:
    """Branch-and-bound over the shared switching binaries, configured by
    ``model.options`` (its gap and time limit), seeded by a coarse plan.

    Coarse seed: the same model is built on a coarse sub-grid of the
    periods (``_coarse_dt``) and branched-and-bounded first.  The fine LP
    with z fixed to its plan then starts from the basis of the coarse
    incumbent's LP carried over the fine periods (``_fine_start``), and its
    optimum is the first incumbent (Danna, Rothberg & Le Pape, 2005).  Its
    duals bound the LP over the whole root box by weak duality
    (``lp.dual_bound``), and that bound is the root node's parent bound:
    when it is within the gap of the incumbent, the search ends there, with
    ``nodes`` 1, gap 0 and status ``"optimal"``.  Otherwise the root LP and
    the branch-and-bound run on the same instance, as without the seed, so
    the result stays exact.  With no coarse grid or no coarse plan the
    search runs unseeded; with a seeded LP that is infeasible, it runs from
    the root without an incumbent.  The coarse stage counts toward
    ``time_limit``; ``nodes`` counts the fine LPs.

    The search (``_search``): depth-first plunge until the first
    incumbent, then best-bound node selection; branching on the most
    fractional binary with lowest-id tie-breaks, plunging first to the
    child nearer its LP value (closed at 0.5).  Serial and deterministic.
    Returns a plan optimal within the relative gap for the linearized
    model, or, when a node or time limit stops the search, the incumbent
    with status ``"timeout"`` and the gap to the best open bound.  Raises
    MitigationInfeasible with probe context when the model has no plan, and
    without probes, naming the limit, when a limit stops the search before
    it finds one.

    Ties: an incumbent is replaced only by a plan better by more than the
    gap, so of tied plans the first found is returned: the seeded plan,
    else the first leaf of the plunge.  The coarse search follows the same
    rule, and twin branches take equal LP values, so the lower id is
    branched first and opens: on ``epri21`` branch 7 opens, not its
    twin 8.
    """
    t0 = time.perf_counter()
    seed = _coarse_plan(model, t0)
    found = (_search(model, t0, dataclasses.replace(model.lp)) if seed is None
             else _seeded_search(model, t0, *seed))
    if found is None:
        raise MitigationInfeasible("no feasible switching plan", _infeasibility_probes(model))
    incumbent, gap, nodes, status = found
    return _extract_plan(model, incumbent.x, incumbent.objective, gap, nodes,
                         time.perf_counter() - t0, status)


def _coarse_dt(model: OtsModel) -> float | None:
    """Period length of the coarse seed model: k * dt for the largest
    divisor k > 1 of T at which every transformer's top-oil step stays
    monotone (``TopOil.steps``); None when there is none."""
    T, dt = model.n_periods, model.periods.dt
    for k in range(T, 1, -1):
        if T % k == 0 and np.all(TopOil.steps(model.transformers, k * dt)):
            return k * dt
    return None


def _coarse_plan(model: OtsModel, t0: float) -> tuple[dict[int, int], LpBasis] | None:
    """z of the plan the search finds on ``model`` rebuilt at ``_coarse_dt``,
    and the basis of its LP carried over to ``model`` (``_fine_start``); None
    without a coarse grid or a plan."""
    dt = _coarse_dt(model)
    if dt is None:
        return None
    coarse = _build_model(model.case, model.scenario, dataclasses.replace(model.options, dt=dt))
    try:
        found = _search(coarse, t0, dataclasses.replace(coarse.lp))
    except MitigationInfeasible:  # a limit stopped it before a plan
        return None
    if found is None:
        return None
    incumbent = found[0]
    return _z_of(coarse, incumbent.x), _fine_start(model, coarse, incumbent.basis())


def _fine_start(model: OtsModel, coarse: OtsModel, basis: LpBasis) -> LpBasis:
    """``basis``, a basis of ``coarse`` (the model at k times the period),
    carried over ``model``'s periods.  A fine column or row of period t
    reads its coarse twin at period t // k; rows are twinned by
    ``_row_twins``.  The columns and rows over the dc bases or shared
    across periods (``v``, ``i``, ``z``; ``dc_ohm``, KCL) map one to one,
    and a lazy row is held when its twin is."""
    k = model.n_periods // coarse.n_periods
    cols = np.empty(model.lp.n, dtype=np.int64)
    for name, (off, count, horizon) in model.slices.items():
        c_off, _, c_horizon = coarse.slices[name]
        j = np.arange(count * horizon)
        shared = name in ("v", "i", "z")  # over the dc bases, or one for all periods
        cols[off + j] = c_off + (j if shared else j // horizon * c_horizon + j % horizon // k)
    ub = _row_twins(model.ub_period, coarse.ub_period, k)
    eq = _row_twins(model.eq_period, coarse.eq_period, k)
    return LpBasis(cols=basis.cols[cols], ub=basis.ub[ub], eq=basis.eq[eq], held=basis.held[ub])


def _row_twins(fine_p: np.ndarray, coarse_p: np.ndarray, k: int) -> np.ndarray:
    """The coarse twin of each fine row, from each row's period in either
    model (-1 over the dc bases): the twin of the fine row of rank r among
    the rows of period t is the coarse row of rank r among those of period
    t // k (-1 to -1).  Rows run class by class and each class holds as
    many rows in every period of either model, so the rank also names the
    class: the twin has the row's class."""
    order = np.argsort(coarse_p, kind="stable")
    return order[np.searchsorted(coarse_p[order], fine_p // k) + _rank_in_period(fine_p)]


def _rank_in_period(period: np.ndarray) -> np.ndarray:
    """Each row's rank, in row order, among the rows of its period."""
    order = np.argsort(period, kind="stable")
    rank = np.empty(len(period), dtype=np.int64)
    rank[order] = np.arange(len(period)) - np.searchsorted(period[order], period[order])
    return rank


def _fixed(model: OtsModel, z: dict[int, float],
           bounds: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Copies of ``bounds`` (lb, ub; the model's by default) with the binary
    of each branch id in ``z`` fixed to its value, and the flows ``p_e`` of
    each branch fixed open held at 0 in every period.

    The ``rating`` rows imply those zeros, so no LP optimum changes.  Once a
    line's binary is fixed, the column bounds alone hold its lazy ``rating``
    pair (``|p_e| <= rating`` when closed), so the pair never enters an LP
    that fixes it, such as the seeded LP, which fixes every binary."""
    lb, ub = (b.copy() for b in (bounds or (model.lp.lb, model.lp.ub)))
    cols = [model.z_col[bid] for bid in z]
    lb[cols] = ub[cols] = list(z.values())
    cols = [model.open_cols[bid] for bid, value in z.items() if value == 0]
    if cols:
        cols = np.concatenate(cols)
        lb[cols] = ub[cols] = 0.0
    return lb, ub


def _seeded_search(model: OtsModel, t0: float, z: dict[int, int], start: LpBasis | None
                   ) -> tuple[LpResult, float, int, str] | None:
    """The search of ``solve`` seeded by the plan ``z`` (``_search``): the
    fine LP with z fixed, from the basis ``start`` (None: cold), is the
    first node; when it is optimal, it is the incumbent and its duals' bound
    over the root box is the root's parent bound, which closes the search
    when it is within the gap."""
    lp = dataclasses.replace(model.lp, start=start)
    zlb, zub = _fixed(model, z)
    seeded = lp_solve(lp, lb=zlb, ub=zub)
    if seeded.status != "optimal":
        return _search(model, t0, lp, explored=1)
    bound = dual_bound(model.lp, seeded.dual_ub, seeded.dual_eq)
    return _search(model, t0, lp, seeded, explored=1, bound=bound)


def _search(model: OtsModel, t0: float, lp: LpProblem, incumbent: LpResult | None = None,
            explored: int = 0, bound: float = -math.inf
            ) -> tuple[LpResult, float, int, str] | None:
    """The branch-and-bound on ``lp``, one warm-started instance per search.
    The root enters with the parent bound ``bound``; ``incumbent`` is the
    LP result of a plan already found and ``explored`` counts the LPs
    already solved.  Returns (the incumbent's LP result, the relative gap,
    the LPs solved, the status), or None when the search finds no plan."""
    opt = model.options
    incumbent_obj = math.inf if incumbent is None else incumbent.objective
    nodes_explored, seq = explored, 0
    # open nodes (bound of parent, seq, lb, ub): a stack until the first
    # incumbent, then a heap by best bound; the parent bound screens a node
    # before it is solved
    nodes = [(bound, seq, *_fixed(model, {}))]

    def gap_abs() -> float:
        return opt.gap * max(1.0, abs(incumbent_obj))

    def set_incumbent(res) -> None:
        nonlocal incumbent, incumbent_obj
        if incumbent is None:
            heapq.heapify(nodes)
        incumbent, incumbent_obj = res, res.objective

    while nodes:
        node = nodes.pop() if incumbent is None else heapq.heappop(nodes)
        parent_bound, _, nlb, nub = node
        if incumbent is not None and parent_bound >= incumbent_obj - gap_abs():
            continue
        timed_out = opt.time_limit is not None and time.perf_counter() - t0 > opt.time_limit
        if timed_out or nodes_explored >= _NODE_LIMIT:
            if incumbent is None:
                limit = "time limit" if timed_out else "node limit"
                raise MitigationInfeasible(f"the {limit} stopped the search before it "
                                           "found a switching plan")
            nodes.append(node)  # still open: its bound counts
            break

        res = lp_solve(lp, lb=nlb, ub=nub)
        nodes_explored += 1
        if res.status != "optimal":
            continue
        if incumbent is not None and res.objective >= incumbent_obj - gap_abs():
            continue

        branch_id = _most_fractional(model, res.x)
        if branch_id is None:
            if res.objective < incumbent_obj - 1e-12:
                set_incumbent(res)
            continue

        children = []
        for value in (0.0, 1.0):
            seq += 1
            children.append((res.objective, seq, *_fixed(model, {branch_id: value}, (nlb, nub))))
        if res.x[model.z_col[branch_id]] < 0.5:
            children.reverse()  # a stack pops the plunge child, nearer the LP value, first
        for child in children:
            if incumbent is None:
                nodes.append(child)
            else:
                heapq.heappush(nodes, child)

    if incumbent is None:
        return None
    bound = min([node[0] for node in nodes] + [incumbent_obj])
    rel_gap = max(0.0, (incumbent_obj - bound) / max(1e-12, abs(incumbent_obj)))
    return incumbent, rel_gap, nodes_explored, "timeout" if nodes else "optimal"


def enumerate_solve(model: OtsModel, cap: int = 16) -> MitigationPlan:
    """Exact optimum of the linearized model by exhausting all binaries.

    Test oracle for the branch-and-bound path; refuses more than ``cap``
    binaries.
    """
    k = len(model.switchable)
    if k > cap:
        raise ValueError(f"{k} binaries exceed enumeration cap {cap}")
    t0 = time.perf_counter()
    lp = dataclasses.replace(model.lp)
    best = None
    best_obj = math.inf
    solved = 0
    for assignment in itertools.product((0.0, 1.0), repeat=k):
        lb, ub = _fixed(model, dict(zip(model.switchable, assignment)))
        res = lp_solve(lp, lb=lb, ub=ub)
        solved += 1
        if res.status == "optimal" and res.objective < best_obj - 1e-12:
            best, best_obj = res, res.objective
    wall = time.perf_counter() - t0
    if best is None:
        context = _infeasibility_probes(model)
        raise MitigationInfeasible("all switching assignments infeasible", context)
    return _extract_plan(model, best.x, best_obj, 0.0, solved, wall, "optimal")


def _infeasibility_probes(model: OtsModel) -> dict:
    """Name the first infeasible constraint class under all-closed/all-open."""
    out = {}
    for label, zfix in (("all_closed", 1.0), ("all_open", 0.0)):
        lb, ub = _fixed(model, dict.fromkeys(model.switchable, zfix))
        out[label] = _first_violated_class(model, lb, ub)
    return out


def _first_violated_class(model: OtsModel, lb, ub) -> str:
    """Relax the GIC classes in turn by dropping their rows; name the first
    relaxation that makes the model feasible.  Without gic_cap, Ieff is held
    only by its derived cap, which bounds it for every switching state."""
    lp = model.lp
    keep = np.ones(lp.A_ub.shape[0], dtype=bool)
    ub = ub.copy()
    for cls in ("feasible", "hotspot_cap", "gic_cap"):
        start, stop = model.classes.get(cls, (0, 0))
        keep[start:stop] = False
        if cls == "gic_cap":
            off, count, horizon = model.slices["ieff"]
            ub[off:off + count * horizon] = np.repeat(model.i_derived, horizon)
        probe = LpProblem(c=lp.c, A_ub=lp.A_ub[keep], b_ub=lp.b_ub[keep],
                          A_eq=lp.A_eq, b_eq=lp.b_eq, lb=lp.lb, ub=lp.ub, lazy=lp.lazy[keep])
        if lp_solve(probe, lb=lb, ub=ub).status == "optimal":
            return cls
    return "power_flow"


def _z_of(model: OtsModel, x: np.ndarray) -> dict[int, int]:
    """The switching plan of an integral LP solution."""
    return {bid: int(round(x[model.z_col[bid]])) for bid in model.switchable}


def _extract_plan(model: OtsModel, x: np.ndarray, model_obj: float,
                  gap: float, nodes: int, wall: float, status: str) -> MitigationPlan:
    T = model.n_periods
    z = _z_of(model, x)
    gen_p = dict(zip((g.index for g in model.gens), model.values("p_g", x).tolist()))
    flows = dict(zip((br.index for br in model.branches), model.values("p_e", x).tolist()))
    theta = dict(zip((b.index for b in model.buses), model.values("theta", x).tolist()))

    # the LP leaves I_eff / du anywhere between the physical value and the
    # caps when nothing binds; report the tight feasible point instead,
    # recomputed from the solved dc currents and the chord envelope (a
    # synthetic row holds no heat: 0)
    rows = model.transformers
    traced = rows.traced
    tight_eff = np.abs(model.eff_weights @ model.values("i", x) @ model.coeffs.T)
    slope, intercept = model.loading_chords.transpose(2, 0, 1)[..., None]
    p = model.values("p_e", x)[model.loading_row]
    rise = np.max(slope * p[:, None, :] + intercept, axis=1)
    delta, hotspot = np.zeros((2, len(rows.pos), T))
    # the initial state sees the first period's steady rise
    delta[traced] = TopOil.of(rows[traced], model.periods.dt).stack(
        np.concatenate([rise[:, :1], rise], axis=1))[:, 1:]
    hotspot[traced] = hotspot_temp(rows[traced], delta[traced].T, tight_eff[traced].T).T
    pos = rows.pos.tolist()
    i_eff, delta_to, hotspot, xfmr_branches = (
        dict(zip(pos, v.tolist())) for v in (tight_eff, delta, hotspot, rows.branch))

    costs = np.reshape([(g.cost0, g.cost1, g.cost2) for g in model.gens], (-1, 3)).T
    true_obj = dispatch_cost(*costs, model.values("p_g", x))

    return MitigationPlan(z=z, times=model.periods.mid.tolist(), dt=model.periods.dt,
                          gen_p=gen_p, flows=flows, theta=theta, i_eff=i_eff,
                          delta_to=delta_to, hotspot=hotspot,
                          xfmr_branches=xfmr_branches,
                          objective=float(true_obj), model_objective=float(model_obj),
                          gap=float(gap), nodes=nodes, wall_time_s=float(wall),
                          status=status)


# ---------------------------------------------------------------------------
# independent plan verification
# ---------------------------------------------------------------------------

_PERIOD_SERIES = ("gen_p", "flows", "theta", "i_eff", "delta_to", "hotspot")


def _check_plan(plan: MitigationPlan, periods: Periods) -> None:
    """Raise ValueError unless every plan number is finite, the scalars are
    single numbers, the switch states 0 or 1, the transformer branches
    integer ids, and the plan's periods are ``periods``, at their midpoints."""
    series = {f"{name}[{key}]": v for name in _PERIOD_SERIES
              for key, v in getattr(plan, name).items()}
    scalars = {"dt": plan.dt, "objective": plan.objective,
               "model_objective": plan.model_objective, "gap": plan.gap}
    for name, value in {"times": plan.times, "z": list(plan.z.values()), **scalars,
                        **series}.items():
        try:
            value = np.asarray(value, dtype=float)
            finite = bool(np.all(np.isfinite(value)))
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise ValueError(f"plan {name}: expected finite numbers")
        if value.ndim != (0 if name in scalars else 1):
            shape = "a number" if name in scalars else "a flat list of numbers"
            raise ValueError(f"plan {name}: expected {shape}")
    if not all(zv in (0, 1) for zv in plan.z.values()):
        raise ValueError("plan z: expected 0 (open) or 1 (closed) per branch")
    if not all(isinstance(b, int) for b in plan.xfmr_branches.values()):
        raise ValueError("plan xfmr_branches: expected integer branch ids")
    T = periods.count
    if np.shape(plan.times) != (T,) or not np.allclose(plan.times, periods.mid, 0.0, 1e-9):
        raise ValueError(f"plan periods are not the {T} period midpoints of the "
                         f"scenario grid at dt={periods.dt}")
    for name, value in series.items():
        if np.shape(value) != (T,):
            raise ValueError(f"plan {name}: {np.size(value)} values for {T} periods")


@dataclass
class VerifyReport:
    """Worst violation per constraint class from an independent re-simulation."""

    violations: dict[str, float]
    details: list[str] = field(default_factory=list)

    def max_violation(self) -> float:
        """Largest violation; NaN when any class is NaN."""
        values = list(self.violations.values())
        return float(np.max(values)) if values else 0.0

    def ok(self, tol: float = 1e-6) -> bool:
        return self.max_violation() <= tol


def verify_plan(case: CaseData, scenario: FieldScenario, plan: MitigationPlan,
                dt: float) -> VerifyReport:
    """Re-simulate a plan with the physics modules and check its claims.

    The periods are those of step ``dt`` [min] over the scenario
    (``Periods.over``), and the plan's must be them; a series the plan
    omits reads as zero.  The ac checks are whole-array checks of the
    plan's (entity x period) series over every branch, generator and
    energized bus.  The dc and thermal checks are one ``thermal.simulate``
    of the plan's topology, loaded by its flows, at ``Periods.samples``
    (sample 0, the initial state, carries period 0's flows).  They cover every
    transformer row of that solve (GIC bound, Ieff soundness, switch-off),
    every traced transformer (hot-spot cap) and every traced transformer the
    model holds (``_scope``; heat soundness: the plan's top-oil and hot-spot
    series must not fall below the re-simulated ones).

    Reports the worst excess per class (at least 0) and, for each class
    with a positive one, a details line naming its worst entity and period.
    A ``z`` naming a branch that is not a switchable in-service ac branch
    of the case, or an ``xfmr_branches`` entry that is not the ac branch of
    its branch_gmd row, raises CaseReferenceError.
    """
    periods = Periods.over(scenario, dt)
    T = periods.count
    _check_plan(plan, periods)
    ac = case.compiled(AcArrays)
    allowed = set(ac.branch_ids[ac.status & ac.switchable].tolist())
    stray = [bid for bid in plan.z if bid not in allowed]
    if stray:
        raise CaseReferenceError(f"plan z: branch {stray[0]} is not a switchable in-service "
                                 "ac branch of the case")
    xfmrs = case.compiled(XfmrArrays)
    branch_of = dict(zip(xfmrs.pos.tolist(), xfmrs.branch.tolist()))
    wrong = [pos for pos, b in plan.xfmr_branches.items() if branch_of.get(pos) != b]
    if wrong:
        raise CaseReferenceError(f"plan xfmr_branches: branch_gmd row {wrong[0]} is no transformer "
                                 f"of ac branch {plan.xfmr_branches[wrong[0]]} in the case")

    v: dict[str, float] = {}
    details: list[str] = []

    def check(cls, excess, label=None, ids=()):
        """Class ``cls`` reads the worst of ``excess`` (entity x period), at least 0
        (NaN when any is); a positive worst is named as ``label`` ids[entity]."""
        v[cls] = float(np.max(excess, initial=0.0))
        if label is not None and not v[cls] <= 0.0:
            e, t = np.unravel_index(np.argmax(excess), np.shape(excess))
            details.append(f"{cls}: {label} {ids[e]}: excess {v[cls]:.3e} in period {t}")

    topo = {bid: int(zv) for bid, zv in plan.z.items()}
    live = topology_status(ac.branch_ids, ac.status, topo)
    active, _, held = _scope(case)
    flows = _table(plan.flows, ac.branch_ids, T)
    theta = _table(plan.theta, ac.bus_ids, T)
    gen_p = _table(plan.gen_p, ac.gen_ids, T)

    # ac side
    p, ids = flows[live], ac.branch_ids[live]
    dtheta = (theta[ac.f] - theta[ac.t])[live]
    check("ohm", np.abs(p - ac.b[live, None] * dtheta), "branch", ids)
    check("angle", np.abs(dtheta) - ac.angle_max[live, None], "branch", ids)
    check("rating", np.abs(p) - ac.rating[live, None], "branch", ids)
    check("gen_bounds", np.maximum(ac.gen_pmin[:, None] - gen_p, gen_p - ac.gen_pmax[:, None]),
          "generator", ac.gen_ids)
    # injections branch by branch (out at f, in at t), then generator by generator
    inj = np.zeros_like(theta)
    np.add.at(inj, np.stack([ac.f[live], ac.t[live]], axis=1).ravel(),
              np.stack([-p, p], axis=1).reshape(-1, T))
    np.add.at(inj, ac.gen_row, gen_p)
    check("power_balance", np.abs(inj - ac.p_load[:, None] - ac.g_shunt[:, None])[active],
          "bus", np.asarray(ac.bus_ids)[active])

    # dc and thermal side: one re-simulation; floating components are
    # expected when probing opened topologies, so the pinning note is muted
    loading = dict(zip(ac.branch_ids.tolist(), flows[:, np.r_[0, np.arange(T)]]))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="pinning ungrounded")
        trace = thermal.simulate(case, scenario, times=periods.samples, loading=loading,
                                 topology=topo)
    eff = trace.series.effective[:, 1:]
    check("eff_soundness", eff - _table(plan.i_eff, xfmrs.pos, T), "branch_gmd row", xfmrs.pos)
    check("gic_cap", eff - xfmrs.gic_bound[:, None], "branch_gmd row", xfmrs.pos)
    opened = xfmrs.traced & ~np.isin(xfmrs.branch, ids)
    check("switch_off", np.concatenate([np.abs(flows[~live]), eff[opened]]).reshape(-1, T),
          "branch", np.concatenate([ac.branch_ids[~live], xfmrs.branch[opened]]))
    check("hotspot", trace.hotspot[:, 1:] - trace.limit[:, None], "branch", trace.branch)
    # the plan claims the heat of each traced transformer the model holds
    held = held[xfmrs.traced]
    heated = trace.pos[held]
    check("heat_soundness",
          np.maximum(trace.delta_to[held, 1:] - _table(plan.delta_to, heated, T),
                     trace.hotspot[held, 1:] - _table(plan.hotspot, heated, T)),
          "branch_gmd row", heated)

    # the dispatch cost, summed as the plan's objective is
    cost = dispatch_cost(*ac.gen_cost, gen_p)
    check("objective", abs(cost - plan.objective) / max(1.0, abs(plan.objective)))
    return VerifyReport(violations=v, details=details)


def _table(series: dict, ids, T: int) -> np.ndarray:
    """The plan's per-period ``series`` of each id in ``ids`` as rows; an id it
    omits reads as zero."""
    zero = [0.0] * T
    return np.array([series.get(i, zero) for i in np.asarray(ids).tolist()],
                    dtype=float).reshape(-1, T)
