"""Time-extended dc-approximation transmission switching against GIC heating.

One binary per switchable in-service ac branch, shared across all periods.
Per period the model carries dc power flow (dispatch, angles, line flows),
the quasi-dc GIC circuit (node voltages, branch currents), relaxed
effective GICs and the transformer top-oil temperature recursion.  The
temperature recursion and GIC caps couple the periods to the shared
switching decision.

Nonlinearities are linearized so every node relaxation is a plain LP:

* switched Ohm's law (ac and dc) via big-M pairs; the dc voltage big-M is
  the per-component sum of induced-EMF magnitudes, a bound valid for
  every switching state by superposition and the resistive-network
  maximum principle;
* quadratic generator costs and quadratic loading-to-temperature terms by
  chord (secant) piecewise-linear over-approximation, exact at the knots,
  which keeps the model conservative for the temperature caps;
* effective-GIC absolute values by the +/- inequality pair, so the model
  Ieff upper-bounds the physical magnitude.

Reported plans carry both the exact quadratic dispatch cost recomputed
from the dispatch and the linearized model objective used for bounding.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .data import (ABSENT, AcBranch, BranchGmdData, CaseData, FieldScenario, ThermalData,
                   component_groups)
from .coupling import slack_reachable
from .dcnet import solve_series, source_basis, winding_ids, winding_weights
from .lp import LpProblem, lp_solve
from .thermal import TopOil, hotspot_temp, steady_rise

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
    dt: float | None = None         # period length [min]; default scenario dt
    gap: float = 1e-4               # relative optimality gap
    time_limit: float | None = None  # seconds; None = no limit


class MitigationInfeasible(RuntimeError):
    """Model admits no feasible plan; .context holds probe diagnostics."""

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.context = context or {}


@dataclass(frozen=True)
class _XfmrEntry:
    pos: int                        # branch_gmd row position
    row: BranchGmdData
    thermal: ThermalData | None
    branch: AcBranch | None         # None for synthetic GSU rows
    i_bound: float                  # effective-GIC cap (data or derived)
    cap: float | None               # hot-spot cap [degC], None when untracked
    topoil: TopOil
    chords: list                    # PWL steady top-oil rise over p_e; [] when unloaded


@dataclass
class OtsModel:
    case: CaseData
    scenario: FieldScenario
    options: OtsOptions
    dt: float
    times: np.ndarray               # period midpoints [min], length T
    buses: list                     # model buses (connected, energized part)
    gens: list
    branches: list[AcBranch]        # in-service ac branches
    switchable: list[int]           # ac branch ids with binaries, sorted
    dc_nodes: list                  # GmdBus rows in the model
    dc_edges: list                  # (GmdBranch, vsrc array [T], z_branch or None)
    xfmrs: list[_XfmrEntry]
    lp: LpProblem
    z_col: dict[int, int]
    slices: dict[str, tuple[int, int, int]]   # name -> (offset, count, T)
    classes: dict[str, tuple[int, int]]       # ub-row ranges per constraint class
    primary_var_count: int
    voltage_big_m: dict[int, float]           # dc node id -> voltage bound [V]

    def col(self, name: str, i: int, t: int = 0) -> int:
        off, count, horizon = self.slices[name]
        return off + i * horizon + t

    @property
    def n_periods(self) -> int:
        return len(self.times)


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
    wall_time_s: float
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


def build_model(case: CaseData, scenario: FieldScenario,
                options: OtsOptions | None = None) -> OtsModel:
    """Assemble the time-extended switching model as an LP template.

    Binaries appear as [0,1]-bounded columns; branch-and-bound only ever
    tightens their bounds, so the constraint matrix is built once.
    """
    opt = options or OtsOptions()
    dt = opt.dt if opt.dt is not None else scenario.dt
    grid = scenario.grid(dt)
    if len(grid) < 2:
        raise ValueError("scenario must span at least one period")
    times = np.array([(a + b) / 2.0 for a, b in zip(grid, grid[1:])])
    T = len(times)

    branches = [b for b in case.ac_branches if b.status]
    switchable = sorted(b.index for b in branches if b.switchable)

    # connected, energized ac subnetwork
    model_bus_ids = slack_reachable(case, branches)
    buses = [b for b in case.buses if b.index in model_bus_ids]
    branches = [b for b in branches if b.f_bus in model_bus_ids]
    gens = sorted((g for g in case.generators if g.bus in model_bus_ids),
                  key=lambda g: g.index)

    # dc side: the dc engine's nominal solve set, per-period sources from its basis
    dc_sys, sources, coeffs = source_basis(case, scenario, times)
    dc_nodes = [case.gmd_bus(i) for i in dc_sys.node_ids]
    node_pos = dc_sys.index
    dc_edges = []
    for d, vsrc in zip(dc_sys.edges, (coeffs @ sources.T).T):
        if not np.all(np.isfinite(vsrc)):
            raise ArithmeticError(
                f"gmd_branch {d.index}: non-finite induced voltage, no big-M derivable")
        zlink = d.parent if d.parent != ABSENT and case.ac_branch(d.parent).switchable else None
        dc_edges.append((case.gmd_branch(d.index), vsrc, zlink))

    # dc voltage bound per component: sum of EMF magnitudes is a valid bound
    # for every switching state (superposition + maximum principle)
    dcomp = {i: k for k, comp in enumerate(component_groups(
        [b.index for b in dc_nodes], [(e.f_bus, e.t_bus) for e, _, _ in dc_edges])) for i in comp}
    emf_sum: dict[int, float] = {}
    for e, vsrc, _ in dc_edges:
        root = dcomp[e.f_bus]
        emf_sum[root] = emf_sum.get(root, 0.0) + float(np.max(np.abs(vsrc)))
    voltage_big_m = {b.index: emf_sum.get(dcomp[b.index], 0.0) for b in dc_nodes}

    edge_gap_m = []
    for e, vsrc, _ in dc_edges:
        m = (voltage_big_m[e.f_bus] + voltage_big_m[e.t_bus]
             + float(np.max(np.abs(vsrc))))
        edge_gap_m.append(max(m, 1e-6))

    # transformers in the model: xfmr rows whose windings are all present
    edge_pos = {e.index: i for i, (e, _, _) in enumerate(dc_edges)}
    xfmrs: list[_XfmrEntry] = []
    for pos, row in case.xfmr_rows():
        wids = winding_ids(row)
        if not wids or any(w not in edge_pos for w in wids):
            continue
        thermal = case.thermal_for(row.branch) if row.branch != ABSENT else None
        branch = case.ac_branch(row.branch) if row.branch != ABSENT else None
        ibound = row.gic_bound
        if ibound is None:
            ibound = _derived_ieff_bound(case, row, dc_edges, edge_pos, edge_gap_m)
        cap = case.hotspot_limit_for(row) if thermal is not None else None
        chords = []
        if thermal is not None:
            topoil = TopOil.of(thermal, dt)
            chords = _chords(lambda p: steady_rise(abs(p), branch.rating, thermal.to_rated),
                             -branch.rating, branch.rating, _PWL_SEGMENTS)
        else:
            topoil = TopOil(zeta=2.0, delta0=0.0)
        xfmrs.append(_XfmrEntry(pos=pos, row=row, thermal=thermal, branch=branch,
                                i_bound=ibound, cap=cap, topoil=topoil, chords=chords))

    G, N, E = len(gens), len(buses), len(branches)
    Nd, Ed, X = len(dc_nodes), len(dc_edges), len(xfmrs)
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
    register("v", Nd, T)
    register("i", Ed, T)
    register("ieff", X, T)
    register("delta", X, T)
    register("z", S, 1)
    primary = offset
    register("cost", G, T)      # aux: epigraph of quadratic dispatch cost
    register("du", X, T)        # aux: PWL steady-state top-oil rise
    nvars = offset

    bus_pos = {b.index: i for i, b in enumerate(buses)}
    gen_pos = {g.index: i for i, g in enumerate(gens)}
    br_pos = {b.index: i for i, b in enumerate(branches)}
    z_col = {bid: slices["z"][0] + k for k, bid in enumerate(switchable)}

    lb = np.full(nvars, -np.inf)
    ub = np.full(nvars, np.inf)

    def col(name, i, t=0):
        off, _, horizon = slices[name]
        return off + i * horizon + t

    # variable bounds: one (lower, upper) per entity, held over its horizon
    theta_bound = max(1.0, N * max((b.angle_big_m for b in branches), default=math.pi))
    slack_ids = {b.index for b in buses if b.bus_type == "slack"}
    theta_lo = [0.0 if b.index in slack_ids else -theta_bound for b in buses]  # slack: 0
    theta_hi = [0.0 if b.index in slack_ids else theta_bound for b in buses]
    v_m = [max(voltage_big_m[nd.index], 1e-6) for nd in dc_nodes]
    i_m = [e.a * m for (e, _, _), m in zip(dc_edges, edge_gap_m)]
    d_m = [_delta_upper(x) for x in xfmrs]
    cost = [_cost_range(g) for g in gens]
    for name, lo, hi in (("p_g", [g.pmin for g in gens], [g.pmax for g in gens]),
                         ("theta", theta_lo, theta_hi),
                         ("p_e", [-br.rating for br in branches], [br.rating for br in branches]),
                         ("v", [-m for m in v_m], v_m),
                         ("i", [-m for m in i_m], i_m),
                         ("ieff", [0.0] * X, [x.i_bound for x in xfmrs]),
                         ("delta", [0.0] * X, d_m),
                         ("du", [0.0] * X, d_m),
                         ("z", [0.0] * S, [1.0] * S),
                         ("cost", [c[0] - 1.0 for c in cost], [c[1] + 1.0 for c in cost])):
        off, count, horizon = slices[name]
        lb[off:off + count * horizon] = np.repeat(np.array(lo, dtype=float), horizon)
        ub[off:off + count * horizon] = np.repeat(np.array(hi, dtype=float), horizon)

    eq_rows: list[tuple[dict[int, float], float]] = []
    ub_rows: list[tuple[dict[int, float], float]] = []
    classes: dict[str, tuple[int, int]] = {}

    def eq(rows: dict[int, float], rhs: float) -> None:
        eq_rows.append((rows, rhs))

    def le(rows: dict[int, float], rhs: float) -> None:
        ub_rows.append((rows, rhs))

    def mark(name: str, start: int) -> None:
        classes[name] = (start, len(ub_rows))

    # power balance: sum(out) - sum(in) - sum(gen) = -(pd + g_shunt)
    for b in buses:
        for t in range(T):
            row = {}
            for br in branches:
                if br.f_bus == b.index:
                    row[col("p_e", br_pos[br.index], t)] = 1.0
                elif br.t_bus == b.index:
                    row[col("p_e", br_pos[br.index], t)] = -1.0
            for g in gens:
                if g.bus == b.index:
                    row[col("p_g", gen_pos[g.index], t)] = -1.0
            eq(row, -(b.pd + b.g_shunt))

    # ac Ohm's law, ratings, angle limits
    start = len(ub_rows)
    for br in branches:
        fi, ti = bus_pos[br.f_bus], bus_pos[br.t_bus]
        zc = z_col.get(br.index)
        m_ohm = abs(br.b) * br.angle_big_m + 1e-9
        for t in range(T):
            pe = col("p_e", br_pos[br.index], t)
            tf, tt = col("theta", fi, t), col("theta", ti, t)
            if zc is None:
                eq({pe: 1.0, tf: -br.b, tt: br.b}, 0.0)
            else:
                le({pe: 1.0, tf: -br.b, tt: br.b, zc: m_ohm}, m_ohm)
                le({pe: -1.0, tf: br.b, tt: -br.b, zc: m_ohm}, m_ohm)
    mark("ac_ohm", start)

    start = len(ub_rows)
    for br in branches:
        zc = z_col.get(br.index)
        if zc is None:
            continue  # handled by p_e variable bounds
        for t in range(T):
            pe = col("p_e", br_pos[br.index], t)
            le({pe: 1.0, zc: -br.rating}, 0.0)
            le({pe: -1.0, zc: -br.rating}, 0.0)
    mark("rating", start)

    start = len(ub_rows)
    for br in branches:
        fi, ti = bus_pos[br.f_bus], bus_pos[br.t_bus]
        zc = z_col.get(br.index)
        for t in range(T):
            tf, tt = col("theta", fi, t), col("theta", ti, t)
            if zc is None:
                le({tf: 1.0, tt: -1.0}, br.angle_max)
                le({tf: -1.0, tt: 1.0}, br.angle_max)
            else:
                gap_m = br.angle_big_m - br.angle_max
                le({tf: 1.0, tt: -1.0, zc: gap_m}, br.angle_big_m)
                le({tf: -1.0, tt: 1.0, zc: gap_m}, br.angle_big_m)
    mark("angle", start)

    # dc KCL: sum(in) - sum(out) = a_i * V_i
    for nd in dc_nodes:
        ni = node_pos[nd.index]
        for t in range(T):
            row = {col("v", ni, t): -nd.g_gnd}
            for k, (e, _, _) in enumerate(dc_edges):
                if e.t_bus == nd.index:
                    row[col("i", k, t)] = row.get(col("i", k, t), 0.0) + 1.0
                if e.f_bus == nd.index:
                    row[col("i", k, t)] = row.get(col("i", k, t), 0.0) - 1.0
            eq(row, 0.0)

    # dc Ohm's law with switching big-M
    start = len(ub_rows)
    for k, (e, vsrc, zlink) in enumerate(dc_edges):
        fi, ti = node_pos[e.f_bus], node_pos[e.t_bus]
        a = e.a
        m_gap = a * edge_gap_m[k]
        for t in range(T):
            ic = col("i", k, t)
            vf, vt = col("v", fi, t), col("v", ti, t)
            if zlink is None:
                eq({ic: 1.0, vf: -a, vt: a}, a * vsrc[t])
            else:
                zc = z_col[zlink]
                le({ic: 1.0, vf: -a, vt: a, zc: m_gap}, a * vsrc[t] + m_gap)
                le({ic: -1.0, vf: a, vt: -a, zc: m_gap}, -a * vsrc[t] + m_gap)
                m_cur = a * edge_gap_m[k]
                le({ic: 1.0, zc: -m_cur}, 0.0)
                le({ic: -1.0, zc: -m_cur}, 0.0)
    mark("dc_ohm", start)

    # effective GIC relaxation (+/- pair per winding case)
    start = len(ub_rows)
    for xi, x in enumerate(xfmrs):
        terms = _eff_terms(case, x.row, edge_pos)
        for t in range(T):
            ic = col("ieff", xi, t)
            pos_row = {ic: -1.0}
            neg_row = {ic: -1.0}
            for k, coef in terms:
                pos_row[col("i", k, t)] = coef
                neg_row[col("i", k, t)] = -coef
            le(pos_row, 0.0)
            le(neg_row, 0.0)
    mark("eff_gic", start)

    # support: switching forces Ieff to zero
    start = len(ub_rows)
    for xi, x in enumerate(xfmrs):
        if x.branch is not None and x.branch.index in z_col:
            zc = z_col[x.branch.index]
            for t in range(T):
                le({col("ieff", xi, t): 1.0, zc: -x.i_bound}, 0.0)
    mark("gic_cap", start)

    # thermal recursion (equality) + PWL loading + hot-spot cap
    for xi, x in enumerate(xfmrs):
        zeta, delta0 = x.topoil.zeta, x.topoil.delta0
        for t in range(T):
            dv = col("delta", xi, t)
            duv = col("du", xi, t)
            if t == 0:
                if delta0 is None:
                    # steady-state init: delta[1] = du[1]
                    eq({dv: 1.0, duv: -1.0}, 0.0)
                else:
                    # du[0] := delta0 by convention
                    eq({dv: (1.0 + zeta), duv: -1.0},
                       delta0 + (zeta - 1.0) * delta0)
            else:
                eq({dv: (1.0 + zeta), duv: -1.0,
                    col("du", xi, t - 1): -1.0,
                    col("delta", xi, t - 1): (1.0 - zeta)}, 0.0)

    start = len(ub_rows)
    for xi, x in enumerate(xfmrs):
        if x.branch is None or x.thermal is None:
            for t in range(T):
                le({col("du", xi, t): 1.0}, 0.0)  # unloaded synthetic rows
            continue
        pe_idx = br_pos[x.branch.index]
        for t in range(T):
            duv = col("du", xi, t)
            pe = col("p_e", pe_idx, t)
            for slope, intercept in x.chords:
                le({duv: -1.0, pe: slope}, -intercept)
    mark("pwl_loading", start)

    start = len(ub_rows)
    for xi, x in enumerate(xfmrs):
        if x.cap is None or x.thermal is None:
            continue
        r = x.thermal.hs_coeff
        rho = x.thermal.temp_amb
        for t in range(T):
            le({col("delta", xi, t): 1.0, col("ieff", xi, t): r}, x.cap - rho)
    mark("hotspot_cap", start)

    # cost epigraph
    start = len(ub_rows)
    for g in gens:
        chords = _chords(g.cost, g.pmin, g.pmax, _PWL_SEGMENTS if g.cost2 > 0 else 1)
        for t in range(T):
            cc = col("cost", gen_pos[g.index], t)
            pg = col("p_g", gen_pos[g.index], t)
            for slope, intercept in chords:
                le({cc: -1.0, pg: slope}, -intercept)
    mark("pwl_cost", start)

    c = np.zeros(nvars)
    for g in gens:
        for t in range(T):
            c[col("cost", gen_pos[g.index], t)] = 1.0

    A_eq, b_eq = _to_csr(eq_rows, nvars)
    A_ub, b_ub = _to_csr(ub_rows, nvars)
    lp = LpProblem(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, lb=lb, ub=ub)

    return OtsModel(case=case, scenario=scenario, options=opt, dt=dt, times=times,
                    buses=buses, gens=gens, branches=branches, switchable=switchable,
                    dc_nodes=dc_nodes, dc_edges=dc_edges, xfmrs=xfmrs, lp=lp,
                    z_col=z_col, slices=slices, classes=classes,
                    primary_var_count=primary, voltage_big_m=voltage_big_m)


def _to_csr(rows, nvars):
    data, ri, ci, rhs = [], [], [], []
    for r, (row, b) in enumerate(rows):
        rhs.append(b)
        for cidx, coef in row.items():
            ri.append(r)
            ci.append(cidx)
            data.append(coef)
    mat = sp.csr_matrix((data, (ri, ci)), shape=(len(rows), nvars))
    return mat, np.asarray(rhs)


def _cost_range(g) -> tuple[float, float]:
    vals = [g.cost(p) for p in (g.pmin, g.pmax)]
    if g.cost2 > 0:
        vertex = -g.cost1 / (2.0 * g.cost2)
        if g.pmin <= vertex <= g.pmax:
            vals.append(g.cost(vertex))
    return min(vals), max(vals)


def _delta_upper(x: _XfmrEntry) -> float:
    base = x.thermal.to_rated if x.thermal is not None else 0.0
    if x.topoil.delta0 is not None:
        base = max(base, x.topoil.delta0)
    return base + 1e-6


def _eff_terms(case: CaseData, row: BranchGmdData,
               edge_pos: Mapping[int, int]) -> list[tuple[int, float]]:
    """Linear expression (edge index, coefficient) for the signed effective GIC."""
    return [(edge_pos[wid], w) for wid, w in winding_weights(case, row)]


def _period_topoil(topoil: TopOil, rise) -> np.ndarray:
    """Top-oil rise per period; the initial state sees the first period's steady rise."""
    return topoil.series(np.r_[rise[0], rise])[1:]


def _derived_ieff_bound(case, row, dc_edges, edge_pos, edge_gap_m) -> float:
    terms = _eff_terms(case, row, edge_pos)
    bound = 0.0
    for k, coef in terms:
        e = dc_edges[k][0]
        bound += abs(coef) * e.a * edge_gap_m[k]
    return max(bound, 1.0)

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


def solve(model: OtsModel, options: OtsOptions | None = None) -> MitigationPlan:
    """Branch-and-bound over the shared switching binaries.

    Depth-first plunge until the first incumbent, then best-bound node
    selection; branching on the most fractional binary with lowest-id
    tie-breaks.  Serial and deterministic.  Returns a plan optimal within
    the relative gap for the linearized model, or raises
    MitigationInfeasible with probe context.
    """
    opt = options or model.options
    t0 = time.perf_counter()

    root_lb = model.lp.lb.copy()
    root_ub = model.lp.ub.copy()

    incumbent = None
    incumbent_obj = math.inf
    nodes_explored = 0
    seq = 0
    # node: (bound_of_parent, seq, lb, ub); parent bound screens before solving
    dfs: list[tuple[float, int, np.ndarray, np.ndarray]] = [(-math.inf, seq, root_lb, root_ub)]
    best_bound_heap: list[tuple[float, int, np.ndarray, np.ndarray]] = []
    open_bounds: dict[int, float] = {seq: -math.inf}
    timed_out = False

    def gap_abs() -> float:
        return opt.gap * max(1.0, abs(incumbent_obj))

    while dfs or best_bound_heap:
        if opt.time_limit is not None and time.perf_counter() - t0 > opt.time_limit:
            timed_out = True
            break
        if nodes_explored >= _NODE_LIMIT:
            timed_out = True
            break
        if incumbent is None and dfs:
            parent_bound, node_seq, nlb, nub = dfs.pop()
        elif best_bound_heap:
            parent_bound, node_seq, nlb, nub = heapq.heappop(best_bound_heap)
        elif dfs:
            parent_bound, node_seq, nlb, nub = dfs.pop()
        else:
            break
        open_bounds.pop(node_seq, None)
        if incumbent is not None and parent_bound >= incumbent_obj - gap_abs():
            continue

        res = lp_solve(model.lp, lb=nlb, ub=nub)
        nodes_explored += 1
        if res.status != "optimal":
            continue
        if incumbent is not None and res.objective >= incumbent_obj - gap_abs():
            continue

        branch_id = _most_fractional(model, res.x)
        if branch_id is None:
            if res.objective < incumbent_obj - 1e-12:
                incumbent = res
                incumbent_obj = res.objective
                # migrate DFS backlog to the best-bound queue
                while dfs:
                    item = dfs.pop()
                    heapq.heappush(best_bound_heap, item)
            continue

        zc = model.z_col[branch_id]
        zval = res.x[zc]
        children = []
        for fixed in (0.0, 1.0):
            clb, cub = nlb.copy(), nub.copy()
            clb[zc] = cub[zc] = fixed
            seq += 1
            children.append((res.objective, seq, clb, cub))
            open_bounds[seq] = res.objective
        plunge_first = 1.0 if zval >= 0.5 else 0.0
        if incumbent is None:
            # stack: push the plunge child last so it pops first
            children.sort(key=lambda ch: ch[2][zc] == plunge_first)
            dfs.extend(children)
        else:
            for ch in children:
                heapq.heappush(best_bound_heap, ch)

    wall = time.perf_counter() - t0
    if incumbent is None:
        context = _infeasibility_probes(model)
        raise MitigationInfeasible("no feasible switching plan", context)

    remaining = [b for b in open_bounds.values()]
    bound = min(remaining, default=incumbent_obj)
    bound = min(max(bound, -math.inf), incumbent_obj)
    if not (dfs or best_bound_heap) and not timed_out:
        bound = incumbent_obj
    rel_gap = max(0.0, (incumbent_obj - bound) / max(1e-12, abs(incumbent_obj)))
    status = "timeout" if timed_out else "optimal"
    return _extract_plan(model, incumbent.x, incumbent_obj, rel_gap,
                         nodes_explored, wall, status)


def enumerate_solve(model: OtsModel, cap: int = 16) -> MitigationPlan:
    """Exact optimum of the linearized model by exhausting all binaries.

    Test oracle for the branch-and-bound path; refuses more than ``cap``
    binaries.
    """
    k = len(model.switchable)
    if k > cap:
        raise ValueError(f"{k} binaries exceed enumeration cap {cap}")
    t0 = time.perf_counter()
    best = None
    best_obj = math.inf
    solved = 0
    for assignment in itertools.product((0.0, 1.0), repeat=k):
        lb = model.lp.lb.copy()
        ub = model.lp.ub.copy()
        for bid, val in zip(model.switchable, assignment):
            lb[model.z_col[bid]] = ub[model.z_col[bid]] = val
        res = lp_solve(model.lp, lb=lb, ub=ub)
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
        lb = model.lp.lb.copy()
        ub = model.lp.ub.copy()
        for bid in model.switchable:
            lb[model.z_col[bid]] = ub[model.z_col[bid]] = zfix
        out[label] = _first_violated_class(model, lb, ub)
    return out


def _first_violated_class(model: OtsModel, lb, ub) -> str:
    if lp_solve(model.lp, lb=lb, ub=ub).status == "optimal":
        return "feasible"
    b_ub = model.lp.b_ub.copy()
    relaxed_classes = []
    for cls in ("hotspot_cap", "gic_cap"):
        start, stop = model.classes.get(cls, (0, 0))
        b_ub[start:stop] = 1e12
        relaxed_classes.append(cls)
        ub2 = ub.copy()
        if cls == "gic_cap":
            off, count, horizon = model.slices["ieff"]
            ub2[off:off + count * horizon] = 1e12
        probe = LpProblem(c=model.lp.c, A_ub=model.lp.A_ub, b_ub=b_ub,
                          A_eq=model.lp.A_eq, b_eq=model.lp.b_eq,
                          lb=model.lp.lb, ub=model.lp.ub)
        if lp_solve(probe, lb=lb, ub=ub2).status == "optimal":
            return relaxed_classes[-1]
    return "power_flow"


def _extract_plan(model: OtsModel, x: np.ndarray, model_obj: float,
                  gap: float, nodes: int, wall: float, status: str) -> MitigationPlan:
    T = model.n_periods
    z = {bid: int(round(x[model.z_col[bid]])) for bid in model.switchable}

    def series(name, i):
        return [float(x[model.col(name, i, t)]) for t in range(T)]

    gen_p = {g.index: series("p_g", k) for k, g in enumerate(model.gens)}
    flows = {br.index: series("p_e", k) for k, br in enumerate(model.branches)}
    theta = {b.index: series("theta", k) for k, b in enumerate(model.buses)}

    # the LP leaves I_eff / du anywhere between the physical value and the
    # caps when nothing binds; report the tight feasible point instead,
    # recomputed from the solved dc currents and the chord envelope
    edge_pos = {e.index: i for i, (e, _, _) in enumerate(model.dc_edges)}
    i_eff, delta_to, hotspot, xfmr_branches = {}, {}, {}, {}
    for k, xe in enumerate(model.xfmrs):
        terms = _eff_terms(model.case, xe.row, edge_pos)
        tight = []
        for t in range(T):
            expr = sum(coef * x[model.col("i", ke, t)] for ke, coef in terms)
            tight.append(abs(float(expr)))
        i_eff[xe.pos] = tight
        if xe.thermal is not None and xe.branch is not None:
            delta = _period_topoil(xe.topoil, [max(s * p + q for s, q in xe.chords)
                                               for p in flows[xe.branch.index]])
            delta_to[xe.pos] = [float(d) for d in delta]
            hotspot[xe.pos] = [hotspot_temp(xe.thermal, d, ie) for d, ie in zip(delta, tight)]
        else:
            delta_to[xe.pos] = [0.0] * T
            hotspot[xe.pos] = [0.0] * T
        xfmr_branches[xe.pos] = xe.row.branch

    true_obj = 0.0
    for k, g in enumerate(model.gens):
        for t in range(T):
            true_obj += g.cost(x[model.col("p_g", k, t)])

    return MitigationPlan(z=z, times=[float(t) for t in model.times], dt=model.dt,
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


def _check_plan(plan: MitigationPlan, times: list[float], dt: float) -> None:
    """Raise ValueError unless every plan number is finite and the plan's
    periods are ``times``, the period midpoints of the grid at ``dt``."""
    series = {f"{name}[{key}]": v for name in _PERIOD_SERIES
              for key, v in getattr(plan, name).items()}
    for name, value in {"times": plan.times, "z": list(plan.z.values()), "dt": plan.dt,
                        "objective": plan.objective, "model_objective": plan.model_objective,
                        "gap": plan.gap, **series}.items():
        try:
            finite = bool(np.all(np.isfinite(np.asarray(value, dtype=float))))
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise ValueError(f"plan {name}: expected finite numbers")
    T = len(times)
    if np.shape(plan.times) != (T,) or not np.allclose(plan.times, times, rtol=0.0, atol=1e-9):
        raise ValueError(f"plan periods are not the {T} period midpoints of the "
                         f"scenario grid at dt={dt}")
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
                options: OtsOptions | None = None) -> VerifyReport:
    """Re-simulate a plan with the physics modules and check its claims.

    Per period the dc network is re-solved for the plan's topology and the
    true effective GICs and temperatures are recomputed from the plan's
    dispatch; constraint violations (flow limits, angle limits, power
    balance, GIC caps, hot-spot caps, switch-off semantics, relaxation
    soundness of the reported effective currents) are reported as the
    worst excess per class.
    """
    opt = options or OtsOptions(dt=plan.dt)
    dt = opt.dt if opt.dt is not None else plan.dt
    grid = scenario.grid(dt)
    times = [(a + b) / 2.0 for a, b in zip(grid, grid[1:])]
    T = len(times)
    _check_plan(plan, times, dt)

    topo = {bid: int(zv) for bid, zv in plan.z.items()}
    v = {k: 0.0 for k in ("power_balance", "ohm", "rating", "angle", "gen_bounds",
                          "gic_cap", "eff_soundness", "hotspot", "switch_off",
                          "objective")}
    details: list[str] = []

    def bump(cls, amount, msg=None):
        if not amount <= v[cls] and not math.isnan(v[cls]):  # a NaN, once seen, stays
            v[cls] = amount
            if msg:
                details.append(f"{cls}: {msg}")

    live_ids = {br.index for br in case.ac_branches if br.status and topo.get(br.index, br.status)}

    # ac-side checks from the plan's own arrays
    for t in range(T):
        inj: dict[int, float] = {}
        for br in case.ac_branches:
            p_series = plan.flows.get(br.index)
            p = p_series[t] if p_series is not None else 0.0
            if br.index not in live_ids:
                bump("switch_off", abs(p),
                     f"branch {br.index} open but carries {p:.3e}")
                continue
            th_f = plan.theta.get(br.f_bus)
            th_t = plan.theta.get(br.t_bus)
            if th_f is not None and th_t is not None:
                dtheta = th_f[t] - th_t[t]
                bump("ohm", abs(p - br.b * dtheta),
                     f"branch {br.index} period {t}")
                bump("angle", abs(dtheta) - br.angle_max)
            bump("rating", abs(p) - br.rating,
                 f"branch {br.index} period {t}: |{p:.3f}| > {br.rating}")
            inj[br.f_bus] = inj.get(br.f_bus, 0.0) - p
            inj[br.t_bus] = inj.get(br.t_bus, 0.0) + p
        for g in case.generators:
            series = plan.gen_p.get(g.index)
            if series is None:
                continue
            p = series[t]
            bump("gen_bounds", max(g.pmin - p, p - g.pmax))
            inj[g.bus] = inj.get(g.bus, 0.0) + p
        for b in case.buses:
            if b.index in plan.theta:
                resid = inj.get(b.index, 0.0) - b.pd - b.g_shunt
                bump("power_balance", abs(resid),
                     f"bus {b.index} period {t}: residual {resid:.3e}")

    # dc-side and thermal checks by re-simulation; floating components are
    # expected when probing opened topologies, so the pinning note is muted
    pos_rows = dict(case.xfmr_rows())
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="pinning ungrounded")
        dc = solve_series(case, scenario, times, topology=topo)
    true_eff = {p: dc.effective.get(p, np.zeros(T)) for p in plan.i_eff}

    for p, series in plan.i_eff.items():
        row = pos_rows.get(p)
        if row is None:
            continue
        planned = np.asarray(series)
        bump("eff_soundness", float(np.max(true_eff[p] - planned)),
             f"branch_gmd row {p}: model Ieff under-covers the physical value")
        if row.gic_bound is not None:
            bump("gic_cap", float(np.max(true_eff[p] - row.gic_bound)),
                 f"branch_gmd row {p}: Ieff exceeds bound {row.gic_bound}")
        br_id = plan.xfmr_branches.get(p, row.branch)
        if br_id != ABSENT and br_id not in live_ids:
            bump("switch_off", float(np.max(true_eff[p])),
                 f"branch_gmd row {p}: open transformer still sees GIC")

    # temperatures: recursion on true effective currents and plan loading
    for p, row in pos_rows.items():
        th = case.thermal_for(row.branch) if row.branch != ABSENT else None
        if th is None or p not in true_eff:
            continue
        br = case.ac_branch(row.branch)
        flows = plan.flows.get(row.branch, [0.0] * T)
        delta = _period_topoil(TopOil.of(th, dt), [steady_rise(abs(flows[t]), br.rating,
                                                               th.to_rated) for t in range(T)])
        hs = hotspot_temp(th, delta, true_eff[p])
        cap = case.hotspot_limit_for(row)
        bump("hotspot", float(np.max(hs - cap)),
             f"branch {row.branch}: hot-spot peaks at {float(np.max(hs)):.1f} degC")

    # objective recomputation
    recomputed = 0.0
    for g in case.generators:
        series = plan.gen_p.get(g.index)
        if series is None:
            continue
        for pv in series:
            recomputed += g.cost(pv)
    denom = max(1.0, abs(plan.objective))
    bump("objective", abs(recomputed - plan.objective) / denom)

    return VerifyReport(violations=v, details=details)
