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
is one sparse block whose entity matrices (incidences, Ohm's laws,
winding weights W, with one period's coefficients) are expanded in time,
or over the bases, by Kronecker products, rows by entity, then period or
basis, then the +/- pair or group pattern.  The effective-GIC rows are
``kron(W, coeffs)``: winding weights times the basis weights per period.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import time
import warnings
from dataclasses import dataclass, field

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
    i_derived: float                # derived cap: bounds Ieff for every switching state
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
    coeffs: np.ndarray              # T x B: basis weights per period (v and i are per basis)
    xfmrs: list[_XfmrEntry]
    eff_weights: sp.csr_matrix      # xfmrs x dc edges: winding currents -> signed Ieff
    lp: LpProblem
    z_col: dict[int, int]
    slices: dict[str, tuple[int, int, int]]   # name -> (offset, count, T)
    classes: dict[str, tuple[int, int]]       # ub-row ranges per constraint class
    primary_var_count: int

    def values(self, name: str, x: np.ndarray) -> np.ndarray:
        """One variable's part of ``x``: a row per entity, a column per period
        (per basis for the dc voltages ``v`` and currents ``i``)."""
        off, count, horizon = self.slices[name]
        return x[off:off + count * horizon].reshape(count, horizon)

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

    # dc side: the dc engine's nominal solve set and its superposition basis;
    # one switched circuit per basis (B = 2 + overrides), since for a fixed
    # topology the currents of period t are coeffs[t] @ the basis currents
    dc_sys, sources, coeffs = source_basis(case, scenario, times)
    dc_nodes = [case.gmd_bus(i) for i in dc_sys.node_ids]
    fd = np.array([e.f for e in dc_sys.edges], dtype=int)
    td = np.array([e.t for e in dc_sys.edges], dtype=int)
    a = np.array([e.a for e in dc_sys.edges])
    comp = np.zeros(len(dc_nodes), dtype=int)
    for k, members in enumerate(component_groups(range(len(dc_nodes)), zip(fd, td))):
        comp[members] = k
    comp_edges = _mat((len(dc_nodes), len(fd)), comp[fd], np.arange(len(fd)), np.ones(len(fd)))

    def gap_m(emf):
        """Node voltage and edge voltage-gap bounds from edge EMF magnitudes:
        a component's EMF sum bounds its voltages for every switching state
        (superposition + maximum principle)."""
        node = (comp_edges @ emf)[comp]
        return node, np.maximum(node[fd] + node[td] + emf, 1e-6)

    with np.errstate(over="ignore", invalid="ignore"):
        vsrcs = (coeffs @ sources.T).T            # edges x periods [V]
        _, period_gap_m = gap_m(np.max(np.abs(vsrcs), axis=1))
        bad = np.flatnonzero(~np.isfinite(a * period_gap_m))  # NaN/inf voltages propagate here
    if bad.size:
        raise ValueError(f"gmd_branch {dc_sys.edges[bad[0]].index}: induced voltage "
                         "not finite or too large for a finite big-M")
    node_m, edge_gap_m = gap_m(np.abs(sources))
    i_m = a[:, None] * edge_gap_m                 # dc current big-M per edge and basis
    dc_edges = []
    for d, vsrc in zip(dc_sys.edges, vsrcs):
        zlink = d.parent if d.parent != ABSENT and case.ac_branch(d.parent).switchable else None
        dc_edges.append((case.gmd_branch(d.index), vsrc, zlink))

    # transformers in the model: xfmr rows whose windings are all present;
    # W (xfmrs x dc edges) weighs winding currents into the signed effective GIC
    edge_pos = {e.index: i for i, (e, _, _) in enumerate(dc_edges)}
    rows = [(pos, row) for pos, row in case.xfmr_rows()
            if winding_ids(row) and all(w in edge_pos for w in winding_ids(row))]
    pairs = [winding_weights(case, row) for _, row in rows]
    W = _mat((len(rows), len(dc_edges)), np.repeat(np.arange(len(rows)), [len(p) for p in pairs]),
             [edge_pos[wid] for p in pairs for wid, _ in p], [w for p in pairs for _, w in p])
    # derived effective-GIC cap: the sum over windings of |weight| * current big-M
    w_big_m = sp.csr_matrix((np.abs(W.data) * a[W.indices], W.indices, W.indptr), shape=W.shape)
    derived = np.maximum(w_big_m @ period_gap_m, 1.0)
    xfmrs: list[_XfmrEntry] = []
    for (pos, row), ibound in zip(rows, derived.tolist()):
        thermal = case.thermal_for(row.branch) if row.branch != ABSENT else None
        branch = case.ac_branch(row.branch) if row.branch != ABSENT else None
        cap = case.hotspot_limit_for(row) if thermal is not None else None
        chords = []
        if thermal is not None:
            topoil = TopOil.of(thermal, dt)
            chords = _chords(lambda p: steady_rise(abs(p), branch.rating, thermal.to_rated),
                             -branch.rating, branch.rating, _PWL_SEGMENTS)
        else:
            topoil = TopOil(zeta=2.0, delta0=0.0)
        xfmrs.append(_XfmrEntry(pos=pos, row=row, thermal=thermal, branch=branch,
                                i_bound=ibound if row.gic_bound is None else row.gic_bound,
                                i_derived=ibound,
                                cap=cap, topoil=topoil, chords=chords))

    G, N, E = len(gens), len(buses), len(branches)
    Nd, Ed, X = len(dc_nodes), len(dc_edges), len(xfmrs)
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

    bus_pos = {b.index: i for i, b in enumerate(buses)}
    br_pos = {b.index: i for i, b in enumerate(branches)}
    z_pos = {bid: k for k, bid in enumerate(switchable)}
    z_col = {bid: slices["z"][0] + k for bid, k in z_pos.items()}

    lb = np.full(nvars, -np.inf)
    ub = np.full(nvars, np.inf)

    # variable bounds: one (lower, upper) per entity, held over its horizon,
    # or one per entity and basis
    theta_bound = max(1.0, N * max((b.angle_big_m for b in branches), default=math.pi))
    slack_ids = {b.index for b in buses if b.bus_type == "slack"}
    theta_lo = [0.0 if b.index in slack_ids else -theta_bound for b in buses]  # slack: 0
    theta_hi = [0.0 if b.index in slack_ids else theta_bound for b in buses]
    v_m = np.maximum(node_m, 1e-6)
    d_m = [_delta_upper(x) for x in xfmrs]
    cost = [_cost_range(g) for g in gens]
    for name, lo, hi in (("p_g", [g.pmin for g in gens], [g.pmax for g in gens]),
                         ("theta", theta_lo, theta_hi),
                         ("p_e", [-br.rating for br in branches], [br.rating for br in branches]),
                         ("v", -v_m, v_m),
                         ("i", -i_m, i_m),
                         ("ieff", [0.0] * X, [x.i_bound for x in xfmrs]),
                         ("delta", [0.0] * X, d_m),
                         ("du", [0.0] * X, d_m),
                         ("z", [0.0] * S, [1.0] * S),
                         ("cost", [c[0] - 1.0 for c in cost], [c[1] + 1.0 for c in cost])):
        off, count, horizon = slices[name]
        for bound, vals in ((lb, lo), (ub, hi)):
            vals = np.asarray(vals, dtype=float)
            bound[off:off + count * horizon] = (vals.ravel() if vals.ndim == 2
                                                else np.repeat(vals, horizon))

    # Constraints, one sparse block per class.  An entity matrix maps the
    # class's row entities onto one variable's entities and holds the
    # coefficients; _expand carries it over the periods (a shared binary has
    # one column for all of them; the dc circuit rows run over the bases, and
    # coeffs maps the basis currents to each period's) and over the class's
    # +/- pair or group pattern, so rows run by entity, then period or basis,
    # then pattern.
    each, shared, lag = sp.identity(T), np.ones((T, 1)), sp.eye(T, k=-1)
    basis = sp.identity(B)
    pair, both = (1.0, -1.0), (1.0, 1.0)

    def held(rhs, width=1):
        """A right-hand side per row entity (or per entity and period or basis),
        held over the pattern."""
        rhs = np.asarray(rhs, dtype=float)
        rhs = np.broadcast_to(rhs[:, None], (len(rhs), T)) if rhs.ndim == 1 else rhs
        return np.broadcast_to(rhs[:, :, None], rhs.shape + (width,))

    def block(rhs, *terms, order=None):
        """One class from its right-hand side and (variable, expanded entity matrix) terms."""
        parts = [(K.row, K.col + slices[name][0], K.data) for name, K in terms]
        r, cidx, data = map(np.concatenate, zip(*parts))
        rhs = np.ravel(rhs)
        A = sp.csr_matrix((data, (r, cidx)), shape=(rhs.size, nvars))
        return (A, rhs) if order is None else (A[order], rhs[order])

    def on_z(owners, sel, coef):
        """Entity matrix onto the binaries: row k in ``sel`` holds coef[k] at owners[k]'s z."""
        return _mat((len(owners), S), sel, [z_pos[owners[k]] for k in sel],
                    np.asarray(coef, dtype=float)[sel])

    def epigraph(y, x, groups, x_pos):
        """y >= slope * x + intercept for every chord in each entity's group, rows
        by entity, period, chord; an entity without chords gets y <= 0."""
        owner = np.repeat(np.arange(len(groups)), [max(len(g), 1) for g in groups])
        slope, intercept = np.reshape([c for g in groups for c in g or [(0.0, 0.0)]], (-1, 2)).T
        real = np.array([bool(groups[k]) for k in owner], dtype=bool)
        k = np.arange(len(owner))
        return block(held(np.where(real, -intercept, 0.0)),
                     (y, _expand(_mat((len(k), len(groups)), k, owner,
                                      np.where(real, -1.0, 1.0)), each)),
                     (x, _expand(_mat((len(k), slices[x][1]), k[real],
                                      np.asarray(x_pos)[owner[real]], slope[real]), each)),
                     order=_group_order(owner, T))

    # ac side: branch-bus incidence (+1 at f, -1 at t) and Ohm's law p = b (theta_f - theta_t)
    fb = [bus_pos[br.f_bus] for br in branches]
    tb = [bus_pos[br.t_bus] for br in branches]
    b = np.array([br.b for br in branches])
    branch_bus = _ends((E, N), fb, tb, np.ones(E), -np.ones(E))
    ohm_theta = _ends((E, N), fb, tb, -b, b)
    gen_bus = _mat((N, G), [bus_pos[g.bus] for g in gens], np.arange(G), -np.ones(G))
    br_ids = [br.index for br in branches]
    is_sw = np.array([bid in z_pos for bid in br_ids], dtype=bool)
    sw, fixed = np.flatnonzero(is_sw), np.flatnonzero(~is_sw)
    big_m = np.array([br.angle_big_m for br in branches])
    angle_max = np.array([br.angle_max for br in branches])
    m_ohm = np.abs(b) * big_m + 1e-9

    # dc side, per basis: node-edge incidence (-1 at f, +1 at t) and
    # i = a (v_f - v_t + vsrc); a switched edge's big-M holds one per basis
    ohm_v = _ends((Ed, Nd), fd, td, -a, a)
    links = [zl for _, _, zl in dc_edges]
    is_dsw = np.array([zl is not None for zl in links], dtype=bool)
    dsw, dfixed = np.flatnonzero(is_dsw), np.flatnonzero(~is_dsw)
    av, i_sw = a[:, None] * sources, i_m[dsw]
    dc_on_z = _mat((i_sw.size, S), np.arange(i_sw.size),
                   np.repeat([z_pos[links[k]] for k in dsw], B), i_sw.ravel())

    # transformers: top-oil start (steady: delta_0 = du_0, else du_-1 := delta0)
    x_ids = [None if x.branch is None else x.branch.index for x in xfmrs]
    capped = np.array([k for k, bid in enumerate(x_ids) if bid in z_pos], dtype=int)
    hot = np.array([k for k, x in enumerate(xfmrs) if x.cap is not None and x.thermal is not None],
                   dtype=int)
    zeta = np.array([x.topoil.zeta for x in xfmrs])
    delta0 = np.array([np.nan if x.topoil.delta0 is None else x.topoil.delta0 for x in xfmrs])
    steady = np.isnan(delta0)
    start = np.zeros((X, T))
    start[~steady, 0] = (delta0 + (zeta - 1.0) * delta0)[~steady]
    first = _mat((T, T), [0], [0], [1.0])
    later = _mat((T, T), np.arange(1, T), np.arange(1, T), np.ones(T - 1))
    I_E, I_Ed, I_X = (sp.identity(n, format="csr") for n in (E, Ed, X))

    A_eq, b_eq = _stack([
        # power balance: sum(out) - sum(in) - sum(gen) = -(pd + g_shunt)
        block(held([-(bus.pd + bus.g_shunt) for bus in buses]),
              ("p_e", _expand(branch_bus.T, each)), ("p_g", _expand(gen_bus, each))),
        # ac Ohm's law of the fixed branches
        block(held(np.zeros(len(fixed))),
              ("p_e", _expand(I_E[fixed], each)), ("theta", _expand(ohm_theta[fixed], each))),
        # dc KCL: sum(in) - sum(out) = a_i * V_i
        block(np.zeros((Nd, B)), ("i", _expand(dc_sys.incidence, basis)),
              ("v", _expand(_diag([-nd.g_gnd for nd in dc_nodes]), basis))),
        # dc Ohm's law of the fixed edges
        block(av[dfixed],
              ("i", _expand(I_Ed[dfixed], basis)), ("v", _expand(ohm_v[dfixed], basis))),
        # top-oil recursion, bidiagonal in time:
        # (1+zeta) delta_t + (1-zeta) delta_{t-1} - du_t - du_{t-1} = 0
        block(start, ("delta", _expand(_diag(np.where(steady, 1.0, 1.0 + zeta)), first)),
              ("delta", _expand(_diag(1.0 + zeta), later)),
              ("delta", _expand(_diag(1.0 - zeta), lag)), ("du", _expand(I_X, -(each + lag)))),
    ])

    ineq = {
        # switched ac Ohm's law, ratings and angle limits by big-M pairs
        "ac_ohm": block(held(m_ohm[sw], 2), ("p_e", _expand(I_E[sw], each, pair)),
                        ("theta", _expand(ohm_theta[sw], each, pair)),
                        ("z", _expand(on_z(br_ids, sw, m_ohm)[sw], shared, both))),
        "rating": block(held(np.zeros(len(sw)), 2), ("p_e", _expand(I_E[sw], each, pair)),
                        ("z", _expand(on_z(br_ids, sw, [-br.rating for br in branches])[sw],
                                      shared, both))),
        "angle": block(held(np.where(is_sw, big_m, angle_max), 2),
                       ("theta", _expand(branch_bus, each, pair)),
                       ("z", _expand(on_z(br_ids, sw, big_m - angle_max), shared, both))),
        # switched dc Ohm's law: the big-M pair, then i = 0 when open
        "dc_ohm": block(np.stack([av[dsw] + i_sw, -av[dsw] + i_sw,
                                  np.zeros_like(av[dsw]), np.zeros_like(av[dsw])], axis=-1),
                        ("i", _expand(I_Ed[dsw], basis, (1.0, -1.0, 1.0, -1.0))),
                        ("v", _expand(ohm_v[dsw], basis, (1.0, -1.0, 0.0, 0.0))),
                        ("z", _expand(dc_on_z, sp.identity(1), (1.0, 1.0, -1.0, -1.0)))),
        # effective GIC relaxation: +/- W i(t) <= ieff with i(t) = coeffs[t] @ i_B
        "eff_gic": block(held(np.zeros(X), 2), ("i", _expand(W, coeffs, pair)),
                         ("ieff", _expand(-I_X, each, both))),
        # support: switching forces Ieff to zero
        "gic_cap": block(held(np.zeros(len(capped))), ("ieff", _expand(I_X[capped], each)),
                         ("z", _expand(on_z(x_ids, capped, [-x.i_bound for x in xfmrs])[capped],
                                       shared))),
        # PWL steady top-oil rise over the loading; unloaded synthetic rows: du <= 0
        "pwl_loading": epigraph("du", "p_e", [x.chords for x in xfmrs],
                                [br_pos[bid] if x.chords else -1 for x, bid in zip(xfmrs, x_ids)]),
        "hotspot_cap": block(held([xfmrs[k].cap - xfmrs[k].thermal.temp_amb for k in hot]),
                             ("delta", _expand(I_X[hot], each)),
                             ("ieff", _expand(_mat((len(hot), X), np.arange(len(hot)), hot,
                                                   [xfmrs[k].thermal.hs_coeff for k in hot]),
                                              each))),
        # cost epigraph
        "pwl_cost": epigraph("cost", "p_g", [_chords(g.cost, g.pmin, g.pmax, _PWL_SEGMENTS
                                                     if g.cost2 > 0 else 1) for g in gens],
                             np.arange(G)),
    }
    classes, stop = {}, 0
    for name, (A, _) in ineq.items():
        classes[name] = (stop, stop + A.shape[0])
        stop += A.shape[0]
    A_ub, b_ub = _stack(list(ineq.values()))

    c = np.zeros(nvars)
    off, count, horizon = slices["cost"]
    c[off:off + count * horizon] = 1.0
    lp = LpProblem(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, lb=lb, ub=ub)

    return OtsModel(case=case, scenario=scenario, options=opt, dt=dt, times=times,
                    buses=buses, gens=gens, branches=branches, switchable=switchable,
                    dc_nodes=dc_nodes, dc_edges=dc_edges, coeffs=coeffs, xfmrs=xfmrs,
                    eff_weights=W, lp=lp, z_col=z_col, slices=slices, classes=classes,
                    primary_var_count=primary)


def _mat(shape, rows, cols, vals) -> sp.csr_matrix:
    """Sparse matrix holding every listed entry, zeros included."""
    return sp.csr_matrix((np.asarray(vals, dtype=float),
                          (np.asarray(rows, dtype=int), np.asarray(cols, dtype=int))), shape=shape)


def _diag(vals) -> sp.csr_matrix:
    return _mat((len(vals),) * 2, np.arange(len(vals)), np.arange(len(vals)), vals)


def _ends(shape, f, t, at_f, at_t) -> sp.csr_matrix:
    """One row per branch: ``at_f`` in its column ``f``, ``at_t`` in its column ``t``."""
    rows = np.arange(len(f))
    return _mat(shape, np.r_[rows, rows], np.r_[f, t], np.r_[at_f, at_t])


def _expand(M, time, pattern=(1.0,)) -> sp.coo_matrix:
    """kron(kron(M, time), pattern): rows (row entity, period, pattern row),
    columns (entity, period).  Zeros held in M stay, zeros of the pattern drop."""
    return sp.kron(sp.kron(M, time, format="coo"), np.reshape(pattern, (-1, 1)), format="coo")


def _group_order(owner, T: int) -> np.ndarray:
    """Row order (owner, period, row) of group rows expanded as (row, period)."""
    k = np.repeat(np.arange(len(owner)), T)
    return np.lexsort((k, np.tile(np.arange(T), len(owner)), owner[k]))


def _stack(blocks):
    return (sp.vstack([A for A, _ in blocks], format="csr"),
            np.concatenate([rhs for _, rhs in blocks]))


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


def _period_topoil(topoil: TopOil, rise) -> np.ndarray:
    """Top-oil rise per period; the initial state sees the first period's steady rise."""
    return topoil.series(np.r_[rise[0], rise])[1:]

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
    lp = dataclasses.replace(model.lp)  # one warm-started instance per search

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

        res = lp_solve(lp, lb=nlb, ub=nub)
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
    lp = dataclasses.replace(model.lp)
    best = None
    best_obj = math.inf
    solved = 0
    for assignment in itertools.product((0.0, 1.0), repeat=k):
        lb = model.lp.lb.copy()
        ub = model.lp.ub.copy()
        for bid, val in zip(model.switchable, assignment):
            lb[model.z_col[bid]] = ub[model.z_col[bid]] = val
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
        lb = model.lp.lb.copy()
        ub = model.lp.ub.copy()
        for bid in model.switchable:
            lb[model.z_col[bid]] = ub[model.z_col[bid]] = zfix
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
            ub[off:off + count * horizon] = np.repeat([x.i_derived for x in model.xfmrs],
                                                      horizon)
        probe = LpProblem(c=lp.c, A_ub=lp.A_ub[keep], b_ub=lp.b_ub[keep],
                          A_eq=lp.A_eq, b_eq=lp.b_eq, lb=lp.lb, ub=lp.ub)
        if lp_solve(probe, lb=lb, ub=ub).status == "optimal":
            return cls
    return "power_flow"


def _extract_plan(model: OtsModel, x: np.ndarray, model_obj: float,
                  gap: float, nodes: int, wall: float, status: str) -> MitigationPlan:
    T = model.n_periods
    z = {bid: int(round(x[model.z_col[bid]])) for bid in model.switchable}
    gen_p = dict(zip((g.index for g in model.gens), model.values("p_g", x).tolist()))
    flows = dict(zip((br.index for br in model.branches), model.values("p_e", x).tolist()))
    theta = dict(zip((b.index for b in model.buses), model.values("theta", x).tolist()))

    # the LP leaves I_eff / du anywhere between the physical value and the
    # caps when nothing binds; report the tight feasible point instead,
    # recomputed from the solved dc currents and the chord envelope
    tight_eff = np.abs(model.eff_weights @ model.values("i", x) @ model.coeffs.T).tolist()
    i_eff, delta_to, hotspot, xfmr_branches = {}, {}, {}, {}
    for xe, tight in zip(model.xfmrs, tight_eff):
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
    for g, series in zip(model.gens, model.values("p_g", x)):
        for p in series:
            true_obj += g.cost(p)

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
