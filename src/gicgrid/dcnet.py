"""Equivalent dc network: field projection, assembly and quasi-dc solve.

The dc circuit is solved per phase at face value of the case data: every
gmd_branch contributes admittance a_e = 1/br_r, every gmd_bus its
grounding admittance a_i = g_gnd, and series induced voltages are folded
into Norton current injections so a single symmetric linear solve
G V = J yields the node voltages.  Branch currents then follow from
I_e = a_e (V_f - V_t + V_src).

For a fixed topology G does not depend on the field, and J is linear in
(E_north, E_east) and in each override voltage (the nodal admittance
method of Lehtinen & Pirjola, 1985).  ``solve_series`` therefore factors
G once per topology and superposes basis solutions over a time series;
``solve_dc`` is the same code with one right-hand side.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .data import (ABSENT, BranchGmdData, CaseData, CaseReferenceError, FieldScenario,
                   FieldVector, GmdBranch, component_groups)

__all__ = [
    "EARTH_RADIUS_KM",
    "FieldVector",
    "DcEdge",
    "DcSystem",
    "GicSolution",
    "GicSeries",
    "SingularNetworkError",
    "MissingCoordinates",
    "branch_lengths",
    "displacement",
    "induced_voltage",
    "branch_voltage",
    "assemble",
    "solve_dc",
    "solve_series",
    "source_basis",
    "effective_gic",
    "winding_weights",
    "winding_ids",
    "transformer_windings",
]

EARTH_RADIUS_KM = 6371.0


class SingularNetworkError(ArithmeticError):
    """Raised when an ungrounded dc component is solved with pinning disabled."""


def branch_lengths(case: CaseData, branch: GmdBranch) -> tuple[float, float]:
    """Northward/eastward displacement (L_N, L_E) [km] between branch endpoints.

    ``displacement`` between the coordinates of the parent buses of both
    endpoint gmd buses, which must have them.
    """
    f_parent = case.gmd_bus(branch.f_bus).parent
    t_parent = case.gmd_bus(branch.t_bus).parent
    fc = case.coords_for(f_parent)
    tc = case.coords_for(t_parent)
    if fc is None or tc is None:
        missing = f_parent if fc is None else t_parent
        raise MissingCoordinates(
            f"gmd_branch {branch.index}: bus {missing} has no bus_gmd coordinates")
    return displacement((fc.lat, fc.lon), (tc.lat, tc.lon))


def displacement(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    """Equirectangular (north, east) displacement [km] from (lat, lon) ``a`` to ``b``.

    On a 6371 km sphere: L_N = R dlat, L_E = R dlon cos(mean lat).
    """
    l_n = EARTH_RADIUS_KM * math.radians(b[0] - a[0])
    l_e = (EARTH_RADIUS_KM * math.radians(b[1] - a[1])
           * math.cos(math.radians((a[0] + b[0]) / 2.0)))
    return l_n, l_e


class MissingCoordinates(CaseReferenceError, LookupError):
    """A branch endpoint bus lacks bus_gmd coordinates (bad input: exit 2)."""


def induced_voltage(e_mag: float, e_dir_deg: float, l_n: float, l_e: float) -> float:
    """Series voltage [V] induced on a branch by a uniform field.

    The direction is a geographic bearing (clockwise from north), resolved
    by ``FieldVector.from_mag_dir``: V = E_N L_N + E_E L_E.
    """
    if e_mag < 0:
        raise ValueError("field magnitude must be >= 0")
    e_north, e_east = FieldVector.from_mag_dir(e_mag, e_dir_deg)
    return e_north * l_n + e_east * l_e


def winding_ids(row: BranchGmdData) -> tuple[int, ...]:
    """gmd_branch ids acting as transformer windings for a branch_gmd row."""
    return tuple(w for w in (row.gmd_br_hi, row.gmd_br_lo,
                             row.gmd_br_se, row.gmd_br_co) if w != ABSENT)


def branch_voltage(case: CaseData, branch: GmdBranch, field: FieldVector | None,
                   overrides: Mapping[int, float] | None = None,
                   winding_set: frozenset[int] | None = None) -> float:
    """Induced voltage for one gmd branch under the given field.

    Precedence: per-branch override, else uniform-field projection, else
    the stored br_v.  Transformer windings always get 0 under a uniform
    field (their length is negligible).  The projection uses the bearing
    from the endpoint coordinates but rescales the displacement to the
    stored len_km when present, so the case's authoritative route length
    is honored.
    """
    if overrides and branch.index in overrides:
        return overrides[branch.index]
    if field is None:
        return branch.br_v
    if winding_set is None:
        winding_set = transformer_windings(case)
    if branch.index in winding_set:
        return 0.0
    l_n, l_e = branch_lengths(case, branch)
    norm = math.hypot(l_n, l_e)
    if branch.len_km > 0 and norm > 0:
        scale = branch.len_km / norm
        l_n, l_e = l_n * scale, l_e * scale
    # components already folded into the field vector; project directly
    return field.e_north * l_n + field.e_east * l_e


def transformer_windings(case: CaseData) -> frozenset[int]:
    """gmd_branch ids of every transformer winding in the case."""
    ids: set[int] = set()
    for row in case.branch_gmd:
        if row.is_xfmr:
            ids.update(winding_ids(row))
    return frozenset(ids)


@dataclass(frozen=True)
class DcEdge:
    index: int        # gmd_branch id
    f: int            # row in the node ordering
    t: int
    a: float          # admittance [S]
    v_src: float      # series induced voltage [V]
    parent: int       # ac branch id or -1


@dataclass(frozen=True)
class DcSystem:
    """Assembled dc nodal system G V = J."""

    node_ids: tuple[int, ...]          # gmd_bus ids in matrix order
    index: Mapping[int, int]           # gmd_bus id -> row
    edges: tuple[DcEdge, ...]
    ground: np.ndarray                 # per-node grounding admittance [S]

    @property
    def incidence(self) -> sp.csr_matrix:
        """Node-by-edge incidence: -1 at each edge's f row, +1 at its t row."""
        m = len(self.edges)
        rows = [e.f for e in self.edges] + [e.t for e in self.edges]
        cols = np.r_[np.arange(m), np.arange(m)]
        return sp.csr_matrix((np.r_[-np.ones(m), np.ones(m)], (rows, cols)),
                             shape=(len(self.node_ids), m))

    def conductance(self) -> sp.csr_matrix:
        """Sparse conductance matrix G [S]: edge admittances plus grounding."""
        A = self.incidence
        return A @ sp.diags([e.a for e in self.edges]) @ A.T + sp.diags(self.ground)

    @property
    def G(self) -> np.ndarray:
        """Conductance matrix [S] as a dense array."""
        return self.conductance().toarray()

    @property
    def J(self) -> np.ndarray:
        """Norton injections [A]: a source v on edge f->t drives a*v from f into t."""
        return self.incidence @ np.array([e.a * e.v_src for e in self.edges])


def assemble(case: CaseData, field: FieldVector | None = None, *,
             overrides: Mapping[int, float] | None = None,
             topology: Mapping[int, int] | None = None) -> DcSystem:
    """Build the dc nodal system for one time point.

    ``topology`` optionally overrides the nominal status per ac branch id
    (1 in service, 0 open); gmd branches whose parent is open, whose own
    status is 0, or whose parent is a series-capacitor branch are left
    out of the solve set.  With ``field`` None and no overrides the stored
    br_v values drive the solve.
    """
    nodes = tuple(b.index for b in case.gmd_buses if b.status)
    index = {n: i for i, n in enumerate(nodes)}
    ground = np.array([b.g_gnd for b in case.gmd_buses if b.status], dtype=float)

    series_cap_branches = {row.branch for row in case.branch_gmd
                           if row.type == "series_cap"}
    winding_set = transformer_windings(case)

    edges = []
    for e in case.gmd_branches:
        if not e.status:
            continue
        if e.parent != ABSENT:
            if e.parent in series_cap_branches:
                continue
            z = case.ac_branch(e.parent).status
            if topology is not None and e.parent in topology:
                z = topology[e.parent]
            if not z:
                continue
        if e.f_bus not in index or e.t_bus not in index:
            continue
        v = branch_voltage(case, e, field, overrides, winding_set)
        edges.append(DcEdge(index=e.index, f=index[e.f_bus], t=index[e.t_bus], a=e.a, v_src=v,
                            parent=e.parent))

    return DcSystem(node_ids=nodes, index=index, edges=tuple(edges), ground=ground)


@dataclass(frozen=True)
class GicSolution:
    """Quasi-dc solution for one time point."""

    node_voltages: Mapping[int, float]      # gmd_bus id -> V [volts]
    branch_currents: Mapping[int, float]    # gmd_branch id -> I [A, f->t]
    effective: Mapping[int, float] | None = None  # branch_gmd row pos -> I_eff [A]
    kcl_residual: float = 0.0

    def with_effective(self, eff: Mapping[int, float]) -> "GicSolution":
        return replace(self, effective=dict(eff))


@dataclass(frozen=True)
class GicSeries:
    """Quasi-dc solutions over a time series, one row per time point."""

    node_ids: tuple[int, ...]             # gmd_bus ids, the columns of V
    branch_ids: tuple[int, ...]           # solved gmd_branch ids, the columns of I
    V: np.ndarray                         # (T, nodes) node voltages [V]
    I: np.ndarray                         # (T, branches) branch currents [A, f->t]
    effective: Mapping[int, np.ndarray]   # branch_gmd row pos -> (T,) I_eff [A]
    kcl_residual: np.ndarray              # (T,) [A]


def _solve(sys: DcSystem, sources: np.ndarray, coeffs: np.ndarray,
           pin_floating: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor G once and superpose k basis solutions over T time points.

    ``sources`` (edges x k) are the series edge voltages of each basis and
    ``coeffs`` (T x k) their weights per time point.  Each floating
    component is pinned at its lowest row.  Returns node voltages
    (T x nodes), branch currents (T x edges) and KCL residuals (T,).
    """
    n, T = len(sys.node_ids), coeffs.shape[0]
    if n == 0:  # no nodes, so no edges
        return np.zeros((T, 0)), np.zeros((T, 0)), np.zeros(T)
    f = np.array([e.f for e in sys.edges], dtype=int)
    t = np.array([e.t for e in sys.edges], dtype=int)
    a = np.array([e.a for e in sys.edges])
    incidence = sys.incidence
    J = incidence @ (a[:, None] * sources)  # as DcSystem.J, one column per basis
    keep = np.ones(n)
    for members in component_groups(range(n), zip(f.tolist(), t.tolist())):
        if any(sys.ground[i] > 0 for i in members):
            continue
        node_ids = sorted(sys.node_ids[i] for i in members)
        if not pin_floating:
            raise SingularNetworkError(f"dc component with no ground path: gmd buses {node_ids}")
        if len(members) > 1:  # reported at the caller of solve_dc / solve_series
            warnings.warn(f"pinning ungrounded dc component (gmd buses {node_ids}) to 0 V",
                          stacklevel=3)
        keep[members[0]] = 0.0
    # a pinned row keeps only its diagonal: V = 0 there, currents unaffected
    G = sp.diags(keep) @ sys.conductance() @ sp.diags(keep) + sp.diags(1.0 - keep)
    try:
        lu = splu(G.tocsc())
    except RuntimeError as exc:
        raise SingularNetworkError(f"dc conductance matrix is singular: {exc}") from None
    Vb = lu.solve(J * keep[:, None])
    Ib = a[:, None] * (Vb[f] - Vb[t] + sources)
    V = coeffs @ Vb.T
    I = coeffs @ Ib.T
    # KCL per time point: net inflow at every node equals its ground current
    residual = np.max(np.abs((incidence @ I.T).T - sys.ground * V), axis=1)
    scale = np.maximum(np.max(np.abs(coeffs @ J.T), axis=1), 1.0)
    bad = np.flatnonzero(~(residual <= 1e-6 * scale))
    if bad.size:
        k = bad[0]
        raise SingularNetworkError(
            f"dc solve lost accuracy: KCL residual {residual[k]:.3e} A "
            f"(injection scale {scale[k]:.3e} A); check admittance conditioning")
    return V, I, residual


def solve_dc(sys: DcSystem, *, pin_floating: bool = True) -> GicSolution:
    """Solve G V = J and recover branch currents.

    Connected components without any path to ground have no unique
    potential reference; the lowest-row node of each such component is
    pinned to 0 V (currents are unaffected).  With ``pin_floating`` False
    a SingularNetworkError names the offending component instead.
    """
    v_src = np.array([e.v_src for e in sys.edges]).reshape(-1, 1)
    V, I, residual = _solve(sys, v_src, np.ones((1, 1)), pin_floating)
    return GicSolution(
        node_voltages={nid: float(v) for nid, v in zip(sys.node_ids, V[0])},
        branch_currents={e.index: float(i) for e, i in zip(sys.edges, I[0])},
        kcl_residual=float(residual[0]))


def solve_series(case: CaseData, fields: FieldScenario | np.ndarray | None,
                 times, *, topology: Mapping[int, int] | None = None) -> GicSeries:
    """Quasi-dc solutions at every time in ``times`` for one topology.

    ``fields`` is a FieldScenario (field and overrides interpolated at
    ``times``), an array of (e_north, e_east) [V/km] rows, one per time, or
    None for the stored br_v values.  The bases are unit E_north and unit
    E_east with overridden branches held at 0 V, plus a unit voltage on
    each overridden branch; every time point is their weighted sum.
    """
    sys, sources, coeffs = source_basis(case, fields, times, topology=topology)
    V, I, residual = _solve(sys, sources, coeffs, pin_floating=True)
    ids = [e.index for e in sys.edges]
    return GicSeries(node_ids=sys.node_ids, branch_ids=tuple(ids), V=V, I=I,
                     effective=_effective(case, dict(zip(ids, I.T)), np.zeros(len(coeffs))),
                     kcl_residual=residual)


def source_basis(case: CaseData, fields: FieldScenario | np.ndarray | None, times, *,
                 topology: Mapping[int, int] | None = None
                 ) -> tuple[DcSystem, np.ndarray, np.ndarray]:
    """The superposition basis of ``solve_series``, without solving it.

    Returns the assembled system of the first basis, the series edge
    voltages of each basis (edges x k) and their weights per time point
    (T x k), so ``coeffs @ sources.T`` are the edge source voltages at
    every time.
    """
    times = np.asarray(times, dtype=float)
    over = fields.overrides_series(times) if isinstance(fields, FieldScenario) else {}
    if fields is None:
        sys = assemble(case, topology=topology)
        columns = [[e.v_src for e in sys.edges]]
        coeffs = np.ones((len(times), 1))
    else:
        if isinstance(fields, FieldScenario):
            fields = fields.series(times)
        held = {b: 0.0 for b in over}
        sys = assemble(case, FieldVector(1.0, 0.0), overrides=held, topology=topology)
        east = assemble(case, FieldVector(0.0, 1.0), overrides=held, topology=topology).edges
        columns = [[e.v_src for e in sys.edges], [e.v_src for e in east]]
        coeffs = np.column_stack([np.reshape(fields, (-1, 2))] + list(over.values()))
    ids = np.array([e.index for e in sys.edges], dtype=int)
    sources = np.column_stack([np.array(c, dtype=float) for c in columns]
                              + [(ids == b).astype(float) for b in over])
    return sys, sources, coeffs


def winding_weights(case: CaseData, row: BranchGmdData) -> tuple[tuple[int, float], ...]:
    """(gmd_branch id, weight) pairs whose weighted current sum is a row's signed effective GIC.

    gwye-delta weighs I_hi by 1; gwye-gwye I_hi by 1 and I_lo by 1/a;
    autos I_se by a/(a+1) and I_co by 1/(a+1); delta-delta has none.
    Raises CaseReferenceError when a winding the config needs is absent.
    """
    cfg = row.config
    if cfg == "gwye-delta":
        pairs = ((row.gmd_br_hi, 1.0),)
    elif cfg == "gwye-gwye":
        alpha = case.turns_ratio(row)
        pairs = ((row.gmd_br_hi, 1.0), (row.gmd_br_lo, 1.0 / alpha))
    elif cfg == "gwye-gwye-auto":
        alpha = case.turns_ratio(row)
        pairs = ((row.gmd_br_se, alpha / (alpha + 1.0)), (row.gmd_br_co, 1.0 / (alpha + 1.0)))
    else:  # delta-delta
        pairs = ()
    for wid, _ in pairs:
        if wid == ABSENT:
            raise CaseReferenceError("winding reference absent for declared config")
        case.gmd_branch(wid)  # raises CaseReferenceError for malformed data
    return pairs


def _effective(case: CaseData, currents: Mapping[int, float | np.ndarray], zero):
    """Effective GIC per branch_gmd row position: |sum of weight * winding current|.

    ``currents`` maps gmd_branch id to a current or a current series and
    ``zero`` stands in for windings absent from it.
    """
    out = {}
    for pos, row in case.xfmr_rows():
        weighted = (w * currents.get(wid, zero) for wid, w in winding_weights(case, row))
        out[pos] = abs(sum(weighted, zero))
    return out


def effective_gic(case: CaseData, sol: GicSolution) -> dict[int, float]:
    """Per-transformer effective GIC magnitudes [A].

    Keyed by branch_gmd row position.  Winding currents are taken as
    solved (orientation per the case file); winding branches absent from
    the solution (switched-off parents) contribute zero.  gwye-delta uses
    |I_hi|; gwye-gwye |(a I_hi + I_lo)/a|; autos |(a I_se + I_co)/(a+1)|;
    everything else is 0.
    """
    return _effective(case, sol.branch_currents, 0.0)
