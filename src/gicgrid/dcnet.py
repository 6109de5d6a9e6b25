"""Equivalent dc network: field projection, assembly and quasi-dc solve.

The dc circuit is solved per phase at face value of the case data: every
gmd_branch contributes admittance a_e = 1/br_r, every gmd_bus its
grounding admittance a_i = g_gnd, and series induced voltages are folded
into Norton current injections so a single symmetric linear solve
G V = J yields the node voltages.  Branch currents then follow from
I_e = a_e (V_f - V_t + V_src).

For a fixed topology G does not depend on the field, and J is linear in
(E_north, E_east) and in each override voltage (the nodal admittance
method of Lehtinen & Pirjola, 1985).  ``assemble`` builds the solve set
of a topology once as arrays, with one superposition basis of source
voltages; ``solve_series`` factors G once and superposes the basis
solutions over a time series, a single time point being a series of one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .data import (ABSENT, BranchGmdData, CaseData, CaseReferenceError, FieldScenario,
                   FieldVector, GmdBranch, component_groups)

__all__ = [
    "EARTH_RADIUS_KM",
    "FieldVector",
    "DcSystem",
    "GicSeries",
    "SingularNetworkError",
    "MissingCoordinates",
    "branch_lengths",
    "displacement",
    "assemble",
    "solve_series",
    "source_basis",
    "winding_weights",
    "winding_matrix",
    "winding_ids",
]

EARTH_RADIUS_KM = 6371.0


class SingularNetworkError(ArithmeticError):
    """Raised when the pinned dc conductance matrix cannot be solved accurately."""


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
    l_n, l_e = displacement((fc.lat, fc.lon), (tc.lat, tc.lon))
    return float(l_n), float(l_e)


def displacement(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Equirectangular (north, east) displacement [km] from (lat, lon) ``a`` to ``b``.

    On a 6371 km sphere: L_N = R dlat, L_E = R dlon cos(mean lat).  The
    coordinates are numbers or arrays of one shape.  Each cosine is
    ``math.cos``, so an array gives bitwise the results of its elements.
    """
    lat_a, lon_a, lat_b, lon_b = (np.asarray(v, dtype=float) for v in (*a, *b))
    mid = np.radians((lat_a + lat_b) / 2.0)
    cos_mid = np.fromiter(map(math.cos, mid.ravel().tolist()), dtype=float,
                          count=mid.size).reshape(mid.shape)
    return (EARTH_RADIUS_KM * np.radians(lat_b - lat_a),
            EARTH_RADIUS_KM * np.radians(lon_b - lon_a) * cos_mid)


class MissingCoordinates(CaseReferenceError, LookupError):
    """A branch endpoint bus lacks bus_gmd coordinates (bad input: exit 2)."""


def winding_ids(row: BranchGmdData) -> tuple[int, ...]:
    """gmd_branch ids acting as transformer windings for a branch_gmd row."""
    return tuple(w for w in (row.gmd_br_hi, row.gmd_br_lo,
                             row.gmd_br_se, row.gmd_br_co) if w != ABSENT)


@dataclass(frozen=True)
class DcSystem:
    """The dc solve set of one topology as arrays, and its series sources.

    Nodes are the in-service gmd buses; edges are the gmd branches in
    service under the topology, f -> t.  ``sources`` holds the series edge
    voltage of each superposition basis (see ``assemble``); a time point's
    edge voltages are their weighted sum.
    """

    node_ids: tuple[int, ...]          # gmd_bus ids in matrix order
    ground: np.ndarray                 # (nodes,) grounding admittance [S]
    comp: np.ndarray                   # (nodes,) connected-component label, in order of first row
    branch_ids: tuple[int, ...]        # gmd_branch ids in edge order
    f: np.ndarray                      # (edges,) from row
    t: np.ndarray                      # (edges,) to row
    a: np.ndarray                      # (edges,) admittance [S]
    parent: np.ndarray                 # (edges,) ac branch id or -1
    lengths: np.ndarray | None         # (edges, 2) north/east route length the field sees [km]
    sources: np.ndarray                # (edges, B) series voltage of each basis [V]

    @property
    def incidence(self) -> sp.csr_matrix:
        """Node-by-edge incidence: -1 at each edge's f row, +1 at its t row."""
        m = len(self.f)
        return sp.csr_matrix((np.r_[-np.ones(m), np.ones(m)],
                              (np.r_[self.f, self.t], np.r_[np.arange(m), np.arange(m)])),
                             shape=(len(self.node_ids), m))

    def conductance(self) -> sp.csr_matrix:
        """Sparse conductance matrix G [S]: edge admittances plus grounding."""
        A = self.incidence
        return A @ sp.diags(self.a) @ A.T + sp.diags(self.ground)


def assemble(case: CaseData, field: bool = False, overridden: Collection[int] = (), *,
             topology: Mapping[int, int] | None = None) -> DcSystem:
    """Build the dc solve set of one topology and its superposition basis.

    ``topology`` optionally overrides the nominal status per ac branch id
    (1 in service, 0 open); gmd branches whose parent is open, whose own
    status is 0, or whose parent is a series-capacitor branch are left
    out of the solve set.  The sources follow the basis of ``_sources``:
    unit north and east fields when ``field`` acts, else the stored br_v,
    then a unit voltage per ``overridden`` gmd_branch id, in that order.
    """
    nodes = [b for b in case.gmd_buses if b.status]
    node_ids = tuple(b.index for b in nodes)
    index = {n: i for i, n in enumerate(node_ids)}
    series_cap_branches = {row.branch for row in case.branch_gmd if row.type == "series_cap"}
    status = topology or {}

    def in_service(e: GmdBranch) -> bool:
        if not e.status:
            return False
        if e.parent != ABSENT and (e.parent in series_cap_branches
                                   or not status.get(e.parent, case.ac_branch(e.parent).status)):
            return False
        return e.f_bus in index and e.t_bus in index

    edges = [e for e in case.gmd_branches if in_service(e)]
    f = np.array([index[e.f_bus] for e in edges], dtype=int)
    t = np.array([index[e.t_bus] for e in edges], dtype=int)
    comp = np.zeros(len(node_ids), dtype=int)
    for k, members in enumerate(component_groups(range(len(nodes)), zip(f.tolist(), t.tolist()))):
        comp[members] = k
    lengths = _route_lengths(case, nodes, edges, f, t, overridden) if field else None
    return DcSystem(node_ids=node_ids,
                    ground=np.array([b.g_gnd for b in nodes], dtype=float), comp=comp,
                    branch_ids=tuple(e.index for e in edges), f=f, t=t,
                    a=np.array([e.a for e in edges], dtype=float),
                    parent=np.array([e.parent for e in edges], dtype=int),
                    lengths=lengths, sources=_sources(case, edges, lengths, overridden))


def _route_lengths(case: CaseData, nodes: list, edges: list[GmdBranch], f: np.ndarray,
                   t: np.ndarray, overridden: Collection[int]) -> np.ndarray:
    """(L_N, L_E) [km] per edge as a uniform field sees it.

    ``displacement`` between the coordinates of the parent buses of the
    edge's end nodes ``nodes[f]`` and ``nodes[t]``, for every edge at once.
    The bearing is rescaled to the stored len_km when present, so the
    case's authoritative route length is honored.  Transformer windings
    (negligible length) and overridden edges take no field: 0, and their
    coordinates are not needed.  ``math.hypot`` is mapped over the edges,
    so the lengths are bitwise those of ``branch_lengths`` one at a time.
    """
    windings = {w for row in case.branch_gmd if row.is_xfmr for w in winding_ids(row)}
    k = np.array([j for j, e in enumerate(edges)
                  if e.index not in windings and e.index not in overridden], dtype=int)
    coords = [case.coords_for(b.parent) for b in nodes]
    has = np.array([c is not None for c in coords], dtype=bool)
    lat, lon = np.array([(c.lat, c.lon) if c is not None else (0.0, 0.0) for c in coords],
                        dtype=float).reshape(-1, 2).T
    fk, tk = f[k], t[k]
    lacking = np.flatnonzero(~(has[fk] & has[tk]))
    if lacking.size:
        j = k[lacking[0]]
        missing = nodes[f[j] if not has[f[j]] else t[j]].parent
        raise MissingCoordinates(
            f"gmd_branch {edges[j].index}: bus {missing} has no bus_gmd coordinates")
    l_n, l_e = displacement((lat[fk], lon[fk]), (lat[tk], lon[tk]))
    norm = np.fromiter(map(math.hypot, l_n.tolist(), l_e.tolist()), dtype=float, count=len(k))
    length = np.array([edges[j].len_km for j in k.tolist()], dtype=float)
    scale = np.ones(len(k))
    rescaled = (length > 0) & (norm > 0)
    scale[rescaled] = length[rescaled] / norm[rescaled]
    out = np.zeros((len(edges), 2))
    out[k, 0], out[k, 1] = l_n * scale, l_e * scale
    return out


def _sources(case: CaseData, edges: list[GmdBranch], lengths: np.ndarray | None,
             overridden: Collection[int]) -> np.ndarray:
    """Series edge voltages [V] of each superposition basis, edges x B.

    With ``lengths`` the first two bases are a unit north and a unit east
    field, V = E_N L_N + E_E L_E; without, the first is the stored br_v.
    Each override then adds a unit voltage on its edge and holds that edge
    at 0 V in the first bases, so override > field > stored br_v.  An
    override naming no gmd_branch of the case raises CaseReferenceError; one
    on a branch outside the solve set is inert.
    """
    unknown = sorted(set(overridden) - {e.index for e in case.gmd_branches})
    if unknown:
        raise CaseReferenceError(f"voltage override: gmd_branch id {unknown[0]} does not exist")
    ids = np.array([e.index for e in edges], dtype=int)
    held = np.isin(ids, list(overridden))
    if lengths is None:
        base = [np.array([e.br_v for e in edges], dtype=float)]
    else:  # E_N L_N + E_E L_E at E = (1, 0) and (0, 1), term by term: L_N alone
        north, east = lengths.T  # would differ from that sum in the sign of a zero
        base = [1.0 * north + 0.0 * east, 0.0 * north + 1.0 * east]
    return np.column_stack([np.where(held, 0.0, col) for col in base]
                           + [(ids == b).astype(float) for b in overridden])


@dataclass(frozen=True)
class GicSeries:
    """Quasi-dc solutions over a time series, one row per time point."""

    node_ids: tuple[int, ...]             # gmd_bus ids, the columns of V
    branch_ids: tuple[int, ...]           # solved gmd_branch ids, the columns of I
    V: np.ndarray                         # (T, nodes) node voltages [V]
    I: np.ndarray                         # (T, branches) branch currents [A, f->t]
    effective: Mapping[int, np.ndarray]   # branch_gmd row pos -> (T,) I_eff [A]
    kcl_residual: np.ndarray              # (T,) [A]


def _solve(sys: DcSystem, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor G once and superpose k basis solutions over T time points.

    ``sys.sources`` (edges x k) are the series edge voltages of each basis
    and ``coeffs`` (T x k) their weights per time point.  Each floating
    component is pinned at its lowest row.  Returns node voltages
    (T x nodes), branch currents (T x edges) and KCL residuals (T,).
    """
    n, T = len(sys.node_ids), coeffs.shape[0]
    if n == 0:  # no nodes, so no edges
        return np.zeros((T, 0)), np.zeros((T, 0)), np.zeros(T)
    f, t, a, sources = sys.f, sys.t, sys.a, sys.sources
    incidence = sys.incidence
    # Norton injections: a source v on edge f->t drives a*v from f into t
    J = incidence @ (a[:, None] * sources)
    grounded = np.zeros(sys.comp.max() + 1, dtype=bool)
    grounded[sys.comp[sys.ground > 0]] = True
    floating = np.flatnonzero(~grounded)
    # a floating component of several nodes is reported at the caller of solve_series
    for k in floating[np.bincount(sys.comp)[floating] > 1]:
        node_ids = sorted(sys.node_ids[i] for i in np.flatnonzero(sys.comp == k))
        warnings.warn(f"pinning ungrounded dc component (gmd buses {node_ids}) to 0 V",
                      stacklevel=3)
    keep = np.ones(n)
    keep[np.unique(sys.comp, return_index=True)[1][floating]] = 0.0
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


def solve_series(case: CaseData, fields: FieldScenario | np.ndarray | None,
                 times, *, topology: Mapping[int, int] | None = None) -> GicSeries:
    """Quasi-dc solutions at every time in ``times`` for one topology.

    ``fields`` is a FieldScenario (field and overrides interpolated at
    ``times``), an array of (e_north, e_east) [V/km] rows, one per time, or
    None for the stored br_v values.  Every time point is a weighted sum of
    the bases of ``source_basis``.
    """
    sys, coeffs = source_basis(case, fields, times, topology=topology)
    V, I, residual = _solve(sys, coeffs)
    return GicSeries(node_ids=sys.node_ids, branch_ids=sys.branch_ids, V=V, I=I,
                     effective=_effective(case, sys.branch_ids, I), kcl_residual=residual)


def source_basis(case: CaseData, fields: FieldScenario | np.ndarray | None, times, *,
                 topology: Mapping[int, int] | None = None
                 ) -> tuple[DcSystem, np.ndarray]:
    """The superposition basis of ``solve_series``, without solving it.

    Returns the assembled system, whose ``sources`` are the series edge
    voltages of each basis (edges x k: unit E_north and unit E_east, or the
    stored br_v without fields, then a unit voltage per overridden branch),
    and the bases' weights per time point (T x k), so
    ``coeffs @ sys.sources.T`` are the edge source voltages at every time.
    """
    times = np.asarray(times, dtype=float)
    over = fields.overrides_series(times) if isinstance(fields, FieldScenario) else {}
    if isinstance(fields, FieldScenario):
        fields = fields.series(times)
    sys = assemble(case, fields is not None, tuple(over), topology=topology)
    first = np.ones((len(times), 1)) if fields is None else np.reshape(fields, (-1, 2))
    return sys, np.column_stack([first] + list(over.values()))


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


def winding_matrix(case: CaseData, branch_ids: Sequence[int]
                   ) -> tuple[tuple[int, ...], sp.csr_matrix]:
    """Winding weights of every transformer row as one matrix over ``branch_ids``.

    Row k of W (xfmr rows x ``branch_ids``) holds the ``winding_weights``
    of the k-th row of ``case.xfmr_rows()``, so W @ I is each row's signed
    effective GIC for the currents I of those gmd branches; a winding
    outside ``branch_ids`` (its parent switched off) contributes 0.
    Returns the rows' branch_gmd positions and W.
    """
    col = {bid: k for k, bid in enumerate(branch_ids)}
    positions, rows, cols, vals = [], [], [], []
    for k, (pos, row) in enumerate(case.xfmr_rows()):
        positions.append(pos)
        for wid, w in winding_weights(case, row):
            if wid in col:
                rows.append(k)
                cols.append(col[wid])
                vals.append(w)
    W = sp.csr_matrix((np.array(vals, dtype=float),
                       (np.array(rows, dtype=int), np.array(cols, dtype=int))),
                      shape=(len(positions), len(branch_ids)))
    return tuple(positions), W


def _effective(case: CaseData, branch_ids: Sequence[int],
               I: np.ndarray) -> dict[int, np.ndarray]:
    """Effective GIC [A] per branch_gmd row position: |W @ I| over a current series.

    ``I`` (T x edges) holds the currents of the gmd branches ``branch_ids``,
    taken as solved (orientation per the case file); ``winding_matrix``
    gives each configuration's weights, and windings absent from
    ``branch_ids`` carry none.
    """
    positions, W = winding_matrix(case, branch_ids)
    return dict(zip(positions, np.abs(W @ I.T)))
