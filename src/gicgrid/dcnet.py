"""Equivalent dc network: field projection, assembly and quasi-dc solve.

The dc circuit is solved per phase at face value of the case data: every
gmd_branch contributes admittance a_e = 1/br_r, every gmd_bus its
grounding admittance a_i = g_gnd, and series induced voltages are folded
into Norton current injections so a single symmetric linear solve
G V = J yields the node voltages.  Branch currents then follow from
I_e = a_e (V_f - V_t + V_src).

For a fixed topology G does not depend on the field, and J is linear in
(E_north, E_east) and in each override voltage (the nodal admittance
method of Lehtinen & Pirjola, 1985).  ``DcArrays`` derives a case's
arrays from its rows once; ``assemble`` selects a topology's solve set
from them by a mask, with one superposition basis of source voltages;
``solve_series`` factors G once and superposes the basis solutions over
a time series, a single time point being a series of one.
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
                   FieldVector, GmdBranch, component_labels, topology_status)

__all__ = [
    "EARTH_RADIUS_KM",
    "FieldVector",
    "DcArrays",
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


class DcArrays:
    """The dc side of a case as arrays, built from its rows once per case:
    read them through ``case.compiled(DcArrays)``.

    Nodes are the in-service gmd buses; edges every gmd branch, in case
    order.  A topology's solve set is a mask over the edges (``assemble``).
    Raises CaseReferenceError for a winding reference that does not
    resolve (``winding_weights``) or a gmd_branch parent that is no ac
    branch.
    """

    def __init__(self, case: CaseData):
        nodes = [b for b in case.gmd_buses if b.status]
        row = {b.index: i for i, b in enumerate(nodes)}
        edges = case.gmd_branches
        self.node_ids = tuple(b.index for b in nodes)  # in matrix order
        self.ground = np.array([b.g_gnd for b in nodes], dtype=float)  # [S]
        self.branch_ids = np.array([e.index for e in edges], dtype=int)
        # end node rows; -1 for an end out of service
        self.f = np.array([row.get(e.f_bus, -1) for e in edges], dtype=int)
        self.t = np.array([row.get(e.t_bus, -1) for e in edges], dtype=int)
        self.a = np.array([e.a for e in edges], dtype=float)  # [S]
        self.br_v = np.array([e.br_v for e in edges], dtype=float)  # stored voltage [V]
        self.parent = np.array([e.parent for e in edges], dtype=int)  # ac branch id or -1
        self.parent_status = np.array([e.parent == ABSENT or case.ac_branch(e.parent).status
                                       for e in edges], dtype=bool)
        # own status 1, both ends in service and no series-capacitor parent
        series_caps = {r.branch for r in case.branch_gmd if r.type == "series_cap"} - {ABSENT}
        self.eligible = (np.array([bool(e.status) and e.parent not in series_caps
                                   for e in edges], dtype=bool) & (self.f >= 0) & (self.t >= 0))

        # transformer rows: the windings each names, their weights W (signed
        # I_eff = W @ I), and per edge the last row naming it a winding or -1
        xfmrs = case.xfmr_rows()
        col = {e.index: k for k, e in enumerate(edges)}
        names = [[w for w in (r.gmd_br_hi, r.gmd_br_lo, r.gmd_br_se, r.gmd_br_co)
                  if w != ABSENT] for _, r in xfmrs]
        member = np.array([(k, col[w]) for k, ids in enumerate(names) for w in ids if w in col],
                          dtype=int).reshape(-1, 2)
        weights = np.array([(k, col[w], v) for k, (_, r) in enumerate(xfmrs)
                            for w, v in winding_weights(case, r)], dtype=float).reshape(-1, 3)
        shape = (len(xfmrs), len(edges))
        self.xfmr_pos = tuple(pos for pos, _ in xfmrs)  # branch_gmd positions
        self.W = sp.csr_matrix((weights[:, 2], (weights[:, 0].astype(int),
                                                weights[:, 1].astype(int))), shape=shape)
        # a row's windings are all in a solve set when member @ in_set == n_windings;
        # -1 for a row naming none, or an id that is no gmd_branch
        self.member = sp.csr_matrix((np.ones(len(member)), (member[:, 0], member[:, 1])),
                                    shape=shape)
        self.n_windings = np.array([len(ids) if ids and all(w in col for w in ids) else -1
                                    for ids in names], dtype=int)
        self.winding_row = np.full(len(edges), -1)
        np.maximum.at(self.winding_row, member[:, 1], member[:, 0])  # the last: the highest
        self.lengths = _route_lengths(case, nodes, edges, self.f, self.t, self.winding_row < 0)


def _route_lengths(case: CaseData, nodes: list, edges: Sequence[GmdBranch], f: np.ndarray,
                   t: np.ndarray, sees_field: np.ndarray) -> np.ndarray:
    """(L_N, L_E) [km] per edge as a uniform field sees it.

    ``displacement`` between the coordinates of the parent buses of the
    edge's end nodes ``nodes[f]`` and ``nodes[t]``, for every edge at once.
    The bearing is rescaled to the stored len_km when present, so the
    case's authoritative route length is honored.  Edges that see no field
    (transformer windings, of negligible length) and edges with an end out
    of service get 0; an edge lacking coordinates gets NaN.  ``math.hypot``
    is mapped over the edges, so the lengths are bitwise those of
    ``branch_lengths`` one at a time.
    """
    k = np.flatnonzero(sees_field & (f >= 0) & (t >= 0))
    coords = [case.coords_for(b.parent) for b in nodes]
    lat, lon = np.array([(c.lat, c.lon) if c is not None else (np.nan, np.nan) for c in coords],
                        dtype=float).reshape(-1, 2).T
    fk, tk = f[k], t[k]
    l_n, l_e = displacement((lat[fk], lon[fk]), (lat[tk], lon[tk]))
    norm = np.fromiter(map(math.hypot, l_n.tolist(), l_e.tolist()), dtype=float, count=len(k))
    length = np.array([edges[j].len_km for j in k.tolist()], dtype=float)
    scale = np.ones(len(k))
    rescaled = (length > 0) & (norm > 0)
    scale[rescaled] = length[rescaled] / norm[rescaled]
    lengths = np.zeros((len(edges), 2))
    lengths[k, 0], lengths[k, 1] = l_n * scale, l_e * scale
    return lengths


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
    W: sp.csr_matrix                   # (xfmr rows, edges) winding weights: W @ I is signed I_eff

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
    """Select the dc solve set of one topology and build its superposition basis.

    ``topology`` optionally overrides the nominal status per ac branch id
    (1 in service, 0 open).  The solve set is a mask over the gmd branches
    of ``DcArrays``: those in service whose ends are in service, whose
    parent is not a series-capacitor branch and whose parent, if any, is
    in service under the topology.

    ``sources`` holds the series edge voltages [V] of each basis, edges x
    B: with ``field`` a unit north and a unit east field, V = E_N L_N +
    E_E L_E (an edge of the set that sees the field and is not overridden
    needs coordinates: MissingCoordinates), else the stored br_v; then a
    unit voltage per ``overridden`` gmd_branch id, in that order, each
    holding its edge at 0 V in the first bases, so override > field >
    stored br_v.  An override naming no gmd_branch of the case raises
    CaseReferenceError; one on a branch outside the solve set is inert.
    """
    dc = case.compiled(DcArrays)
    sel = np.flatnonzero(dc.eligible & (topology_status(dc.parent, dc.parent_status, topology)
                                        | (dc.parent == ABSENT)))
    f, t, ids = dc.f[sel], dc.t[sel], dc.branch_ids[sel]
    held = np.isin(ids, list(overridden))
    lengths = None
    if field:
        sees = (dc.winding_row[sel] < 0) & ~held
        for j in sel[sees & np.isnan(dc.lengths[sel, 0])]:  # NaN: unlocated, or len_km inf
            branch_lengths(case, case.gmd_branches[j])  # raises MissingCoordinates
        lengths = np.where(sees[:, None], dc.lengths[sel], 0.0)
    unknown = np.setdiff1d(list(overridden), dc.branch_ids)
    if unknown.size:
        raise CaseReferenceError(f"voltage override: gmd_branch id {unknown[0]} does not exist")
    if lengths is None:
        base = [dc.br_v[sel]]
    else:  # E_N L_N + E_E L_E at E = (1, 0) and (0, 1), term by term: L_N alone
        north, east = lengths.T  # would differ from that sum in the sign of a zero
        base = [1.0 * north + 0.0 * east, 0.0 * north + 1.0 * east]
    return DcSystem(node_ids=dc.node_ids, ground=dc.ground,
                    comp=component_labels(len(dc.node_ids), f, t),
                    branch_ids=tuple(ids.tolist()), f=f, t=t, a=dc.a[sel],
                    parent=dc.parent[sel], lengths=lengths,
                    sources=np.column_stack([np.where(held, 0.0, col) for col in base]
                                            + [(ids == b).astype(float) for b in overridden]),
                    W=dc.W[:, sel])


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
    floating = np.flatnonzero(np.bincount(sys.comp, weights=sys.ground > 0) == 0)
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
                     effective=_effective(case, sys, I), kcl_residual=residual)


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


def _effective(case: CaseData, sys: DcSystem, I: np.ndarray) -> dict[int, np.ndarray]:
    """Effective GIC [A] per branch_gmd row position: |W @ I| over a current series.

    ``I`` (T x edges) holds the currents of the edges of ``sys``, taken as
    solved (orientation per the case file); ``sys.W`` holds each
    configuration's weights, and windings outside the solve set carry none.
    """
    return dict(zip(case.compiled(DcArrays).xfmr_pos, np.abs(sys.W @ I.T)))
