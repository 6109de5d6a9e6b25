"""Quasi-dc solve: geometry, assembly, linear-circuit properties."""

import dataclasses
import json
import math
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gicgrid.data import (ABSENT, CaseReferenceError, FieldSample, FieldScenario, GmdBranch,
                          GmdBus, load_scenario, validate_case)
from gicgrid.dcnet import (EARTH_RADIUS_KM, FieldVector, MissingCoordinates, assemble,
                           displacement, solve_series, winding_weights)

from conftest import CASES, currents, random_dc_case, solve_at, voltages

LOOP_CURRENT = 170.788 / 1.601  # series mesh: 0.2 + 0.1 + 1.001 + 0.1 + 0.2 ohm


def _branch_lengths(case, branch):
    """Northward/eastward displacement (L_N, L_E) [km] between the endpoints of
    one gmd branch: ``displacement`` between the coordinates of the parent
    buses of its endpoint gmd buses, which must have them (else
    MissingCoordinates, naming the first lacking bus).  The per-branch oracle
    of the route lengths ``assemble`` computes for all edges at once."""
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


def test_branch_lengths_east_west(b4gic_case):
    l_n, l_e = _branch_lengths(b4gic_case, b4gic_case.gmd_branch(2))
    assert l_n == pytest.approx(0.0, abs=1e-12)
    expect = EARTH_RADIUS_KM * math.radians(2.0) * math.cos(math.radians(40.0))
    assert l_e == pytest.approx(expect, rel=1e-12)
    assert l_e == pytest.approx(170.36, abs=0.05)


def test_branch_lengths_identical_endpoints(b4gic_case):
    # transformer winding: both endpoints at the bus-1 substation
    l_n, l_e = _branch_lengths(b4gic_case, b4gic_case.gmd_branch(1))
    assert (l_n, l_e) == (0.0, 0.0)


def test_branch_lengths_pure_north(b4gic_case):
    import json
    from gicgrid.data import parse_case, serialize_case
    doc = json.loads(serialize_case(b4gic_case))
    doc["bus_gmd"][0] = {"bus": 1, "lat": 41.0, "lon": -89.0}
    doc["bus_gmd"][1] = {"bus": 2, "lat": 40.0, "lon": -89.0}
    case = parse_case(json.dumps(doc))
    l_n, l_e = _branch_lengths(case, case.gmd_branch(2))
    assert l_e == pytest.approx(0.0, abs=1e-12)
    assert l_n == pytest.approx(-EARTH_RADIUS_KM * math.radians(1.0), rel=1e-12)
    assert l_n == pytest.approx(-111.19, abs=0.01)


def test_missing_coordinates_error(b4gic_case):
    import dataclasses
    case = dataclasses.replace(b4gic_case, bus_gmd=b4gic_case.bus_gmd[1:])
    with pytest.raises(MissingCoordinates, match="bus 1"):
        _branch_lengths(case, case.gmd_branch(2))
    with pytest.raises(MissingCoordinates, match="gmd_branch 2: bus 1 has"):
        assemble(case, True)


def test_infinite_route_length_is_not_missing_coordinates(b4gic_case):
    """An east-west line of len_km inf scales its 0 km northing to NaN; its
    ends have coordinates, so ``assemble`` does not report them missing."""
    rows = tuple(dataclasses.replace(e, len_km=math.inf) if e.index == 2 else e
                 for e in b4gic_case.gmd_branches)
    case = dataclasses.replace(b4gic_case, gmd_branches=rows)
    with np.errstate(invalid="ignore"):  # 0 km * inf
        sys = assemble(case, True)
    l_n, l_e = sys.lengths[sys.branch_ids.index(2)]
    assert math.isnan(l_n) and l_e == math.inf


def _branch_by_branch_lengths(case, sys, overridden=()):
    """Route lengths per edge of ``sys`` one branch at a time, in Python floats:
    the equirectangular displacement between the endpoint buses rescaled to
    len_km, windings and overridden edges 0.  A missing coordinate raises
    as ``_branch_lengths`` does."""
    windings = {w for row in case.branch_gmd if row.is_xfmr
                for w in (row.gmd_br_hi, row.gmd_br_lo, row.gmd_br_se, row.gmd_br_co)}
    out = []
    for bid in sys.branch_ids:
        e = case.gmd_branch(bid)
        if bid in windings or bid in overridden:
            out.append((0.0, 0.0))
            continue
        _branch_lengths(case, e)
        fc, tc = (case.coords_for(case.gmd_bus(n).parent) for n in (e.f_bus, e.t_bus))
        l_n = EARTH_RADIUS_KM * math.radians(tc.lat - fc.lat)
        l_e = (EARTH_RADIUS_KM * math.radians(tc.lon - fc.lon)
               * math.cos(math.radians((fc.lat + tc.lat) / 2.0)))
        norm = math.hypot(l_n, l_e)
        if e.len_km > 0 and norm > 0:
            scale = e.len_km / norm
            l_n, l_e = l_n * scale, l_e * scale
        out.append((l_n, l_e))
    return np.array(out, dtype=float).reshape(-1, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_route_lengths_bitwise_branch_by_branch(seed):
    """The lengths ``assemble`` computes for all edges at once are bitwise the
    branch-by-branch ones, overridden edges left at 0."""
    rng = np.random.default_rng(seed)
    case = random_dc_case(rng)
    lines = [e.index for e in case.gmd_branches if e.parent != ABSENT]
    overridden = set(rng.choice(lines, size=min(2, len(lines)), replace=False).tolist())
    for over in ((), overridden):
        sys = assemble(case, True, over)
        assert sys.lengths.tobytes() == _branch_by_branch_lengths(case, sys, over).tobytes()


@pytest.mark.parametrize("name", ["b4gic", "epri21"])
def test_route_lengths_bitwise_on_bundled_cases(name, request):
    case = request.getfixturevalue(f"{name}_case")
    sys = assemble(case, True)
    assert sys.lengths.tobytes() == _branch_by_branch_lengths(case, sys).tobytes()


def test_missing_coordinates_names_first_lacking_bus(epri21_case):
    """Without coordinates for some buses, ``assemble`` names the bus that
    the branch-by-branch computation names first."""
    sys = assemble(epri21_case, True)
    for dropped in ({5, 2}, {3}, {2, 3}, {12, 6}, {12, 17}):
        case = dataclasses.replace(epri21_case, bus_gmd=tuple(
            row for row in epri21_case.bus_gmd if row.bus not in dropped))
        with pytest.raises(MissingCoordinates) as expected:
            _branch_by_branch_lengths(case, sys)
        with pytest.raises(MissingCoordinates) as err:
            assemble(case, True)
        assert str(err.value) == str(expected.value)


def _v_src(sys, *weights):
    """Series edge voltages [V] by gmd_branch id: the basis weighted by the
    field components (or 1 for the stored br_v), then the override voltages."""
    return dict(zip(sys.branch_ids, (sys.sources @ weights).tolist()))


def _injections(sys, weights):
    """Norton injections J [A]: a source v on edge f->t drives a*v from f into t."""
    return sys.incidence @ (sys.a * (sys.sources @ weights))


def test_induced_voltage_eastward(b4gic_case):
    # the 170.788 km east-west line under 1 V/km due east
    sys = assemble(b4gic_case, True)
    assert _v_src(sys, *FieldVector.from_mag_dir(1.0, 90.0))[2] == pytest.approx(170.788)


def test_induced_voltage_zero_field(b4gic_case):
    sys = assemble(b4gic_case, True)
    assert np.all(sys.sources @ FieldVector.from_mag_dir(0.0, 123.0) == 0.0)


def test_induced_voltage_peak_field(b4gic_case):
    sys = assemble(b4gic_case, True)
    assert _v_src(sys, *FieldVector.from_mag_dir(3.2, 90.0))[2] == pytest.approx(546.52, abs=5e-3)


def test_induced_voltage_north_projection(b4gic_case):
    # the line turned north-south: a northward field projects on L_N only,
    # and the displacement is rescaled to the stored 170.788 km route
    import json
    from gicgrid.data import parse_case, serialize_case
    doc = json.loads(serialize_case(b4gic_case))
    doc["bus_gmd"][0] = {"bus": 1, "lat": 41.0, "lon": -89.0}
    doc["bus_gmd"][1] = {"bus": 2, "lat": 40.0, "lon": -89.0}
    sys = assemble(parse_case(json.dumps(doc)), True)
    k = sys.branch_ids.index(2)
    assert sys.lengths[k] == pytest.approx([-170.788, 0.0], abs=1e-9)
    assert sys.sources[k] @ FieldVector.from_mag_dir(2.0, 0.0) == pytest.approx(2.0 * -170.788,
                                                                                abs=1e-9)


def test_assemble_b4gic_structure(b4gic_case):
    sys = assemble(b4gic_case, True)
    G = sys.conductance().toarray()
    assert G.shape == (6, 6)
    # Norton injections only at the line endpoints (gmd buses 3 and 4)
    nz = {sys.node_ids[i]
          for i in np.nonzero(_injections(sys, FieldVector.from_mag_dir(1.0, 90.0)))[0]}
    assert nz == {3, 4}
    assert np.allclose(G, G.T)
    eigvals = np.linalg.eigvalsh(G)
    assert eigvals.min() > -1e-12
    # row sums reduce to the grounding admittance: couplings cancel
    assert np.allclose(G.sum(axis=1), sys.ground)


def test_assemble_zero_field_zero_injection(b4gic_case):
    sys = assemble(b4gic_case, True)
    assert np.all(_injections(sys, FieldVector.from_mag_dir(0.0, 90.0)) == 0.0)


def test_assemble_injection_linearity(b4gic_case):
    one = _injections(assemble(b4gic_case, True), FieldVector.from_mag_dir(1.0, 90.0))
    two = _injections(assemble(b4gic_case, True), FieldVector.from_mag_dir(2.0, 90.0))
    assert np.allclose(two, 2.0 * one)


def test_assemble_override_precedence(b4gic_case):
    sys = assemble(b4gic_case, True, [2])
    assert _v_src(sys, *FieldVector.from_mag_dir(1.0, 90.0), 500.0)[2] == 500.0


def test_assemble_without_field_uses_stored_voltage(b4gic_case):
    sys = assemble(b4gic_case)
    assert _v_src(sys, 1.0)[2] == 170.788
    assert sys.lengths is None  # no field, so no route lengths and no coordinates


def test_assemble_respects_topology(b4gic_case):
    sys = assemble(b4gic_case, topology={2: 0})
    assert 2 not in sys.branch_ids


def test_override_on_unknown_branch_is_reference_error(b4gic_case):
    scenario = load_scenario("t_min,e_mag_vkm,e_dir_deg\n0,1,90\n",
                             overrides_text="t_min,gmd_branch_id,volts\n0,999,100\n")
    with pytest.raises(CaseReferenceError, match="999"):
        solve_series(b4gic_case, scenario, [0.0])
    with pytest.raises(CaseReferenceError, match="999"):
        assemble(b4gic_case, True, [999])
    # an override on a branch the topology opens stays inert
    sys = assemble(b4gic_case, True, [2], topology={2: 0})
    assert 2 not in sys.branch_ids


def test_solve_b4gic_loop(b4gic_case):
    sol = solve_at(b4gic_case, FieldVector.from_mag_dir(1.0, 90.0))
    for gid in (1, 2, 3):
        assert abs(currents(sol)[gid]) == pytest.approx(LOOP_CURRENT, rel=1e-9)
    assert sol.kcl_residual[0] <= 1e-8 * 170.788


def test_solve_zero_field(b4gic_case):
    sol = solve_at(b4gic_case, FieldVector.from_mag_dir(0.0, 90.0))
    assert all(v == 0.0 for v in voltages(sol).values())
    assert all(i == 0.0 for i in currents(sol).values())


def test_effective_gic_gsu(b4gic_case):
    eff = solve_at(b4gic_case, FieldVector.from_mag_dir(1.0, 90.0)).effective
    assert eff[0][0] == pytest.approx(LOOP_CURRENT, rel=1e-9)
    assert eff[1][0] == pytest.approx(LOOP_CURRENT, rel=1e-9)


def _two_winding_case(config, turns_ratio):
    """Minimal case with one two-winding transformer for formula checks."""
    import json
    doc = {
        "base_mva": 100.0,
        "bus": [{"index": 1, "base_kv": 345.0, "bus_type": "slack"},
                {"index": 2, "base_kv": 138.0, "pd": 0.5}],
        "gen": [{"index": 1, "bus": 1, "pmin": 0, "pmax": 5}],
        "branch": [{"index": 1, "f_bus": 1, "t_bus": 2, "b": 30.0, "rating": 5.0}],
        "gmd_bus": [
            {"index": 1, "parent": 1, "status": 1, "g_gnd": 0.0, "name": "n1"},
            {"index": 2, "parent": 2, "status": 1, "g_gnd": 0.0, "name": "n2"},
            {"index": 3, "parent": 1, "status": 1, "g_gnd": 5.0, "name": "sub"},
        ],
        "gmd_branch": [
            {"index": 1, "f_bus": 1, "t_bus": 3, "parent": 1, "status": 1, "br_r": 0.2},
            {"index": 2, "f_bus": 2, "t_bus": 3, "parent": 1, "status": 1, "br_r": 0.1},
        ],
        "branch_gmd": [
            {"branch": 1, "hi_bus": 1, "lo_bus": 2,
             "gmd_br_hi": 1 if not config.endswith("auto") else -1,
             "gmd_br_lo": 2 if not config.endswith("auto") else -1,
             "gmd_k": 1.0,
             "gmd_br_se": 1 if config.endswith("auto") else -1,
             "gmd_br_co": 2 if config.endswith("auto") else -1,
             "baseMVA": 100, "dispatch": 1, "type": "xfmr", "config": config,
             "turns_ratio": turns_ratio},
        ],
        "branch_thermal": [{"branch": 1, "xfmr": 1, "temp_amb": 25,
                            "hs_inst_lim": 280, "hs_avg_lim": 240,
                            "hs_rated": 150, "to_time_c": 71, "to_rated": 75,
                            "to_init": 0, "to_inited": 1, "hs_coeff": 0.63}],
        "bus_gmd": [],
    }
    from gicgrid.data import parse_case
    return parse_case(json.dumps(doc))


def _effective(case, current):
    """Effective GIC per transformer row from winding currents by edge, the
    form ``solve_series`` takes: |W @ I| over the assembled solve set."""
    return np.abs(assemble(case).W @ np.asarray(current, dtype=float))


def test_effective_gic_gwye_gwye_cancellation():
    case = _two_winding_case("gwye-gwye", 2.0)
    eff = _effective(case, [10.0, -20.0])
    assert eff[0] == pytest.approx(0.0, abs=1e-12)


def test_effective_gic_auto_formula():
    case = _two_winding_case("gwye-gwye-auto", 0.5)
    eff = _effective(case, [30.0, 15.0])
    assert eff[0] == pytest.approx(abs(0.5 * 30.0 + 15.0) / 1.5, rel=1e-12)


def test_effective_gic_delta_delta_zero():
    case = _two_winding_case("delta-delta", None)
    assert _effective(case, [99.0, 99.0])[0] == 0.0


def _floating_case():
    """Two ungrounded gmd buses joined by one branch with a stored EMF."""
    import json
    from gicgrid.data import parse_case
    doc = {
        "base_mva": 100.0,
        "bus": [{"index": 1, "base_kv": 345.0, "bus_type": "slack"},
                {"index": 2, "base_kv": 345.0, "pd": 0.1}],
        "gen": [{"index": 1, "bus": 1, "pmin": 0, "pmax": 5}],
        "branch": [{"index": 1, "f_bus": 1, "t_bus": 2, "b": 30.0, "rating": 5.0}],
        "gmd_bus": [
            {"index": 1, "parent": 1, "status": 1, "g_gnd": 0.0, "name": "a"},
            {"index": 2, "parent": 2, "status": 1, "g_gnd": 0.0, "name": "b"},
        ],
        "gmd_branch": [{"index": 1, "f_bus": 1, "t_bus": 2, "parent": 1,
                        "status": 1, "br_r": 1.0, "br_v": 10.0}],
        "branch_gmd": [], "branch_thermal": [], "bus_gmd": [],
    }
    return parse_case(json.dumps(doc))


def test_floating_component_pinned_with_warning():
    case = _floating_case()
    sys = assemble(case)
    assert sys.comp.tolist() == [0, 0] and not np.any(sys.ground > 0)
    with pytest.warns(UserWarning, match=r"ungrounded dc component \(gmd buses \[1, 2\]\)"):
        sol = solve_at(case)
    # no ground path: the EMF cannot drive any current; the lowest row is pinned
    assert currents(sol)[1] == pytest.approx(0.0, abs=1e-12)
    assert voltages(sol)[1] == 0.0


def test_isolated_gen_terminal_nodes_quiet(b4gic_case):
    # dc_bus3/dc_bus4 are isolated single nodes: pinned silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_at(b4gic_case, FieldVector.from_mag_dir(1.0, 90.0))
    assert voltages(sol)[5] == 0.0
    assert voltages(sol)[6] == 0.0


# -- linear-circuit properties on random networks ----------------------------

def _solve(case, mag, direction):
    return solve_at(case, FieldVector.from_mag_dir(mag, direction))


def _as_vectors(sol):
    return sol.V[0], sol.I[0]


@pytest.mark.parametrize("seed", range(12))
def test_field_scaling_linearity(seed):
    case = random_dc_case(np.random.default_rng(seed))
    base_v, base_i = _as_vectors(_solve(case, 1.0, 72.0))
    scaled_v, scaled_i = _as_vectors(_solve(case, 3.7, 72.0))
    scale = max(np.abs(base_i).max(), np.abs(base_v).max(), 1e-12)
    assert np.max(np.abs(scaled_v - 3.7 * base_v)) <= 1e-8 * 3.7 * scale
    assert np.max(np.abs(scaled_i - 3.7 * base_i)) <= 1e-8 * 3.7 * scale


@pytest.mark.parametrize("seed", range(12))
def test_direction_reversal_antisymmetry(seed):
    case = random_dc_case(np.random.default_rng(seed + 100))
    v1, i1 = _as_vectors(_solve(case, 2.0, 30.0))
    v2, i2 = _as_vectors(_solve(case, 2.0, 210.0))
    scale = max(np.abs(i1).max(), np.abs(v1).max(), 1e-12)
    assert np.max(np.abs(v1 + v2)) <= 1e-8 * scale
    assert np.max(np.abs(i1 + i2)) <= 1e-8 * scale


@pytest.mark.parametrize("seed", range(12))
def test_superposition(seed):
    case = random_dc_case(np.random.default_rng(seed + 200))
    fa = FieldVector.from_mag_dir(1.3, 45.0)
    fb = FieldVector.from_mag_dir(0.8, 160.0)
    fsum = FieldVector(fa.e_north + fb.e_north, fa.e_east + fb.e_east)
    va, ia = _as_vectors(solve_at(case, fa))
    vb, ib = _as_vectors(solve_at(case, fb))
    vs, is_ = _as_vectors(solve_at(case, fsum))
    scale = max(np.abs(is_).max(), np.abs(vs).max(), 1e-12)
    assert np.max(np.abs(vs - (va + vb))) <= 1e-8 * scale
    assert np.max(np.abs(is_ - (ia + ib))) <= 1e-8 * scale


@pytest.mark.parametrize("seed", range(8))
def test_kcl_at_every_node(seed):
    case = random_dc_case(np.random.default_rng(seed + 300))
    field = FieldVector.from_mag_dir(2.5, 120.0)
    sol = solve_at(case, field)
    sys = assemble(case, True)
    assert sol.kcl_residual[0] <= 1e-8 * max(np.abs(_injections(sys, field)).max(), 1.0)


@pytest.mark.parametrize("seed", range(6))
def test_removing_zero_current_branch_is_neutral(seed):
    """Removing a dead branch changes no current and no grounded voltage.

    Every draw gets one: a branch that sees the field, dangling from dc bus
    1 to a fresh ungrounded node, carries no current.  If the dead branch
    was a bridge to ground, the severed side keeps zero currents but its
    potential reference becomes arbitrary (pinned), so voltage equality is
    only asserted for nodes still connected to ground.
    """
    rng = np.random.default_rng(seed + 400)
    case = random_dc_case(rng)
    leaf = GmdBus(index=max(b.index for b in case.gmd_buses) + 1, parent=2, status=1,
                  g_gnd=0.0, name="leaf")
    dangling = GmdBranch(index=max(e.index for e in case.gmd_branches) + 1, f_bus=1,
                         t_bus=leaf.index, parent=ABSENT, status=1, br_r=1.0, name="dangling")
    case = dataclasses.replace(case, gmd_buses=case.gmd_buses + (leaf,),
                               gmd_branches=case.gmd_branches + (dangling,))
    validate_case(case)
    field = FieldVector.from_mag_dir(1.5, 90.0)
    sol = solve_at(case, field)
    i1, v1 = currents(sol), voltages(sol)
    assert assemble(case, True).sources[-1, :].any()  # the dangling branch sees the field
    dead = [gid for gid, i in i1.items() if abs(i) < 1e-12]
    assert dangling.index in dead
    scale = max(abs(i) for i in i1.values())
    for gone in sorted({dead[0], dangling.index}):  # the draw's first, and the dangling one
        keep = tuple(e for e in case.gmd_branches if e.index != gone)
        case2 = dataclasses.replace(case, gmd_branches=keep)
        sys2 = assemble(case2, True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol2 = solve_at(case2, field)
        for gid, i in currents(sol2).items():
            assert i == pytest.approx(i1[gid], abs=1e-9 * scale)
        for nid in _grounded_nodes(sys2):
            assert voltages(sol2)[nid] == pytest.approx(v1[nid], abs=1e-9 * max(scale, 1.0))


def _grounded_nodes(sys):
    parent = list(range(len(sys.node_ids)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f, t in zip(sys.f.tolist(), sys.t.tolist()):
        parent[find(f)] = find(t)
    roots_with_ground = {find(i) for i in range(len(sys.node_ids))
                         if sys.ground[i] > 0}
    return {sys.node_ids[i] for i in range(len(sys.node_ids))
            if find(i) in roots_with_ground}


# -- time-series engine against per-point dense solves ------------------------

FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def series_inputs(draw):
    """A random network (some groundings removed, some branches opened), a
    random field scenario with overrides, and random evaluation times."""
    case = random_dc_case(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    grounded = sorted(b.index for b in case.gmd_buses if b.g_gnd > 0)
    unground = draw(st.sets(st.sampled_from(grounded)))
    case = dataclasses.replace(case, gmd_buses=tuple(
        dataclasses.replace(b, g_gnd=0.0) if b.index in unground else b
        for b in case.gmd_buses))
    opened = draw(st.sets(st.sampled_from([br.index for br in case.ac_branches])))
    ts = sorted(draw(st.sets(st.floats(0.0, 100.0, **FINITE), min_size=1, max_size=6)))
    samples = tuple(FieldSample(t, draw(st.floats(0.0, 10.0, **FINITE)),
                                draw(st.floats(0.0, 360.0, **FINITE))) for t in ts)
    overrides = {}
    for b in draw(st.sets(st.sampled_from([e.index for e in case.gmd_branches]), max_size=3)):
        o_ts = sorted(draw(st.sets(st.floats(0.0, 100.0, **FINITE), min_size=1, max_size=3)))
        overrides[b] = tuple((t, draw(st.floats(-500.0, 500.0, **FINITE))) for t in o_ts)
    times = draw(st.lists(st.floats(-10.0, 110.0, **FINITE), min_size=1, max_size=12))
    return (case, FieldScenario(samples, voltage_overrides=overrides),
            {b: 0 for b in opened}, times)


def _effective_by_rows(case, current):
    """Oracle: |sum of weight * current| over each transformer row's windings
    (``winding_weights``), from currents by gmd_branch id; a winding without
    one carries none."""
    return {pos: abs(sum(w * current.get(wid, 0.0) for wid, w in winding_weights(case, row)))
            for pos, row in case.xfmr_rows()}


@settings(max_examples=60, deadline=None)
@given(series_inputs())
def test_solve_series_matches_per_point_solves(inputs):
    case, scenario, topology, times = inputs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        series = solve_series(case, scenario, times, topology=topology)
    # field and overrides interpolated here, component by component
    ts = [s.t for s in scenario.samples]
    north, east = zip(*(FieldVector.from_mag_dir(s.e_mag, s.e_dir) for s in scenario.samples))
    for k, t in enumerate(times):
        field = FieldVector(float(np.interp(t, ts, north)), float(np.interp(t, ts, east)))
        overrides = {b: float(np.interp(t, [p[0] for p in pts], [p[1] for p in pts]))
                     for b, pts in scenario.voltage_overrides.items()}
        v_ref, i_ref, j_ref = _dense_oracle(case, field, overrides, topology)
        assert series.node_ids == tuple(v_ref)
        assert set(series.branch_ids) == set(i_ref)
        v = np.array([v_ref[n] for n in series.node_ids])
        i = np.array([i_ref[b] for b in series.branch_ids])
        eff = _effective_by_rows(case, i_ref)
        e = np.array([eff[p] for p in sorted(eff)])
        e_series = series.effective[:, k]
        scale = max(np.max(np.abs(v), initial=0.0), np.max(np.abs(i), initial=0.0), 1.0)
        assert np.max(np.abs(series.V[k] - v), initial=0.0) <= 1e-9 * scale
        assert np.max(np.abs(series.I[k] - i), initial=0.0) <= 1e-9 * scale
        assert np.max(np.abs(e_series - e), initial=0.0) <= 1e-9 * scale
        j_scale = max(np.max(np.abs(j_ref), initial=0.0), 1.0)
        assert series.kcl_residual[k] <= 1e-8 * j_scale


def test_solve_series_stored_voltages(b4gic_case):
    series = solve_series(b4gic_case, None, [0.0, 5.0])
    v_ref, i_ref, _ = _dense_oracle(b4gic_case, None, {}, {})
    for k in range(2):
        assert currents(series, k) == pytest.approx(i_ref)
        assert voltages(series, k) == pytest.approx(v_ref)


def test_benchmark_reference_currents_are_the_engines(epri21_case):
    """The epri21 unit-field currents the benchmark checks against are the
    engine's unit-north and unit-east currents, within 1e-9 of the largest;
    branches outside the solve set read 0."""
    path = os.path.join(os.path.dirname(CASES), "perfbench", "reference.json")
    with open(path, encoding="utf-8") as fh:
        ref = {int(b): i for b, i in json.load(fh)["epri21_unit_currents"].items()}
    series = solve_series(epri21_case, np.eye(2), [0.0, 1.0])
    got = dict(zip(series.branch_ids, series.I.T.tolist()))
    assert ref.keys() == {e.index for e in epri21_case.gmd_branches}
    scale = max(abs(i) for pair in ref.values() for i in pair)
    for b, pair in ref.items():
        if b in got:
            assert pair == pytest.approx(got[b], rel=1e-9, abs=1e-9 * scale), b
        else:
            assert pair == [0.0, 0.0], b


def test_solve_series_pins_floating_component_once():
    case = _floating_case()
    with pytest.warns(UserWarning, match="ungrounded") as record:
        series = solve_series(case, None, [0.0, 1.0, 2.0])
    assert len(record) == 1
    assert np.all(series.I == 0.0)


# -- independent oracle: a dense nodal solve built from the case rows ---------

@st.composite
def oracle_inputs(draw):
    """A random network with random route lengths, stored voltages, ungrounded
    nodes and opened branches, and a field with overrides, or neither (the
    stored br_v then drives the solve)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    case = random_dc_case(rng)
    unground = draw(st.sets(st.sampled_from([b.index for b in case.gmd_buses if b.g_gnd > 0])))
    branches = tuple(dataclasses.replace(
        e, len_km=float(rng.choice([0.0, rng.uniform(5.0, 400.0)])),
        br_v=float(rng.uniform(-200.0, 200.0))) for e in case.gmd_branches)
    case = dataclasses.replace(case, gmd_branches=branches, gmd_buses=tuple(
        dataclasses.replace(b, g_gnd=0.0) if b.index in unground else b
        for b in case.gmd_buses))
    topology = {b: 0 for b in draw(st.sets(st.sampled_from([br.index for br in case.ac_branches])))}
    field = draw(st.none() | st.tuples(st.floats(0.0, 10.0, **FINITE),
                                       st.floats(0.0, 360.0, **FINITE)))
    overrides = {} if field is None else {
        b: draw(st.floats(-500.0, 500.0, **FINITE))
        for b in draw(st.sets(st.sampled_from([e.index for e in branches]), max_size=4))}
    return case, field, overrides, topology


def _dense_oracle(case, e_field, overrides, topology):
    """Node voltages, branch currents and Norton injections J from G V = J
    assembled densely from the case rows under a FieldVector (None: the
    stored br_v), with the source precedence and the pinning applied here."""
    nodes = [b.index for b in case.gmd_buses if b.status]
    ground = [b.g_gnd for b in case.gmd_buses if b.status]
    row = {n: i for i, n in enumerate(nodes)}
    windings = {w for r in case.branch_gmd if r.type == "xfmr"
                for w in (r.gmd_br_hi, r.gmd_br_lo, r.gmd_br_se, r.gmd_br_co) if w != ABSENT}
    series_caps = {r.branch for r in case.branch_gmd if r.type == "series_cap"}
    G = np.diag(ground)
    J = np.zeros(len(nodes))
    edges = []
    for e in case.gmd_branches:
        status = case.ac_branch(e.parent).status if e.parent != ABSENT else 1
        if not (e.status and topology.get(e.parent, status) and e.parent not in series_caps
                and e.f_bus in row and e.t_bus in row):
            continue
        if e.index in overrides:
            v = overrides[e.index]
        elif e_field is None:
            v = e.br_v
        elif e.index in windings:
            v = 0.0
        else:
            l_n, l_e = _branch_lengths(case, e)
            norm = math.hypot(l_n, l_e)
            if e.len_km > 0 and norm > 0:
                l_n, l_e = l_n * e.len_km / norm, l_e * e.len_km / norm
            v = e_field.e_north * l_n + e_field.e_east * l_e
        f, t, a = row[e.f_bus], row[e.t_bus], 1.0 / e.br_r
        G[[f, t], [f, t]] += a
        G[[f, t], [t, f]] -= a
        J[f] -= a * v
        J[t] += a * v
        edges.append((e.index, f, t, a, v))
    injections = J.copy()
    # one pinned node per floating component: its lowest row, held at 0 V
    label = list(range(len(nodes)))
    for _, f, t, _, _ in edges:
        old, new = label[t], label[f]
        label = [new if x == old else x for x in label]
    for comp in set(label):
        members = [i for i in range(len(nodes)) if label[i] == comp]
        if not any(ground[i] > 0 for i in members):
            G[members[0], :] = 0.0
            G[:, members[0]] = 0.0
            G[members[0], members[0]] = 1.0
            J[members[0]] = 0.0
    V = np.linalg.solve(G, J)
    return (dict(zip(nodes, V)),
            {b: a * (V[f] - V[t] + v) for b, f, t, a, v in edges}, injections)


@settings(max_examples=80, deadline=None)
@given(oracle_inputs())
def test_solves_match_dense_oracle(inputs):
    case, field, overrides, topology = inputs
    e_field = None if field is None else FieldVector.from_mag_dir(*field)
    v_ref, i_ref, _ = _dense_oracle(case, e_field, overrides, topology)
    scale = max(max(map(abs, v_ref.values()), default=0.0),
                max(map(abs, i_ref.values()), default=0.0), 1.0)
    fields = None if field is None else FieldScenario(
        (FieldSample(0.0, *field),),
        voltage_overrides={b: ((0.0, v),) for b, v in overrides.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        series = solve_series(case, fields, [0.0], topology=topology)
    v, i = voltages(series), currents(series)
    assert v.keys() == v_ref.keys() and i.keys() == i_ref.keys()
    assert max((abs(v[n] - v_ref[n]) for n in v_ref), default=0.0) <= 1e-9 * scale
    assert max((abs(i[b] - i_ref[b]) for b in i_ref), default=0.0) <= 1e-9 * scale


def _assemble_by_rows(case, field, overridden, topology):
    """Oracle of ``assemble`` from the rows: the solve set edge by edge (own
    status, ends in service, no series-capacitor parent, parent in service
    with ``topology`` over the nominal status), breadth-first component
    labels and the source basis in Python floats."""
    nodes = [b.index for b in case.gmd_buses if b.status]
    row = {n: i for i, n in enumerate(nodes)}
    caps = {r.branch for r in case.branch_gmd if r.type == "series_cap"}

    def live(e):
        if not (e.status and e.f_bus in row and e.t_bus in row):
            return False
        return e.parent == ABSENT or (e.parent not in caps and bool(
            topology.get(e.parent, case.ac_branch(e.parent).status)))

    edges = [e for e in case.gmd_branches if live(e)]
    f, t = [row[e.f_bus] for e in edges], [row[e.t_bus] for e in edges]
    comp, label = [-1] * len(nodes), 0
    for start in range(len(nodes)):
        if comp[start] < 0:
            comp[start], stack = label, [start]
            while stack:
                i = stack.pop()
                for a, b in zip(f + t, t + f):
                    if a == i and comp[b] < 0:
                        comp[b] = label
                        stack.append(b)
            label += 1
    ids = [e.index for e in edges]
    if field:  # raises MissingCoordinates as _branch_lengths does, edge by edge
        north, east = _branch_by_branch_lengths(case, SimpleNamespace(branch_ids=ids),
                                                overridden).T
        base = [[1.0 * n + 0.0 * e for n, e in zip(north.tolist(), east.tolist())],
                [0.0 * n + 1.0 * e for n, e in zip(north.tolist(), east.tolist())]]
    else:
        base = [[e.br_v for e in edges]]
    cols = ([[0.0 if bid in overridden else v for bid, v in zip(ids, col)] for col in base]
            + [[float(bid == b) for bid in ids] for b in overridden])
    return {"node_ids": tuple(nodes), "branch_ids": tuple(ids), "f": np.array(f, dtype=int),
            "t": np.array(t, dtype=int), "a": np.array([1.0 / e.br_r for e in edges]),
            "parent": np.array([e.parent for e in edges], dtype=int),
            "comp": np.array(comp, dtype=int),
            "sources": np.array(cols, dtype=float).reshape(len(cols), len(ids)).T}


@st.composite
def topology_inputs(draw):
    """A random dc case with some branches nominally open, some line rows
    turned series capacitors, some gmd buses and branches out of service and
    some buses without coordinates; a topology that may close nominally open
    branches; overrides, possibly on branches outside the solve set."""
    case = random_dc_case(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    ac_ids = [br.index for br in case.ac_branches]
    lines = [r.branch for r in case.branch_gmd if r.type == "line"]
    gmd_ids = [e.index for e in case.gmd_branches]

    def subset(ids, n):
        return draw(st.sets(st.sampled_from(ids), max_size=n))

    opened, caps = subset(ac_ids, 3), subset(lines, 2)
    off_nodes, off_edges = subset([b.index for b in case.gmd_buses], 2), subset(gmd_ids, 2)
    unlocated = subset([c.bus for c in case.bus_gmd], 2)
    case = dataclasses.replace(
        case,
        ac_branches=tuple(dataclasses.replace(br, status=int(br.index not in opened))
                          for br in case.ac_branches),
        branch_gmd=tuple(dataclasses.replace(r, type="series_cap") if r.branch in caps else r
                         for r in case.branch_gmd),
        gmd_buses=tuple(dataclasses.replace(b, status=int(b.index not in off_nodes))
                        for b in case.gmd_buses),
        gmd_branches=tuple(dataclasses.replace(e, status=int(e.index not in off_edges))
                           for e in case.gmd_branches),
        bus_gmd=tuple(c for c in case.bus_gmd if c.bus not in unlocated))
    topology = draw(st.dictionaries(st.sampled_from(ac_ids), st.integers(0, 1), max_size=5))
    overridden = tuple(draw(st.lists(st.sampled_from(gmd_ids), unique=True, max_size=3)))
    return case, draw(st.booleans()), overridden, topology


@settings(max_examples=150, deadline=None)
@given(topology_inputs())
def test_assemble_is_the_row_by_row_solve_set(inputs):
    """Under any topology ``assemble``'s mask over the compiled arrays selects
    bit for bit the solve set a walk over the rows finds, and raises
    MissingCoordinates exactly when a live, field-seeing, non-overridden edge
    lacks coordinates, with the same message."""
    case, field, overridden, topology = inputs
    try:
        want = _assemble_by_rows(case, field, overridden, topology)
    except MissingCoordinates as expected:
        with pytest.raises(MissingCoordinates) as err:
            assemble(case, field, overridden, topology=topology)
        assert str(err.value) == str(expected)
        return
    sys = assemble(case, field, overridden, topology=topology)
    for name, value in want.items():
        got = getattr(sys, name)
        if isinstance(value, tuple):
            assert got == value, name
        else:
            assert got.dtype == value.dtype and got.shape == value.shape, name
            assert got.tobytes() == value.tobytes(), name


def test_each_layer_compiles_once_per_case(epri21_case, monkeypatch):
    """One ac analysis and then a dc solve under another topology build the
    dc and the ac arrays of a case once each."""
    from gicgrid import coupling, dcnet
    from gicgrid.coupling import sequential_gic_ac

    built = []
    for module, name in ((dcnet, "DcArrays"), (coupling, "AcArrays")):
        class Counted(getattr(module, name)):
            def __init__(self, case, name=name):
                built.append(name)
                super().__init__(case)
        monkeypatch.setattr(module, name, Counted)
    case = dataclasses.replace(epri21_case)  # a new object: nothing compiled for it yet
    sequential_gic_ac(case, FieldVector.from_mag_dir(1.0, 90.0))
    solve_series(case, np.array([[1.0, 0.0]]), [0.0], topology={7: 0})
    assert sorted(built) == ["AcArrays", "DcArrays"]


def test_reparsed_case_is_compiled_afresh(epri21_case):
    """A case parsed again with one grounding changed gives the changed
    currents: no compiled array carries over from the first case."""
    from gicgrid.data import parse_case, serialize_case

    field = FieldVector.from_mag_dir(2.0, 60.0)
    doc = json.loads(serialize_case(epri21_case))
    before = solve_at(parse_case(json.dumps(doc)), field)
    v = voltages(before)
    grounded = max(doc["gmd_bus"], key=lambda b: b["g_gnd"] * abs(v.get(b["index"], 0.0)))
    grounded["g_gnd"] *= 4.0  # the neutral that carries the most current
    changed = parse_case(json.dumps(doc))
    after = solve_at(changed, field)
    _, i_ref, _ = _dense_oracle(changed, field, {}, {})
    assert not np.allclose(after.I, before.I)
    assert currents(after) == pytest.approx(i_ref, rel=1e-9, abs=1e-9)
