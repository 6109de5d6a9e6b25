"""Quasi-dc solve: geometry, assembly, linear-circuit properties."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gicgrid.data import FieldSample, FieldScenario
from gicgrid.dcnet import (EARTH_RADIUS_KM, FieldVector, MissingCoordinates,
                           SingularNetworkError, assemble, branch_lengths,
                           effective_gic, induced_voltage, solve_dc, solve_series)

from conftest import random_dc_case

LOOP_CURRENT = 170.788 / 1.601  # series mesh: 0.2 + 0.1 + 1.001 + 0.1 + 0.2 ohm


def test_branch_lengths_east_west(b4gic_case):
    l_n, l_e = branch_lengths(b4gic_case, b4gic_case.gmd_branch(2))
    assert l_n == pytest.approx(0.0, abs=1e-12)
    expect = EARTH_RADIUS_KM * math.radians(2.0) * math.cos(math.radians(40.0))
    assert l_e == pytest.approx(expect, rel=1e-12)
    assert l_e == pytest.approx(170.36, abs=0.05)


def test_branch_lengths_identical_endpoints(b4gic_case):
    # transformer winding: both endpoints at the bus-1 substation
    l_n, l_e = branch_lengths(b4gic_case, b4gic_case.gmd_branch(1))
    assert (l_n, l_e) == (0.0, 0.0)


def test_branch_lengths_pure_north():
    import json
    from gicgrid.data import parse_case, serialize_case
    from gicgrid.cases import b4gic
    doc = json.loads(serialize_case(b4gic()))
    doc["bus_gmd"][0] = {"bus": 1, "lat": 41.0, "lon": -89.0}
    doc["bus_gmd"][1] = {"bus": 2, "lat": 40.0, "lon": -89.0}
    case = parse_case(json.dumps(doc))
    l_n, l_e = branch_lengths(case, case.gmd_branch(2))
    assert l_e == pytest.approx(0.0, abs=1e-12)
    assert l_n == pytest.approx(-EARTH_RADIUS_KM * math.radians(1.0), rel=1e-12)
    assert l_n == pytest.approx(-111.19, abs=0.01)


def test_missing_coordinates_error(b4gic_case):
    import dataclasses
    case = dataclasses.replace(b4gic_case, bus_gmd=b4gic_case.bus_gmd[1:])
    with pytest.raises(MissingCoordinates, match="bus 1"):
        branch_lengths(case, case.gmd_branch(2))


def test_induced_voltage_eastward():
    assert induced_voltage(1.0, 90.0, 0.0, 170.788) == pytest.approx(170.788)


def test_induced_voltage_zero_field():
    assert induced_voltage(0.0, 123.0, 55.0, -70.0) == 0.0


def test_induced_voltage_peak_field():
    assert induced_voltage(3.2, 90.0, 0.0, 170.788) == pytest.approx(546.52, abs=5e-3)


def test_induced_voltage_north_projection():
    v = induced_voltage(2.0, 0.0, 100.0, 50.0)
    assert v == pytest.approx(200.0, abs=1e-9)


def test_assemble_b4gic_structure(b4gic_case):
    sys = assemble(b4gic_case, FieldVector.from_mag_dir(1.0, 90.0))
    assert sys.G.shape == (6, 6)
    # Norton injections only at the line endpoints (gmd buses 3 and 4)
    nz = {sys.node_ids[i] for i in np.nonzero(sys.J)[0]}
    assert nz == {3, 4}
    assert np.allclose(sys.G, sys.G.T)
    eigvals = np.linalg.eigvalsh(sys.G)
    assert eigvals.min() > -1e-12
    # row sums reduce to the grounding admittance: couplings cancel
    assert np.allclose(sys.G.sum(axis=1), sys.ground)


def test_assemble_zero_field_zero_injection(b4gic_case):
    sys = assemble(b4gic_case, FieldVector.from_mag_dir(0.0, 90.0))
    assert np.all(sys.J == 0.0)


def test_assemble_injection_linearity(b4gic_case):
    one = assemble(b4gic_case, FieldVector.from_mag_dir(1.0, 90.0))
    two = assemble(b4gic_case, FieldVector.from_mag_dir(2.0, 90.0))
    assert np.allclose(two.J, 2.0 * one.J)


def test_assemble_override_precedence(b4gic_case):
    sys = assemble(b4gic_case, FieldVector.from_mag_dir(1.0, 90.0),
                   overrides={2: 500.0})
    edge = next(e for e in sys.edges if e.index == 2)
    assert edge.v_src == 500.0


def test_assemble_without_field_uses_stored_voltage(b4gic_case):
    sys = assemble(b4gic_case)
    edge = next(e for e in sys.edges if e.index == 2)
    assert edge.v_src == 170.788


def test_assemble_respects_topology(b4gic_case):
    sys = assemble(b4gic_case, topology={2: 0})
    assert all(e.index != 2 for e in sys.edges)


def test_solve_b4gic_loop(b4gic_case):
    sol = solve_dc(assemble(b4gic_case, FieldVector.from_mag_dir(1.0, 90.0)))
    for gid in (1, 2, 3):
        assert abs(sol.branch_currents[gid]) == pytest.approx(LOOP_CURRENT,
                                                              rel=1e-9)
    assert sol.kcl_residual <= 1e-8 * 170.788


def test_solve_zero_field(b4gic_case):
    sol = solve_dc(assemble(b4gic_case, FieldVector.from_mag_dir(0.0, 90.0)))
    assert all(v == 0.0 for v in sol.node_voltages.values())
    assert all(i == 0.0 for i in sol.branch_currents.values())


def test_effective_gic_gsu(b4gic_case):
    sol = solve_dc(assemble(b4gic_case, FieldVector.from_mag_dir(1.0, 90.0)))
    eff = effective_gic(b4gic_case, sol)
    assert eff[0] == pytest.approx(LOOP_CURRENT, rel=1e-9)
    assert eff[2] == pytest.approx(LOOP_CURRENT, rel=1e-9)


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


def test_effective_gic_gwye_gwye_cancellation():
    from gicgrid.dcnet import GicSolution
    case = _two_winding_case("gwye-gwye", 2.0)
    sol = GicSolution(node_voltages={}, branch_currents={1: 10.0, 2: -20.0})
    eff = effective_gic(case, sol)
    assert eff[0] == pytest.approx(0.0, abs=1e-12)


def test_effective_gic_auto_formula():
    from gicgrid.dcnet import GicSolution
    case = _two_winding_case("gwye-gwye-auto", 0.5)
    sol = GicSolution(node_voltages={}, branch_currents={1: 30.0, 2: 15.0})
    eff = effective_gic(case, sol)
    assert eff[0] == pytest.approx(abs(0.5 * 30.0 + 15.0) / 1.5, rel=1e-12)


def test_effective_gic_delta_delta_zero():
    from gicgrid.dcnet import GicSolution
    case = _two_winding_case("delta-delta", None)
    sol = GicSolution(node_voltages={}, branch_currents={1: 99.0, 2: 99.0})
    assert effective_gic(case, sol)[0] == 0.0


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
    sys = assemble(_floating_case())
    with pytest.warns(UserWarning, match="ungrounded"):
        sol = solve_dc(sys)
    # no ground path: the EMF cannot drive any current
    assert sol.branch_currents[1] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(SingularNetworkError, match="gmd buses"):
        solve_dc(sys, pin_floating=False)


def test_isolated_gen_terminal_nodes_quiet(b4gic_case):
    # dc_bus3/dc_bus4 are isolated single nodes: pinned silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_dc(assemble(b4gic_case, FieldVector.from_mag_dir(1.0, 90.0)))
    assert sol.node_voltages[5] == 0.0
    assert sol.node_voltages[6] == 0.0


# -- linear-circuit properties on random networks ----------------------------

def _solve(case, mag, direction):
    return solve_dc(assemble(case, FieldVector.from_mag_dir(mag, direction)))


def _as_vectors(sol):
    v = np.array([sol.node_voltages[k] for k in sorted(sol.node_voltages)])
    i = np.array([sol.branch_currents[k] for k in sorted(sol.branch_currents)])
    return v, i


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
    va, ia = _as_vectors(solve_dc(assemble(case, fa)))
    vb, ib = _as_vectors(solve_dc(assemble(case, fb)))
    vs, is_ = _as_vectors(solve_dc(assemble(case, fsum)))
    scale = max(np.abs(is_).max(), np.abs(vs).max(), 1e-12)
    assert np.max(np.abs(vs - (va + vb))) <= 1e-8 * scale
    assert np.max(np.abs(is_ - (ia + ib))) <= 1e-8 * scale


@pytest.mark.parametrize("seed", range(8))
def test_kcl_at_every_node(seed):
    case = random_dc_case(np.random.default_rng(seed + 300))
    sys = assemble(case, FieldVector.from_mag_dir(2.5, 120.0))
    sol = solve_dc(sys)
    assert sol.kcl_residual <= 1e-8 * max(np.abs(sys.J).max(), 1.0)


@pytest.mark.parametrize("seed", range(6))
def test_removing_zero_current_branch_is_neutral(seed):
    """Removing a dead branch changes no current and no grounded voltage.

    If the dead branch was a bridge to ground, the severed side keeps zero
    currents but its potential reference becomes arbitrary (pinned), so
    voltage equality is only asserted for nodes still connected to ground.
    """
    import dataclasses
    rng = np.random.default_rng(seed + 400)
    case = random_dc_case(rng)
    field = FieldVector.from_mag_dir(1.5, 90.0)
    sol = solve_dc(assemble(case, field))
    dead = [gid for gid, i in sol.branch_currents.items() if abs(i) < 1e-12]
    if not dead:
        pytest.skip("no zero-current branch in this draw")
    keep = tuple(e for e in case.gmd_branches if e.index != dead[0])
    case2 = dataclasses.replace(case, gmd_branches=keep)
    sys2 = assemble(case2, field)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol2 = solve_dc(sys2)
    scale = max(abs(i) for i in sol.branch_currents.values())
    for gid, i in sol2.branch_currents.items():
        assert i == pytest.approx(sol.branch_currents[gid], abs=1e-9 * scale)
    grounded = _grounded_nodes(sys2)
    for nid in grounded:
        assert sol2.node_voltages[nid] == pytest.approx(
            sol.node_voltages[nid], abs=1e-9 * max(scale, 1.0))


def _grounded_nodes(sys):
    parent = list(range(len(sys.node_ids)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in sys.edges:
        parent[find(e.f)] = find(e.t)
    roots_with_ground = {find(i) for i in range(len(sys.node_ids))
                         if sys.ground[i] > 0}
    return {sys.node_ids[i] for i in range(len(sys.node_ids))
            if find(i) in roots_with_ground}


# -- time-series engine against per-point solves ------------------------------

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


@settings(max_examples=60, deadline=None)
@given(series_inputs())
def test_solve_series_matches_per_point_solves(inputs):
    case, scenario, topology, times = inputs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        series = solve_series(case, scenario, times, topology=topology)
        for k, t in enumerate(times):
            sys = assemble(case, FieldVector(*scenario.at(t)),
                           overrides=scenario.overrides_at(t), topology=topology)
            sol = solve_dc(sys)
            assert series.node_ids == sys.node_ids
            assert set(series.branch_ids) == set(sol.branch_currents)
            v = np.array([sol.node_voltages[n] for n in series.node_ids])
            i = np.array([sol.branch_currents[b] for b in series.branch_ids])
            eff = effective_gic(case, sol)
            e = np.array([eff[p] for p in sorted(eff)])
            e_series = np.array([series.effective[p][k] for p in sorted(eff)])
            scale = max(np.max(np.abs(v), initial=0.0), np.max(np.abs(i), initial=0.0), 1.0)
            assert np.max(np.abs(series.V[k] - v), initial=0.0) <= 1e-9 * scale
            assert np.max(np.abs(series.I[k] - i), initial=0.0) <= 1e-9 * scale
            assert np.max(np.abs(e_series - e), initial=0.0) <= 1e-9 * scale
            j_scale = max(np.max(np.abs(sys.J), initial=0.0), 1.0)
            assert series.kcl_residual[k] <= 1e-8 * j_scale


def test_solve_series_stored_voltages(b4gic_case):
    series = solve_series(b4gic_case, None, [0.0, 5.0])
    sol = solve_dc(assemble(b4gic_case))
    for k in range(2):
        assert dict(zip(series.branch_ids, series.I[k])) == pytest.approx(sol.branch_currents)
        assert dict(zip(series.node_ids, series.V[k])) == pytest.approx(sol.node_voltages)


def test_solve_series_pins_floating_component_once():
    case = _floating_case()
    with pytest.warns(UserWarning, match="ungrounded") as record:
        series = solve_series(case, None, [0.0, 1.0, 2.0])
    assert len(record) == 1
    assert np.all(series.I == 0.0)
