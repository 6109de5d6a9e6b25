"""Switching model construction, branch-and-bound, oracle and verification."""

import copy
import dataclasses
import hashlib
import itertools
import json
import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gicgrid.data import (FieldSample, FieldScenario, load_scenario_file, make_ramp_scenario,
                          parse_case)
from gicgrid.dcnet import solve_series
from gicgrid.lp import LpProblem, lp_solve
from gicgrid import mitigation
from gicgrid.mitigation import (MitigationInfeasible, OtsOptions, VerifyReport, build_model,
                                enumerate_solve, solve, verify_plan)
from gicgrid.thermal import simulate, topoil_series

from conftest import effective, random_ots_case


def _nonswitchable(case):
    return dataclasses.replace(
        case, ac_branches=tuple(dataclasses.replace(br, switchable=False)
                                for br in case.ac_branches))


def test_b4gic_single_period_reduces_to_dc_opf(b4gic_case):
    case = _nonswitchable(b4gic_case)
    scenario = FieldScenario(samples=(FieldSample(0.0, 1.0, 90.0),
                                      FieldSample(5.0, 1.0, 90.0)), dt=5.0)
    model = build_model(case, scenario)
    assert model.switchable == []
    plan = solve(model)
    assert plan.z == {}
    assert plan.nodes == 1 and plan.gap == 0.0
    # loads are fixed: total dispatch is the 10 p.u. demand each period
    total = sum(series[0] for series in plan.gen_p.values())
    assert total == pytest.approx(10.0, abs=1e-7)
    # cheap unit carries everything it can
    assert plan.gen_p[1][0] > plan.gen_p[2][0]
    # fixed GIC equalities: model effective currents equal the dc solve
    assert plan.i_eff[0][0] == pytest.approx(170.788 / 1.601, rel=1e-6)


def test_variable_count_formula():
    """Primary-variable count matches T*(G+N+E+2X)+B*(Nd+Ed)+S exactly: the dc
    circuit is held once per superposition basis, not once per period."""
    rng = np.random.default_rng(7)
    case, scenario = random_ots_case(rng)
    model = build_model(case, scenario)
    T = model.n_periods
    G, N, E = len(model.gens), len(model.buses), len(model.branches)
    Nd, Ed, X = len(model.dc.node_ids), len(model.dc.branch_ids), len(model.xfmrs)
    S, B = len(model.switchable), model.coeffs.shape[1]
    assert model.primary_var_count == T * (G + N + E + 2 * X) + B * (Nd + Ed) + S
    # every constraint references declared variables only
    assert model.lp.A_eq.shape[1] == model.lp.n
    assert model.lp.A_ub.shape[1] == model.lp.n
    assert int(model.lp.A_ub[:, :0].nnz) == 0


def test_no_binaries_solve_equals_enumerate(b4gic_case):
    case = _nonswitchable(b4gic_case)
    scenario = make_ramp_scenario(1.0, 30.0, 30.0, dt=15.0)
    model = build_model(case, scenario)
    a = solve(model)
    b = enumerate_solve(model)
    assert a.model_objective == pytest.approx(b.model_objective, rel=1e-9)
    assert a.z == b.z == {}


def _east_west_toy():
    """3-bus toy: one long east-west line drives GIC through a capped GSU.

    Power can be served with the east-west line open (parallel northern
    path), so the optimizer should open it and nothing else.
    """
    doc = {
        "base_mva": 100.0,
        "bus": [
            {"index": 1, "base_kv": 345.0, "bus_type": "slack"},
            {"index": 2, "base_kv": 345.0, "pd": 1.0},
            {"index": 3, "base_kv": 345.0, "pd": 1.0},
        ],
        "gen": [{"index": 1, "bus": 1, "pmin": 0, "pmax": 5.0, "cost_1": 10.0}],
        "branch": [
            {"index": 1, "f_bus": 1, "t_bus": 2, "b": 40.0, "rating": 5.0,
             "switchable": True},                       # east-west, long
            {"index": 2, "f_bus": 1, "t_bus": 3, "b": 40.0, "rating": 5.0,
             "switchable": True},                       # northern detour
            {"index": 3, "f_bus": 3, "t_bus": 2, "b": 40.0, "rating": 5.0,
             "switchable": True},
            {"index": 4, "f_bus": 1, "t_bus": 3, "b": 60.0, "rating": 5.0},  # GSU stub
        ],
        "gmd_bus": [
            {"index": 1, "parent": 1, "status": 1, "g_gnd": 0.0, "name": "n1"},
            {"index": 2, "parent": 2, "status": 1, "g_gnd": 0.0, "name": "n2"},
            {"index": 3, "parent": 3, "status": 1, "g_gnd": 0.0, "name": "n3"},
            {"index": 4, "parent": 1, "status": 1, "g_gnd": 5.0, "name": "sub1"},
            {"index": 5, "parent": 2, "status": 1, "g_gnd": 5.0, "name": "sub2"},
        ],
        "gmd_branch": [
            {"index": 1, "f_bus": 1, "t_bus": 2, "parent": 1, "status": 1,
             "br_r": 1.0},
            {"index": 2, "f_bus": 1, "t_bus": 3, "parent": 2, "status": 1,
             "br_r": 1.0},
            {"index": 3, "f_bus": 3, "t_bus": 2, "parent": 3, "status": 1,
             "br_r": 1.0},
            {"index": 4, "f_bus": 1, "t_bus": 4, "parent": 4, "status": 1,
             "br_r": 0.1},
            {"index": 5, "f_bus": 2, "t_bus": 5, "parent": -1, "status": 1,
             "br_r": 0.1},
        ],
        "branch_gmd": [
            {"branch": 1, "hi_bus": 1, "lo_bus": 2, "gmd_k": -1, "type": "line",
             "config": "none"},
            {"branch": 2, "hi_bus": 1, "lo_bus": 3, "gmd_k": -1, "type": "line",
             "config": "none"},
            {"branch": 3, "hi_bus": 3, "lo_bus": 2, "gmd_k": -1, "type": "line",
             "config": "none"},
            {"branch": 4, "hi_bus": 1, "lo_bus": 3, "gmd_br_hi": 4,
             "gmd_k": 1.793, "type": "xfmr", "config": "gwye-delta",
             "gic_bound": 40.0},
            {"branch": -1, "hi_bus": 2, "lo_bus": -1, "gmd_br_hi": 5,
             "gmd_k": -1, "type": "xfmr", "config": "gwye-delta"},
        ],
        "branch_thermal": [
            {"branch": 4, "xfmr": 1, "temp_amb": 25.0, "hs_inst_lim": 280.0,
             "hs_avg_lim": 240.0, "hs_rated": 150.0, "to_time_c": 71.0,
             "to_rated": 75.0, "to_init": 0.0, "to_inited": 0,
             "hs_coeff": 0.63}],
        "bus_gmd": [
            {"bus": 1, "lat": 34.0, "lon": -88.0},
            {"bus": 2, "lat": 34.0, "lon": -86.0},   # due east of bus 1
            {"bus": 3, "lat": 35.5, "lon": -87.0},
        ],
    }
    return parse_case(json.dumps(doc))


def test_optimizer_opens_offending_east_west_line():
    case = _east_west_toy()
    scenario = make_ramp_scenario(8.0, 30.0, 30.0, dt=10.0)
    model = build_model(case, scenario)
    plan = solve(model)
    ref = enumerate_solve(model)
    assert plan.model_objective == pytest.approx(ref.model_objective, rel=1e-4)
    assert plan.z[1] == 0              # the east-west line opens
    assert verify_plan(case, scenario, plan).ok(1e-6)
    # every feasible integer assignment has the east-west line open
    import itertools
    from gicgrid.lp import lp_solve
    for bits in itertools.product((0.0, 1.0), repeat=3):
        lb = model.lp.lb.copy()
        ub = model.lp.ub.copy()
        for bid, val in zip(model.switchable, bits):
            lb[model.z_col[bid]] = ub[model.z_col[bid]] = val
        res = lp_solve(model.lp, lb=lb, ub=ub)
        if res.status == "optimal":
            assert bits[model.switchable.index(1)] == 0.0


def test_all_closed_optimal_when_field_vanishes():
    """With no field the nominal (all-closed) topology is dispatch-optimal."""
    doc = {
        "base_mva": 100.0,
        "bus": [{"index": 1, "base_kv": 138.0, "bus_type": "slack"},
                {"index": 2, "base_kv": 138.0, "pd": 2.0}],
        "gen": [{"index": 1, "bus": 1, "pmin": 0, "pmax": 4.0, "cost_1": 5.0},
                {"index": 2, "bus": 2, "pmin": 0, "pmax": 4.0, "cost_1": 50.0}],
        "branch": [
            {"index": 1, "f_bus": 1, "t_bus": 2, "b": 30.0, "rating": 1.0,
             "switchable": True},
            {"index": 2, "f_bus": 1, "t_bus": 2, "b": 30.0, "rating": 1.0,
             "switchable": True}],
        "gmd_bus": [], "gmd_branch": [], "branch_gmd": [],
        "branch_thermal": [], "bus_gmd": [],
    }
    case = parse_case(json.dumps(doc))
    scenario = make_ramp_scenario(0.0, 20.0, 20.0, dt=10.0)
    plan = solve(build_model(case, scenario))
    # both 1 p.u. circuits needed to serve the 2 p.u. load from the cheap unit
    assert plan.z == {1: 1, 2: 1}
    assert plan.gen_p[1][0] == pytest.approx(2.0, abs=1e-7)


def test_switch_off_semantics():
    case = _east_west_toy()
    scenario = make_ramp_scenario(8.0, 30.0, 30.0, dt=10.0)
    plan = solve(build_model(case, scenario))
    assert plan.z[1] == 0
    assert all(abs(p) <= 1e-9 for p in plan.flows[1])


def test_eq16_relaxation_soundness():
    case = _east_west_toy()
    scenario = make_ramp_scenario(8.0, 30.0, 30.0, dt=10.0)
    plan = solve(build_model(case, scenario))
    report = verify_plan(case, scenario, plan)
    assert report.violations["eff_soundness"] <= 1e-7


def test_objective_recompute_matches():
    case = _east_west_toy()
    scenario = make_ramp_scenario(8.0, 30.0, 30.0, dt=10.0)
    plan = solve(build_model(case, scenario))
    report = verify_plan(case, scenario, plan)
    assert report.violations["objective"] <= 1e-6


def test_solver_is_deterministic():
    case = _east_west_toy()
    scenario = make_ramp_scenario(8.0, 30.0, 30.0, dt=10.0)
    p1 = solve(build_model(case, scenario))
    p2 = solve(build_model(case, scenario))
    assert p1.z == p2.z
    assert p1.nodes == p2.nodes
    assert p1.model_objective == p2.model_objective
    assert p1.gen_p == p2.gen_p


def test_enumerate_cap():
    rng = np.random.default_rng(3)
    case, scenario = random_ots_case(rng)
    model = build_model(case, scenario)
    with pytest.raises(ValueError, match="cap"):
        enumerate_solve(model, cap=0)


def test_infeasible_reports_probe_context():
    """Load above total generation: every assignment fails power balance."""
    doc = {
        "base_mva": 100.0,
        "bus": [{"index": 1, "base_kv": 138.0, "bus_type": "slack"},
                {"index": 2, "base_kv": 138.0, "pd": 9.0}],
        "gen": [{"index": 1, "bus": 1, "pmin": 0, "pmax": 1.0}],
        "branch": [{"index": 1, "f_bus": 1, "t_bus": 2, "b": 30.0,
                    "rating": 10.0, "switchable": True}],
        "gmd_bus": [], "gmd_branch": [], "branch_gmd": [],
        "branch_thermal": [], "bus_gmd": [],
    }
    case = parse_case(json.dumps(doc))
    scenario = make_ramp_scenario(0.0, 20.0, 20.0, dt=10.0)
    model = build_model(case, scenario)
    for solver in (solve, enumerate_solve):
        with pytest.raises(MitigationInfeasible) as err:
            solver(model)
        assert err.value.context["all_closed"] == "power_flow"
        assert err.value.context["all_open"] == "power_flow"


def test_gic_cap_named_in_probe():
    """Unreachable GIC bound on a non-switchable loop: probes blame the cap,
    also when the field drives the effective currents far past any constant."""
    case = _east_west_toy()
    rows = tuple(dataclasses.replace(r, gic_bound=1e-3)
                 if r.branch == 4 else r for r in case.branch_gmd)
    # the east-west line cannot be opened: the GIC loop always exists
    branches = tuple(dataclasses.replace(br, switchable=False)
                     if br.index == 1 else br for br in case.ac_branches)
    case = dataclasses.replace(case, branch_gmd=rows, ac_branches=branches)
    for field in (8.0, 1e12):
        samples = (FieldSample(0.0, field, 90.0), FieldSample(10.0, field, 90.0))
        scenario = FieldScenario(samples=samples, dt=10.0)
        model = build_model(case, scenario)
        with pytest.raises(MitigationInfeasible) as err:
            solve(model)
        assert err.value.context["all_closed"] == "gic_cap"


def test_verify_flags_constructed_violations():
    case = _east_west_toy()
    scenario = make_ramp_scenario(8.0, 30.0, 30.0, dt=10.0)
    plan = solve(build_model(case, scenario))

    # all-closed plan on a GIC-violating scenario: cap violation reported
    closed = dataclasses.replace(plan, z={k: 1 for k in plan.z})
    rep = verify_plan(case, scenario, closed)
    assert rep.violations["gic_cap"] > 1.0
    assert any("row 3" in d for d in rep.details if "gic_cap" in d)

    # opening the radial GSU feeder's only supply: load balance breaks
    stranded = dataclasses.replace(
        plan, z={**plan.z, 2: 0, 3: 0},
        flows={k: [0.0] * len(v) for k, v in plan.flows.items()})
    rep2 = verify_plan(case, scenario, stranded)
    assert rep2.violations["power_balance"] >= 1.0


@pytest.fixture(scope="module")
def epri21_plan(epri21_case):
    """The switching plan of ``epri21`` under cases/ramp_3p2.csv at dt 30."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scenario = load_scenario_file(os.path.join(here, "cases", "ramp_3p2.csv"), dt=30.0)
    return scenario, solve(build_model(epri21_case, scenario, OtsOptions(dt=30.0)))


def _plant(fault, case, plan):
    """(case, plan, excess): a copy of ``plan``, and of ``case`` where needed,
    with one fault of class ``fault`` planted at the middle period, and the
    least excess the oracle must read for it."""
    plan, t = copy.deepcopy(plan), len(plan.times) // 2
    closed = case.ac_branch(next(k for k, z in sorted(plan.z.items()) if z))
    opened = next(k for k, z in sorted(plan.z.items()) if not z)
    gen = case.generators[0]
    if fault == "rating":
        plan.flows[closed.index][t] = closed.rating + 0.5
        return case, plan, 0.5
    if fault in ("ohm", "angle"):  # shift the from-bus angle away from the to-bus
        theta_f, theta_t = plan.theta[closed.f_bus], plan.theta[closed.t_bus][t]
        theta_f[t] += 1.0 if theta_f[t] >= theta_t else -1.0
        excess = {"ohm": closed.b, "angle": abs(theta_f[t] - theta_t) - closed.angle_max}
        return case, plan, excess[fault]
    if fault == "gen_bounds":
        plan.gen_p[gen.index][t] = gen.pmax + 0.5
        return case, plan, 0.5
    if fault == "switch_off":
        plan.flows[opened][t] = 0.5
        return case, plan, 0.5
    if fault == "power_balance":  # within the bounds of the generator with most headroom
        gen = max(case.generators, key=lambda g: g.pmax - plan.gen_p[g.index][t])
        extra = (gen.pmax - plan.gen_p[gen.index][t]) / 2
        plan.gen_p[gen.index][t] += extra
        return case, plan, extra
    if fault == "eff_soundness":  # the physical I_eff is a magnitude, >= 0
        plan.i_eff[max(plan.i_eff, key=lambda p: max(plan.i_eff[p]))][t] = -5.0
        return case, plan, 5.0
    if fault == "hotspot":  # a hot-spot is never below ambient
        p = next(iter(plan.hotspot))
        row = case.branch_gmd[p]
        limit = case.thermal_for(row.branch).temp_amb - 1.0
        rows = list(case.branch_gmd)
        rows[p] = dataclasses.replace(row, hotspot_limit=limit)
        return dataclasses.replace(case, branch_gmd=tuple(rows)), plan, 1.0
    assert fault == "objective"
    excess = 0.01 * abs(plan.objective) / max(1.0, 1.01 * abs(plan.objective))
    plan.objective *= 1.01
    return case, plan, excess


def test_verify_reads_solved_plan_clean(epri21_case, epri21_plan):
    scenario, plan = epri21_plan
    assert max(verify_plan(epri21_case, scenario, plan).violations.values()) <= 1e-6


@pytest.mark.parametrize("fault", ["rating", "ohm", "angle", "gen_bounds", "switch_off",
                                   "power_balance", "eff_soundness", "hotspot", "objective"])
def test_verify_reads_each_planted_fault(epri21_case, epri21_plan, fault):
    """One planted fault per class reads at least its excess in that class."""
    scenario, plan = epri21_plan
    case, planted, excess = _plant(fault, epri21_case, plan)
    assert excess > 0
    report = verify_plan(case, scenario, planted)
    assert report.violations[fault] >= excess - 1e-9
    assert not report.ok(1e-5)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_toys_bb_equals_enumeration(seed):
    rng = np.random.default_rng(seed + 50)
    case, scenario = random_ots_case(rng)
    model = build_model(case, scenario)
    try:
        ref = enumerate_solve(model)
    except MitigationInfeasible:
        with pytest.raises(MitigationInfeasible):
            solve(model)
        return
    plan = solve(model)
    assert plan.model_objective == pytest.approx(ref.model_objective,
                                                 rel=1e-4, abs=1e-7)
    assert verify_plan(case, scenario, plan).ok(1e-5)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bb_equals_enumeration_property(seed):
    """On any random toy, branch-and-bound finds the enumerated optimum within
    the relative gap and a plan that verifies, or both find none."""
    case, scenario = random_ots_case(np.random.default_rng(seed))
    model = build_model(case, scenario)
    try:
        ref = enumerate_solve(model)
    except MitigationInfeasible:
        with pytest.raises(MitigationInfeasible):
            solve(model)
        return
    plan = solve(model)
    assert plan.status == "optimal"
    assert abs(plan.model_objective - ref.model_objective) <= (
        model.options.gap * max(1.0, abs(ref.model_objective)))
    assert verify_plan(case, scenario, plan).ok(1e-5)


def test_timeout_returns_incumbent(monkeypatch):
    """A limit that cuts the search off returns the incumbent with status
    "timeout" and the gap to the best bound left open.  A limit reached
    before any plan says so: no infeasibility probes run past it."""
    case, scenario = random_ots_case(np.random.default_rng(11))
    model = build_model(case, scenario, OtsOptions(time_limit=0.0))
    calls = _record_fixed(monkeypatch, model)
    monkeypatch.setattr(mitigation, "_infeasibility_probes", lambda m: pytest.fail("probed"))
    with pytest.raises(MitigationInfeasible, match="the time limit stopped the search") as err:
        solve(model)
    assert err.value.context == {} and calls == []

    monkeypatch.undo()
    monkeypatch.setattr(mitigation, "_NODE_LIMIT", 5)
    model = build_model(*random_ots_case(np.random.default_rng(83)))
    plan = mitigation._branch_and_bound(model, time.perf_counter())
    assert (plan.status, plan.nodes) == ("timeout", 5)
    assert plan.gap == pytest.approx(0.17401445399180776, rel=1e-9)
    assert plan.z == {3: 0, 4: 0, 5: 0, 6: 0, 7: 1}


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 83, 1870])
def test_open_line_flow_bounds_change_no_lp(seed):
    """Every z assignment of a toy: the LP as the search solves it (``_fixed``
    holds each open line's flows at 0, lazy rows) ends with the status and
    objective of the same LP with every row held and only z fixed."""
    model = build_model(*random_ots_case(np.random.default_rng(seed)))
    searched = dataclasses.replace(model.lp)
    held = dataclasses.replace(model.lp, lazy=None)
    for assignment in itertools.product((0.0, 1.0), repeat=len(model.switchable)):
        z = dict(zip(model.switchable, assignment))
        lb, ub = mitigation._fixed(model, z)
        plain_lb, plain_ub = model.lp.lb.copy(), model.lp.ub.copy()
        cols = [model.z_col[bid] for bid in z]
        plain_lb[cols] = plain_ub[cols] = assignment
        opened = [model.open_cols[bid] for bid, value in z.items() if value == 0]
        assert all(np.all(lb[c] == 0.0) and np.all(ub[c] == 0.0) for c in opened)
        got, ref = lp_solve(searched, lb=lb, ub=ub), lp_solve(held, lb=plain_lb, ub=plain_ub)
        assert got.status == ref.status
        if ref.status == "optimal":
            assert got.objective == pytest.approx(ref.objective, rel=1e-7)


def test_seeded_lp_adds_no_rating_row(epri21_case):
    """On epri21 at T = 144 the root LP adds rating rows, the seeded LP after
    it none: with every binary fixed, the flow bounds of ``_fixed`` hold the
    rating pairs.  Solved alone, the seeded LP holds no rating row."""
    model = build_model(epri21_case, _ramp_3p2(2.5), OtsOptions(dt=2.5))
    start, stop = model.classes["rating"]

    def rating_rows(lp):
        return np.count_nonzero((lp._held >= start) & (lp._held < stop))

    lp = dataclasses.replace(model.lp)
    assert lp_solve(lp, lb=model.lp.lb, ub=model.lp.ub).status == "optimal"
    at_root = rating_rows(lp)
    assert at_root > 0
    lb, ub = mitigation._fixed(model, _EPRI21_PLAN)
    seeded = lp_solve(lp, lb=lb, ub=ub)
    assert seeded.status == "optimal" and rating_rows(lp) == at_root
    alone = dataclasses.replace(model.lp)
    again = lp_solve(alone, lb=lb, ub=ub)
    assert rating_rows(alone) == 0
    assert again.objective == pytest.approx(seeded.objective, rel=1e-9)
    assert seeded.objective == pytest.approx(63032.688, abs=1e-3)


def test_epri21_binaries_are_inservice_switchable_lines(epri21_case):
    scenario = make_ramp_scenario(3.2, 180.0, 180.0, dt=60.0)
    model = build_model(epri21_case, scenario)
    assert model.switchable == [2, 7, 8, 9, 10, 16, 17]
    nominal_out = {br.index for br in epri21_case.ac_branches if not br.status}
    assert not (set(model.switchable) & nominal_out)


def test_model_transformers_have_every_named_winding_solved(epri21_case):
    """A transformer row enters the model when every winding id it names is a
    gmd branch of the nominal solve set, weighted or not: naming an id the
    case lacks (row 0) or a winding of an open branch (row 14 names branch
    11's) drops it; naming a solved winding (row 13 names row 0's) keeps it."""
    rows = list(epri21_case.branch_gmd)
    for pos, lo in ((0, 9999), (13, 1), (14, 13)):  # gwye-delta rows: gmd_br_lo has no weight
        rows[pos] = dataclasses.replace(rows[pos], gmd_br_lo=lo)
    case = dataclasses.replace(epri21_case, branch_gmd=tuple(rows))
    model = build_model(case, make_ramp_scenario(1.0, 60.0, 60.0, dt=60.0))
    solved = set(model.dc.branch_ids)
    named = {pos: {w for w in (r.gmd_br_hi, r.gmd_br_lo, r.gmd_br_se, r.gmd_br_co) if w != -1}
             for pos, r in case.xfmr_rows()}
    assert [x.pos for x in model.xfmrs] == [p for p, ids in named.items() if ids and ids <= solved]
    assert [x.pos for x in model.xfmrs] == [2, 3, 4, 5, 13, 17]


def test_build_rejects_islanded_load(epri21_case):
    import dataclasses
    from gicgrid.coupling import IslandError
    branches = tuple(dataclasses.replace(br, status=0) if br.index == 10 else br
                     for br in epri21_case.ac_branches)
    # opening 5-6 nominally leaves bus 5's load with a single corridor; also
    # cut both 4-5 circuits to strand it completely
    branches = tuple(dataclasses.replace(br, status=0) if br.index in (7, 8) else br
                     for br in branches)
    case = dataclasses.replace(epri21_case, ac_branches=branches)
    scenario = make_ramp_scenario(1.0, 60.0, 60.0, dt=60.0)
    with pytest.raises(IslandError, match="bus 5"):
        build_model(case, scenario)


def test_voltage_overrides_drive_the_model():
    """Per-branch overrides take precedence over the uniform projection."""
    case = _east_west_toy()
    # no field at all; 120 V forced onto the east-west line only
    samples = (FieldSample(0.0, 0.0, 90.0), FieldSample(10.0, 0.0, 90.0))
    scenario = FieldScenario(samples=samples, dt=10.0,
                             voltage_overrides={1: ((0.0, 120.0), (10.0, 120.0))})
    model = build_model(case, scenario)
    plan = solve(model)

    topo = dict(plan.z)
    eff = effective(solve_series(case, scenario, [0.0], topology=topo))
    for pos, series in plan.i_eff.items():
        assert series[0] == pytest.approx(eff.get(pos, 0.0), abs=1e-6)
    assert verify_plan(case, scenario, plan).ok(1e-6)


def _dc_rows(model):
    """The model's LP cut to the rows that hold dc voltages or currents (KCL,
    Ohm's laws, the switched big-Ms, eff_gic), with Ieff held only by its
    derived cap: feasible for every integer switching."""
    lp = model.lp
    cols = np.concatenate([np.arange(off, off + count * horizon)
                           for off, count, horizon in (model.slices["v"], model.slices["i"])])
    ub = lp.ub.copy()
    off, count, horizon = model.slices["ieff"]
    ub[off:off + count * horizon] = np.repeat([x.i_derived for x in model.xfmrs], horizon)
    ub_rows = lp.A_ub[:, cols].getnnz(axis=1) > 0
    eq_rows = lp.A_eq[:, cols].getnnz(axis=1) > 0
    return LpProblem(c=lp.c, A_ub=lp.A_ub[ub_rows], b_ub=lp.b_ub[ub_rows],
                     A_eq=lp.A_eq[eq_rows], b_eq=lp.b_eq[eq_rows], lb=lp.lb, ub=ub)


def _overrides_scenario():
    """The scenario of test_voltage_overrides_drive_the_model: 120 V on line 1, no field."""
    samples = (FieldSample(0.0, 0.0, 90.0), FieldSample(10.0, 0.0, 90.0))
    return FieldScenario(samples=samples, dt=10.0,
                         voltage_overrides={1: ((0.0, 120.0), (10.0, 120.0))})


@pytest.mark.parametrize("name", ["epri21", "overrides_toy"])
def test_dc_basis_block_matches_series_engine(name, request):
    """For every integer switching, the model's per-basis dc currents weighed
    by coeffs give the dc engine's effective GICs at every period."""
    if name == "epri21":
        case = request.getfixturevalue("epri21_case")
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        scenario = load_scenario_file(os.path.join(here, "cases", "ramp_3p2.csv"), dt=30.0)
    else:
        case, scenario = _east_west_toy(), _overrides_scenario()
    model = build_model(case, scenario, OtsOptions(dt=30.0 if name == "epri21" else None))
    assert model.coeffs.shape == (model.n_periods, 3 if name == "overrides_toy" else 2)
    lp = _dc_rows(model)
    for bits in itertools.product((0, 1), repeat=len(model.switchable)):
        lb, ub = lp.lb.copy(), lp.ub.copy()
        for bid, bit in zip(model.switchable, bits):
            lb[model.z_col[bid]] = ub[model.z_col[bid]] = bit
        res = lp_solve(lp, lb=lb, ub=ub)
        assert res.status == "optimal"
        got = np.abs(model.eff_weights @ model.values("i", res.x) @ model.coeffs.T)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="pinning ungrounded")
            dc = solve_series(case, scenario, model.times,
                              topology=dict(zip(model.switchable, bits)))
        want = np.array([dc.effective[x.pos] for x in model.xfmrs])
        np.testing.assert_allclose(got, want, rtol=1e-9,
                                   atol=1e-9 * max(1.0, float(np.max(want, initial=0.0))))


def test_nan_violation_is_never_ok():
    report = VerifyReport(violations={"angle": 0.0, "ohm": float("nan"), "rating": 1e-9})
    assert np.isnan(report.max_violation())
    assert not report.ok(1e-6)


def test_nonzero_to_init_through_simulate_model_and_verify(b4gic_case):
    """to_init = 40 starts the trace, the plan and the re-simulation alike."""
    th = tuple(dataclasses.replace(t, to_init=40.0) for t in b4gic_case.thermal)
    case = dataclasses.replace(b4gic_case, thermal=th)
    scenario = make_ramp_scenario(3.2, 180.0, 180.0, dt=10.0)

    trace = simulate(case, scenario)
    for tr in trace.traces.values():
        # unloaded: the rise decays from 40 with the pre-initial input held at 40
        expect = topoil_series(np.r_[40.0, np.zeros(len(tr.t) - 1)], 2.0 * 71.0 / 10.0, 40.0)
        assert tr.delta_to[0] == 40.0
        assert tr.delta_to == pytest.approx(expect, rel=1e-12, abs=1e-12)

    model = build_model(case, scenario, OtsOptions(dt=30.0))
    plan = solve(model)
    assert len(model.xfmrs) == 2
    for x in model.xfmrs:
        du = [max(s * p + q for s, q in x.chords) for p in plan.flows[x.branch.index]]
        expect = topoil_series(np.r_[40.0, du], 2.0 * 71.0 / 30.0, 40.0)[1:]
        assert plan.delta_to[x.pos] == pytest.approx(expect, rel=1e-12, abs=1e-12)
    assert verify_plan(case, scenario, plan).ok(1e-6)


# sha256 of the arrays of build_model on the bundled cases with cases/ramp_3p2.csv
# at dt = 2.5 min (T = 144): a refactor of the builder must keep every byte of
# the LP, its column layout and its row order
_PINNED = {
    "b4gic": {
        "A_ub": "ce95979a5efe1e663ce06d3b5253c025729e74db953e0c82184d3e3eb0f89119",
        "A_eq": "4985a63d124af5939027ab2b70a8a31c3215180c58286b23b6797418a4fb8ff3",
        "b_ub": "554dfc67843d252be0e10354f36a0df10b0b019d6a2762cb969974936f3f0330",
        "b_eq": "9d34fbcf42da77d06dd42184cb3f2a925be3056389cac74a8ae46a930013fd57",
        "lb": "9bf54b80a6e4675f641193cdbddc659d6ec0496d981794024753811be2a2f4bb",
        "ub": "ce6bed7ec72903875b95dc5ab192726aa8b778841b5987d6b828af486a44d46b",
        "c": "627aceb8ff4d70b1bad3eeb284f2410d203859c6d0a2068978b329897241c502",
        "classes": "4e61586759270b9971d4e17ed6eacb5554761d312a2d8e3466a70560f52df5ad",
    },
    "epri21": {
        "A_ub": "871aedf815266c7ed883bb9631af05dcf0f8b91cf62a9a7441a396ed4b9235e3",
        "A_eq": "f87b740637f48fb850db40cc9da8278be08b8a78225f1d217a624d709b062247",
        "b_ub": "093869ba3859af6d16dcb23f87464ba2b100e020301f6cfe6734eedc9d1ac2ce",
        "b_eq": "2974451c82cd90b41eec89d2b9b1a51e149c4dc4bc1bde02cbdbc98f9fbc50fa",
        "lb": "5070f700b14c3d07530bbe6b62376e56136cb7e916d39bb2d0cc9a7f8e65f61b",
        "ub": "54d1d6ae8629d79d9f398c852d6efc68d2d596d0060f71c8a2e171fc1a26e712",
        "c": "58bb80c7120cfbdf9af28405d5382dba1317db27b44bf0ff6808c20fa13d9b8b",
        "classes": "8ebedbd5658b2b14b5876585f4b129e36a292148cf61b3622d151f2cc2723fba",
    },
}


def _sha256(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_build_model_arrays_pinned(name, request):
    case = request.getfixturevalue(f"{name}_case")
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scenario = load_scenario_file(os.path.join(here, "cases", "ramp_3p2.csv"), dt=2.5)
    model = build_model(case, scenario, OtsOptions(dt=2.5))
    lp = model.lp
    got = {k: _sha256(getattr(lp, k).indptr, getattr(lp, k).indices, getattr(lp, k).data)
           for k in ("A_ub", "A_eq")}
    got.update({k: _sha256(getattr(lp, k)) for k in ("b_ub", "b_eq", "lb", "ub", "c")})
    got["classes"] = _sha256(json.dumps(model.classes).encode())
    assert got == _PINNED[name]
    # lazy rows: exactly the rating pairs, a group per switched line and
    # period, the angle pairs, a group per line and period, and the loading
    # chords, a group per transformer and period; every group distinct
    marked = np.zeros(len(lp.lazy), dtype=bool)
    sizes = []
    switched = [br for br in model.branches if br.index in model.z_col]
    for cls, rows in (("rating", [2] * len(switched)), ("angle", [2] * len(model.branches)),
                      ("pwl_loading", [max(len(x.chords), 1) for x in model.xfmrs])):
        marked[slice(*model.classes[cls])] = True
        sizes += np.repeat(rows, model.n_periods).tolist()
    assert np.all(lp.lazy[~marked] == -1)
    groups = lp.lazy[marked]
    starts = np.flatnonzero(np.r_[True, np.diff(groups) != 0])
    assert np.diff(np.r_[starts, len(groups)]).tolist() == sizes
    assert len(set(groups[starts].tolist())) == len(sizes) and groups.min() >= 0


@pytest.mark.parametrize("dt,periods", [(30.0, 12), (2.5, 144)])
def test_highs_milp_oracle_above_enumeration_cap(epri21_case, dt, periods):
    """scipy's HiGHS MILP on the same model, with integrality on the z columns,
    is the oracle where enumerating the 2^7 topologies (128 LPs at T=144)
    costs too much for a test: the same model objective within the B&B's
    1e-4 gap, and an opened set that criterion 6 accepts."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scenario = load_scenario_file(os.path.join(here, "cases", "ramp_3p2.csv"), dt=dt)
    model = build_model(epri21_case, scenario, OtsOptions(dt=dt))
    assert model.n_periods == periods
    plan = solve(model)

    lp = model.lp
    integrality = np.zeros(lp.n)
    integrality[list(model.z_col.values())] = 1
    ref = milp(lp.c, integrality=integrality, bounds=Bounds(lp.lb, lp.ub),
               constraints=[LinearConstraint(lp.A_ub, -np.inf, lp.b_ub),
                            LinearConstraint(lp.A_eq, lp.b_eq, lp.b_eq)],
               options={"mip_rel_gap": 1e-6})
    assert ref.status == 0, ref.message
    assert abs(plan.model_objective - ref.fun) <= 1e-4 * max(1.0, abs(ref.fun))
    if periods == 144:
        assert plan.model_objective == pytest.approx(63032.688, abs=1e-3)

    z = {bid: round(ref.x[col]) for bid, col in model.z_col.items()}
    assert all(abs(ref.x[col] - z[bid]) <= 1e-6 for bid, col in model.z_col.items())
    for opened in (sorted(b for b, v in z.items() if v == 0),
                   sorted(b for b, v in plan.z.items() if v == 0)):
        assert len(opened) == 2 and opened[0] in (7, 8) and opened[1] == 9
    # tie rule: of the twins 7 and 8, the search returns the plan opening 7
    assert sorted(b for b, v in plan.z.items() if v == 0) == [7, 9]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.one_of(st.none(), st.integers(0, 2**16 - 1)))
@example(seed=1870, mask=None)  # an infeasible toy whose root LP is infeasible
def test_any_seed_keeps_the_optimum(seed, mask):
    """Whatever plan seeds the search (the enumerated optimum when ``mask`` is
    None, else any assignment, worse or infeasible ones included), the
    branch-and-bound returns the enumerated optimum within the gap and a
    plan that verifies, or, when there is none, no plan.  The seed is called
    once when the root LP is optimal with a fractional z, else never."""
    case, scenario = random_ots_case(np.random.default_rng(seed))
    model = build_model(case, scenario)
    try:
        ref = enumerate_solve(model)
    except MitigationInfeasible:
        ref = None
    if ref is not None and mask is None:
        z = ref.z
    else:
        z = {bid: (mask or 0) >> k & 1 for k, bid in enumerate(model.switchable)}
    seeded = []
    plan = mitigation._branch_and_bound(model, time.perf_counter(),
                                        seed=lambda: seeded.append(z) or z)
    root = lp_solve(dataclasses.replace(model.lp))
    fractional = (root.status == "optimal"
                  and mitigation._most_fractional(model, root.x) is not None)
    assert len(seeded) == int(fractional)
    if ref is None:
        assert plan is None
        return
    assert plan.status == "optimal"
    assert abs(plan.model_objective - ref.model_objective) <= (
        model.options.gap * max(1.0, abs(ref.model_objective)))
    assert verify_plan(case, scenario, plan).ok(1e-5)


def _integer_infeasible_toy():
    """The east-west toy with its northern detour out of service and a GIC
    cap no closed east-west line meets: bus 2's load needs the line closed,
    the cap needs it open, and the LP relaxation takes it part-way."""
    case = _east_west_toy()
    rows = tuple(dataclasses.replace(r, gic_bound=1e-3) if r.branch == 4 else r
                 for r in case.branch_gmd)
    branches = tuple(dataclasses.replace(br, status=0) if br.index in (2, 3) else br
                     for br in case.ac_branches)
    return dataclasses.replace(case, branch_gmd=rows, ac_branches=branches)


def test_coarse_stage_runs_no_probes(monkeypatch):
    """On a model whose root LP is fractional but whose every plan is
    infeasible, the coarse stage runs and finds no plan, and the probes run
    once, for the fine model only."""
    model = build_model(_integer_infeasible_toy(), make_ramp_scenario(8.0, 30.0, 30.0, dt=10.0))
    searched, probed = [], []
    search, probes = mitigation._branch_and_bound, mitigation._infeasibility_probes
    monkeypatch.setattr(mitigation, "_branch_and_bound",
                        lambda m, *args, **kw: searched.append(m.n_periods) or search(m, *args, **kw))
    monkeypatch.setattr(mitigation, "_infeasibility_probes",
                        lambda m: probed.append(m.n_periods) or probes(m))
    with pytest.raises(MitigationInfeasible) as err:
        solve(model)
    assert searched == [6, 1]   # the fine search, then the coarse one at dt = 60
    assert probed == [6]
    assert err.value.context == {"all_closed": "gic_cap", "all_open": "power_flow"}


def test_coarse_dt_from_the_top_oil_step(epri21_case):
    """dt_c = k dt for the largest divisor k > 1 of T with k dt <= 2 tau
    (tau = 71 min on epri21); no coarse grid when T has no such divisor."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for dt, periods in ((1.0, 360), (2.5, 144), (30.0, 12), (15.0, 24)):
        scenario = load_scenario_file(os.path.join(here, "cases", "ramp_3p2.csv"), dt=dt)
        model = build_model(epri21_case, scenario, OtsOptions(dt=dt))
        assert (model.n_periods, mitigation._coarse_dt(model)) == (periods, 120.0)
    # T = 3 at dt = 120: k = 3 would step 360 min > 142 min
    scenario = make_ramp_scenario(3.2, 180.0, 180.0, dt=120.0)
    assert mitigation._coarse_dt(build_model(epri21_case, scenario)) is None


@pytest.mark.parametrize("dt", [2.5, 30.0])
def test_coarse_seed_closes_the_epri21_search(epri21_case, dt):
    """The coarse plan seeds an incumbent whose LP meets the root bound: the
    search ends after two fine LPs with the unseeded search's plan."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scenario = load_scenario_file(os.path.join(here, "cases", "ramp_3p2.csv"), dt=dt)
    model = build_model(epri21_case, scenario, OtsOptions(dt=dt))
    plan = solve(model)
    unseeded = mitigation._branch_and_bound(model, time.perf_counter())
    assert plan.nodes == 2 and unseeded.nodes > 2
    assert plan.z == unseeded.z and plan.status == "optimal" and plan.gap == 0.0
    assert abs(plan.model_objective - unseeded.model_objective) <= (
        1e-4 * abs(unseeded.model_objective))


def test_coarse_stage_counts_toward_time_limit(epri21_case):
    """The coarse search runs on the solve's clock: past the time limit it
    stops before its root and seeds nothing."""
    scenario = make_ramp_scenario(3.2, 180.0, 180.0, dt=30.0)
    model = build_model(epri21_case, scenario, OtsOptions(time_limit=60.0))
    assert mitigation._coarse_plan(model, time.perf_counter()) is not None
    assert mitigation._coarse_plan(model, time.perf_counter() - 61.0) is None


def _ramp_3p2(dt):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return load_scenario_file(os.path.join(here, "cases", "ramp_3p2.csv"), dt=dt)


def _record_fixed(monkeypatch, *models):
    """Record every lp_solve call on ``models`` as (periods, {branch id: fixed
    value} of its binaries, status); a model is told by its column count."""
    z_cols = {m.lp.n: (m.n_periods, m.z_col) for m in models}
    calls, inner = [], mitigation.lp_solve

    def recording(lp, *, lb, ub):
        res = inner(lp, lb=lb, ub=ub)
        periods, z_col = z_cols[lp.n]
        calls.append((periods, {bid: int(lb[c]) for bid, c in z_col.items() if lb[c] == ub[c]},
                      res.status))
        return res

    monkeypatch.setattr(mitigation, "lp_solve", recording)
    return calls


_EPRI21_PLAN = {2: 1, 7: 0, 8: 1, 9: 0, 10: 1, 16: 1, 17: 1}
_OPT, _INF = "optimal", "infeasible"


def test_search_order_pinned(epri21_case, monkeypatch):
    """Every node LP of the epri21 search at dt = 30 min, in order, by the
    binaries it fixes: the unseeded plunge and best-bound search (15 LPs),
    then the seeded solve (the fine root, the 6 LPs of the coarse search at
    dt = 120 min, the seeded LP)."""
    scenario = _ramp_3p2(30.0)
    model = build_model(epri21_case, scenario, OtsOptions(dt=30.0))
    coarse = build_model(epri21_case, scenario, OtsOptions(dt=120.0))
    calls = _record_fixed(monkeypatch, model, coarse)
    plan = mitigation._branch_and_bound(model, time.perf_counter())
    assert calls == [(12, z, status) for z, status in (
        ({}, _OPT), ({10: 1}, _OPT), ({7: 0, 10: 1}, _OPT), ({7: 0, 8: 0, 10: 1}, _OPT),
        ({2: 1, 7: 0, 8: 0, 10: 1}, _OPT), ({2: 1, 7: 0, 8: 0, 9: 1, 10: 1}, _OPT),
        ({2: 1, 7: 0, 8: 0, 9: 1, 10: 1, 17: 1}, _OPT),
        ({2: 1, 7: 0, 8: 0, 9: 1, 10: 1, 16: 1, 17: 1}, _INF),
        ({2: 1, 7: 0, 8: 0, 9: 1, 10: 1, 16: 0, 17: 1}, _INF),
        ({2: 1, 7: 0, 8: 0, 9: 1, 10: 1, 17: 0}, _INF), ({2: 1, 7: 0, 8: 0, 9: 0, 10: 1}, _INF),
        ({2: 0, 7: 0, 8: 0, 10: 1}, _INF), ({7: 0, 8: 1, 10: 1}, _OPT),
        ({7: 0, 8: 1, 9: 1, 10: 1}, _INF), ({7: 0, 8: 1, 9: 0, 10: 1}, _OPT))]
    assert (plan.z, plan.nodes, plan.status, plan.gap) == (_EPRI21_PLAN, 15, "optimal", 0.0)

    calls.clear()
    plan = solve(model)
    assert calls == [(12, {}, _OPT)] + [(3, z, _OPT) for z in (
        {}, {7: 0}, {7: 0, 8: 1}, {7: 0, 8: 1, 9: 0}, {2: 1, 7: 0, 8: 1, 9: 0},
        {2: 1, 7: 0, 8: 1, 9: 0, 10: 1})] + [(12, _EPRI21_PLAN, _OPT)]
    assert (plan.z, plan.nodes, plan.status, plan.gap) == (_EPRI21_PLAN, 2, "optimal", 0.0)



@pytest.mark.parametrize("dt,limit", [(30.0, 15), (2.5, 16)])
def test_node_limit_after_the_last_needed_node_is_no_timeout(epri21_case, dt, limit,
                                                           monkeypatch):
    """The unseeded epri21 search needs ``limit`` LPs; at that node limit
    every node left open is dropped by its parent bound, so the search
    is complete.  One node less stops it before its first leaf."""
    model = build_model(epri21_case, _ramp_3p2(dt), OtsOptions(dt=dt))
    monkeypatch.setattr(mitigation, "_NODE_LIMIT", limit)
    plan = mitigation._branch_and_bound(model, time.perf_counter())
    assert (plan.z, plan.nodes, plan.status, plan.gap) == (_EPRI21_PLAN, limit, "optimal", 0.0)
    monkeypatch.setattr(mitigation, "_NODE_LIMIT", limit - 1)
    with pytest.raises(MitigationInfeasible, match="the node limit stopped the search"):
        mitigation._branch_and_bound(model, time.perf_counter())
