"""Acceptance suite: one test per exit criterion, at the stated tolerance.

Each test prints a single PASS line (visible with -s or -rP) and the
pytest -v status line carries the per-criterion verdict.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from gicgrid.coupling import ac_power_flow, sequential_gic_ac
from gicgrid.data import Periods, make_ramp_scenario
from gicgrid.dcnet import FieldVector
from gicgrid.mitigation import (MitigationInfeasible, OtsOptions, build_model,
                                enumerate_solve, solve, verify_plan)
from gicgrid.thermal import simulate, topoil_series

from conftest import currents, effective, random_dc_case, random_ots_case, solve_at

LOOP = 170.788 / 1.601


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS  ({detail})")


def test_criterion_1_b4gic_gic_solve(b4gic_case):
    """Series loop GIC equals 170.788/1.601 A on every dc element, < 10 ms."""
    field = FieldVector.from_mag_dir(1.0, 90.0)
    sol = solve_at(b4gic_case, field)  # warm-up outside the clock
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        sol = solve_at(b4gic_case, field)
        best = min(best, time.perf_counter() - t0)
    for gid in (1, 2, 3):
        assert abs(currents(sol)[gid]) == pytest.approx(LOOP, rel=1e-6)
    assert best < 0.010
    _report("1 (B4GIC GIC solve)",
            f"loop {abs(currents(sol)[2]):.4f} A, {best * 1e3:.2f} ms")


def test_criterion_2_effective_gic_and_hotspot(b4gic_case):
    """Both GSUs report I_eff = |loop| and hot-spot rise 0.63 * I_eff."""
    sol = solve_at(b4gic_case, FieldVector.from_mag_dir(1.0, 90.0))
    eff = effective(b4gic_case, sol)
    assert eff[0] == pytest.approx(LOOP, rel=1e-6)
    assert eff[2] == pytest.approx(LOOP, rel=1e-6)
    eta = 0.63 * eff[0]
    assert eta == pytest.approx(0.63 * LOOP, rel=1e-6)
    assert eta == pytest.approx(67.2, abs=0.05)
    _report("2 (effective GIC & hot-spot rise)",
            f"I_eff {eff[0]:.4f} A, eta {eta:.3f} degC")


def test_criterion_3_thermal_discretization():
    """Bilinear step response: <= 0.1 degC at dt=1 min; halving dt ~ 4x."""
    tau, du = 71.0, 75.0

    def max_err(dt, horizon=360.0):
        n = int(round(horizon / dt))
        series = np.full(n + 1, du)
        delta = topoil_series(series, zeta=2.0 * tau / dt, delta0=0.0)
        t = np.arange(n + 1) * dt
        exact = du * (1.0 - np.exp(-t / tau))
        return float(np.max(np.abs(delta - exact)))

    e1, e05 = max_err(1.0), max_err(0.5)
    assert e1 <= 0.1
    assert 3.5 <= e1 / e05 <= 4.5
    _report("3 (thermal discretization)",
            f"max err {e1:.2e} degC at dt=1, ratio {e1 / e05:.3f}")


def test_criterion_4_linearity_suite():
    """Scaling, reversal, superposition on 100 random networks at 1e-8."""
    count = 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        case = random_dc_case(rng)
        assert len(case.gmd_buses) <= 30
        mag = float(rng.uniform(0.5, 4.0))
        direction = float(rng.uniform(0.0, 360.0))
        fa = FieldVector.from_mag_dir(mag, direction)
        fb = FieldVector.from_mag_dir(float(rng.uniform(0.2, 2.0)),
                                      float(rng.uniform(0.0, 360.0)))

        def vec(field):
            s = solve_at(case, field)
            return np.concatenate([s.V[0], s.I[0]])

        base = vec(fa)
        scale = max(float(np.max(np.abs(base))), 1e-9)
        c = 2.5
        scaled = FieldVector(fa.e_north * c, fa.e_east * c)
        assert np.max(np.abs(vec(scaled) - c * base)) <= 1e-8 * c * scale
        rev = vec(FieldVector.from_mag_dir(mag, direction + 180.0))
        assert np.max(np.abs(rev + base)) <= 1e-8 * scale
        other = vec(fb)
        both = vec(FieldVector(fa.e_north + fb.e_north, fa.e_east + fb.e_east))
        sscale = max(float(np.max(np.abs(both))), 1e-9)
        assert np.max(np.abs(both - (base + other))) <= 1e-8 * sscale
        count += 1
    _report("4 (linearity/superposition suite)", f"{count} networks")


def test_criterion_5_ots_oracle_equivalence():
    """>= 20 random toys: branch-and-bound == enumeration within 1e-4."""
    t0 = time.perf_counter()
    feasible = 0
    infeasible = 0
    seed = 0
    while feasible < 20:
        seed += 1
        rng = np.random.default_rng(20_000 + seed)
        case, scenario = random_ots_case(rng)
        model = build_model(case, scenario, OtsOptions(dt=5.0))
        assert len(model.switchable) <= 8
        assert model.n_periods <= 12
        try:
            ref = enumerate_solve(model)
        except MitigationInfeasible:
            with pytest.raises(MitigationInfeasible):
                solve(model)
            infeasible += 1
            continue
        plan = solve(model)
        gap = abs(plan.model_objective - ref.model_objective)
        assert gap <= 1e-4 * max(1.0, abs(ref.model_objective))
        assert verify_plan(case, scenario, plan, 5.0).ok(1e-5)
        assert verify_plan(case, scenario, ref, 5.0).ok(1e-5)
        feasible += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("5 (OTS oracle equivalence)",
            f"{feasible} feasible + {infeasible} infeasible toys in {elapsed:.1f}s")


def test_criterion_6_case_study_reproduction(epri21_case):
    """21-bus benchmark under the 6 h field ramp reproduces the reference plan.

    The optimizer must open line 4-6 circuit 1 plus one of the two 4-5
    circuits; at the 3.2 V/km peak the surviving 4-5 circuit carries
    ~368.8 A and the auto-transformer series windings ~127.8 A (within
    1%); the 500 kV GSU at buses 12-13 stays below 280 degC.
    """
    t0 = time.perf_counter()
    scenario = make_ramp_scenario(3.2, 180.0, 180.0, dt=5.0)
    model = build_model(epri21_case, scenario, OtsOptions(dt=5.0))
    plan = solve(model)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0

    # switching decision: open 4-6-1 (branch 9) and exactly one of 7/8
    assert plan.z[9] == 0
    assert sorted((plan.z[7], plan.z[8])) == [0, 1]
    others = {bid: z for bid, z in plan.z.items() if bid not in (7, 8, 9)}
    assert all(z == 1 for z in others.values())

    # peak GIC at the field maximum on the mitigated topology
    i_dc = currents(solve_at(epri21_case, FieldVector.from_mag_dir(3.2, 90.0),
                             topology=plan.z))
    surviving = 25 if plan.z[7] == 1 else 26   # dc ids of the 4-5 circuits
    i_line = abs(i_dc[surviving])
    assert i_line == pytest.approx(368.8, rel=0.01)
    i_auto_1 = abs(i_dc[6])     # series winding, circuit 3
    i_auto_2 = abs(i_dc[8])     # series winding, circuit 4
    assert i_auto_1 == pytest.approx(127.8, rel=0.01)
    assert i_auto_2 == pytest.approx(127.8, rel=0.01)

    # transformer 12-13 stays below the 280 degC instantaneous limit
    loading = {bid: max(abs(p) for p in series)
               for bid, series in plan.flows.items()}
    trace = simulate(epri21_case, scenario, times=Periods.over(scenario, 5.0).edges,
                     loading=loading, topology=plan.z)
    peak = float(np.max(trace.hotspot[trace.branch == 18]))
    assert peak < 280.0

    assert verify_plan(epri21_case, scenario, plan, 5.0).ok(1e-5)
    _report("6 (case-study reproduction)",
            f"opened {sorted(b for b, z in plan.z.items() if z == 0)}, "
            f"line GIC {i_line:.1f} A, auto {i_auto_1:.1f} A, "
            f"hot-spot {peak:.1f} degC, {elapsed:.1f}s")


def test_criterion_7_sequential_gic_ac(b4gic_case):
    """gmd_k = 0 reduces to plain power flow; reactive audit holds with GIC."""
    rows = tuple(dataclasses.replace(r, gmd_k=0.0) if r.is_xfmr else r
                 for r in b4gic_case.branch_gmd)
    neutral = dataclasses.replace(b4gic_case, branch_gmd=rows)
    plain = ac_power_flow(neutral)
    _, qmap0, seq0 = sequential_gic_ac(neutral, FieldVector.from_mag_dir(1.0, 90.0))
    assert qmap0.size == 0
    assert seq0.vm == pytest.approx(plain.vm, abs=1e-8)
    assert seq0.va == pytest.approx(plain.va, abs=1e-8)

    base = ac_power_flow(b4gic_case)
    _, qmap, ac = sequential_gic_ac(b4gic_case, FieldVector.from_mag_dir(1.0, 90.0))
    d_total = sum(qmap.tolist())
    dq_gen = ac.total_q_gen - base.total_q_gen
    assert d_total > 0
    assert dq_gen >= d_total - 1e-6
    _report("7 (sequential GIC->AC)",
            f"dQ_gen {dq_gen:.4f} >= sum d_q {d_total:.4f} p.u.")
