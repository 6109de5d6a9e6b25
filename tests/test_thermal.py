"""Transformer thermal model: exact laws, discretization accuracy, traces."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gicgrid.data import FieldSample, FieldScenario, Periods, make_ramp_scenario
from gicgrid.thermal import (TopOil, XfmrArrays, apparent_power, hotspot_temp, simulate,
                             steady_rise, topoil_series)

LOOP = 170.788 / 1.601


def step_topoil(delta_prev: float, du_prev: float, du_now: float, zeta: float) -> float:
    """Scalar oracle: one bilinear-transform step of the top-oil lag.

    Preserves fixed points exactly: constant inputs reproduce themselves.
    """
    if zeta <= 0:
        raise ValueError("zeta must be > 0")
    return (du_now + du_prev) / (1.0 + zeta) - (1.0 - zeta) / (1.0 + zeta) * delta_prev


def hotspot_rise(i_eff: float, r_coeff: float) -> float:
    """Scalar oracle: hot-spot rise over top-oil [degC], linear in the effective GIC."""
    if i_eff < 0:
        raise ValueError("effective GIC must be >= 0")
    return r_coeff * i_eff


def test_apparent_power_pythagorean():
    assert apparent_power(3.0, 4.0) == 5.0
    assert apparent_power(0.0, 0.0) == 0.0
    assert apparent_power(0.083, 0.0) == 0.083  # dc approximation: q = 0


def test_steady_rise_rated():
    assert steady_rise(1.0, 1.0, 75.0) == 75.0


def test_steady_rise_zero():
    assert steady_rise(0.0, 2.0, 75.0) == 0.0


def test_steady_rise_quadratic():
    assert steady_rise(0.5, 1.0, 75.0) == pytest.approx(18.75)


def test_steady_rise_requires_positive_rating():
    with pytest.raises(ValueError):
        steady_rise(1.0, 0.0, 75.0)


def test_step_topoil_fixed_point():
    for x in (0.0, 12.5, 75.0):
        assert step_topoil(x, x, x, zeta=28.4) == pytest.approx(x, rel=1e-14)


def test_step_topoil_large_zeta_freezes_state():
    # dt -> 0 (zeta -> inf): one step leaves the state unchanged
    out = step_topoil(40.0, 75.0, 75.0, zeta=1e9)
    assert out == pytest.approx(40.0, abs=1e-6)


def _analytic(t, tau=71.0, du=75.0):
    return du * (1.0 - np.exp(-np.asarray(t) / tau))


def _step_response_error(dt, horizon=360.0, tau=71.0, du=75.0):
    n = int(round(horizon / dt))
    series = np.full(n + 1, du)   # input at its post-step value from sample 0
    delta = topoil_series(series, zeta=2.0 * tau / dt, delta0=0.0)
    t = np.arange(n + 1) * dt
    return float(np.max(np.abs(delta - _analytic(t, tau, du))))


def test_step_response_tracks_analytic_exponential():
    assert _step_response_error(1.0) <= 0.1


def test_bilinear_second_order_convergence():
    ratio = _step_response_error(1.0) / _step_response_error(0.5)
    assert 3.5 <= ratio <= 4.5


def test_topoil_monotone_in_input_history():
    rng = np.random.default_rng(5)
    for _ in range(20):
        du_lo = rng.uniform(0, 60, size=40)
        du_hi = du_lo + rng.uniform(0, 20, size=40)
        zeta = 2.0 * 71.0 / 5.0
        d_lo = topoil_series(du_lo, zeta, du_lo[0])
        d_hi = topoil_series(du_hi, zeta, du_hi[0])
        assert np.all(d_hi >= d_lo - 1e-12)


def _topoil_loop(du, zeta, delta0):
    """Reference: the recursion one step_topoil at a time."""
    delta = np.empty(len(du))
    delta[0] = delta0
    for k in range(1, len(du)):
        delta[k] = step_topoil(delta[k - 1], du[k - 1], du[k], zeta)
    return delta


_signed_floats = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(_signed_floats, min_size=1, max_size=60),
       st.floats(1.0, 1e6) | st.just(1.0), _signed_floats)
@example([-0.0, 0.0, -0.0, 5.0, -0.0], 1.0, -0.0)
@example([0.0, -0.0, -0.0], 1.0, 0.0)
def test_topoil_series_is_the_step_loop_bitwise(du, zeta, delta0):
    got = topoil_series(np.array(du), zeta, delta0)
    assert np.array_equal(got.view(np.int64), _topoil_loop(du, zeta, delta0).view(np.int64))


@st.composite
def _stacks(draw):
    """(du, zeta, delta0) of a stack of 1-6 rows, one-column stacks included."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    du = draw(st.lists(st.lists(_signed_floats, min_size=cols, max_size=cols),
                       min_size=rows, max_size=rows))
    zeta = draw(st.lists(st.floats(1.0, 1e4) | st.just(1.0), min_size=rows, max_size=rows))
    return du, zeta, draw(st.lists(_signed_floats, min_size=rows, max_size=rows))


@settings(max_examples=100, deadline=None)
@given(_stacks())
@example(([[-0.0, 0.0, 5.0], [0.0, -0.0, -0.0]], [1.0, 1.0], [-0.0, 0.0]))
@example(([[3.0], [-0.0]], [1.0, 1e4], [7.5, -0.0]))
def test_topoil_stack_is_the_per_row_step_loop_bitwise(stack):
    """One recursion over a stack: each row as its own step_topoil loop, bit for bit."""
    du, zeta, delta0 = stack
    got = topoil_series(np.array(du), zeta, delta0)
    assert got.shape == (len(du), len(du[0]))
    for row, z, d0, delta in zip(du, zeta, delta0, got):
        assert np.array_equal(delta.view(np.int64), _topoil_loop(row, z, d0).view(np.int64))


def test_topoil_stack_without_a_step_or_a_row():
    """One sample (zeta = inf) takes no step; a stack of no transformers is empty."""
    got = topoil_series(np.zeros((2, 1)), [np.inf, np.inf], [4.0, -0.0])
    assert got.shape == (2, 1) and got[:, 0].tolist() == [4.0, -0.0]
    assert np.signbit(got[1, 0])
    assert TopOil(np.zeros(0), np.zeros(0)).stack(np.zeros((0, 5))).shape == (0, 5)


def test_topoil_series_rejects_non_positive_zeta():
    for zeta in (0.0, -1.0):
        with pytest.raises(ValueError, match="zeta"):
            topoil_series(np.array([1.0, 2.0]), zeta, 1.0)


def test_hotspot_rise_linear():
    assert hotspot_rise(0.0, 0.63) == 0.0
    assert hotspot_rise(100.0, 0.63) == pytest.approx(63.0)
    assert hotspot_rise(LOOP, 0.63) == pytest.approx(67.2, abs=0.01)


def test_hotspot_rise_rejects_negative_current():
    with pytest.raises(ValueError):
        hotspot_rise(-1.0, 0.63)


# -- end-to-end simulation ----------------------------------------------------

def test_simulate_rated_steady_no_gic(b4gic_case):
    """Constant rated loading, zero field, steady init: flat 100 degC."""
    import dataclasses
    th = tuple(dataclasses.replace(t, to_inited=0) for t in b4gic_case.thermal)
    case = dataclasses.replace(b4gic_case, thermal=th)
    scenario = make_ramp_scenario(0.0, 180.0, 180.0, dt=5.0)
    loading = {1: 12.0, 3: 12.0}   # both transformers at their rating
    trace = simulate(case, scenario, times=Periods.over(scenario, 5.0).edges, loading=loading)
    assert trace.hotspot.shape == (2, len(trace.t))
    assert np.allclose(trace.delta_to, 75.0, atol=1e-9)
    assert np.allclose(trace.eta_hs, 0.0)
    assert np.allclose(trace.hotspot, 100.0, atol=1e-9)
    assert not trace.violations.any()


def test_simulate_gic_ramp_traces_field(b4gic_case):
    """No ac loading: hot-spot rise is the ramp scaled by R_e * I_loop."""
    scenario = make_ramp_scenario(1.0, 180.0, 180.0, dt=5.0)
    trace = simulate(case=b4gic_case, scenario=scenario, times=Periods.over(scenario, 5.0).edges)
    assert len(trace.branch) == 2
    assert np.allclose(trace.delta_to, 0.0, atol=1e-12)
    for eta_hs in trace.eta_hs:
        for k, t in enumerate(trace.t):
            frac = t / 180.0 if t <= 180.0 else (360.0 - t) / 180.0
            assert eta_hs[k] == pytest.approx(0.63 * LOOP * frac, rel=1e-9)
    # exact decomposition at every step
    assert np.allclose(trace.hotspot, 25.0 + trace.delta_to + trace.eta_hs)


def test_simulate_flags_limit_crossings(b4gic_case):
    import dataclasses
    rows = tuple(dataclasses.replace(r, hotspot_limit=50.0) if r.is_xfmr else r
                 for r in b4gic_case.branch_gmd)
    case = dataclasses.replace(b4gic_case, branch_gmd=rows)
    scenario = make_ramp_scenario(1.0, 180.0, 180.0, dt=5.0)
    trace = simulate(case, scenario, times=Periods.over(scenario, 5.0).edges)
    assert trace.any_violation()
    r = trace.branch.tolist().index(1)
    assert trace.limit[r] == 50.0
    assert trace.violations[r].any() and not trace.violations[r].all()


def test_simulate_loading_series(b4gic_case):
    scenario = make_ramp_scenario(0.0, 60.0, 60.0, dt=5.0)
    grid = Periods.over(scenario, 5.0).edges
    trace = simulate(b4gic_case, scenario, times=grid,
                     loading={1: [12.0 if t < 60 else 0.0 for t in grid]})
    delta_to = trace.delta_to[trace.branch.tolist().index(1)]
    assert delta_to[0] == pytest.approx(0.0)   # to_inited=1, to_init=0
    assert delta_to[6] > 10.0                  # heated while loaded
    assert delta_to[-1] < delta_to[12]         # cooling after load drops


def test_simulate_number_loading_equals_its_series(b4gic_case):
    """A number is the series that holds it over the samples, bit for bit."""
    scenario = make_ramp_scenario(1.0, 60.0, 60.0, dt=5.0)
    loading = {1: 7.3, 3: -4.1}
    grid = Periods.over(scenario, 5.0).edges
    held = simulate(b4gic_case, scenario, times=grid, loading=loading)
    series = simulate(b4gic_case, scenario, times=grid,
                      loading={bid: np.full(len(held.t), s) for bid, s in loading.items()})
    assert np.all(held.delta_to[:, -1] > 0.0)
    assert np.array_equal(held.delta_to.view(np.int64), series.delta_to.view(np.int64))
    assert np.array_equal(held.hotspot.view(np.int64), series.hotspot.view(np.int64))


@pytest.mark.parametrize("length", [0, 12, 14])
def test_simulate_rejects_a_loading_series_of_another_length(b4gic_case, length):
    scenario = make_ramp_scenario(1.0, 30.0, 30.0, dt=5.0)   # 13 samples
    with pytest.raises(ValueError, match=f"branch 3 has {length} values for 13 samples"):
        simulate(b4gic_case, scenario, times=Periods.over(scenario, 5.0).edges,
                 loading={1: 7.3, 3: [1.0] * length})


def test_simulate_grid_length(b4gic_case):
    scenario = make_ramp_scenario(1.0, 180.0, 180.0, dt=5.0)
    trace = simulate(b4gic_case, scenario, times=Periods.over(scenario, 5.0).edges)
    assert len(trace.t) == 73   # states at t=0,5,...,360


def test_step_beyond_twice_tau_is_rejected(b4gic_case):
    rows = b4gic_case.compiled(XfmrArrays)   # tau = 71 min
    assert TopOil.of(rows, 142.0).zeta.tolist() == [1.0, 1.0]
    with pytest.raises(ValueError, match="branch 1: dt=142.5 exceeds 2\\*tau"):
        TopOil.of(rows, 142.5)
    scenario = make_ramp_scenario(1.0, 180.0, 180.0, dt=180.0)
    with pytest.raises(ValueError, match="2\\*tau"):
        simulate(b4gic_case, scenario, times=Periods.over(scenario, 180.0).edges)


def test_one_sample_simulate_takes_no_step(b4gic_case):
    scenario = FieldScenario(samples=(FieldSample(0.0, 1.0, 90.0),))
    trace = simulate(b4gic_case, scenario, times=Periods.over(scenario, 600.0).edges)
    assert trace.hotspot.shape == (2, 1) and len(trace.t) == 1
    assert np.all(trace.delta_to == 0.0)   # b4gic: to_inited=1, to_init=0
    assert trace.hotspot[:, 0] == pytest.approx([25.0 + 0.63 * LOOP] * 2, rel=1e-9)


def _storm(epri21_case):
    """epri21 with both initial top-oil rules under a seeded 4-hour storm (field
    samples 1 min apart), and its time-varying loading on a grid: one series
    per transformer's branch."""
    rows = tuple(dataclasses.replace(th, to_inited=k % 2, to_init=5.0 * k)
                 for k, th in enumerate(epri21_case.thermal))
    case = dataclasses.replace(epri21_case, thermal=rows)
    rng = np.random.default_rng(21)
    mags = np.abs(np.cumsum(rng.normal(0.0, 0.3, 241)))
    samples = tuple(FieldSample(float(k), float(m), float((3.0 * k) % 360.0))
                    for k, m in enumerate(mags))
    scenario = FieldScenario(samples=samples)

    def loading(grid):
        return {row.branch: [1.5 * math.sin(t / 17.0 + row.branch) for t in grid]
                for row in case.thermal}

    return case, scenario, loading


def test_simulate_is_the_per_transformer_recursion_bitwise(epri21_case):
    """A storm on epri21 under time-varying loading: every transformer's row is
    its own step_topoil loop and hot-spot sum, bit for bit, from both initial
    top-oil rules."""
    case, scenario, loading = _storm(epri21_case)
    grid = Periods.over(scenario, 0.25).edges
    loads = loading(grid)
    trace = simulate(case, scenario, loading=loads, times=grid)
    assert len(trace.branch) == len(case.thermal) > 1
    for bid, delta_to, hotspot, i_eff in zip(trace.branch.tolist(), trace.delta_to,
                                             trace.hotspot, trace.i_eff):
        th = case.thermal_for(bid)
        du = [steady_rise(abs(s), case.ac_branch(bid).rating, th.to_rated) for s in loads[bid]]
        if th.to_inited:
            du[0] = th.to_init
        expect = _topoil_loop(du, 2.0 * th.to_time_c / 0.25, du[0])
        assert np.array_equal(delta_to.view(np.int64), expect.view(np.int64))
        assert np.array_equal(hotspot, hotspot_temp(th, expect, i_eff))


def test_simulate_on_a_scenario_grid_is_the_step_it_replaced(epri21_case):
    """``times=Periods.over(scenario, dt).edges`` gives the trace that ``simulate(dt=...)`` gave
    (sha256 of every top-oil rise, by branch id, pinned from it; those are
    elementwise arithmetic, the same bits on every BLAS), with the effective
    currents of the trace's own dc solve over that grid, row by row in
    ``case.xfmr_rows()`` order."""
    case, scenario, loading = _storm(epri21_case)
    grid = Periods.over(scenario, 0.25).edges
    trace = simulate(case, scenario, loading=loading(grid), times=grid)
    digest = hashlib.sha256()
    for r in np.argsort(trace.branch, kind="stable"):
        digest.update(trace.delta_to[r].tobytes())
    assert digest.hexdigest() == (
        "c97a87b45c9310191192d195babb2dea918aa53acc4a0d491cd7c9383f49e45c")
    assert np.array_equal(trace.t, grid)
    rows = [(pos, row.branch) for pos, row in case.xfmr_rows()
            if case.thermal_for(row.branch) is not None]
    assert list(zip(trace.pos.tolist(), trace.branch.tolist())) == rows
    row = {pos: k for k, (pos, _) in enumerate(case.xfmr_rows())}
    for pos, i_eff in zip(trace.pos.tolist(), trace.i_eff):
        assert np.array_equal(i_eff.view(np.int64),
                              trace.series.effective[row[pos]].view(np.int64))


def test_simulate_at_the_period_edges_is_the_listed_grid(b4gic_case):
    scenario = make_ramp_scenario(1.0, 60.0, 60.0, dt=5.0)
    edges = simulate(b4gic_case, scenario, loading={1: 7.3},
                     times=Periods.over(scenario, 5.0).edges)
    given = simulate(b4gic_case, scenario, loading={1: 7.3}, times=[5.0 * k for k in range(25)])
    assert np.array_equal(edges.t, given.t)
    assert np.array_equal(edges.hotspot, given.hotspot)


@pytest.mark.parametrize("times", [[0.0, 5.0, 15.0], [0.0, 10.0, 15.0, 20.0]])
def test_simulate_rejects_a_non_uniform_grid(b4gic_case, times):
    """The recursion's step is taken from the first pair of samples."""
    scenario = make_ramp_scenario(1.0, 60.0, 60.0, dt=5.0)
    with pytest.raises(ValueError, match="uniform"):
        simulate(b4gic_case, scenario, times=times)


def test_hotspot_temp_is_ambient_plus_rises(b4gic_case):
    th = b4gic_case.thermal[0]
    assert hotspot_temp(th, 40.0, 100.0) == 25.0 + 40.0 + 0.63 * 100.0
    out = hotspot_temp(th, np.array([0.0, 10.0]), np.array([1.0, 2.0]))
    assert np.array_equal(out, 25.0 + np.array([0.0, 10.0]) + 0.63 * np.array([1.0, 2.0]))
