"""Reactive-loss conversion and Newton power flow."""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from gicgrid.coupling import (AcArrays, IslandError, PowerFlowError, _jacobian_pattern,
                              ac_power_flow, energized, qloss, sequential_gic_ac)
from gicgrid.data import AcBranch, Bus, CaseData, CaseInvariantError, Generator, parse_case
from gicgrid.dcnet import FieldVector, solve_series

from conftest import by_id, solve_at

LOOP = 170.788 / 1.601


def _solved(case, mag=1.0):
    """Effective GICs per transformer row under ``mag`` V/km due east."""
    return solve_at(case, FieldVector.from_mag_dir(mag, 90.0)).effective[:, 0]


def _per_bus(case, d_q):
    """``qloss`` rows summed onto their buses: the ``extra_q`` of ``ac_power_flow``."""
    ac = case.compiled(AcArrays)
    return np.bincount(ac.loss_at, d_q, minlength=len(ac.bus_ids))


# -- qloss --------------------------------------------------------------------

def test_qloss_zero_current(b4gic_case):
    sol = _solved(b4gic_case, mag=0.0)
    out = qloss(b4gic_case, sol)
    assert out.shape == (2,) and np.all(out == 0.0)


def test_qloss_unit_conversion_oracle(b4gic_case):
    """Dimensional-analysis oracle, worked from first principles.

    I_eff [A/phase] at rated voltage corresponds to the three-phase
    apparent power sqrt(3) * V_LL * I in watts; expressed in MVA and
    normalized by the system base this fixes the conversion:
    d_q = gmd_k * v * sqrt(3) * 765 kV * 106.6758 A / 1e9 / (100 MVA / 1e6).
    """
    sol = _solved(b4gic_case, mag=1.0)
    out = qloss(b4gic_case, sol, 1.0)
    mva_gic = math.sqrt(3.0) * 765e3 * LOOP / 1e6   # three-phase MVA
    expected = 1.793 * mva_gic / 100.0              # p.u. on 100 MVA base
    assert out[0] == pytest.approx(expected, rel=1e-12)
    assert out[1] == pytest.approx(expected, rel=1e-12)
    ac = b4gic_case.compiled(AcArrays)               # attached at the high side
    assert [ac.bus_ids[i] for i in ac.loss_at] == [1, 2]


def test_qloss_scales_with_current_and_voltage(b4gic_case):
    one = qloss(b4gic_case, _solved(b4gic_case, 1.0), 1.0)
    two = qloss(b4gic_case, _solved(b4gic_case, 2.0), 1.0)
    assert two[0] == pytest.approx(2.0 * one[0], rel=1e-12)
    dim = qloss(b4gic_case, _solved(b4gic_case, 1.0), np.full(len(b4gic_case.buses), 0.95))
    assert dim[0] == pytest.approx(0.95 * one[0], rel=1e-12)


# -- power flow ---------------------------------------------------------------

def test_power_flow_converges_b4gic(b4gic_case):
    ac = ac_power_flow(b4gic_case)
    assert ac.max_mismatch <= 1e-8
    assert ac.iterations <= 10
    assert by_id(b4gic_case, ac).vm[3] == 1.0  # slack setpoint
    # active balance: slack covers both loads minus the PV dispatch (lossless)
    total_gen = sum(ac.gen_p.tolist())
    assert total_gen == pytest.approx(10.0, abs=1e-7)


def test_power_flow_with_gic_equals_plain_when_k_zero(b4gic_case):
    rows = tuple(dataclasses.replace(r, gmd_k=0.0) if r.is_xfmr else r
                 for r in b4gic_case.branch_gmd)
    case = dataclasses.replace(b4gic_case, branch_gmd=rows)
    _, qmap, seq = sequential_gic_ac(case, FieldVector.from_mag_dir(1.0, 90.0))
    plain = ac_power_flow(case)
    assert qmap.size == 0
    assert seq.vm == pytest.approx(plain.vm, abs=1e-8)
    assert seq.va == pytest.approx(plain.va, abs=1e-8)


def _two_bus_case(p_load, q_load, b=10.0):
    doc = {
        "base_mva": 100.0,
        "bus": [{"index": 1, "base_kv": 138.0, "bus_type": "slack"},
                {"index": 2, "base_kv": 138.0, "pd": p_load, "qd": q_load}],
        "gen": [{"index": 1, "bus": 1, "pmin": 0, "pmax": 10, "vg": 1.0}],
        "branch": [{"index": 1, "f_bus": 1, "t_bus": 2, "b": b, "rating": 10.0}],
        "gmd_bus": [], "gmd_branch": [], "branch_gmd": [],
        "branch_thermal": [], "bus_gmd": [],
    }
    return parse_case(json.dumps(doc))


def test_two_bus_against_fixed_point_oracle():
    """Newton solution matches a slow fixed-point iteration of V2."""
    p, q, b = 0.8, 0.3, 10.0
    case = _two_bus_case(p, q, b)
    ac = by_id(case, ac_power_flow(case))
    y = complex(0.0, -b)   # 1/(jx), x = 1/b
    v2 = complex(1.0, 0.0)
    s_load = complex(p, q)
    for _ in range(500):
        # I into bus 2 equals the load draw: y (V2 - V1) = -conj(S/V2)
        v2 = 1.0 - np.conj(s_load / v2) / y
    assert abs(v2) == pytest.approx(ac.vm[2], abs=1e-9)
    assert math.atan2(v2.imag, v2.real) == pytest.approx(ac.va[2], abs=1e-9)


def test_power_balance_at_convergence(b4gic_case):
    sol = _solved(b4gic_case)
    ac = ac_power_flow(b4gic_case, _per_bus(b4gic_case, qloss(b4gic_case, sol, 1.0)))
    assert ac.max_mismatch <= 1e-8


def test_reactive_balance_audit(b4gic_case):
    """GIC losses raise reactive generation by at least the added loads."""
    base = ac_power_flow(b4gic_case)
    sol, qmap, ac = sequential_gic_ac(b4gic_case,
                                      FieldVector.from_mag_dir(1.0, 90.0))
    d_total = sum(qmap.tolist())
    assert d_total > 0.1
    dq_gen = ac.total_q_gen - base.total_q_gen
    assert dq_gen >= d_total - 1e-6


def test_sequential_pipeline_b4gic(b4gic_case):
    sol, qmap, ac = sequential_gic_ac(b4gic_case,
                                      FieldVector.from_mag_dir(1.0, 90.0))
    assert sol.effective[0][0] == pytest.approx(LOOP, rel=1e-9)
    assert sol.effective[1][0] == pytest.approx(LOOP, rel=1e-9)
    assert ac.max_mismatch <= 1e-8
    # losses at the solved voltages: v < 1 at loaded buses lowers d_q
    flat = qloss(b4gic_case, sol.effective[:, 0], 1.0)
    assert qmap[0] < flat[0]


@pytest.mark.parametrize("bearing", [0.0, 45.0, 90.0, 123.0, 270.0])
def test_sequential_effective_is_the_dc_engines(epri21_case, bearing):
    """ac and dc read the same effective GICs: the sequential analysis solves
    the dc network with solve_series, bit for bit."""
    field = FieldVector.from_mag_dir(1.0, bearing)
    sol, _, _ = sequential_gic_ac(epri21_case, field)
    ref = solve_series(epri21_case, np.array([field]), [0.0]).effective
    assert sol.effective.shape == ref.shape == (len(epri21_case.xfmr_rows()), 1)
    assert sol.effective.tobytes() == ref.tobytes()


def test_sequential_monotone_in_field(b4gic_case):
    _, _, low = sequential_gic_ac(b4gic_case, FieldVector.from_mag_dir(1.0, 90.0))
    _, _, high = sequential_gic_ac(b4gic_case, FieldVector.from_mag_dir(3.2, 90.0))
    assert high.total_q_gen >= low.total_q_gen


def test_nonconvergence_reports_mismatch():
    case = _two_bus_case(60.0, 30.0)  # far beyond the line's transfer limit
    with pytest.raises(PowerFlowError) as err:
        ac_power_flow(case, max_iter=12)
    assert err.value.report["iterations"] == 12
    assert err.value.report["max_mismatch"] > 0


def test_islanded_load_bus_raises(b4gic_case):
    case = dataclasses.replace(
        b4gic_case,
        ac_branches=tuple(dataclasses.replace(br, status=0) if br.index == 2
                          else br for br in b4gic_case.ac_branches))
    # bus 2/4 component keeps load+gen but loses its path to the slack
    with pytest.raises(IslandError):
        ac_power_flow(case)


def _two_slack_islands(closed=False):
    """Islands 1-2 and 3-4, each with a slack bus and a 1 p.u. load, and
    branch 3 between them, open unless ``closed``."""
    doc = {
        "base_mva": 100.0,
        "bus": [{"index": i, "base_kv": 138.0, "bus_type": "slack" if i % 2 else "PQ",
                 "pd": 0.0 if i % 2 else 1.0} for i in (1, 2, 3, 4)],
        "gen": [{"index": g, "bus": g, "pmin": 0, "pmax": 10, "vg": 1.0} for g in (1, 3)],
        "branch": [{"index": k, "f_bus": f, "t_bus": t, "b": 10.0, "rating": 10.0,
                    "status": int(closed or k != 3)} for k, f, t in ((1, 1, 2), (2, 3, 4), (3, 2, 3))],
        "gmd_bus": [], "gmd_branch": [], "branch_gmd": [],
        "branch_thermal": [], "bus_gmd": [],
    }
    return parse_case(json.dumps(doc))


def test_topology_joining_two_slack_islands_raises():
    """Closing the open branch joins two slack buses in one island: the
    topology is rejected, as parsing rejects it when the branch is in service."""
    case = _two_slack_islands()
    assert ac_power_flow(case).max_mismatch <= 1e-8
    with pytest.raises(IslandError, match=r"bus 1: multiple slack buses \[1, 3\]"):
        energized(case, {3: 1})
    with pytest.raises(IslandError, match=r"bus 1: multiple slack buses \[1, 3\]"):
        ac_power_flow(case, topology={3: 1})
    with pytest.raises(CaseInvariantError, match=r"bus 1: multiple slack buses \[1, 3\]"):
        _two_slack_islands(closed=True)


def test_dead_island_gets_nominal_voltage(epri21_case):
    sol = ac_power_flow(epri21_case)
    assert sol.max_mismatch <= 1e-8
    ac = by_id(epri21_case, sol)
    assert ac.vm[16] == 1.0 and ac.va[16] == 0.0   # de-energized island
    assert ac.p_from[20] == 0.0                    # out-of-service branch


def _with_branches(case, **changes):
    return dataclasses.replace(case, ac_branches=tuple(
        dataclasses.replace(br, **changes) for br in case.ac_branches))


def test_singular_jacobian_is_reported(b4gic_case):
    with pytest.raises(PowerFlowError, match="singular Jacobian at iteration 1") as err:
        ac_power_flow(_with_branches(b4gic_case, b=0.0))
    assert err.value.report["iterations"] == 1


def test_non_finite_mismatch_stops_at_once(b4gic_case):
    with pytest.raises(PowerFlowError, match="non-finite mismatch at iteration 1") as err:
        ac_power_flow(_with_branches(b4gic_case, b=float("nan")))
    assert err.value.report["iterations"] == 1


def test_non_finite_newton_step_stops_at_once(b4gic_case):
    buses = tuple(dataclasses.replace(b, pd=1e308) if b.index == 4 else b
                  for b in b4gic_case.buses)
    with pytest.raises(PowerFlowError, match="non-finite Newton step at iteration 1"):
        ac_power_flow(dataclasses.replace(b4gic_case, buses=buses))


@st.composite
def jacobian_inputs(draw):
    """Connected toy network (slack at 0, random PV/PQ) plus a separate dead island,
    with a per-bus GIC loss coefficient (some zero).

    Some branches have zero admittance, so Y may lack entries, diagonal
    ones included, that its topology implies."""
    real = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    n_live = draw(st.integers(2, 8))
    n_dead = draw(st.integers(0, 3))
    n = n_live + n_dead
    links = [(draw(st.integers(0, k - 1)), k) for k in range(1, n_live)]
    links += draw(st.lists(st.tuples(st.integers(0, n_live - 1), st.integers(0, n_live - 1))
                           .filter(lambda e: e[0] != e[1]), max_size=4))
    links += [(k - 1, k) for k in range(n_live + 1, n)]
    Y = np.zeros((n, n), dtype=complex)
    for f, t in links:
        y = complex(0.0, -draw(st.one_of(st.just(0.0), real(1.0, 50.0))))
        Y[f, f] += y
        Y[t, t] += y
        Y[f, t] -= y
        Y[t, f] -= y
    Y[np.diag_indices(n)] += draw(st.lists(st.one_of(st.just(0.0), real(0.0, 0.1)),
                                           min_size=n, max_size=n))
    types = (["slack"] + draw(st.lists(st.sampled_from(["PV", "PQ"]),
                                       min_size=n_live - 1, max_size=n_live - 1))
             + ["dead"] * n_dead)
    vm = np.array(draw(st.lists(real(0.9, 1.1), min_size=n, max_size=n)))
    va = np.array(draw(st.lists(real(-0.3, 0.3), min_size=n, max_size=n)))
    loss = np.array(draw(st.lists(st.one_of(st.just(0.0), real(0.0, 2.0)),
                                  min_size=n, max_size=n)))
    return Y, types, vm, va, loss


def _unknowns(types):
    """Angle unknowns (PV then PQ) and magnitude unknowns (PQ) of a bus type list."""
    pq = [i for i, t in enumerate(types) if t == "PQ"]
    ang = np.array([i for i, t in enumerate(types) if t == "PV"] + pq, dtype=int)
    return ang, np.array(pq, dtype=int)


def _dsbus_dv_jacobian(Y, vm, va, ang_idx, mag_idx):
    """Oracle: the polar Jacobian from sparse matrix products (MATPOWER ``dSbus_dV``).

    dS/dVa = j diag(V) conj(diag(I) - Y diag(V)) and
    dS/dVm = diag(V) conj(Y diag(E)) + conj(diag(I)) diag(E), with I = Y V
    and E = exp(j Va), restricted to the unknown blocks.
    """
    V = vm * np.exp(1j * va)
    diagV = sp.diags(V)
    diagI = sp.diags(Y @ V)
    diagVnorm = sp.diags(np.exp(1j * va))
    dS_dVa = (1j * diagV @ (diagI - Y @ diagV).conj()).tocsr()
    dS_dVm = (diagV @ (Y @ diagVnorm).conj() + diagI.conj() @ diagVnorm).tocsr()
    return sp.bmat([[dS_dVa.real[ang_idx][:, ang_idx], dS_dVm.real[ang_idx][:, mag_idx]],
                    [dS_dVa.imag[mag_idx][:, ang_idx], dS_dVm.imag[mag_idx][:, mag_idx]]],
                   format="csc")


@settings(max_examples=80, deadline=None)
@given(jacobian_inputs())
def test_sparse_jacobian_matches_finite_differences(inputs):
    """The fixed-pattern Jacobian equals central differences of the injection map
    plus the voltage-proportional GIC loads: the negated mismatch up to a constant."""
    Y, types, vm, va, loss = inputs
    ang, mag = _unknowns(types)
    J = _jacobian_pattern(sp.csr_matrix(Y), ang, mag, loss)(vm, va)
    assert sp.issparse(J) and J.format == "csc"

    def injections(x):
        a, m = va.copy(), vm.copy()
        a[ang], m[mag] = x[:len(ang)], x[len(ang):]
        V = m * np.exp(1j * a)
        S = V * np.conj(Y @ V)
        return np.concatenate([S.real[ang], (S.imag + loss * m)[mag]])

    x0 = np.concatenate([va[ang], vm[mag]])
    h = 1e-6
    fd = np.column_stack([(injections(x0 + h * e) - injections(x0 - h * e)) / (2 * h)
                          for e in np.eye(len(x0))])
    assert J.shape == fd.shape
    assert np.max(np.abs(J.toarray() - fd)) <= 1e-6 * max(np.max(np.abs(fd)), 1.0)


@settings(max_examples=80, deadline=None)
@given(jacobian_inputs())
def test_fixed_pattern_jacobian_equals_dsbus_dv_form(inputs):
    """Filled on Y's pattern, the Jacobian equals the sparse-product form entry by entry,
    at every fill of one pattern."""
    Y, types, vm, va, _ = inputs
    ang, mag = _unknowns(types)
    fill = _jacobian_pattern(sp.csr_matrix(Y), ang, mag, np.zeros(len(types)))
    for k in range(2):  # a second state on the same pattern
        vm_k, va_k = vm * (1.0 - 0.05 * k), va + 0.1 * k
        J = fill(vm_k, va_k).toarray()
        ref = _dsbus_dv_jacobian(sp.csr_matrix(Y), vm_k, va_k, ang, mag).toarray()
        assert J.shape == ref.shape
        assert np.max(np.abs(J - ref), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(J),
                                                                             initial=0.0))


_STIFF = 50.0


@st.composite
def power_flow_inputs(draw):
    """Lightly loaded toy case: a live tree plus chords (some open), a dead island, GIC losses."""
    real = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    n_live = draw(st.integers(2, 7))
    n_dead = draw(st.integers(0, 2))
    kinds = ["slack"] + draw(st.lists(st.sampled_from(["PV", "PQ"]),
                                      min_size=n_live - 1, max_size=n_live - 1))
    buses = tuple(Bus(index=10 + i, base_kv=138.0, bus_type=kinds[i] if i < n_live else "PQ",
                      pd=draw(real(0.0, 0.5)) if i < n_live else 0.0,
                      qd=draw(real(-0.1, 0.2)) if i < n_live else 0.0,
                      g_shunt=draw(real(0.0, 0.05)))
                  for i in range(n_live + n_dead))
    gens = tuple(Generator(index=k, bus=10 + i, pmin=0.0, pmax=draw(real(0.5, 2.0)),
                           qmin=-9.0, qmax=9.0, pg=draw(real(0.0, 0.4)), vg=draw(real(0.98, 1.05)))
                 for k, i in enumerate(i for i in range(n_live) if kinds[i] != "PQ"))
    links = [(draw(st.integers(0, k - 1)), k) for k in range(1, n_live)]
    chords = draw(st.lists(st.tuples(st.integers(0, n_live - 1), st.integers(0, n_live - 1))
                           .filter(lambda e: e[0] != e[1]), max_size=3))
    links += chords + [(k - 1, k) for k in range(n_live + 1, n_live + n_dead)]
    extra_q = np.array([draw(st.just(0.0) | real(0.0, 0.1)) for _ in range(n_live)]
                       + [0.0] * n_dead)
    # Every line is stiff against the whole demand: b is at least _STIFF times
    # the total drawn load (active, reactive, shunt and GIC losses), so even a
    # line that feeds all of it drops the voltage by at most 1/_STIFF p.u., and
    # a chain of the at most six tree lines keeps every bus near 1 p.u.  With
    # weaker lines a loaded radial feeder can have no solution at all
    # (test_weak_loaded_feeder_has_no_power_flow_solution).
    load = (sum(b.pd + abs(b.qd) + b.g_shunt for b in buses)
            + sum(extra_q.tolist()))
    branches = tuple(AcBranch(index=100 + k, f_bus=10 + f, t_bus=10 + t,
                              b=_STIFF * load + draw(real(5.0, 50.0)), rating=10.0,
                              status=int(k < n_live - 1 or draw(st.booleans())))
                     for k, (f, t) in enumerate(links))
    chord_ids = range(100 + n_live - 1, 100 + n_live - 1 + len(chords))
    topology = {i: int(draw(st.booleans())) for i in chord_ids}
    case = CaseData(base_mva=100.0, buses=buses, generators=gens, ac_branches=branches,
                    gmd_buses=(), gmd_branches=(), branch_gmd=(), thermal=(), bus_gmd=())
    return case, extra_q, topology, n_live


def _assert_dense_equations(case, extra_q, topology, n_live, ac):
    """``ac`` satisfies the power-flow equations of ``case`` written out densely,
    with each GIC loss drawn at its bus's solved voltage."""
    ac = by_id(case, ac)
    ids = [b.index for b in case.buses]
    pos = {bid: i for i, bid in enumerate(ids)}
    V = np.array([ac.vm[i] * np.exp(1j * ac.va[i]) for i in ids])
    Y = np.diag([complex(b.g_shunt) for b in case.buses])
    for br in case.ac_branches:
        if topology.get(br.index, br.status):
            f, t, y = pos[br.f_bus], pos[br.t_bus], complex(0.0, -br.b)
            Y[[f, t, f, t], [f, t, t, f]] += [y, y, -y, -y]
            assert ac.p_from[br.index] + 1j * ac.q_from[br.index] == pytest.approx(
                V[f] * np.conj(y * (V[f] - V[t])), abs=1e-12)
        else:
            assert ac.p_from[br.index] == ac.q_to[br.index] == 0.0
    S = V * np.conj(Y @ V)
    gen = {b.index: [g for g in case.generators if g.bus == b.index] for b in case.buses}
    for i, b in enumerate(case.buses):
        loss = ac.vm[b.index] * extra_q[i]
        if i >= n_live:
            assert ac.vm[b.index] == 1.0 and ac.va[b.index] == 0.0
            continue
        p_gen = sum(ac.gen_p[g.index] for g in gen[b.index])   # pg at PV buses
        q_gen = sum(ac.gen_q[g.index] for g in gen[b.index])   # 0 at PQ buses
        assert S[i].real == pytest.approx(p_gen - b.pd, abs=1e-7)
        assert S[i].imag == pytest.approx(q_gen - b.qd - loss, abs=1e-7)
        if b.bus_type != "PQ":
            assert ac.vm[b.index] == gen[b.index][0].vg


@settings(max_examples=60, deadline=None)
@given(power_flow_inputs())
def test_power_flow_solves_dense_equations(inputs):
    """The sparse solution satisfies the power-flow equations written out densely."""
    case, extra_q, topology, n_live = inputs
    _assert_dense_equations(case, extra_q, topology, n_live,
                            ac_power_flow(case, extra_q, topology=topology))


@settings(max_examples=60, deadline=None)
@given(power_flow_inputs())
def test_warm_started_power_flow_solves_dense_equations(inputs):
    """Started from the solution without GIC losses, Newton reaches the flat-start
    solution with them; restarted from its own solution, it takes no step."""
    case, extra_q, topology, n_live = inputs
    loss_free = ac_power_flow(case, topology=topology)
    warm = ac_power_flow(case, extra_q, topology=topology, start=loss_free)
    _assert_dense_equations(case, extra_q, topology, n_live, warm)
    flat = ac_power_flow(case, extra_q, topology=topology)
    assert warm.vm == pytest.approx(flat.vm, abs=1e-7)
    assert warm.va == pytest.approx(flat.va, abs=1e-7)
    again = ac_power_flow(case, extra_q, topology=topology, start=warm)
    assert again.iterations == 1
    assert np.array_equal(again.vm, warm.vm) and np.array_equal(again.va, warm.va)


def test_weak_loaded_feeder_has_no_power_flow_solution():
    """The draw that once made the dense-equation tests fail at random, before
    power_flow_inputs held every line's b above _STIFF times the load: buses
    10-14, 0.5 + 0.2j p.u. at buses 12 and 13 behind three b=5 lines.  Newton
    cannot converge on it, and says so."""
    buses = tuple(Bus(index=10 + i, base_kv=138.0, bus_type="slack" if i == 0 else "PQ",
                      pd=0.5 if i in (2, 3) else 0.0, qd=0.2 if i in (2, 3) else 0.0)
                  for i in range(5))
    gens = (Generator(index=0, bus=10, pmin=0.0, pmax=2.0, qmin=-9.0, qmax=9.0, pg=0.0,
                      vg=1.0),)
    branches = tuple(AcBranch(index=100 + k, f_bus=10 + f, t_bus=10 + t, b=b, rating=10.0)
                     for k, (f, t, b) in enumerate([(0, 1, 5.0), (1, 2, 5.0), (2, 3, 5.0),
                                                    (0, 4, 20.0)]))
    case = CaseData(base_mva=100.0, buses=buses, generators=gens, ac_branches=branches,
                    gmd_buses=(), gmd_branches=(), branch_gmd=(), thermal=(), bus_gmd=())
    with pytest.raises(PowerFlowError, match="did not converge"):
        ac_power_flow(case)


def _fixed_point_of_passes(case, eff, tol=1e-12):
    """Oracle: power flows without ``extra_q``, each with the losses at the previous
    pass's voltages (1.0 p.u. at first) added to the buses' ``qd``, until no bus
    voltage moves by more than ``tol``."""
    vm, prev = 1.0, None
    for _ in range(100):
        add = _per_bus(case, qloss(case, eff, vm)).tolist()
        buses = tuple(dataclasses.replace(b, qd=b.qd + a) for b, a in zip(case.buses, add))
        ac = ac_power_flow(dataclasses.replace(case, buses=buses), tol=1e-12, start=prev)
        if prev is not None and np.max(np.abs(ac.vm - prev.vm)) <= tol:
            return ac
        vm, prev = ac.vm, ac
    raise AssertionError("the passes did not reach a fixed point")


@pytest.mark.parametrize("bearing", [0.0, 45.0, 90.0, 123.0, 270.0])
@pytest.mark.parametrize("mag", [1.0, 3.2])
def test_sequential_is_the_fixed_point_of_passes(epri21_case, mag, bearing):
    """One coupled Newton solve gives the fixed point of constant-loss passes: the
    losses are those of the voltages they produce."""
    field = FieldVector.from_mag_dir(mag, bearing)
    _, qmap, ac = sequential_gic_ac(epri21_case, field)
    eff = solve_series(epri21_case, np.array([field]), [0.0]).effective[:, 0]
    ref = _fixed_point_of_passes(epri21_case, eff)
    assert ac.max_mismatch <= 1e-8
    assert ac.vm == pytest.approx(ref.vm, abs=1e-9)
    assert ac.va == pytest.approx(ref.va, abs=1e-9)
    ref_q = qloss(epri21_case, eff, ref.vm)
    assert qmap.shape == ref_q.shape
    assert qmap == pytest.approx(ref_q, abs=1e-9)
