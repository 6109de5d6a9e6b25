"""LP layer: basic contracts, a vertex-enumeration cross-check, warm starts and
weak-duality bounds."""

import dataclasses
import itertools
import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from gicgrid.data import load_scenario_file
from gicgrid.lp import LpNumericalError, LpProblem, _load, dual_bound, lp_solve
from gicgrid.mitigation import OtsOptions, build_model

from conftest import CASES, random_ots_case


def _problem(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, lb=None, ub=None, lazy=None):
    """An LpProblem from dense rows: no rows of a kind give an empty matrix, and
    no ``lazy`` holds every row."""
    c = np.asarray(c, dtype=float)
    n = len(c)
    A_ub, A_eq = (sp.csr_matrix(np.asarray([] if a is None else a, dtype=float).reshape(-1, n))
                  for a in (a_ub, a_eq))
    b_ub, b_eq = (np.asarray([] if b is None else b, dtype=float) for b in (b_ub, b_eq))
    return LpProblem(
        c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        lb=np.full(n, -1e6) if lb is None else np.asarray(lb, dtype=float),
        ub=np.full(n, 1e6) if ub is None else np.asarray(ub, dtype=float),
        lazy=np.full(len(b_ub), -1) if lazy is None else np.asarray(lazy))


def test_min_x_at_least_three():
    res = lp_solve(_problem([1.0], a_ub=[[-1.0]], b_ub=[-3.0], lb=[0.0], ub=[10.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0)
    assert res.x[0] == pytest.approx(3.0)


def test_degenerate_tied_vertices_unique_objective():
    # min -x - y on the unit square cut by x + y <= 1: every point on the
    # cut edge is optimal; the objective is unique even if the vertex isn't
    res = lp_solve(_problem([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0],
                            lb=[0, 0], ub=[1, 1]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0)
    assert res.x.sum() == pytest.approx(1.0)
    assert res.residual <= 1e-7


def test_infeasible_status():
    res = lp_solve(_problem([1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0],
                            lb=[0.0], ub=[10.0]))
    assert res.status == "infeasible"
    assert res.x is None


def test_duals_available():
    res = lp_solve(_problem([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[4.0],
                            lb=[0, 0], ub=[10, 10]))
    assert res.status == "optimal"
    assert res.dual_eq is not None and len(res.dual_eq) == 1
    # shadow price of the balance equals the cheaper unit's cost
    assert res.dual_eq[0] == pytest.approx(1.0)


def test_rejects_infinite_bounds():
    prob = _problem([1.0], lb=[0.0], ub=[np.inf])
    with pytest.raises(ValueError, match="finite"):
        lp_solve(prob)


def test_bound_override_reuses_matrix():
    prob = _problem([1.0], lb=[0.0], ub=[10.0])
    res1 = lp_solve(prob)
    res2 = lp_solve(prob, lb=np.array([5.0]), ub=np.array([10.0]))
    assert res1.x[0] == pytest.approx(0.0)
    assert res2.x[0] == pytest.approx(5.0)
    assert prob.lb[0] == 0.0  # untouched


def _vertices(a_ub, b_ub, lb, ub):
    """All basic feasible points of {A x <= b, lb <= x <= ub} (tiny systems)."""
    n = a_ub.shape[1]
    rows = [(a_ub[i], b_ub[i]) for i in range(a_ub.shape[0])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, ub[j]))
        rows.append((-e, -lb[j]))
    verts = []
    for combo in itertools.combinations(range(len(rows)), n):
        A = np.array([rows[i][0] for i in combo])
        b = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, b)
        ok = all(np.dot(r, x) <= rhs + 1e-8 for r, rhs in rows)
        if ok:
            verts.append(x)
    return verts


@pytest.mark.parametrize("seed", range(10))
def test_random_lp_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 7))
    a = rng.normal(size=(m, n))
    b = rng.uniform(0.5, 3.0, size=m)
    c = rng.normal(size=n)
    lb = np.full(n, -5.0)
    ub = np.full(n, 5.0)
    res = lp_solve(_problem(c, a_ub=a, b_ub=b, lb=lb, ub=ub))
    assert res.status == "optimal"
    verts = _vertices(a, b, lb, ub)
    assert verts, "bounded polytope must have vertices"
    best = min(np.dot(c, v) for v in verts)
    assert res.objective == pytest.approx(best, abs=1e-6)


def test_refused_model_is_numerical_error():
    # a matrix entry beyond HiGHS's limit is a named failure, not "infeasible"
    prob = _problem([1.0, 1.0], a_ub=[[1e20, 1.0]], b_ub=[1.0], lb=[0, 0], ub=[1, 1])
    with pytest.raises(LpNumericalError, match="refused"):
        lp_solve(prob)


def _assert_loaded_is_the_problem(prob):
    """The instance ``_load`` makes of ``prob`` with its held rows holds the
    problem: its costs and column bounds, the held ``A_ub`` rows (at most
    ``b_ub``), then the equalities, as one matrix, and no integer column."""
    from scipy.optimize._highspy import _core as _highs

    held = np.flatnonzero(prob.lazy < 0)
    lp = _load(prob, held, prob.lb, prob.ub).getLp()
    for got, want in ((lp.col_cost_, prob.c), (lp.col_lower_, prob.lb), (lp.col_upper_, prob.ub),
                      (lp.row_lower_, np.r_[np.full(len(held), -np.inf), prob.b_eq]),
                      (lp.row_upper_, np.r_[prob.b_ub[held], prob.b_eq])):
        assert np.array_equal(np.asarray(got), want)
    a = lp.a_matrix_
    kind = sp.csr_matrix if a.format_ == _highs.MatrixFormat.kRowwise else sp.csc_matrix
    got = kind((np.asarray(a.value_), np.asarray(a.index_), np.asarray(a.start_)),
               shape=(lp.num_row_, lp.num_col_))
    want = sp.vstack([prob.A_ub[held], prob.A_eq], format="csr")
    assert got.shape == want.shape and (got != want).nnz == 0
    assert all(v == _highs.HighsVarType.kContinuous for v in lp.integrality_)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 10), st.integers(0, 3))
def test_loaded_instance_is_the_problem(seed, n, m, m_eq):
    """Random LPs with random lazy rows, some rows and columns empty."""
    rng = np.random.default_rng(seed)
    a_eq = rng.normal(size=(m_eq, n)) * (rng.random((m_eq, n)) < 0.6) if m_eq else None
    prob = _problem(rng.normal(size=n), rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.6),
                    rng.normal(size=m), a_eq, rng.normal(size=m_eq) if m_eq else None,
                    lb=-rng.uniform(0.0, 5.0, size=n), ub=rng.uniform(0.0, 5.0, size=n),
                    lazy=rng.integers(-1, 2, size=m))
    _assert_loaded_is_the_problem(prob)


def test_loaded_epri21_model_is_the_problem(epri21_case):
    """The switching model of epri21 at T = 144, with its held rows."""
    scenario = load_scenario_file(os.path.join(CASES, "ramp_3p2.csv"))
    model = build_model(epri21_case, scenario, OtsOptions(dt=2.5))
    assert model.n_periods == 144
    _assert_loaded_is_the_problem(model.lp)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.lists(st.sampled_from((None, 0.0, 1.0)), min_size=16, max_size=16),
                min_size=2, max_size=6))
def test_warm_solves_match_fresh_solves(seed, fixings):
    """A sequence of binary fixings solved on one warm-started problem gives
    the statuses and objectives of the same LPs solved on fresh copies.  Every
    sequence holds at least two solves, so each crosses the switch to Devex
    pricing, also from the basis an infeasible first solve leaves."""
    case, scenario = random_ots_case(np.random.default_rng(seed))
    model = build_model(case, scenario, OtsOptions(dt=5.0))
    warm = dataclasses.replace(model.lp)
    for fixing in fixings:
        lb, ub = model.lp.lb.copy(), model.lp.ub.copy()
        for bid, value in zip(model.switchable, fixing):
            if value is not None:
                lb[model.z_col[bid]] = ub[model.z_col[bid]] = value
        got = lp_solve(warm, lb=lb, ub=ub)
        want = lp_solve(dataclasses.replace(model.lp), lb=lb, ub=ub)
        assert got.status == want.status
        if want.status == "optimal":
            assert abs(got.objective - want.objective) <= 1e-9 * max(1.0, abs(want.objective))


def test_violated_lazy_row_is_added_and_kept():
    """max x under x <= 5 (held) and lazy x <= 2, x <= 3 (one group) and
    x <= 8: the first optimum, x = 5, violates the group, whose most violated
    row x <= 2 enters; x <= 3 and x <= 8 never do and keep dual 0."""
    prob = _problem([-1.0], a_ub=[[1.0], [1.0], [1.0], [1.0]], b_ub=[5.0, 2.0, 3.0, 8.0],
                    lb=[0.0], ub=[10.0], lazy=[-1, 0, 0, 1])
    res = lp_solve(prob)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0)
    assert sorted(prob._held.tolist()) == [0, 1]
    assert res.dual_ub.tolist() == pytest.approx([0.0, -1.0, 0.0, 0.0])
    # the row stays in the instance for later solves
    res = lp_solve(prob, lb=np.array([1.0]), ub=np.array([10.0]))
    assert res.x[0] == pytest.approx(2.0)
    assert sorted(prob._held.tolist()) == [0, 1]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 10), st.integers(0, 2),
       st.integers(1, 3))
def test_lazy_rows_match_all_rows_held(seed, n, m, m_eq, solves):
    """Random bounded LPs, with a random lazy grouping of their inequality
    rows, give on one instance, solve after solve under random bounds, the
    statuses and objectives of the same LPs with every row held, and every
    returned x meets every row."""
    rng = np.random.default_rng(seed)
    a_ub = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.7)
    b_ub = rng.normal(loc=1.0, size=m)
    a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    b_eq = rng.normal(size=m_eq) if m_eq else None
    c = rng.normal(size=n)
    lazy = rng.integers(-1, 3, size=m)
    prob = _problem(c, a_ub, b_ub, a_eq, b_eq, lazy=lazy)
    for _ in range(solves):
        lb = -rng.uniform(0.0, 5.0, size=n)
        ub = rng.uniform(0.0, 5.0, size=n)
        got = lp_solve(prob, lb=lb, ub=ub)
        want = lp_solve(_problem(c, a_ub, b_ub, a_eq, b_eq), lb=lb, ub=ub)
        assert got.status == want.status
        if want.status != "optimal":
            continue
        assert abs(got.objective - want.objective) <= 1e-9 * max(1.0, abs(want.objective))
        assert np.all(a_ub @ got.x - b_ub <= 1e-7)
        if m_eq:
            assert np.all(np.abs(a_eq @ got.x - b_eq) <= 1e-7)
        assert np.all(got.x >= lb - 1e-7) and np.all(got.x <= ub + 1e-7)
        never = np.setdiff1d(np.flatnonzero(lazy >= 0), prob._held)
        assert len(got.dual_ub) == m and np.all(got.dual_ub[never] == 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 8), st.integers(0, 2),
       st.floats(0.0, 10.0))
def test_dual_bound_is_at_most_the_optimum(seed, n, m, m_eq, scale):
    """Any row duals, clipped to their sign inside ``dual_bound``, bound a
    random LP's optimum over its box from below; the optimum's own duals
    bound it exactly, within 1e-9 relative."""
    rng = np.random.default_rng(seed)
    a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    prob = _problem(rng.normal(size=n), rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.7),
                    rng.normal(loc=1.0, size=m), a_eq, rng.normal(size=m_eq) if m_eq else None,
                    lb=-rng.uniform(0.0, 5.0, size=n), ub=rng.uniform(0.0, 5.0, size=n))
    res = lp_solve(prob)
    if res.status != "optimal":
        return
    y_ub, y_eq = scale * rng.normal(size=m), scale * rng.normal(size=m_eq)
    # slack for the solver's own 1e-7 row tolerance at its optimum x
    slack = 1e-7 * (1.0 + np.sum(np.abs(y_ub)) + np.sum(np.abs(y_eq)))
    assert dual_bound(prob, y_ub, y_eq) <= res.objective + slack
    exact = dual_bound(prob, res.dual_ub, res.dual_eq)
    assert abs(exact - res.objective) <= 1e-9 * max(1.0, abs(res.objective))


def test_basis_starts_a_fresh_copy():
    """The basis an optimal solve ends on, passed as the start of a fresh
    copy, is taken (the copy prices by Devex from its first run), holds the
    lazy rows the solve held, and gives the same optimum; a start of the
    wrong size is refused and the copy loads cold."""
    prob = _problem([-1.0, -1.0], a_ub=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                    b_ub=[5.0, 2.0, 3.0, 30.0], lb=[0.0, 0.0], ub=[10.0, 10.0],
                    lazy=[-1, 0, 1, 2])
    res = lp_solve(prob)
    basis = res.basis()
    assert basis.held.tolist() == [True, True, True, False]
    assert (basis.cols.shape, basis.ub.shape, basis.eq.shape) == ((2,), (4,), (0,))
    assert basis.ub[3] == 1  # a row never held reads basic
    for start, taken in ((basis, True), (dataclasses.replace(basis, cols=basis.cols[:1]), False)):
        copy = dataclasses.replace(prob, start=start)
        got = lp_solve(copy)
        assert copy._devex == taken
        assert sorted(copy._held.tolist()) == [0, 1, 2]
        assert got.objective == pytest.approx(res.objective, rel=1e-12)
        assert got.x == pytest.approx(res.x)
