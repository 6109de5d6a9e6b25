"""LP layer: basic contracts, a vertex-enumeration cross-check and warm starts."""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from gicgrid.lp import LpNumericalError, LpProblem, lp_solve
from gicgrid.mitigation import build_model

from conftest import random_ots_case


def _problem(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, lb=None, ub=None):
    c = np.asarray(c, dtype=float)
    n = len(c)
    return LpProblem(
        c=c,
        A_ub=None if a_ub is None else sp.csr_matrix(np.asarray(a_ub, dtype=float)),
        b_ub=None if b_ub is None else np.asarray(b_ub, dtype=float),
        A_eq=None if a_eq is None else sp.csr_matrix(np.asarray(a_eq, dtype=float)),
        b_eq=None if b_eq is None else np.asarray(b_eq, dtype=float),
        lb=np.full(n, -1e6) if lb is None else np.asarray(lb, dtype=float),
        ub=np.full(n, 1e6) if ub is None else np.asarray(ub, dtype=float))


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


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.lists(st.sampled_from((None, 0.0, 1.0)), min_size=16, max_size=16),
                min_size=1, max_size=6))
def test_warm_solves_match_fresh_solves(seed, fixings):
    """A sequence of binary fixings solved on one warm-started problem gives
    the statuses and objectives of the same LPs solved on fresh copies."""
    case, scenario = random_ots_case(np.random.default_rng(seed))
    model = build_model(case, scenario)
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
