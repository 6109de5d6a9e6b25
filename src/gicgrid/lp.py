"""Thin linear-programming layer over the HiGHS solver bundled with scipy.

Problems are held in standard form (minimize c x subject to
A_ub x <= b_ub, A_eq x = b_eq, lb <= x <= ub) with sparse constraint
matrices.  All variable bounds are expected to be finite; the model
builders guarantee that via their big-M construction.

An ``LpProblem`` keeps one HiGHS instance once it is first solved.  A
later solve passes only the columns whose bounds changed, so dual simplex
starts from the previous basis (Huangfu & Hall, 2018): a branch-and-bound
node LP differs from the one before it in a few binaries' bounds.  The
first solve runs with HiGHS's defaults, presolve and dual steepest-edge
pricing (Forrest & Goldfarb, 1992); the warm solves after it price by
Devex, whose weights cost far less to keep up over the few iterations a
warm solve takes.
``dataclasses.replace(prob)`` gives a copy with no instance, whose solves
do not depend on any earlier ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = ["LpProblem", "LpResult", "LpNumericalError", "lp_solve"]

FEASIBILITY_TOL = 1e-7

_STATUS = {"kOptimal": "optimal", "kInfeasible": "infeasible",  # by HiGHS model status name
           "kUnbounded": "unbounded"}


class LpNumericalError(ArithmeticError):
    """Solver reported a numerical failure; message carries diagnostics."""


@dataclass
class LpProblem:
    c: np.ndarray
    A_ub: sp.csr_matrix | None
    b_ub: np.ndarray | None
    A_eq: sp.csr_matrix | None
    b_eq: np.ndarray | None
    lb: np.ndarray
    ub: np.ndarray
    # the HiGHS instance and the column bounds it holds, made by the first solve
    _highs: object = field(default=None, init=False, repr=False, compare=False)
    _bounds: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _devex: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.c)

    def _instance(self, lo: np.ndarray, hi: np.ndarray):
        """The HiGHS instance holding this problem with column bounds lo, hi."""
        if self._highs is None:
            self._highs = _load(self, lo, hi)
        else:
            if not self._devex:
                _price_by_devex(self._highs)
                self._devex = True
            held_lo, held_hi = self._bounds
            cols = np.flatnonzero((held_lo != lo) | (held_hi != hi)).astype(np.int32)
            if cols.size:
                self._highs.changeColsBounds(cols.size, cols, lo[cols], hi[cols])
        self._bounds = (lo.copy(), hi.copy())
        return self._highs


@dataclass
class LpResult:
    status: str                     # optimal | infeasible | unbounded
    objective: float | None
    x: np.ndarray | None
    dual_ub: np.ndarray | None = None
    dual_eq: np.ndarray | None = None
    residual: float = 0.0
    message: str = ""


def lp_solve(prob: LpProblem, *, lb: np.ndarray | None = None,
             ub: np.ndarray | None = None) -> LpResult:
    """Solve an LP; optional lb/ub arrays override the problem bounds.

    The bound override keeps branch-and-bound cheap: one assembled matrix
    is reused across nodes that only tighten variable bounds, and each
    solve warm-starts from the previous one's basis.  Returns an optimal
    basic solution with primal residual <= 1e-7, or a definite
    infeasible/unbounded status.  A solve that ends any other way, or
    above the residual, is re-run once cold, by interior point and
    crossover, before LpNumericalError.
    """
    lo = np.asarray(prob.lb if lb is None else lb, dtype=float)
    hi = np.asarray(prob.ub if ub is None else ub, dtype=float)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("all variable bounds must be finite")
    h = prob._instance(lo, hi)
    for cold in (False, True):
        if cold:  # once more from scratch: interior point, then crossover to a basis
            h.clearSolver()
            h.setOptionValue("solver", "ipm")
        h.run()
        status = _STATUS.get(h.getModelStatus().name)
        if cold:
            h.setOptionValue("solver", "choose")
        if status in ("infeasible", "unbounded"):
            return LpResult(status=status, objective=None, x=None,
                            message=h.modelStatusToString(h.getModelStatus()))
        if status == "optimal":
            solution = h.getSolution()
            x = np.array(solution.col_value)
            residual = _primal_residual(prob, x, lo, hi)
            if residual <= FEASIBILITY_TOL:
                break
    if status != "optimal":
        raise LpNumericalError(_numerical_report(h))
    if residual > FEASIBILITY_TOL:
        raise LpNumericalError(
            f"primal residual {residual:.3e} exceeds {FEASIBILITY_TOL:.0e}; "
            + _numerical_report(h))
    row_dual = np.array(solution.row_dual)
    m_ub = 0 if prob.A_ub is None else prob.A_ub.shape[0]
    return LpResult(status="optimal", objective=float(h.getInfo().objective_function_value),
                    x=x, dual_ub=None if prob.A_ub is None else row_dual[:m_ub],
                    dual_eq=None if prob.A_eq is None else row_dual[m_ub:],
                    residual=residual, message=h.modelStatusToString(h.getModelStatus()))


def _load(prob: LpProblem, lo: np.ndarray, hi: np.ndarray):
    """A silent HiGHS instance holding ``prob`` with column bounds lo, hi.

    HiGHS is imported here, not with the module: importing scipy.optimize
    costs about 0.2 s, which only the commands that solve an LP pay."""
    from scipy.optimize._highspy import _core as _highs

    empty = sp.csr_matrix((0, prob.n))
    A = sp.vstack([empty if prob.A_ub is None else prob.A_ub,
                   empty if prob.A_eq is None else prob.A_eq], format="csr")
    b_ub = np.empty(0) if prob.A_ub is None else prob.b_ub
    b_eq = np.empty(0) if prob.A_eq is None else prob.b_eq
    lp = _highs.HighsLp()
    lp.num_col_, lp.num_row_ = A.shape[1], A.shape[0]
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = prob.c, lo, hi
    lp.row_lower_ = np.r_[np.full(len(b_ub), -np.inf), b_eq]
    lp.row_upper_ = np.r_[b_ub, b_eq]
    M = lp.a_matrix_
    M.format_, M.num_col_, M.num_row_ = _highs.MatrixFormat.kRowwise, A.shape[1], A.shape[0]
    M.start_, M.index_, M.value_ = A.indptr, A.indices, A.data
    h = _highs._Highs()
    h.setOptionValue("output_flag", False)
    if h.passModel(lp) == _highs.HighsStatus.kError:
        raise LpNumericalError("HiGHS refused the LP: a coefficient or bound is beyond "
                               "its limits (1e15 for matrix entries)")
    return h


def _price_by_devex(h) -> None:
    """Switch a solved instance to Devex pricing and keep its basis.

    HiGHS reads the pricing option only when its simplex solver starts
    afresh, so the solver is cleared and the basis passed back in."""
    basis = h.getBasis()
    h.clearSolver()
    h.setOptionValue("simplex_dual_edge_weight_strategy", 1)  # Devex
    if basis.valid:
        h.setBasis(basis)


def _primal_residual(prob: LpProblem, x: np.ndarray, lo, hi) -> float:
    worst = 0.0
    if prob.A_ub is not None and prob.A_ub.shape[0]:
        worst = max(worst, float(np.max(prob.A_ub @ x - prob.b_ub, initial=0.0)))
    if prob.A_eq is not None and prob.A_eq.shape[0]:
        worst = max(worst, float(np.max(np.abs(prob.A_eq @ x - prob.b_eq), initial=0.0)))
    worst = max(worst, float(np.max(lo - x, initial=0.0)))
    worst = max(worst, float(np.max(x - hi, initial=0.0)))
    return worst


def _numerical_report(h) -> str:
    status = h.getModelStatus()
    info = h.getInfo()
    return (f"LP numerical failure (HiGHS model status {h.modelStatusToString(status)}); "
            f"max primal infeasibility {info.max_primal_infeasibility:.3e}, "
            f"max dual infeasibility {info.max_dual_infeasibility:.3e}, "
            f"{info.simplex_iteration_count} simplex iterations")
