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

Lazy rows: ``lazy`` gives each ``A_ub`` row a group id, or -1 for a row
the instance always holds.  The instance is loaded with the held rows
only.  After each optimal run, the most violated row of every group that
the solution violates by more than ``FEASIBILITY_TOL`` is added to the
instance, and kept there for later solves, and the instance re-runs warm
until no lazy row is violated.  Every warm run, after new rows as after
new bounds, prices by Devex.  The solution is still checked against
every row, so a solve returns what it would return with all rows held;
``dual_ub`` is 0 for the rows never added.
``dataclasses.replace(prob)`` gives a copy with no instance, whose solves
do not depend on any earlier ones.

Loading: the first solve passes the instance to HiGHS in one call, the
array form of ``passModel``: costs, column bounds, row bounds and one
row-wise matrix (int32 starts and indices) of the held ``A_ub`` rows,
then ``A_eq``, every column continuous.  No ``HighsLp`` is filled
attribute by attribute, which copies each array element by element.

A start: ``start``, an ``LpBasis`` in the problem's own order (such as
``LpResult.basis()`` of a related problem, mapped onto this one), is
passed to the instance when it loads.  The instance then also holds the
lazy rows the start holds, prices by Devex from its first run, and skips
presolve, which HiGHS runs only without a basis.  HiGHS takes the basis
as alien: it factors it and, where it has too few or too many basic
statuses or is singular, completes or trims it.  The start is only a
start: the lazy rows, the residual check and the cold re-run work as
without it, and a basis HiGHS refuses (one of the wrong size) leaves the
instance cold, as if there were no start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = ["LpBasis", "LpProblem", "LpResult", "LpNumericalError", "lp_solve", "dual_bound"]

FEASIBILITY_TOL = 1e-7

_STATUS = {"kOptimal": "optimal", "kInfeasible": "infeasible",  # by HiGHS model status name
           "kUnbounded": "unbounded"}


class LpNumericalError(ArithmeticError):
    """Solver reported a numerical failure; message carries diagnostics."""


@dataclass(frozen=True)
class LpBasis:
    """A simplex basis in a problem's own order: a HiGHS basis status code
    (0 at lower, 1 basic, 2 at upper, 3 zero, 4 nonbasic) per column, per
    ``A_ub`` row and per ``A_eq`` row, and which ``A_ub`` rows it holds; a row
    it does not hold reads basic."""
    cols: np.ndarray
    ub: np.ndarray
    eq: np.ndarray
    held: np.ndarray                # bool per A_ub row


@dataclass
class LpProblem:
    c: np.ndarray
    A_ub: sp.csr_matrix
    b_ub: np.ndarray
    A_eq: sp.csr_matrix
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    lazy: np.ndarray                # group id per A_ub row, -1 = always held
    start: LpBasis | None = field(default=None, repr=False, compare=False)
    # the HiGHS instance, the column bounds it holds, the A_ub row of each of
    # its inequality rows, in its row order, and how many of them it loaded
    # before its equalities, made by the first solve
    _highs: object = field(default=None, init=False, repr=False, compare=False)
    _bounds: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _devex: bool = field(default=False, init=False, repr=False, compare=False)
    _held: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _loaded: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.c)

    def _instance(self, lo: np.ndarray, hi: np.ndarray):
        """The HiGHS instance holding this problem with column bounds lo, hi."""
        if self._highs is None:
            held = self.lazy < 0
            self._held = np.flatnonzero(held if self.start is None else held | self.start.held)
            self._loaded = len(self._held)
            self._highs = _load(self, self._held, lo, hi)
            if self.start is not None:
                self._devex = _set_start(self._highs, self.start, self._held)
        else:
            self._warm()
            held_lo, held_hi = self._bounds
            cols = np.flatnonzero((held_lo != lo) | (held_hi != hi)).astype(np.int32)
            if cols.size:
                self._highs.changeColsBounds(cols.size, cols, lo[cols], hi[cols])
        self._bounds = (lo.copy(), hi.copy())
        return self._highs

    def _warm(self) -> None:
        """Price every run after the first by Devex."""
        if not self._devex:
            _price_by_devex(self._highs)
            self._devex = True

    def _hold_violated(self, x: np.ndarray) -> bool:
        """Add to the instance the most violated row of each lazy group that x
        violates; False when x violates no lazy row."""
        if len(self._held) == self.A_ub.shape[0]:
            return False
        excess = self.A_ub @ x - self.b_ub
        excess[self._held] = 0.0
        rows = np.flatnonzero((self.lazy >= 0) & (excess > FEASIBILITY_TOL))
        if not rows.size:
            return False
        rows = rows[np.lexsort((-excess[rows], self.lazy[rows]))]
        rows = np.sort(rows[np.r_[True, np.diff(self.lazy[rows]) != 0]])
        new = self.A_ub[rows]
        self._highs.addRows(rows.size, np.full(rows.size, -np.inf), self.b_ub[rows],
                            new.nnz, new.indptr[:-1].astype(np.int32),
                            new.indices.astype(np.int32), new.data)
        self._held = np.r_[self._held, rows]
        self._warm()
        return True


@dataclass
class LpResult:
    status: str                     # optimal | infeasible | unbounded
    objective: float | None
    x: np.ndarray | None
    dual_ub: np.ndarray | None = None
    dual_eq: np.ndarray | None = None
    residual: float = 0.0
    message: str = ""
    # of an optimal result: the instance's HiGHS basis, its inequality rows
    # and how many it loaded first, read into an LpBasis only when asked
    _basis: tuple | None = field(default=None, repr=False, compare=False)

    def basis(self) -> LpBasis:
        """The basis this optimal solve ended on, in the problem's order."""
        highs_basis, held, loaded, m_ub = self._basis
        cols, rows = (np.array(list(map(int, status)), dtype=np.int8)
                      for status in (highs_basis.col_status, highs_basis.row_status))
        m_eq = len(rows) - len(held)
        ub = np.full(m_ub, 1, dtype=np.int8)  # basic: the slack of a row not held
        ub[held] = np.r_[rows[:loaded], rows[loaded + m_eq:]]
        mask = np.zeros(m_ub, dtype=bool)
        mask[held] = True
        return LpBasis(cols=cols, ub=ub, eq=rows[loaded:loaded + m_eq], held=mask)


def lp_solve(prob: LpProblem, *, lb: np.ndarray | None = None,
             ub: np.ndarray | None = None) -> LpResult:
    """Solve an LP; optional lb/ub arrays override the problem bounds.

    The bound override keeps branch-and-bound cheap: one assembled matrix
    is reused across nodes that only tighten variable bounds, and each
    solve warm-starts from the previous one's basis.  Returns an optimal
    basic solution with primal residual <= 1e-7 on every row, lazy or
    not, or a definite infeasible/unbounded status.  A solve that ends any other way, or
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
        if cold:
            h.setOptionValue("solver", "choose")
        status = _STATUS.get(h.getModelStatus().name)
        while status == "optimal":  # re-run warm while the optimum violates lazy rows
            solution = h.getSolution()
            x = np.array(solution.col_value)
            if not prob._hold_violated(x):
                break
            h.run()
            status = _STATUS.get(h.getModelStatus().name)
        if status in ("infeasible", "unbounded"):
            return LpResult(status=status, objective=None, x=None,
                            message=h.modelStatusToString(h.getModelStatus()))
        if status == "optimal":
            residual = _primal_residual(prob, x, lo, hi)
            if residual <= FEASIBILITY_TOL:
                break
    if status != "optimal":
        raise LpNumericalError(_numerical_report(h))
    if residual > FEASIBILITY_TOL:
        raise LpNumericalError(
            f"primal residual {residual:.3e} exceeds {FEASIBILITY_TOL:.0e}; "
            + _numerical_report(h))
    # instance rows: the rows held at load, the equalities, then the added lazy rows
    row_dual = np.array(solution.row_dual)
    loaded, m_eq = prob._loaded, prob.A_eq.shape[0]
    dual_ub = np.zeros(prob.A_ub.shape[0])
    dual_ub[prob._held] = np.r_[row_dual[:loaded], row_dual[loaded + m_eq:]]
    return LpResult(status="optimal", objective=float(h.getInfo().objective_function_value),
                    x=x, dual_ub=dual_ub, dual_eq=row_dual[loaded:loaded + m_eq],
                    residual=residual, message=h.modelStatusToString(h.getModelStatus()),
                    _basis=(h.getBasis(), prob._held, loaded, prob.A_ub.shape[0]))


def dual_bound(prob: LpProblem, dual_ub: np.ndarray, dual_eq: np.ndarray) -> float:
    """A lower bound on the LP's optimum over its box (``lb``, ``ub``) from
    any row duals, by weak duality (Neumaier & Shcherbina, Math. Prog. 2004).

    With ``y_u = min(dual_ub, 0)`` (a ``<=`` row's dual clipped to its sign)
    and ``y_e = dual_eq``, every x in the box that meets the rows has
    ``c x = y_u A_ub x + y_e A_eq x + r x >= b_ub y_u + b_eq y_e
    + sum_j min(r_j lb_j, r_j ub_j)`` for ``r = c - A_ub' y_u - A_eq' y_e``.
    At an optimum's own duals the bound is the optimum, up to rounding."""
    y_u = np.minimum(dual_ub, 0.0)
    r = prob.c - prob.A_ub.T @ y_u - prob.A_eq.T @ dual_eq
    return float(prob.b_ub @ y_u + prob.b_eq @ dual_eq
                 + np.sum(np.minimum(r * prob.lb, r * prob.ub)))


def _load(prob: LpProblem, held: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """A silent HiGHS instance holding ``prob``'s ``A_ub`` rows ``held``, then
    its equalities, with column bounds lo, hi.

    HiGHS is imported here, not with the module: importing scipy.optimize
    costs about 0.2 s, which only the commands that solve an LP pay."""
    from scipy.optimize._highspy import _core as _highs

    A = sp.vstack([prob.A_ub[held], prob.A_eq], format="csr")
    b_ub, b_eq = prob.b_ub[held], prob.b_eq
    m, n = A.shape
    h = _highs._Highs()
    h.setOptionValue("output_flag", False)
    # every column continuous: an empty integrality array makes HiGHS read past its end
    status = h.passModel(n, m, A.nnz, int(_highs.MatrixFormat.kRowwise),
                         int(_highs.ObjSense.kMinimize), 0.0, prob.c, lo, hi,
                         np.r_[np.full(len(b_ub), -np.inf), b_eq], np.r_[b_ub, b_eq],
                         A.indptr.astype(np.int32), A.indices.astype(np.int32), A.data,
                         np.zeros(n, dtype=np.int32))
    if status == _highs.HighsStatus.kError:
        raise LpNumericalError("HiGHS refused the LP: a coefficient or bound is beyond "
                               "its limits (1e15 for matrix entries)")
    return h


def _set_start(h, start: LpBasis, held: np.ndarray) -> bool:
    """Pass ``start`` to a freshly loaded instance holding the ``A_ub`` rows
    ``held``, then its equalities, pricing by Devex; True when HiGHS takes
    it.  The pricing is set first, so the basis is passed once.  A basis
    HiGHS refuses leaves the instance cold, at its default pricing."""
    from scipy.optimize._highspy import _core as _highs

    status = {int(s): s for s in _highs.HighsBasisStatus.__members__.values()}
    basis = _highs.HighsBasis()
    basis.col_status = [status[k] for k in start.cols.tolist()]
    basis.row_status = [status[k] for k in np.r_[start.ub[held], start.eq].tolist()]
    basis.alien, basis.valid = True, True  # factored, completed or trimmed by HiGHS
    h.setOptionValue("simplex_dual_edge_weight_strategy", 1)  # Devex
    if h.setBasis(basis) == _highs.HighsStatus.kError:
        h.setOptionValue("simplex_dual_edge_weight_strategy", -1)  # HiGHS's default
        return False
    return True


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
    return max(float(np.max(prob.A_ub @ x - prob.b_ub, initial=0.0)),
               float(np.max(np.abs(prob.A_eq @ x - prob.b_eq), initial=0.0)),
               float(np.max(lo - x, initial=0.0)), float(np.max(x - hi, initial=0.0)))


def _numerical_report(h) -> str:
    status = h.getModelStatus()
    info = h.getInfo()
    return (f"LP numerical failure (HiGHS model status {h.modelStatusToString(status)}); "
            f"max primal infeasibility {info.max_primal_infeasibility:.3e}, "
            f"max dual infeasibility {info.max_dual_infeasibility:.3e}, "
            f"{info.simplex_iteration_count} simplex iterations")
