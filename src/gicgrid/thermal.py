"""Transformer top-oil and hot-spot temperature dynamics.

Top-oil rise follows a first-order lag toward the loading-dependent
steady-state rise, discretized with the bilinear transform:

    delta[k] = (du[k] + du[k-1]) / (1 + zeta) - (1 - zeta)/(1 + zeta) * delta[k-1]

with zeta = 2 tau / dt, which must be >= 1 (dt <= 2 tau): below that the
recursion alternates sign.  Hot-spot rise is instantaneous and linear in
the effective GIC (eta = R * I_eff); the absolute hot-spot temperature is
ambient + top-oil rise + hot-spot rise (``hotspot_temp``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .data import ABSENT, BranchGmdData, CaseData, FieldScenario, ThermalData
from .dcnet import GicSeries, solve_series

__all__ = [
    "apparent_power",
    "steady_rise",
    "hotspot_temp",
    "ThermalTrace",
    "simulate",
    "topoil_series",
    "TopOil",
    "XfmrArrays",
]


def apparent_power(p: float, q: float) -> float:
    """sqrt(p^2 + q^2); under the dc approximation q = 0 and s = |p|."""
    return math.hypot(p, q)


def steady_rise(s: float, s_rated: float, delta_rated: float) -> float:
    """Steady-state top-oil rise [degC] for apparent loading s.

    Quadratic in the fractional loading: delta_rated * (s / s_rated)^2.
    Works on numbers and on arrays that broadcast together.
    """
    if np.any(np.asarray(s_rated) <= 0):
        raise ValueError("rated apparent power must be > 0")
    k = s / s_rated
    return delta_rated * k * k


def hotspot_temp(th: ThermalData | XfmrArrays, delta_to, i_eff):
    """Absolute hot-spot temperature [degC]: ambient + top-oil rise + hs_coeff * I_eff.

    ``th`` is one thermal row, with numbers or series of matching shape, or
    a table of transformer rows, with (samples x rows) stacks.
    """
    return th.temp_amb + delta_to + th.hs_coeff * i_eff


def topoil_series(du: np.ndarray, zeta, delta0) -> np.ndarray:
    """Run the top-oil recursion over a du series; returns delta[0..K].

    ``du`` is one series, with scalar ``zeta`` and ``delta0``, or a stack
    (transformers x samples) with ``zeta`` and ``delta0`` per row; the
    result has its shape.  du[..., 0] is treated as the steady input
    already present at the initial sample, i.e. the recursion pairs
    (du[k-1], du[k]) per step with delta[0] = delta0.  Bitwise equal to
    the scalar step of the module docstring taken one sample at a time,
    ``(du[k] + du[k-1]) / (1 + zeta) - (1 - zeta) / (1 + zeta) * delta[k-1]``:
    the input term of every step is computed at once, then one recursion
    runs over the samples, each step one array operation over all rows.
    (``scipy.signal.lfilter`` is not used: it flips signed zeros at
    zeta = 1, and importing it nearly doubles the package's import time.)
    """
    du = np.asarray(du, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if np.any(zeta <= 0):
        raise ValueError("zeta must be > 0")
    if du.shape[-1] == 1:  # no step taken; zeta may be inf (one sample)
        return np.array([delta0], dtype=float).T
    x = (du[..., 1:] + du[..., :-1]) / (1.0 + zeta[..., None])
    c = (1.0 - zeta) / (1.0 + zeta)
    return np.array(list(accumulate(x.T, lambda d, xk: xk - c * d, initial=delta0)),
                    dtype=float).T


class XfmrArrays:
    """The transformer rows of a case as arrays, built from its rows once per
    case: read them through ``case.compiled(XfmrArrays)``.

    One row per ``case.xfmr_rows()`` entry, in that order (that of the rows
    of ``DcArrays.W`` and ``GicSeries.effective``); ``table[rows]`` is the
    table of some of them (an index or mask array).  A row is traced when
    its ac branch is real: validation gives every real transformer exactly
    one thermal row.  A synthetic row (branch -1) holds no heat: NaN
    rating, time constant and limit, and 0 ambient, hot-spot coefficient,
    rated and initial rise.
    """

    def __init__(self, case: CaseData):
        rows = case.xfmr_rows()
        self.pos = np.array([pos for pos, _ in rows], dtype=int)  # branch_gmd position
        self.branch = np.array([row.branch for _, row in rows], dtype=int)  # ac branch id or -1
        self.traced = self.branch != ABSENT

        def columns(row: BranchGmdData) -> tuple[float, ...]:
            if row.branch == ABSENT:
                return (math.nan, 0.0, 0.0, 0.0, math.nan, math.nan, 0.0)
            th = case.thermal_for(row.branch)
            limit = th.hs_inst_lim if row.hotspot_limit is None else row.hotspot_limit
            return (case.ac_branch(row.branch).rating, th.temp_amb, th.hs_coeff, th.to_rated,
                    th.to_time_c, limit, th.to_init if th.to_inited else math.nan)

        # limit: the hot-spot cap; delta0: the initial top-oil rise, NaN when the
        # row starts from the steady rise of its first sample
        (self.rating, self.temp_amb, self.hs_coeff, self.to_rated, self.to_time_c, self.limit,
         self.delta0) = np.array([columns(row) for _, row in rows], dtype=float).reshape(-1, 7).T
        self.gic_bound = np.array([math.inf if row.gic_bound is None else row.gic_bound
                                   for _, row in rows], dtype=float)  # [A]

    def __getitem__(self, rows) -> "XfmrArrays":
        part = object.__new__(XfmrArrays)
        part.__dict__.update({name: col[rows] for name, col in vars(self).items()})
        return part


@dataclass(frozen=True)
class TopOil:
    """Top-oil state convention of transformer rows at step dt.

    ``zeta`` is 2 tau / dt per row; ``delta0`` the initial top-oil rise, NaN
    where a row starts from the steady rise of its first sample.
    """

    zeta: np.ndarray
    delta0: np.ndarray

    @classmethod
    def of(cls, rows: XfmrArrays, dt: float | None) -> "TopOil":
        """States of the table's ``rows`` at step ``dt`` [min]; zeta is inf when
        no step is taken (one sample).  A synthetic row gets zeta 2: it holds no
        heat, and any zeta >= 1 keeps it at 0.

        Raises ValueError naming the first branch whose dt exceeds 2 tau (zeta < 1).
        """
        bad = np.flatnonzero(~cls.steps(rows, dt))
        if bad.size:
            raise ValueError(f"branch {rows.branch[bad[0]]}: dt={dt} exceeds 2*tau; temperature "
                             "recursion would lose monotonicity")
        return cls(cls._zeta(rows, dt), rows.delta0)

    @classmethod
    def steps(cls, rows: XfmrArrays, dt: float | None) -> np.ndarray:
        """Per row, whether its recursion stays monotone at step dt (zeta >= 1: dt <= 2 tau)."""
        return cls._zeta(rows, dt) >= 1.0

    @staticmethod
    def _zeta(rows: XfmrArrays, dt: float | None) -> np.ndarray:
        return np.where(rows.traced, math.inf if dt is None else 2.0 * rows.to_time_c / dt, 2.0)

    def stack(self, rise) -> np.ndarray:
        """Top-oil rise of each row: row r of the steady-rise stack ``rise``
        (rows x samples) under row r's state, in one recursion.

        Sample 0 is the initial state.  Its input is replaced by the
        initial rise, so the pre-initial input sustains the initial state.
        """
        du = np.array(rise, dtype=float)
        inited = ~np.isnan(self.delta0)
        du[inited, 0] = self.delta0[inited]
        return topoil_series(du, self.zeta, du[:, 0])


@dataclass(frozen=True)
class ThermalTrace:
    """Simulation result: one row per traced transformer, in ``case.xfmr_rows()``
    order; the (rows x samples) arrays have one column per sample of ``t``."""

    branch: np.ndarray     # ac branch id per row
    pos: np.ndarray        # branch_gmd position per row
    t: np.ndarray          # minutes
    i_eff: np.ndarray      # effective GIC [A]
    delta_to: np.ndarray   # top-oil rise [degC]
    eta_hs: np.ndarray     # hot-spot rise [degC]
    hotspot: np.ndarray    # absolute hot-spot [degC]
    limit: np.ndarray      # applicable cap [degC] per row
    series: GicSeries      # the dc solve at every sample, every transformer row

    @property
    def violations(self) -> np.ndarray:
        return self.hotspot > self.limit[:, None]

    def any_violation(self) -> bool:
        return bool(self.violations.any())


def simulate(case: CaseData, scenario: FieldScenario, *, times: Sequence[float],
             loading: Mapping[int, float | Sequence[float]] | None = None,
             topology: Mapping[int, int] | None = None) -> ThermalTrace:
    """Simulate transformer temperatures over a field scenario.

    The samples are ``times`` [min], a uniform grid (``Periods.edges`` of a
    scenario, or ``Periods.samples`` of a plan's periods); the recursion's
    step is that of the first pair, so a grid whose steps differ from it
    raises ValueError.  Effective GICs at every sample come from one
    ``solve_series`` over the grid; ``loading`` maps an ac branch id to its
    apparent power [p.u.], a number held over the samples or a series with
    one value per sample (a branch it omits is unloaded; a series of
    another length raises ValueError).  The initial top-oil rise follows
    ``TopOil``.

    Only transformers with thermal data are traced (synthetic GSU rows
    have none).
    """
    tgrid = np.asarray(times, dtype=float)
    step = tgrid[1] - tgrid[0] if len(tgrid) > 1 else None  # one sample: no step taken
    if step is not None and not np.allclose(np.diff(tgrid), step, rtol=1e-6, atol=0.0):
        raise ValueError(f"simulate: times must be a uniform grid; its first step is {step}")
    loads = {bid: np.abs(np.asarray(s, dtype=float)) for bid, s in (loading or {}).items()}
    for bid, s in loads.items():
        if s.ndim and s.shape != tgrid.shape:
            raise ValueError(f"simulate: loading of branch {bid} has {s.size} values "
                             f"for {len(tgrid)} samples")
    series = solve_series(case, scenario, tgrid, topology=topology)
    xfmrs = case.compiled(XfmrArrays)
    rows = xfmrs[xfmrs.traced]
    shape = (len(rows.pos), len(tgrid))
    load = np.reshape([np.broadcast_to(loads.get(bid, 0.0), tgrid.shape)
                       for bid in rows.branch.tolist()], shape)
    delta = TopOil.of(rows, step).stack(
        steady_rise(load, rows.rating[:, None], rows.to_rated[:, None]))
    i_eff = series.effective[xfmrs.traced]
    return ThermalTrace(branch=rows.branch, pos=rows.pos, t=tgrid, i_eff=i_eff, delta_to=delta,
                        eta_hs=rows.hs_coeff[:, None] * i_eff,
                        hotspot=hotspot_temp(rows, delta.T, i_eff.T).T, limit=rows.limit,
                        series=series)
