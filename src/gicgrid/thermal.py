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
from typing import Callable, Mapping

import numpy as np

from .data import ABSENT, CaseData, FieldScenario, ThermalData
from .dcnet import solve_series

__all__ = [
    "apparent_power",
    "steady_rise",
    "step_topoil",
    "hotspot_rise",
    "hotspot_temp",
    "TransformerTrace",
    "ThermalTrace",
    "simulate",
    "topoil_series",
    "TopOil",
]

Loading = Mapping[int, float] | Callable[[float], Mapping[int, float]] | None


def apparent_power(p: float, q: float) -> float:
    """sqrt(p^2 + q^2); under the dc approximation q = 0 and s = |p|."""
    return math.hypot(p, q)


def steady_rise(s: float, s_rated: float, delta_rated: float) -> float:
    """Steady-state top-oil rise [degC] for apparent loading s.

    Quadratic in the fractional loading: delta_rated * (s / s_rated)^2.
    """
    if s_rated <= 0:
        raise ValueError("rated apparent power must be > 0")
    k = s / s_rated
    return delta_rated * k * k

def step_topoil(delta_prev: float, du_prev: float, du_now: float, zeta: float) -> float:
    """One bilinear-transform step of the top-oil lag.

    Preserves fixed points exactly: constant inputs reproduce themselves.
    """
    if zeta <= 0:
        raise ValueError("zeta must be > 0")
    return (du_now + du_prev) / (1.0 + zeta) - (1.0 - zeta) / (1.0 + zeta) * delta_prev


def hotspot_rise(i_eff: float, r_coeff: float) -> float:
    """Hot-spot rise over top-oil [degC], linear in the effective GIC."""
    if i_eff < 0:
        raise ValueError("effective GIC must be >= 0")
    return r_coeff * i_eff


def hotspot_temp(th: ThermalData, delta_to, i_eff):
    """Absolute hot-spot temperature [degC]: ambient + top-oil rise + hs_coeff * I_eff.

    Works on scalars and on arrays of matching shape.
    """
    return th.temp_amb + delta_to + th.hs_coeff * i_eff


def topoil_series(du: np.ndarray, zeta: float, delta0: float) -> np.ndarray:
    """Run the top-oil recursion over a du series; returns delta[0..K].

    du[0] is treated as the steady input already present at the initial
    sample, i.e. the recursion pairs (du[k-1], du[k]) per step with
    delta[0] = delta0.  Bitwise equal to ``step_topoil`` applied step by
    step: the input term of every step is computed at once, then the
    recursion runs at C level over Python floats.  (``scipy.signal.lfilter``
    is not used: it flips signed zeros at zeta = 1, and importing it
    nearly doubles the package's import time.)
    """
    if zeta <= 0:
        raise ValueError("zeta must be > 0")
    du = np.asarray(du, dtype=float)
    x = (du[1:] + du[:-1]) / (1.0 + zeta)
    c = (1.0 - zeta) / (1.0 + zeta)
    return np.array(list(accumulate(x.tolist(), lambda d, xk: xk - c * d, initial=delta0)),
                    dtype=float)


@dataclass(frozen=True)
class TopOil:
    """Top-oil state convention of one transformer at step dt.

    ``delta0`` is the initial top-oil rise: to_init when to_inited is 1,
    None when it starts from the steady rise of the first sample.
    """

    zeta: float                 # 2 tau / dt
    delta0: float | None

    @classmethod
    def of(cls, th: ThermalData, dt: float | None) -> "TopOil":
        """State at step ``dt`` [min]; None when no step is taken (one sample).

        Raises ValueError when dt exceeds 2 tau (zeta < 1).
        """
        zeta = math.inf if dt is None else 2.0 * th.to_time_c / dt
        if not zeta >= 1.0:
            raise ValueError(f"branch {th.branch}: dt={dt} exceeds 2*tau; temperature "
                             "recursion would lose monotonicity")
        return cls(zeta, th.to_init if th.to_inited else None)

    def series(self, rise) -> np.ndarray:
        """Top-oil rise at each sample of the steady-rise series ``rise``.

        Sample 0 is the initial state.  Its input is replaced by the
        initial rise, so the pre-initial input sustains the initial state.
        """
        du = np.array(rise, dtype=float)
        if self.delta0 is not None:
            du[0] = self.delta0
        return topoil_series(du, self.zeta, du[0])


@dataclass(frozen=True)
class TransformerTrace:
    """Per-transformer temperature time series (arrays over the grid)."""

    branch: int            # ac branch id
    t: np.ndarray          # minutes
    i_eff: np.ndarray      # effective GIC [A]
    delta_to: np.ndarray   # top-oil rise [degC]
    eta_hs: np.ndarray     # hot-spot rise [degC]
    hotspot: np.ndarray    # absolute hot-spot [degC]
    limit: float           # applicable cap [degC]

    @property
    def violations(self) -> np.ndarray:
        return self.hotspot > self.limit

    @property
    def peak(self) -> float:
        return float(np.max(self.hotspot))


@dataclass(frozen=True)
class ThermalTrace:
    """Simulation result; traces keyed by ac branch id."""

    traces: Mapping[int, TransformerTrace]
    t: np.ndarray

    def any_violation(self) -> bool:
        return any(bool(tr.violations.any()) for tr in self.traces.values())


def simulate(case: CaseData, scenario: FieldScenario, *, loading: Loading = None,
             topology: Mapping[int, int] | None = None,
             dt: float | None = None) -> ThermalTrace:
    """Simulate transformer temperatures over a field scenario.

    The scenario is resampled on a uniform grid of step ``dt`` (default:
    the scenario's own dt, which must divide its span).  Effective GICs at
    every grid point come from one ``solve_series`` over the grid;
    ``loading`` supplies per-ac-branch apparent power
    [p.u.] either as a constant map or a callable of time (absent
    entries mean unloaded).  The initial top-oil rise follows ``TopOil``.

    Only transformers with thermal data are traced (synthetic GSU rows
    have none).
    """
    grid = scenario.grid(dt)
    tgrid = np.asarray(grid)
    step = tgrid[1] - tgrid[0] if len(tgrid) > 1 else None  # one sample: no step taken
    series = solve_series(case, scenario, tgrid, topology=topology)
    rows = [(pos, row) for pos, row in case.xfmr_rows()
            if row.branch != ABSENT and case.thermal_for(row.branch) is not None]
    loads = [loading(t) for t in grid] if callable(loading) else None

    traces = {}
    for pos, row in rows:
        th = case.thermal_for(row.branch)
        br = case.ac_branch(row.branch)
        if loads is None:
            s = np.full(len(grid), abs((loading or {}).get(row.branch, 0.0)))
        else:
            s = np.array([abs(ld.get(row.branch, 0.0)) for ld in loads])
        delta = TopOil.of(th, step).series(steady_rise(s, br.rating, th.to_rated))
        i_eff = series.effective[pos]
        traces[row.branch] = TransformerTrace(
            branch=row.branch, t=tgrid, i_eff=i_eff, delta_to=delta,
            eta_hs=th.hs_coeff * i_eff, hotspot=hotspot_temp(th, delta, i_eff),
            limit=case.hotspot_limit_for(row))

    return ThermalTrace(traces=traces, t=tgrid)
