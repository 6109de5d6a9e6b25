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

from .data import ABSENT, CaseData, FieldScenario, ThermalData
from .dcnet import GicSeries, solve_series

__all__ = [
    "apparent_power",
    "steady_rise",
    "step_topoil",
    "hotspot_rise",
    "hotspot_temp",
    "ThermalTrace",
    "simulate",
    "topoil_series",
    "TopOil",
]


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


def topoil_series(du: np.ndarray, zeta, delta0) -> np.ndarray:
    """Run the top-oil recursion over a du series; returns delta[0..K].

    ``du`` is one series, with scalar ``zeta`` and ``delta0``, or a stack
    (transformers x samples) with ``zeta`` and ``delta0`` per row; the
    result has its shape.  du[..., 0] is treated as the steady input
    already present at the initial sample, i.e. the recursion pairs
    (du[k-1], du[k]) per step with delta[0] = delta0.  Bitwise equal to
    ``step_topoil`` applied step by step: the input term of every step is
    computed at once, then one recursion runs over the samples, each step
    one array operation over all rows.  (``scipy.signal.lfilter`` is not
    used: it flips signed zeros at zeta = 1, and importing it nearly
    doubles the package's import time.)
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

    @staticmethod
    def stack(states: Sequence["TopOil"], rise) -> np.ndarray:
        """Top-oil rise of each transformer: row r of the steady-rise stack
        ``rise`` (transformers x samples) under ``states[r]``, in one recursion.

        Sample 0 is the initial state.  Its input is replaced by the
        initial rise, so the pre-initial input sustains the initial state.
        """
        du = np.array(rise, dtype=float)
        inited = [r for r, state in enumerate(states) if state.delta0 is not None]
        du[inited, 0] = [states[r].delta0 for r in inited]
        return topoil_series(du, [state.zeta for state in states], du[:, 0])


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


def simulate(case: CaseData, scenario: FieldScenario, *,
             loading: Mapping[int, float | Sequence[float]] | None = None,
             topology: Mapping[int, int] | None = None,
             times: Sequence[float] | None = None) -> ThermalTrace:
    """Simulate transformer temperatures over a field scenario.

    The samples are ``times`` [min], a uniform grid (default: the
    scenario's own, ``scenario.grid()``); the recursion's step is that of
    the first pair, so a grid whose steps differ from it raises ValueError.
    Effective GICs at every sample come from one ``solve_series`` over the
    grid; ``loading`` maps an ac branch id to its apparent power [p.u.],
    a number held over the samples or a series with one value per sample
    (a branch it omits is unloaded; a series of another length raises
    ValueError).  The initial top-oil rise follows ``TopOil``.

    Only transformers with thermal data are traced (synthetic GSU rows
    have none).
    """
    tgrid = np.asarray(scenario.grid() if times is None else times, dtype=float)
    step = tgrid[1] - tgrid[0] if len(tgrid) > 1 else None  # one sample: no step taken
    if step is not None and not np.allclose(np.diff(tgrid), step, rtol=1e-6, atol=0.0):
        raise ValueError(f"simulate: times must be a uniform grid; its first step is {step}")
    loads = {bid: np.abs(np.asarray(s, dtype=float)) for bid, s in (loading or {}).items()}
    for bid, s in loads.items():
        if s.ndim and s.shape != tgrid.shape:
            raise ValueError(f"simulate: loading of branch {bid} has {s.size} values "
                             f"for {len(tgrid)} samples")
    series = solve_series(case, scenario, tgrid, topology=topology)
    rows = [(pos, row) for pos, row in case.xfmr_rows()
            if row.branch != ABSENT and case.thermal_for(row.branch) is not None]
    ths = [case.thermal_for(row.branch) for _, row in rows]
    shape = (len(rows), len(tgrid))

    rise = np.zeros(shape)
    for k, ((_, row), th) in enumerate(zip(rows, ths)):  # a held number fills its row
        rise[k] = steady_rise(loads.get(row.branch, 0.0), case.ac_branch(row.branch).rating,
                              th.to_rated)
    delta = TopOil.stack([TopOil.of(th, step) for th in ths], rise)
    i_eff = np.reshape([series.effective[pos] for pos, _ in rows], shape)
    return ThermalTrace(
        branch=np.array([row.branch for _, row in rows], dtype=int),
        pos=np.array([pos for pos, _ in rows], dtype=int), t=tgrid, i_eff=i_eff,
        delta_to=delta, eta_hs=np.reshape([th.hs_coeff * ie for th, ie in zip(ths, i_eff)], shape),
        hotspot=np.reshape([hotspot_temp(th, d, ie) for th, d, ie in zip(ths, delta, i_eff)],
                           shape),
        limit=np.array([case.hotspot_limit_for(row) for _, row in rows], dtype=float),
        series=series)
