"""Marginal recovery from call quotes by discrete second differences.

A call curve C(K) quoted on strikes K_0 < ... < K_M pins down the tail
masses of any measure supported on the strike grid: the slope between
adjacent quotes is minus the mass beyond the left strike.  Second
differences then give interior masses, the last slope the top mass, and
1 + first slope the bottom mass.  Re-pricing every quoted call under the
recovered measure is checked to 1e-9 before returning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import VALUE_TOL, DiscreteAxis, DiscreteMeasure

__all__ = ["CallQuoteCurve", "StaticArbitrageError", "marginal_from_calls"]


class StaticArbitrageError(ValueError):
    """Quote set admits static arbitrage; carries the violating strikes."""

    def __init__(self, message: str, strikes: tuple[float, ...]):
        super().__init__(message)
        self.strikes = strikes


@dataclass(frozen=True, eq=False)
class CallQuoteCurve:
    """Discounted call prices at one maturity, indexed by strike."""

    maturity: int
    strikes: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.strikes, dtype=float)
        c = np.asarray(self.prices, dtype=float)
        if k.ndim != 1 or k.size == 0 or c.shape != k.shape:
            raise ValueError("strikes and prices must be matching 1-d arrays")
        if not (np.all(np.isfinite(k)) and np.all(np.isfinite(c))):
            raise ValueError("quotes must be finite")
        if np.any(k < 0):
            raise ValueError("strikes must be nonnegative")
        if np.any(np.diff(k) <= 0):
            raise ValueError("strikes must be strictly increasing")
        if np.any(c < -VALUE_TOL):
            raise StaticArbitrageError("negative call price",
                                       tuple(k[c < -VALUE_TOL][:1]))
        k.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "strikes", k)
        object.__setattr__(self, "prices", c)
        self._validate_shape()

    def _validate_shape(self):
        k, c = self.strikes, self.prices
        slopes = np.diff(c) / np.diff(k)
        for i, s in enumerate(slopes):
            if s > VALUE_TOL:
                raise StaticArbitrageError(
                    f"call prices increase between strikes {k[i]} and {k[i + 1]}",
                    (float(k[i]), float(k[i + 1])))
            if s < -1.0 - VALUE_TOL:
                raise StaticArbitrageError(
                    f"call spread between strikes {k[i]} and {k[i + 1]} "
                    "is steeper than -1", (float(k[i]), float(k[i + 1])))
        for i in range(len(slopes) - 1):
            if slopes[i + 1] < slopes[i] - VALUE_TOL:
                raise StaticArbitrageError(
                    "call prices fail convexity at strike "
                    f"{k[i + 1]} (butterfly {k[i]}, {k[i + 1]}, {k[i + 2]})",
                    (float(k[i]), float(k[i + 1]), float(k[i + 2])))

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.prices) / np.diff(self.strikes)


def marginal_from_calls(curve: CallQuoteCurve) -> DiscreteMeasure:
    """Unique grid-supported measure re-pricing every quote.

    The grid is the strike set, with 0 prepended when absent (carrying no
    mass: quotes cannot distinguish mass at 0 from mass at the first
    positive strike, see the single-quote case).  A single quote at strike
    0 returns the point mass at the quoted price.
    """
    k = curve.strikes
    c = curve.prices
    if k.size == 1:
        if k[0] != 0.0:
            raise ValueError("a single quote must be at strike 0")
        support = np.array([c[0]])
        weights = np.array([1.0])
    else:
        slopes = curve.slopes
        tail = -slopes  # tail[i] = mass strictly beyond strike i
        weights = np.empty(k.size)
        weights[0] = 1.0 - tail[0]
        weights[1:-1] = tail[:-1] - tail[1:]
        weights[-1] = tail[-1]
        weights = np.maximum(weights, 0.0)
        support = k.copy()
        if k[0] != 0.0:
            support = np.concatenate([[0.0], support])
            weights = np.concatenate([[0.0], weights])
    axis = DiscreteAxis(index=curve.maturity, points=support.reshape(-1, 1))
    measure = DiscreteMeasure(axis, weights)
    repricing = np.array([float(weights @ np.maximum(support - strike, 0.0))
                          for strike in k])
    worst = float(np.abs(repricing - c).max())
    if worst > VALUE_TOL:
        raise StaticArbitrageError(
            f"recovered measure misprices a quote by {worst:.3g}",
            (float(k[int(np.abs(repricing - c).argmax())]),))
    return measure
