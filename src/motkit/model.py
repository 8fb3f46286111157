"""Core domain types: discrete axes, measures, marginal constraints,
product-grid instances, payoffs and couplings.

Conventions used everywhere downstream:

* time indices are 1-based and live on ``DiscreteAxis.index``;
* the product grid is enumerated row-major with axis 1 slowest, i.e. a
  coupling's flat weight vector reshapes to ``instance.shape`` in C order;
* probability mass is checked at ``PROB_TOL``; prices and values at
  ``VALUE_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

PROB_TOL = 1e-12
VALUE_TOL = 1e-9

# Dense payoff tables larger than this are refused (desk-scale guard).
MAX_TABLE_ENTRIES = 10 ** 6


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DiscreteAxis:
    """Finite set of price points for one time step.

    ``points`` has shape (npoints, d); scalars/1-d input is promoted to a
    single asset column.
    """

    index: int
    points: np.ndarray

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("axis index is a 1-based time step")
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (npoints, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("axis points must be finite")
        if len({tuple(p) for p in pts}) != pts.shape[0]:
            raise ValueError("axis points must be pairwise distinct")
        object.__setattr__(self, "points", _as_readonly(pts))

    @property
    def npoints(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def nonnegative(self) -> bool:
        return bool(np.all(self.points >= 0.0))

    def same_as(self, other: "DiscreteAxis") -> bool:
        return (self.index == other.index
                and self.points.shape == other.points.shape
                and np.array_equal(self.points, other.points))


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Nonnegative weights over an axis; a probability when mass is 1."""

    axis: DiscreteAxis
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.axis.npoints,):
            raise ValueError("weight vector length must match the axis")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < -PROB_TOL):
            raise ValueError("weights must be nonnegative")
        w = np.maximum(w, 0.0)
        object.__setattr__(self, "weights", _as_readonly(w))

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= PROB_TOL

    def barycenter(self) -> np.ndarray:
        return self.weights @ self.axis.points

    def expectation(self, values: np.ndarray) -> float:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.axis.npoints,):
            raise ValueError("value vector length must match the axis")
        return float(self.weights @ values)


@dataclass(frozen=True, eq=False)
class MarginalConstraint:
    """Exact marginal (one measure) or a convex hull of finitely many."""

    kind: str
    measures: tuple[DiscreteMeasure, ...]

    def __post_init__(self):
        if self.kind not in ("exact", "convex_hull"):
            raise ValueError("kind must be 'exact' or 'convex_hull'")
        if not self.measures:
            raise ValueError("constraint needs at least one measure")
        if self.kind == "exact" and len(self.measures) != 1:
            raise ValueError("exact constraint takes exactly one measure")
        axis = self.measures[0].axis
        for nu in self.measures:
            if not nu.axis.same_as(axis):
                raise ValueError("all measures must live on a common axis")
            if not nu.is_probability:
                raise ValueError(
                    f"constraint measures must be probabilities, got mass {nu.total_mass!r}")
        object.__setattr__(self, "measures", tuple(self.measures))

    @classmethod
    def exact(cls, measure: DiscreteMeasure) -> "MarginalConstraint":
        return cls("exact", (measure,))

    @classmethod
    def convex_hull(cls, measures: Sequence[DiscreteMeasure]) -> "MarginalConstraint":
        return cls("convex_hull", tuple(measures))

    @property
    def axis(self) -> DiscreteAxis:
        return self.measures[0].axis

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    @property
    def vertex_matrix(self) -> np.ndarray:
        """Vertex weights stacked as rows, shape (k, npoints)."""
        return np.vstack([nu.weights for nu in self.measures])


@dataclass(frozen=True, eq=False)
class Instance:
    """A finite product grid with one marginal constraint per axis."""

    axes: tuple[DiscreteAxis, ...]
    constraints: tuple[MarginalConstraint, ...]
    label: str = ""

    def __post_init__(self):
        if not self.axes:
            raise ValueError("instance needs at least one axis")
        if len(self.axes) != len(self.constraints):
            raise ValueError("axes and constraints must align one to one")
        indices = [ax.index for ax in self.axes]
        if len(set(indices)) != len(indices):
            raise ValueError("axis time indices must be distinct")
        for ax, con in zip(self.axes, self.constraints):
            if not con.axis.same_as(ax):
                raise ValueError(
                    f"constraint for axis {ax.index} lives on a different axis")
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "constraints", tuple(self.constraints))

    @property
    def horizon(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.npoints for ax in self.axes)

    @property
    def n_paths(self) -> int:
        return self._cached("_n_paths", lambda: int(np.prod(self.shape)))

    @property
    def nonnegative(self) -> bool:
        return all(ax.nonnegative for ax in self.axes)

    def axis_position(self, n: int) -> int:
        """0-based position of the axis with time index n."""
        for pos, ax in enumerate(self.axes):
            if ax.index == n:
                return pos
        raise IndexError(f"no axis with time index {n}")

    def _cached(self, key, make):
        """`make()` once per instance, kept (read-only) in its own __dict__."""
        if key not in self.__dict__:
            value = self.__dict__[key] = make()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        return self.__dict__[key]

    def point_indices(self) -> np.ndarray:
        """Per-axis point index for every flat path; shape (T, n_paths), read-only."""
        return self._cached("_point_indices", lambda: np.array(
            np.unravel_index(np.arange(self.n_paths), self.shape)))

    def coordinate_values(self, pos: int) -> np.ndarray:
        """Point vectors of axis at position pos along every path, (n_paths, d)."""
        return self.axes[pos].points[self.point_indices()[pos]]

    def prefix_ids(self, level: int) -> np.ndarray:
        """Flat prefix index (first `level` axes) of every path; read-only."""
        return self._cached(f"_prefix_ids{level}", lambda: np.arange(self.n_paths)
                            // int(np.prod(self.shape[level:], initial=1)))

    def n_prefixes(self, level: int) -> int:
        return self._cached(f"_n_prefixes{level}",
                            lambda: int(np.prod(self.shape[:level], initial=1)))


@dataclass(frozen=True, eq=False)
class Payoff:
    """Payoff on the product grid.

    kind "dense": explicit table over paths (row-major, axis 1 slowest).
    kind "separable": per-axis legs g_n, meaning f(x) = sum_n g_n(x_n).
    kind "named": a registered generator expanded on demand.
    """

    kind: str
    table: np.ndarray | None = None
    legs: tuple[np.ndarray, ...] | None = None
    name: str | None = None
    params: dict | None = None

    def __post_init__(self):
        if self.kind not in ("dense", "separable", "named"):
            raise ValueError("unknown payoff kind")
        if self.kind == "dense":
            t = np.asarray(self.table, dtype=float).ravel()
            if t.size == 0 or not np.all(np.isfinite(t)):
                raise ValueError("dense payoff table must be non-empty and finite")
            object.__setattr__(self, "table", _as_readonly(t))
        elif self.kind == "separable":
            legs = tuple(_as_readonly(np.asarray(g, dtype=float).ravel()) for g in self.legs)
            if not legs or any(not np.all(np.isfinite(g)) for g in legs):
                raise ValueError("separable legs must be non-empty and finite")
            object.__setattr__(self, "legs", legs)
        else:
            if not self.name:
                raise ValueError("named payoff needs a generator name")
            object.__setattr__(self, "params", dict(self.params or {}))

    @classmethod
    def dense(cls, table) -> "Payoff":
        return cls("dense", table=np.asarray(table, dtype=float))

    @classmethod
    def separable(cls, legs) -> "Payoff":
        return cls("separable", legs=tuple(np.asarray(g, dtype=float) for g in legs))

    @classmethod
    def named(cls, name: str, **params) -> "Payoff":
        return cls("named", name=name, params=params)

    @classmethod
    def constant(cls, value: float, instance: Instance) -> "Payoff":
        if instance.n_paths > MAX_TABLE_ENTRIES:
            raise ValueError(
                f"dense table would need {instance.n_paths} entries "
                f"(cap {MAX_TABLE_ENTRIES})")
        return cls.dense(np.full(instance.n_paths, float(value)))

    def table_for(self, instance: Instance) -> np.ndarray:
        """Expand to a flat table over the instance's product grid."""
        if instance.n_paths > MAX_TABLE_ENTRIES:
            raise ValueError(
                f"dense table would need {instance.n_paths} entries "
                f"(cap {MAX_TABLE_ENTRIES})")
        if self.kind == "dense":
            if self.table.size != instance.n_paths:
                raise ValueError("dense table length does not match the grid")
            return self.table
        if self.kind == "separable":
            if len(self.legs) != instance.horizon:
                raise ValueError("one separable leg per axis required")
            total = np.zeros(instance.n_paths)
            idx = instance.point_indices()
            for pos, g in enumerate(self.legs):
                if g.size != instance.axes[pos].npoints:
                    raise ValueError(
                        f"leg for axis {instance.axes[pos].index} has wrong length")
                total += g[idx[pos]]
            return total
        from .payoffs import expand_named  # local import to avoid a cycle
        return expand_named(self.name, self.params, instance)


@dataclass(frozen=True, eq=False)
class Coupling:
    """Nonnegative weights over the product grid of an instance."""

    instance: Instance
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.size != self.instance.n_paths:
            raise ValueError("coupling weight count must match the product grid")
        if not np.all(np.isfinite(w)):
            raise ValueError("coupling weights must be finite")
        if np.any(w < -1e-9):
            raise ValueError("coupling weights must be nonnegative")
        w = np.maximum(w, 0.0)
        object.__setattr__(self, "weights", _as_readonly(w))

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def tensor(self) -> np.ndarray:
        return self.weights.reshape(self.instance.shape)

    @classmethod
    def product(cls, instance: Instance, measures: Sequence[DiscreteMeasure] | None = None) -> "Coupling":
        """Product coupling of the given per-axis measures.

        Defaults to the constraint measures (first vertex for hulls).
        """
        if measures is None:
            measures = [con.measures[0] for con in instance.constraints]
        w = np.array([1.0])
        for nu in measures:
            w = np.outer(w, nu.weights).ravel()
        return cls(instance, w)


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------

def marginal_of(coupling: Coupling, n: int) -> DiscreteMeasure:
    """Marginal of the coupling on the axis with time index n."""
    pos = coupling.instance.axis_position(n)
    tensor = coupling.tensor
    other = tuple(k for k in range(tensor.ndim) if k != pos)
    w = tensor.sum(axis=other) if other else tensor
    return DiscreteMeasure(coupling.instance.axes[pos], np.asarray(w, dtype=float))


def evaluate_expectation(coupling: Coupling, payoff: Payoff) -> float:
    """Integral of the payoff against the coupling.

    Separable payoffs are priced from the marginals without materializing
    the product table.
    """
    instance = coupling.instance
    if payoff.kind == "separable":
        if len(payoff.legs) != instance.horizon:
            raise ValueError("one separable leg per axis required")
        total = 0.0
        for pos, g in enumerate(payoff.legs):
            nu = marginal_of(coupling, instance.axes[pos].index)
            total += nu.expectation(g)
        return total
    table = payoff.table_for(instance)
    return float(table @ coupling.weights)


def sublinear_price(constraint: MarginalConstraint, values: np.ndarray) -> float:
    """sup over the constraint set of <values, nu>.

    Exact: a plain expectation.  ConvexHull: the max over vertices, which
    attains the sup over the hull.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (constraint.axis.npoints,):
        raise ValueError("value vector length must match the axis")
    if not np.all(np.isfinite(values)):
        raise ValueError("value vector must be finite")
    prices = constraint.vertex_matrix @ values
    return float(prices.max())


def tightness_certificate(constraint: MarginalConstraint, m: float,
                          eps: float) -> np.ndarray:
    """Smallest greedy prefix K with price(m * 1_{K^c}) <= eps.

    Candidate points are taken in order of descending worst-case vertex
    mass; returns sorted point indices (possibly empty).
    """
    if m <= 0 or eps <= 0:
        raise ValueError("m and eps must be strictly positive")
    worst = constraint.vertex_matrix.max(axis=0)
    order = np.argsort(-worst, kind="stable")
    npts = constraint.axis.npoints
    for size in range(npts + 1):
        keep = order[:size]
        indicator = np.full(npts, m)
        indicator[keep] = 0.0
        if sublinear_price(constraint, indicator) <= eps:
            return np.sort(keep)
    raise AssertionError("full axis always certifies")  # pragma: no cover


@dataclass(frozen=True)
class ConvexOrderReport:
    """Necessary conditions for a one-dimensional martingale coupling."""

    s0: float
    barycenters: tuple[float, ...]
    barycenters_match: bool
    failing_strikes: tuple[tuple[int, float, float, float], ...]
    passed: bool


def check_convex_order(instance: Instance, s0) -> ConvexOrderReport:
    """Barycenter and call-price monotonicity diagnostics (d=1, Exact only).

    Equal barycenters plus call prices nondecreasing in maturity at every
    merged-grid strike are necessary for a martingale coupling started at
    s0 to exist.
    """
    if any(not con.is_exact for con in instance.constraints):
        raise ValueError("check_convex_order supports Exact constraints only")
    if any(ax.d != 1 for ax in instance.axes):
        raise ValueError("check_convex_order supports d = 1 only")
    s0 = float(np.asarray(s0).ravel()[0])
    measures = [con.measures[0] for con in instance.constraints]
    barys = tuple(float(nu.barycenter()[0]) for nu in measures)
    barycenters_match = all(abs(b - s0) <= VALUE_TOL for b in barys)
    strikes = np.unique(np.concatenate([ax.points.ravel() for ax in instance.axes]))
    failures = []
    for pos in range(len(measures) - 1):
        early, late = measures[pos], measures[pos + 1]
        xs_e = early.axis.points.ravel()
        xs_l = late.axis.points.ravel()
        for k in strikes:
            c_early = float(early.weights @ np.maximum(xs_e - k, 0.0))
            c_late = float(late.weights @ np.maximum(xs_l - k, 0.0))
            if c_late < c_early - VALUE_TOL:
                failures.append((instance.axes[pos + 1].index, float(k), c_early, c_late))
    passed = barycenters_match and not failures
    return ConvexOrderReport(s0, barys, barycenters_match, tuple(failures), passed)
