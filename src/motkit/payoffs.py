"""Named payoff generators.

Each generator has a closed-form table rule over the product grid:

* ``basket_call(weights, strike)``: (sum_n <w_n, x_n> - strike)^+ where w_n
  is a scalar (d = 1) or a length-d vector per axis.
* ``straddle(n, m)``: Euclidean distance |x_m - x_n| between two dates.
* ``forward(n, asset=1)``: the asset coordinate x_n^asset itself.
* ``cylinder_liminf(depth)``: max_{k<=depth} min_{k<=j<=depth} x_j (first
  asset coordinate), the finite-window approximation of liminf_n x_n.
"""

from __future__ import annotations

import numpy as np

from .model import Instance


def _axis_values(instance: Instance, n: int) -> np.ndarray:
    pos = instance.axis_position(n)
    return instance.coordinate_values(pos)


def basket_call(instance: Instance, weights, strike) -> np.ndarray:
    if len(weights) != instance.horizon:
        raise ValueError("basket_call needs one weight per axis")
    total = np.zeros(instance.n_paths)
    for pos, w in enumerate(weights):
        w = np.atleast_1d(np.asarray(w, dtype=float))
        values = instance.coordinate_values(pos)
        if w.size != values.shape[1]:
            raise ValueError("weight width must match the asset dimension")
        total += values @ w
    return np.maximum(total - float(strike), 0.0)


def straddle(instance: Instance, n, m) -> np.ndarray:
    a = _axis_values(instance, int(n))
    b = _axis_values(instance, int(m))
    return np.linalg.norm(b - a, axis=1)


def forward(instance: Instance, n, asset=1) -> np.ndarray:
    values = _axis_values(instance, int(n))
    asset = int(asset)
    if not 1 <= asset <= values.shape[1]:
        raise ValueError("asset index out of range")
    return values[:, asset - 1]


def cylinder_liminf(instance: Instance, depth=None) -> np.ndarray:
    depth = instance.horizon if depth is None else int(depth)
    if not 1 <= depth <= instance.horizon:
        raise ValueError("depth must lie in 1..horizon")
    coords = np.stack([instance.coordinate_values(pos)[:, 0]
                       for pos in range(depth)])
    # suffix minima min_{k<=j<=depth}, then the max over window starts k
    suffix_min = np.minimum.accumulate(coords[::-1], axis=0)[::-1]
    return suffix_min.max(axis=0)


PAYOFF_GENERATORS = {
    "basket_call": basket_call,
    "straddle": straddle,
    "forward": forward,
    "cylinder_liminf": cylinder_liminf,
}


def expand_named(name: str, params: dict, instance: Instance) -> np.ndarray:
    table = np.asarray(PAYOFF_GENERATORS[name](instance, **params), dtype=float)
    if table.shape != (instance.n_paths,):
        raise ValueError(f"generator {name!r} produced a wrong-size table")
    return table
