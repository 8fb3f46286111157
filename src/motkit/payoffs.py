"""Named payoff generators.

Each generator has a closed-form table rule over the product grid:

* ``basket_call(weights, strike)``: (sum_n <w_n, x_n> - strike)^+ where w_n
  is a scalar (d = 1) or a length-d vector per axis.
* ``straddle(n, m)``: Euclidean distance |x_m - x_n| between two dates of
  one asset width.
* ``forward(n, asset=1)``: the asset coordinate x_n^asset itself.
* ``cylinder_liminf(depth)``: max_{k<=depth} min_{k<=j<=depth} x_j (first
  asset coordinate), the finite-window approximation of liminf_n x_n.

`param_error` holds what each param must be on an instance, a finite bound
on the table included; the document parser and `expand_named` both apply
it, so the generators check nothing.
"""

from __future__ import annotations

import numpy as np

from .model import Instance


def _axis_values(instance: Instance, n: int) -> np.ndarray:
    pos = instance.axis_position(n)
    return instance.coordinate_values(pos)


def basket_call(instance: Instance, weights, strike) -> np.ndarray:
    total = np.zeros(instance.n_paths)
    for pos, w in enumerate(weights):
        total += instance.coordinate_values(pos) @ np.atleast_1d(np.asarray(w, dtype=float))
    return np.maximum(total - float(strike), 0.0)


def straddle(instance: Instance, n, m) -> np.ndarray:
    return np.linalg.norm(_axis_values(instance, m) - _axis_values(instance, n), axis=1)


def forward(instance: Instance, n, asset=1) -> np.ndarray:
    return _axis_values(instance, n)[:, asset - 1]


def cylinder_liminf(instance: Instance, depth=None) -> np.ndarray:
    depth = instance.horizon if depth is None else depth
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


def _integer(value) -> bool:
    """An integer; a boolean is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _sequence(value) -> bool:
    return isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1


def _numbers(value, count: int) -> bool:
    """A sequence of `count` finite numbers, or (count 1) one number."""
    items = value if _sequence(value) else [value] if count == 1 else []
    return len(items) == count and all(
        isinstance(v, (int, float, np.number)) and not isinstance(v, bool)
        and abs(v) <= np.finfo(float).max for v in items)


def param_error(params: dict, instance: Instance):
    """(name, what it must be) of the first named-payoff param that does not
    fit `instance`, or None; a generator's required params are present.  Like
    `Market`'s coefficients, a table's closed-form bound over the axis points
    must be finite: a straddle's on `m`, a basket's on `weights`."""
    axes = {ax.index: ax for ax in instance.axes}
    # max |x_n| per asset as Python floats, whose arithmetic overflows to inf quietly
    top = lambda n: np.abs(axes[n].points).max(axis=0).tolist()
    naming = (lambda v: _integer(v) and v in axes, "an integer naming an axis")
    rules = {  # in this order: `m` and `asset` read the axis `n` names, `weights` the strike
        "strike": (lambda k: _numbers(k, 1) and not _sequence(k), "a finite number"),
        "weights": (lambda w: _sequence(w) and len(w) == len(axes) and all(
            _numbers(x, ax.d) for x, ax in zip(w, instance.axes)) and np.isfinite(sum(
                abs(a) * b for x, ax in zip(w, instance.axes) for a, b in zip(
                    np.atleast_1d(x).tolist(), top(ax.index))) + abs(float(params["strike"]))),
            "one weight per axis (a number or d numbers), |strike| + sum |w_n| max|x_n| finite"),
        "n": naming,
        "m": (lambda v: naming[0](v) and axes[v].d == axes[params["n"]].d and np.isfinite(
            sum((a + b) * (a + b) for a, b in zip(top(v), top(params["n"])))),
              "an integer naming an axis of n's asset width, |max|x_m| + max|x_n||^2 finite"),
        "asset": (lambda a: _integer(a) and 1 <= a <= axes[params["n"]].d,
                  "an integer in 1..d"),
        "depth": (lambda k: k is None or _integer(k) and 1 <= k <= len(axes),
                  f"an integer in 1..{len(axes)}"),
    }
    for name, (fits, must) in rules.items():
        if name in params and not fits(params[name]):
            return name, must
    return None


def expand_named(name: str, params: dict, instance: Instance) -> np.ndarray:
    error = param_error(params, instance)
    if error is not None:
        raise ValueError(f"{name}: {error[0]} must be {error[1]}")
    table = np.asarray(PAYOFF_GENERATORS[name](instance, **params), dtype=float)
    if table.shape != (instance.n_paths,):
        raise ValueError(f"generator {name!r} produced a wrong-size table")
    return table
