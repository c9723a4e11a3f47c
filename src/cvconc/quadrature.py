"""Product quadrature rules: midpoint summation over grid axes and rescaled
Gauss-Hermite rules for integrands with Gaussian decay."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, NumericError


@dataclass(frozen=True, eq=False)
class ProductRule:
    """Per-axis node and weight lists defining a tensor-product quadrature."""

    nodes: tuple
    weights: tuple

    def __post_init__(self):
        nodes = tuple(np.asarray(n, dtype=float) for n in self.nodes)
        weights = tuple(np.asarray(w, dtype=float) for w in self.weights)
        if len(nodes) != len(weights) or not nodes:
            raise InputError("need matching, nonempty node and weight lists")
        for n, w in zip(nodes, weights):
            if n.shape != w.shape or n.ndim != 1:
                raise InputError("per-axis nodes and weights must be 1-d and equal length")
            if not np.isfinite(n).all():
                raise InputError("quadrature nodes must be finite")
            if not np.all((w > 0.0) & np.isfinite(w)):
                raise InputError("quadrature weights must be strictly positive and finite")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def ndim(self) -> int:
        return len(self.nodes)

    @property
    def total_points(self) -> int:
        count = 1
        for n in self.nodes:
            count *= n.size
        return count


def _whole_number(value, what: str) -> int:
    """value as an int when it is a whole real number, such as 4, 4.0 or
    np.int64(4); int() would truncate 2.9 to 2 and read the string "4"."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise InputError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def _product_weights(weights) -> np.ndarray:
    """Weight of every node of a product grid: the outer product of the
    per-axis weight vectors."""
    w = np.ones(())
    for wk in weights:
        w = np.multiply.outer(w, wk)
    return w


def midpoint_rule(axes) -> ProductRule:
    """Midpoint rule over GridAxis objects; weights per axis sum to max - min."""
    return ProductRule(
        nodes=tuple(ax.nodes for ax in axes),
        weights=tuple(ax.weights for ax in axes),
    )


@lru_cache(maxsize=16)
def _hermite_nodes(points: int):
    """Read-only nodes x and total weights w exp(x^2) of the points-node
    Gauss-Hermite rule, which depend on the point count alone."""
    x, w = np.polynomial.hermite.hermgauss(points)
    total = w * np.exp(x**2)
    x.flags.writeable = total.flags.writeable = False
    return x, total


def gauss_hermite_rule(points_per_axis: int, scale=1.0, ndim: int = None) -> ProductRule:
    """Rescaled Gauss-Hermite rule with total weights w_i * exp(x_i^2).

    The returned weights integrate functions with Gaussian decay directly:
    sum w~_i f(x_i) ~= int f(x) dx, exactly when f(x) = exp(-(x/s)^2) p(x)
    with p a polynomial of degree < 2 * points_per_axis.
    """
    points = _whole_number(points_per_axis, "Gauss-Hermite points per axis")
    if points < 1:
        raise InputError("Gauss-Hermite rule needs at least one node")
    scales = np.atleast_1d(np.asarray(scale, dtype=float))
    if ndim is not None and scales.size == 1:
        scales = np.full(ndim, scales[0])
    if not np.all((scales > 0.0) & np.isfinite(scales)):
        raise InputError("scales must be positive and finite")
    x, total = _hermite_nodes(points)
    return ProductRule(
        nodes=tuple(s * x for s in scales),
        weights=tuple(s * total for s in scales),
    )


def integrate(rule: ProductRule, f) -> complex:
    """Deterministic weighted sum of f over the product grid.

    f is called with one positional coordinate array per axis (broadcast over
    the full mesh). A callable that rejects arrays with TypeError or
    ValueError, as scalar-only code does, is evaluated point by point.
    """
    mesh = np.meshgrid(*rule.nodes, indexing="ij")
    shape = mesh[0].shape if mesh else ()
    try:
        values = np.asarray(f(*mesh), dtype=np.complex128)
        if values.shape != shape:
            raise ValueError
    except (TypeError, ValueError):
        flat = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        values = np.array([f(*pt) for pt in flat], dtype=np.complex128).reshape(shape)
    if not np.all(np.isfinite(values.view(float))):
        bad = np.argwhere(~np.isfinite(values))[0]
        node = tuple(float(rule.nodes[k][i]) for k, i in enumerate(bad))
        raise NumericError(f"integrand is not finite at node {node}")
    return complex(np.sum(values * _product_weights(rule.weights)))
