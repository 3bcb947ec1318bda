"""q-Lipschitz norms, the pairing against measures, and the dual solve.

The combined norm blends the Lipschitz constant with the sup norm through
an l^q combination; its unit ball is exactly the dual ball of the
p-Kantorovich norm for conjugate exponents, which the dual solver
exploits: its witness is the one that supports the primal l^p optimum on
the transport/annihilation trade-off curve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatch, ToleranceNotMet
from .holder import check_q, conjugate_exponent, lp_combine
from .space import DEFAULT_TOL, FiniteMetricSpace, SignedMeasure, _frozen_array


@dataclass(frozen=True)
class LipschitzFunction:
    """Real function on the points of one space instance."""

    space: FiniteMetricSpace
    values: np.ndarray

    def __post_init__(self):
        v = _frozen_array(self.values)
        if v.ndim != 1 or v.shape[0] != self.space.n:
            raise ValueError("value vector length must equal the number of points")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", v)

    def __repr__(self) -> str:
        return f"LipschitzFunction(n={self.space.n}, sup={sup_norm(self):.6g})"


@dataclass(frozen=True)
class DualSolution:
    """Feasible dual witness and the pairing it achieves."""

    f: LipschitzFunction
    value: float
    q: float
    active_budget: tuple[float, float]


@functools.lru_cache(maxsize=8)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j, shared by every caller and so read-only."""
    pairs = np.triu_indices(n, 1)
    for idx in pairs:
        idx.setflags(write=False)
    return pairs


def _lip_const_values(dist: np.ndarray, values: np.ndarray) -> float:
    n = len(values)
    if n <= 1:
        return 0.0
    i, j = _upper_pairs(n)
    return float((np.abs(values[i] - values[j]) / dist[i, j]).max())


def lip_const(space: FiniteMetricSpace, f: LipschitzFunction) -> float:
    """Largest slope |f(x) - f(y)| / d(x, y); zero on a singleton."""
    if f.space is not space:
        raise SpaceMismatch("function belongs to a different space instance")
    return _lip_const_values(space.dist, f.values)


def sup_norm(f: LipschitzFunction) -> float:
    return float(np.abs(f.values).max(initial=0.0))


def ql_norm(space: FiniteMetricSpace, f: LipschitzFunction, q: float) -> float:
    """l^q combination of the Lipschitz constant and the sup norm."""
    q = check_q(q)
    return lp_combine(lip_const(space, f), sup_norm(f), q)


def pairing(f: LipschitzFunction, mu: SignedMeasure) -> float:
    """Integral of f against mu: the dot product of values and weights."""
    if f.space is not mu.space:
        raise SpaceMismatch("function and measure live on different space instances")
    return math.fsum((f.values * mu.weights).tolist())


def lip_product(f: LipschitzFunction, g: LipschitzFunction) -> LipschitzFunction:
    """Pointwise product; the multiplication of the function algebra."""
    if f.space is not g.space:
        raise SpaceMismatch("functions live on different space instances")
    return LipschitzFunction(f.space, f.values * g.values)


def dual_solve(space: FiniteMetricSpace, mu: SignedMeasure, q: float,
               tol: float = DEFAULT_TOL) -> DualSolution:
    """Maximize the pairing with mu over the q-Lipschitz unit ball.

    A budget (s, m) on the unit sphere, written through its weight
    lam = m / s, bounds the pairing by min over the trade-off vertices of
    s * a + m * b, and that bound is attained. The q-Lipschitz ball is the
    dual of the p-Kantorovich norm's, so the best budget is the weight
    that supports the l^p optimum of the curve, and the witness is
    ``pk_norm``'s, read off the vertex that ``frontier_optimum`` picks,
    with no further flow solve.
    """
    from .pknorm import frontier_optimum, frontier_witness, trace_frontier

    q = check_q(q)
    if tol <= 0:
        raise ValueError("tol must be positive")
    verts = trace_frontier(space, mu)
    _, _, vertex, lam = frontier_optimum(verts, conjugate_exponent(q))
    budget = s, m = _budget(lam, q)
    target = min(s * v.a + m * v.b for v in verts)
    f = frontier_witness(vertex, lam, q)
    value = pairing(f, mu)
    if abs(value - target) > max(tol, 1e-9) * max(1.0, abs(target)):
        raise ToleranceNotMet(
            f"dual witness pairing {value} misses budget value {target}",
            result=DualSolution(f, value, q, budget),
        )
    return DualSolution(f, value, q, budget)


def _budget(lam: float, q: float) -> tuple[float, float]:
    """The point (s, m) of the unit l^q sphere with m / s = lam.

    With x the smaller of lam and 1 / lam, the larger coordinate is
    (1 + x^q)^(-1/q) and the smaller x times it: no power overflows and
    neither coordinate is recovered from the other by a cancelling
    difference.
    """
    x = min(lam, 1.0 / lam) if lam > 0.0 else 0.0
    c = (1.0 + x ** q) ** (-1.0 / q)
    return (c, lam * c) if lam <= 1.0 else (x * c, c)
