"""q-Lipschitz norms, the pairing against measures, and the dual solve.

The combined norm blends the Lipschitz constant with the sup norm through
an l^q combination; its unit ball is exactly the dual ball of the
p-Kantorovich norm for conjugate exponents, which the dual solver
exploits: it prices each budget (s, m) on the boundary of the unit ball in
closed form from the transport/annihilation trade-off curve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatch, ToleranceNotMet
from .holder import aligned_weight, check_q, conjugate_exponent, lp_combine
from .space import FiniteMetricSpace, SignedMeasure, _frozen_array, tv_norm


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
    return float(math.fsum(float(a) * float(b) for a, b in zip(f.values, mu.weights)))


def lip_product(f: LipschitzFunction, g: LipschitzFunction) -> LipschitzFunction:
    """Pointwise product; the multiplication of the function algebra."""
    if f.space is not g.space:
        raise SpaceMismatch("functions live on different space instances")
    return LipschitzFunction(f.space, f.values * g.values)


def dual_solve(space: FiniteMetricSpace, mu: SignedMeasure, q: float,
               tol: float = 1e-8) -> DualSolution:
    """Maximize the pairing with mu over the q-Lipschitz unit ball.

    A budget (s, m) on the unit sphere, written through its weight
    lam = m / s, bounds the pairing by min over the trade-off vertices of
    s * a + m * b, and that bound is attained. The best budget is one of
    lam = 0, lam = inf, a vertex's stationary weight (b / a)^(p - 1) or the
    crossing of two adjacent price lines, so the outer maximization is a
    comparison of candidates; the witness is read off the vertex that
    supports the winning weight, with no further flow solve.
    """
    from .pknorm import frontier_witness, trace_frontier, vertex_at, vertices_of

    q = check_q(q)
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = space.n
    if tv_norm(mu) == 0.0:
        return DualSolution(LipschitzFunction(space, np.zeros(n)), 0.0, q, (0.0, 0.0))

    verts = vertices_of(trace_frontier(space, mu))

    def price(lam: float) -> float:
        s, m = _budget(lam, q)
        return min(s * v.a + m * v.b for v in verts)

    if math.isinf(q):
        lams = [1.0]
    else:
        p = conjugate_exponent(q)
        lams = [0.0, math.inf] + [aligned_weight(v.a, v.b, p) for v in verts]
        for v0, v1 in zip(verts, verts[1:]):
            da, db = v1.a - v0.a, v1.b - v0.b
            if da > 0.0 and db < 0.0:
                lams.append(da / -db)

    lam = max(lams, key=lambda lam: (price(lam), lam))
    budget, target = _budget(lam, q), price(lam)
    f = frontier_witness(vertex_at(verts, lam), lam, q)
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
