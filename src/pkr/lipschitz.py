"""q-Lipschitz norms, the pairing against measures, and the dual solve.

The combined norm blends the Lipschitz constant with the sup norm through
an l^q combination; its unit ball is exactly the dual ball of the
p-Kantorovich norm for conjugate exponents, which the dual solver
exploits: it searches the boundary of the budget region (s, m) and prices
each budget with one scalarized flow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatch, ToleranceNotMet
from .holder import check_q, lp_combine
from .space import FiniteMetricSpace, SignedMeasure, _frozen_array, total_charge, tv_norm


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

    For a budget point (s, m) on the ball boundary, the inner problem
    max{pairing : lip <= s, sup <= m} is priced in closed form from the
    transport/annihilation trade-off curve of mu, so the outer concave
    1-D maximization needs no extra flow solves; one scalarized solve at
    the winning budget recovers the witness function.
    """
    from .pknorm import scalarized_min, trace_frontier, vertices_of

    q = check_q(q)
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = space.n
    if tv_norm(mu) == 0.0:
        return DualSolution(LipschitzFunction(space, np.zeros(n)), 0.0, q, (0.0, 0.0))

    probes = trace_frontier(space, mu)
    verts = vertices_of(probes)
    ab = [(v.a, v.b) for v in verts]
    charge = total_charge(mu)

    def budget(s: float) -> tuple[float, float]:
        s = min(max(s, 0.0), 1.0)
        if math.isinf(q):
            return 1.0, 1.0
        if q == 1.0:
            return s, 1.0 - s
        return s, (max(0.0, 1.0 - s ** q)) ** (1.0 / q)

    def value_at(s: float) -> float:
        s, m = budget(s)
        return min(s * a + m * b for a, b in ab)

    if math.isinf(q):
        candidates = [1.0]
    else:
        candidates = [0.0, 1.0]
        if q > 1.0:
            p = q / (q - 1.0)
            for a, b in ab:
                if a > 0.0 and b > 0.0:
                    # stationary budget of one trade-off vertex
                    ratio = math.exp(min(700.0, p * math.log(a / b)))
                    candidates.append((ratio / (1.0 + ratio)) ** (1.0 / q))
        for k in range(len(ab) - 1):
            candidates.append(_piece_switch(ab[k], ab[k + 1], q))

    s_star = max(candidates, key=lambda s: (value_at(s), -s))
    s_star, m_star = budget(s_star)
    target = value_at(s_star)

    if s_star <= 1e-15:
        vals = m_star * math.copysign(1.0, charge) * np.ones(n)
        f = LipschitzFunction(space, vals)
    else:
        lam = m_star / s_star
        shift = 0.0
        if lam > space.diameter and space.diameter > 0.0:
            # beyond the diameter the trade-off curve is linear, so clamp
            # and compensate with a constant (residual mass pairs exactly)
            shift = (m_star - s_star * space.diameter) * math.copysign(1.0, charge)
            lam = space.diameter
        sol = scalarized_min(space, mu, lam)
        f = LipschitzFunction(space, s_star * sol.potentials + shift)

    value = pairing(f, mu)
    if abs(value - target) > max(tol, 1e-9) * max(1.0, abs(target)):
        raise ToleranceNotMet(
            f"dual witness pairing {value} misses budget value {target}",
            result=DualSolution(f, value, q, (s_star, m_star)),
        )
    return DualSolution(f, value, q, (s_star, m_star))


def _piece_switch(v0, v1, q: float) -> float:
    """Budget parameter s where the price lines of two adjacent vertices cross.

    s * a0 + m * b0 = s * a1 + m * b1 gives s / m = r = -(b1 - b0) / (a1 - a0),
    and m = (1 - s^q)^(1/q) then gives s = (r^q / (1 + r^q))^(1/q), written
    with the smaller of r and 1 / r raised to q so that it cannot overflow.
    """
    da, db = v1[0] - v0[0], v1[1] - v0[1]
    if da <= 0.0 or db >= 0.0:
        return 0.0
    r = -db / da
    x = min(r, 1.0 / r)
    s = 1.0 / (1.0 + x ** q) ** (1.0 / q)
    return s if r >= 1.0 else x * s
