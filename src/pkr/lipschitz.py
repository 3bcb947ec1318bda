"""q-Lipschitz norms, the pairing against measures, and the dual solve.

The combined norm blends the Lipschitz constant with the sup norm through
an l^q combination; its unit ball is exactly the dual ball of the
p-Kantorovich norm for conjugate exponents, which the dual solver
exploits: it searches the boundary of the budget region (s, m) and prices
each budget with one scalarized flow.
"""

from __future__ import annotations

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


def _lip_const_values(dist: np.ndarray, values: np.ndarray) -> float:
    n = len(values)
    if n <= 1:
        return 0.0
    i, j = np.triu_indices(n, 1)
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
            candidates.append(_piece_switch(ab[k], ab[k + 1], budget))
        candidates.append(_golden_max(value_at, 0.0, 1.0))

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


def _piece_switch(v0, v1, budget) -> float:
    """Budget parameter where two vertex price lines cross (bisection)."""
    def h(s: float) -> float:
        s, m = budget(s)
        return (s * v0[0] + m * v0[1]) - (s * v1[0] + m * v1[1])

    lo, hi = 0.0, 1.0
    if h(lo) == 0.0:
        return lo
    if h(lo) * h(hi) > 0.0:
        return lo if h(lo) < 0.0 else hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if h(lo) * h(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, lo: float, hi: float, iters: int = 150) -> float:
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = fn(d)
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)
