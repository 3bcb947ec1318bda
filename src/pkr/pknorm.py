"""The p-Kantorovich norm: l^p trade-off between transport and annihilation.

For a weight lam >= 0 the scalarized problem

    min over zero-charge xi of  KR(xi) + lam * TV(mu - xi)

is a single min-cost flow on the space augmented with one virtual node v:
moving mass to or from v costs lam (annihilation/creation), real pairs
cost their distance, and the net charge of mu is absorbed at v. That
graph, its solves and the reading of (a, b), plans, residuals and
potentials off a solved tree all belong to ``transport``; this module
only picks the weights and builds the results. ``scalarized_min`` solves
the graph at one lam, and since its costs are affine in lam, one
parametric walk of the same network simplex over lam visits every vertex
of the convex trade-off curve of achievable (transport cost a, residual
mass b) pairs. The norm for any p is the closed-form l^p minimum over
that curve, with interior edge points realized by mixing the two
adjacent vertex solutions. The dual witness of a point (a, b) is read
off the same walk: the potentials f_lam of the vertex that supports it
at the weight lam = (b / a)^(p - 1), rescaled onto the conjugate unit
sphere.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeLambda, SpaceMismatch, ToleranceNotMet
from .holder import HolderPair, aligned_weight, lp_combine
from .lipschitz import LipschitzFunction, _lip_const_values, pairing
from .space import DEFAULT_TOL, FiniteMetricSpace, SignedMeasure, tv_norm
from .transport import (
    TransportPlan,
    _Graph,
    _TransportationSolver,
    kr_norm,
    solve_transportation,
)


@dataclass(frozen=True)
class ScalarizedSolution:
    """Minimizer of KR(xi) + lam * TV(mu - xi) over zero-charge xi."""

    lam: float
    xi: SignedMeasure
    a: float
    b: float
    plan: TransportPlan
    potentials: np.ndarray
    objective: float


@dataclass(frozen=True, slots=True)
class FrontierPoint:
    """One trade-off vertex: the weight where it becomes optimal and the
    pair (a, b).

    It keeps only the source-row tree potentials, u0 + 1j * u1 for
    u0 + lam * u1 on a traced frontier (real for one ``scalarized_min``
    solve), and its positive flows, by arc of the (sources + 1) x
    (sinks + 1) graph; ``sol`` builds the plan, xi and the potentials at
    ``lam`` each time it is read.
    """

    lam: float
    a: float
    b: float
    graph: _Graph = field(repr=False, compare=False)
    u: np.ndarray = field(repr=False, compare=False)
    arcs: np.ndarray = field(repr=False, compare=False)
    mass: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def read(cls, graph: _Graph, lam: float, arcs: np.ndarray, mass: np.ndarray,
             u: np.ndarray) -> FrontierPoint:
        """The vertex of a tree of ``graph`` solved at ``lam``."""
        return cls(lam, *graph.ab(arcs, mass), graph, u, arcs, mass)

    def potentials(self, lam: float) -> np.ndarray:
        """The tree potentials at ``lam``, extended and capped at lam.

        Their sup is at most lam, and for lam in this vertex's interval
        they pair with mu to a + lam * b.
        """
        return self.graph.potentials(self.u.real + lam * self.u.imag, lam)

    def witness(self, lam: float) -> tuple[np.ndarray, float]:
        """Potentials f of weight ``lam``, in this vertex's interval, and their slope.

        f pairs with mu to a + lam * b, with lip <= 1 and sup <= lam. Past
        the diameter it is the potentials at the diameter plus the constant
        sign(charge) * (lam - diameter), which the last vertex's residual,
        of the charge's sign, pairs to exactly (a zero-charge measure has no
        residual there and gets no shift); lam = inf leaves the constant
        sign(charge).
        """
        graph = self.graph
        space = graph.mu.space
        if math.isinf(lam):
            return np.full(space.n, graph.sign), 0.0
        vals = self.potentials(min(lam, space.diameter))
        # the slope before the shift: the shift leaves it unchanged, but a
        # large one rounds away the low-order bits of the differences
        return self.shifted(vals, lam), _lip_const_values(space.dist, vals)

    def shifted(self, vals: np.ndarray, lam: float) -> np.ndarray:
        """``vals``, the potentials at min(lam, diameter), plus the constant
        sign(charge) * (lam - diameter) past the diameter."""
        diameter = self.graph.mu.space.diameter
        if lam > diameter:
            return vals + self.graph.sign * (lam - diameter)
        return vals

    @property
    def sol(self) -> ScalarizedSolution:
        """The attaining solution at ``lam``, built anew on every read."""
        mu = self.graph.mu
        plan, resid = self.graph.plan_and_residual(self.arcs, self.mass)
        xi = SignedMeasure(mu.space, mu.weights - resid)
        return ScalarizedSolution(self.lam, xi, self.a, self.b, plan,
                                  self.potentials(self.lam), self.a + self.lam * self.b)


@dataclass(frozen=True)
class PkSolution:
    """Value and certificate data for one p-Kantorovich norm evaluation."""

    pair: HolderPair
    value: float
    xi: SignedMeasure
    plan: TransportPlan
    a: float
    b: float
    frontier: tuple[tuple[float, float, float], ...]
    dual_f: LipschitzFunction
    gap: float

    @property
    def p(self) -> float:
        return self.pair.p


def scalarized_min(space: FiniteMetricSpace, mu: SignedMeasure,
                   lam: float) -> ScalarizedSolution:
    """One supporting-line probe of the transport/annihilation trade-off.

    Returns the attaining zero-charge xi, its transport plan over real
    nodes, and node potentials f with lip(f) <= 1, sup(f) <= lam and
    pairing(f, mu) equal to the objective (the scalarized dual witness,
    anchored so the virtual node sits at 0), read off one solve of the
    virtual-node graph at min(lam, diameter) as a frontier vertex is.
    """
    if mu.space is not space:
        raise SpaceMismatch("measure belongs to a different space instance")
    lam = float(lam)
    if math.isnan(lam) or lam < 0.0:
        raise NegativeLambda(f"lam must be >= 0, got {lam}")
    if math.isinf(lam):
        raise ValueError("lam must be finite")

    # past the diameter the last frontier vertex stays optimal
    at = min(lam, space.diameter)
    graph = _Graph.of(mu)
    vertex = FrontierPoint.read(graph, at, *solve_transportation(
        graph.costs, graph.supplies, graph.demands, at))
    sol = vertex.sol
    if lam == at:
        return sol
    return ScalarizedSolution(lam, sol.xi, sol.a, sol.b, sol.plan,
                              vertex.shifted(sol.potentials, lam), sol.a + lam * sol.b)


def trace_frontier(space: FiniteMetricSpace, mu: SignedMeasure) -> list[FrontierPoint]:
    """Every vertex of the trade-off curve, each once, in order of lam.

    One parametric network simplex walk from lam = 0 to the diameter.
    Vertex k is optimal for lam in [points[k].lam, points[k + 1].lam], the
    last one for every larger lam; its potentials are the optimal duals
    throughout that interval. Each vertex holds a = the sum of mass times
    distance over its transported flows, as ``plan_cost`` sums it, and b =
    the sum of its annihilated and created mass.
    """
    graph = _Graph.of(mu)
    walk = _TransportationSolver(graph.costs, graph.supplies, graph.demands, 1j)
    return [FrontierPoint.read(graph, lam, *walk.read()) for lam in walk.walk(space.diameter)]


def _frontier_table(probes: list[FrontierPoint],
                    diameter: float) -> tuple[tuple[float, float, float], ...]:
    """One (lam, a, b) row per vertex, lam where it becomes optimal."""
    cap = diameter / 2.0
    return tuple([(min(fp.lam, cap), fp.a, fp.b) for fp in probes])


def pareto_frontier(space: FiniteMetricSpace,
                    mu: SignedMeasure) -> list[tuple[float, float, float]]:
    """Monotone (lam, a, b) table, one row per trade-off vertex.

    A row's lam is where its vertex becomes optimal: 0 for the first, an
    exact breakpoint of the curve (at most diameter / 2) for the others.
    """
    return list(_frontier_table(trace_frontier(space, mu), space.diameter))


def _edge_interior_argmin(v0: FrontierPoint, v1: FrontierPoint,
                          p: float) -> float | None:
    """Parameter t in [0, 1] minimizing the l^p objective on one edge."""
    da = v1.a - v0.a
    db = v1.b - v0.b
    if da <= 0.0 or db >= 0.0:
        return None
    if math.isinf(p):
        lo, hi = v0.a - v0.b, v1.a - v1.b
        if lo >= 0.0 or hi <= 0.0:
            return None
        return min(max((v0.b - v0.a) / (da - db), 0.0), 1.0)
    # stationarity: a(t)^(p-1) * da + b(t)^(p-1) * db = 0, i.e. a = c * b
    expo = math.log(-db / da) / (p - 1.0)
    c = math.exp(min(expo, 300.0))
    t = (c * v0.b - v0.a) / (da - c * db)
    return min(max(t, 0.0), 1.0)


def frontier_witness(vertex: FrontierPoint, lam: float, q: float) -> LipschitzFunction:
    """The weight-``lam`` dual witness of a vertex, on the conjugate unit sphere:
    ``vertex.witness(lam)`` divided by the l^q combination of its own slope
    and height. Only the zero measure has a witness of norm 0; it gets the
    constant 1, which lies on every conjugate unit sphere."""
    vals, lip = vertex.witness(lam)
    space = vertex.graph.mu.space
    norm = lp_combine(lip, float(np.abs(vals).max(initial=0.0)), q)
    if norm == 0.0:
        return LipschitzFunction(space, np.ones(space.n))
    return LipschitzFunction(space, vals / norm)


def frontier_optimum(verts: list[FrontierPoint], p: float
                     ) -> tuple[int, float | None, FrontierPoint, float]:
    """The l^p optimum over the trade-off curve and the weight that supports it.

    Returns (k, t, vertex, lam): the optimum is vertex k when t is None,
    else the point at t in (0, 1) of the edge from vertex k to k + 1. The
    dual witness of the conjugate exponent is ``vertex``'s at ``lam``:
    p = 1 gives the vertex optimal at lam = 1; a vertex optimum gives its
    aligned weight, clipped into the vertex's interval against rounding;
    an edge optimum gives the edge's breakpoint, which supports the whole
    edge.
    """
    if p == 1.0:
        k = max(bisect.bisect_right([v.lam for v in verts], 1.0) - 1, 0)
        return k, None, verts[k], 1.0
    best_val, best_k, best_t = math.inf, 0, None
    for k, v in enumerate(verts):
        val = lp_combine(v.a, v.b, p)
        if val < best_val:
            best_val, best_k = val, k
    for k in range(len(verts) - 1):
        t = _edge_interior_argmin(verts[k], verts[k + 1], p)
        if t is None or not 0.0 < t < 1.0:
            continue
        at = verts[k].a + t * (verts[k + 1].a - verts[k].a)
        bt = verts[k].b + t * (verts[k + 1].b - verts[k].b)
        val = lp_combine(at, bt, p)
        if val < best_val:
            best_val, best_k, best_t = val, k, t
    if best_t is not None:
        v1 = verts[best_k + 1]
        return best_k, best_t, v1, v1.lam
    vertex = verts[best_k]
    hi = verts[best_k + 1].lam if best_k + 1 < len(verts) else math.inf
    lam = min(max(aligned_weight(vertex.a, vertex.b, p), vertex.lam), hi)
    return best_k, None, vertex, lam


def pk_norm(space: FiniteMetricSpace, mu: SignedMeasure, p: float,
            tol: float = DEFAULT_TOL,
            probes: list[FrontierPoint] | None = None) -> PkSolution:
    """Compute the p-Kantorovich norm with certificate data.

    The reported value is the l^p combination of the returned (a, b)
    exactly as evaluated from the returned xi and plan; ``gap`` is the
    value minus the pairing of the returned unit-ball dual witness.
    Raises ToleranceNotMet (with the pair attached) if the gap is above
    ``tol * max(1, value)``. ``probes``, if given, must be
    ``trace_frontier(space, mu)``: SpaceMismatch if it was traced on
    another space, ValueError if it is empty or from other weights.
    """
    if probes is not None:
        if not probes:
            raise ValueError("probes must be a traced frontier, got none")
        traced = probes[0].graph.mu
        if traced is not mu:
            if traced.space is not space:
                raise SpaceMismatch("probes were traced on a different space instance")
            if not np.array_equal(traced.weights, mu.weights):
                raise ValueError("probes were traced from a different measure")
    pair = HolderPair.from_p(p)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if mu.space is not space:
        raise SpaceMismatch("measure belongs to a different space instance")

    verts = trace_frontier(space, mu) if probes is None else probes
    table = _frontier_table(verts, space.diameter)

    k, t, vertex, lam = frontier_optimum(verts, pair.p)
    if t is None:
        sol = scalarized_min(space, mu, 1.0) if pair.p == 1.0 else verts[k].sol
        xi, plan, a, b = sol.xi, sol.plan, sol.a, sol.b
    else:
        v0, v1 = verts[k], verts[k + 1]
        xi = SignedMeasure(space, (1.0 - t) * v0.sol.xi.weights + t * v1.sol.xi.weights)
        flow = kr_norm(space, xi)
        plan, a, b = flow.plan, flow.cost, tv_norm(mu - xi)

    value = lp_combine(a, b, pair.p)
    f_star = frontier_witness(vertex, lam, pair.q)
    gap = value - pairing(f_star, mu)
    result = PkSolution(pair, value, xi, plan, a, b, table, f_star, gap)
    if gap > tol * max(1.0, value):
        raise ToleranceNotMet(
            f"duality gap {gap} above {tol * max(1.0, value)}", result=result)
    return result


def pk_dist(space: FiniteMetricSpace, mu: SignedMeasure, nu: SignedMeasure,
            p: float, tol: float = DEFAULT_TOL) -> PkSolution:
    """p-Kantorovich distance: the norm of mu - nu."""
    if mu.space is not space or nu.space is not space:
        raise SpaceMismatch("measures must live on the given space instance")
    return pk_norm(space, mu - nu, p, tol)
