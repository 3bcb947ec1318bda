"""The p-Kantorovich norm: l^p trade-off between transport and annihilation.

For a weight lam >= 0 the scalarized problem

    min over zero-charge xi of  KR(xi) + lam * TV(mu - xi)

is a single min-cost flow on the space augmented with one virtual node v:
moving mass to or from v costs lam (annihilation/creation), real pairs
cost their distance, and the net charge of mu is absorbed at v. For one
lam, ``scalarized_min`` solves it as a bipartite transportation problem
in which a real pair costs min(d, 2 lam). As a transshipment its costs
are affine in lam, so one parametric network simplex walk over lam
visits every vertex of the convex trade-off curve of achievable
(transport cost a, residual mass b) pairs; the norm for any p is the
closed-form l^p minimum over that curve, with interior edge points
realized by mixing the two adjacent vertex solutions. The dual witness
of a point (a, b) is read off the same walk: the potentials f_lam of the
vertex that supports it at the weight lam = (b / a)^(p - 1), rescaled
onto the conjugate unit sphere.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeLambda, SpaceMismatch, ToleranceNotMet
from .holder import HolderPair, aligned_weight, lp_combine
from .lipschitz import LipschitzFunction, _lip_const_values, pairing
from .space import FiniteMetricSpace, SignedMeasure, is_zero_charge, total_charge, tv_norm
from .transport import (
    TransportPlan,
    _TransportationSolver,
    extend_potentials,
    kr_norm,
    plan_cost,
    solve_transportation,
)

DEFAULT_TOL = 1e-8


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


@dataclass(frozen=True)
class _Walked:
    """What every vertex of one traced frontier shares: the measure, the
    atoms of its negative part (the walk's source rows) and of its positive
    part (its sink columns), and the sign of its charge, 0 when it has none."""

    mu: SignedMeasure
    src: np.ndarray
    snk: np.ndarray
    sign: float


@dataclass(frozen=True, slots=True)
class FrontierPoint:
    """One trade-off vertex: the weight where it becomes optimal and the
    pair (a, b).

    It keeps only the walk's source-row tree potentials u0 + lam * u1, as
    u0 + 1j * u1, and its positive flows, by arc of the walk's
    (sources + 1) x (sinks + 1) block; ``sol`` builds the plan, xi and the
    potentials at ``lam`` each time it is read.
    """

    lam: float
    a: float
    b: float
    walked: _Walked = field(repr=False, compare=False)
    u: np.ndarray = field(repr=False, compare=False)
    arcs: np.ndarray = field(repr=False, compare=False)
    mass: np.ndarray = field(repr=False, compare=False)

    def potentials(self, lam: float) -> np.ndarray:
        """McShane extension of the source potentials at ``lam``, capped at lam.

        It is 1-Lipschitz, its sup is at most lam, and for lam in this
        vertex's interval it equals the optimal duals (relative to the
        virtual node) on every atom that carries flow, so it pairs with mu
        to a + lam * b.
        """
        w = self.walked
        u_src = self.u.real + lam * self.u.imag
        return (w.mu.space.dist[:, w.src] + u_src).min(axis=1, initial=lam)

    def witness(self, lam: float) -> tuple[np.ndarray, float]:
        """Potentials f of weight ``lam``, in this vertex's interval, and their slope.

        f pairs with mu to a + lam * b, with lip <= 1 and sup <= lam. Past
        the diameter it is the potentials at the diameter plus the constant
        sign(charge) * (lam - diameter), which the last vertex's residual,
        of the charge's sign, pairs to exactly (a zero-charge measure has no
        residual there and gets no shift); lam = inf leaves the constant
        sign(charge).
        """
        w = self.walked
        space = w.mu.space
        if math.isinf(lam):
            return np.full(space.n, w.sign), 0.0
        vals = self.potentials(min(lam, space.diameter))
        # the slope before the shift: the shift leaves it unchanged, but a
        # large one rounds away the low-order bits of the differences
        lip = _lip_const_values(space.dist, vals)
        if lam > space.diameter:
            vals = vals + w.sign * (lam - space.diameter)
        return vals, lip

    @property
    def sol(self) -> ScalarizedSolution:
        """The attaining solution at ``lam``, built anew on every read."""
        w = self.walked
        space = w.mu.space
        m, n = len(w.src), len(w.snk)
        rows, cols = np.divmod(self.arcs, n + 1)
        real = (rows < m) & (cols < n)
        entries = list(zip(w.src[rows[real]].tolist(), w.snk[cols[real]].tolist(),
                           self.mass[real].tolist()))
        plan = TransportPlan(space, tuple(entries))
        # the residual mu - xi is the mass on the annihilation arcs
        resid = np.zeros(space.n)
        out, into = (rows < m) & (cols == n), (rows == m) & (cols < n)
        resid[w.src[rows[out]]] = -self.mass[out]
        resid[w.snk[cols[into]]] = self.mass[into]
        xi = SignedMeasure(space, w.mu.weights - resid)
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


def _trivial_scalarized(space: FiniteMetricSpace, lam: float) -> ScalarizedSolution:
    zero = SignedMeasure(space, np.zeros(space.n))
    return ScalarizedSolution(lam, zero, 0.0, 0.0, TransportPlan(space, ()),
                              np.zeros(space.n), 0.0)


def scalarized_min(space: FiniteMetricSpace, mu: SignedMeasure,
                   lam: float) -> ScalarizedSolution:
    """One supporting-line probe of the transport/annihilation trade-off.

    Returns the attaining zero-charge xi, its transport plan over real
    nodes, and node potentials f with lip(f) <= 1, sup(f) <= lam and
    pairing(f, mu) equal to the objective (the scalarized dual witness,
    anchored so the virtual node sits at 0).
    """
    if mu.space is not space:
        raise SpaceMismatch("measure belongs to a different space instance")
    lam = float(lam)
    if math.isnan(lam) or lam < 0.0:
        raise NegativeLambda(f"lam must be >= 0, got {lam}")
    if math.isinf(lam):
        raise ValueError("lam must be finite")

    n = space.n
    w = mu.weights
    if tv_norm(mu) == 0.0:
        return _trivial_scalarized(space, lam)

    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = np.minimum(space.dist, 2.0 * lam)
    aug[:n, n] = lam
    aug[n, :n] = lam
    charge = total_charge(mu)
    w_aug = np.append(w, -charge)

    src = [i for i in range(n + 1) if w_aug[i] < 0.0]
    snk = [j for j in range(n + 1) if w_aug[j] > 0.0]
    supplies = np.array([-w_aug[i] for i in src])
    demands = np.array([w_aug[j] for j in snk])
    demands *= float(supplies.sum()) / float(demands.sum())

    flows, u_src, _ = solve_transportation(aug[np.ix_(src, snk)], supplies, demands)

    u_all = extend_potentials(aug, src, u_src)
    f = u_all[:n] - u_all[n]

    # flows through the virtual node, or over a pair farther apart than
    # 2 lam, are annihilated at their source and created at their sink:
    # they make up the residual mu - xi, and the rest is the plan
    two_lam = 2.0 * lam
    resid = np.zeros(n)
    entries, resid_mass = [], []
    for (i_loc, j_loc), mass in sorted(flows.items()):
        i, j = src[i_loc], snk[j_loc]
        if i < n and j < n and space.dist[i, j] <= two_lam:
            entries.append((i, j, mass))
            continue
        if i < n:
            resid[i] -= mass
            resid_mass.append(mass)
        if j < n:
            resid[j] += mass
            resid_mass.append(mass)
    plan = TransportPlan(space, tuple(entries))
    xi = SignedMeasure(space, w - resid)
    a = plan_cost(space, plan)
    b = math.fsum(resid_mass)
    return ScalarizedSolution(lam, xi, a, b, plan, f, a + lam * b)


class _FrontierWalk(_TransportationSolver):
    """Parametric network simplex over lam for the scalarized problem.

    The scalarized problem is a transshipment through the virtual node,
    split here into a source row and a sink column joined by a zero-cost
    arc. Rows before the last are the atoms of the negative part of mu,
    columns before the last those of the positive part, real pairs cost
    their distance, and the arcs into the virtual column or out of the
    virtual row (annihilation) cost lam. The virtual row supplies
    TV(mu) + max(charge, 0), more than the real sinks can take, so the
    joining arc always carries flow and both halves of the virtual node
    share one potential.

    Arc costs are c0 + lam * c1, and so are the tree potentials. Both are
    kept as complex numbers c0 + 1j * c1: the base class's in-place tree
    update only adds and subtracts arc costs, so it carries the two parts
    at once, and the lam part stays an exact small integer. The walk
    starts from the all-annihilation tree (every real source into the
    virtual column, the virtual row into every real sink, the joining arc),
    which carries flow on every arc and is therefore strongly feasible, and
    which is optimal up to lam = min d / 2. Each step enters the non-tree
    arc whose reduced cost rc0 + lam * rc1 reaches zero first, an arc
    already negative at the current lam first of all, and pivots with the
    base class's Cunningham leaving rule, so a breakpoint with many tied
    pivots cannot cycle.
    """

    def __init__(self, costs: np.ndarray, supplies: np.ndarray, demands: np.ndarray):
        m, n = costs.shape[0] + 1, costs.shape[1] + 1
        self.m, self.n = m, n
        self.pivots = 0
        k = np.arange(m * n)
        self.tail = (k // n).tolist()
        self.head = (m + k % n).tolist()
        cost = np.zeros((m, n), dtype=complex)
        cost[:-1, :-1] = costs
        cost[:-1, -1] = cost[-1, :-1] = 1j
        self.cost = cost.ravel().tolist()

        flow = np.zeros((m, n))
        flow[:-1, -1] = supplies[:-1]
        flow[-1, :-1] = demands[:-1]
        flow[-1, -1] = supplies[-1] - float(demands[:-1].sum())
        self.flow = flow.ravel().tolist()
        in_tree = np.zeros((m, n), dtype=bool)
        in_tree[:, -1] = in_tree[-1, :] = True
        self.in_tree = in_tree.ravel()

        # the virtual column is the root: every source hangs from it, every
        # real sink from the virtual row
        vrow, root = m - 1, m + n - 1
        self.parent = [root] * m + [vrow] * (n - 1) + [-1]
        self.parent_arc = list(range(n - 1, m * n, n)) + list(range(vrow * n, m * n - 1)) + [-1]
        self.depth = [1] * m + [2] * (n - 1) + [0]
        self.children = [[] for _ in range(m + n)]
        self.children[vrow] = list(range(m, root))
        self.children[root] = list(range(m))
        self.u = np.zeros(m + n, dtype=complex)
        self.u[:vrow] = -1j
        self.u[m:root] = 1j

    def walk(self, lam_max: float):
        """Yield each lam, up to ``lam_max``, where the tree holds a new vertex.

        A vertex is yielded after the last pivot at its breakpoint, so the
        tree then stays optimal until the next yield. Breakpoints closer
        than 1e-12 * lam_max count as one.
        """
        tail, head = np.array(self.tail), np.array(self.head)
        cost = np.array(self.cost)
        tol = 1e-12 * lam_max
        max_pivots = 200 * (len(tail) + self.m + self.n) + 1000
        lam, moved = 0.0, True
        while True:
            rc = cost + self.u[tail] - self.u[head]
            ready = (rc.imag < 0.0) & ~self.in_tree
            e, lam_e = -1, math.inf
            if ready.any():
                cross = np.full(len(tail), math.inf)
                cross[ready] = rc.real[ready] / -rc.imag[ready]
                e = int(np.argmin(cross))
                lam_e = float(cross[e])
            if lam_e > lam + tol:
                if moved:
                    yield lam
                    moved = False
                if lam_e > lam_max:
                    break
                lam = lam_e
            if self.pivots == max_pivots:
                raise self._failure("frontier walk", "network simplex pivot cap exceeded")
            self._pivot(e)
            self.pivots += 1
            # the entering arc now carries the step length
            moved = moved or self.flow[e] > 0.0
        self._check_tree(self.m + self.n - 1)


def trace_frontier(space: FiniteMetricSpace, mu: SignedMeasure) -> list[FrontierPoint]:
    """Every vertex of the trade-off curve, each once, in order of lam.

    One parametric network simplex walk from lam = 0 to the diameter.
    Vertex k is optimal for lam in [points[k].lam, points[k + 1].lam], the
    last one for every larger lam; its potentials are the optimal duals
    throughout that interval. Each vertex holds a = the sum of mass times
    distance over its transported flows, as ``plan_cost`` sums it, and b =
    the sum of its annihilated and created mass.
    """
    w = mu.weights
    src, snk = np.flatnonzero(w < 0.0), np.flatnonzero(w > 0.0)
    m, n = len(src), len(snk)
    charge = total_charge(mu)
    sign = 0.0 if is_zero_charge(mu) else math.copysign(1.0, charge)
    walked = _Walked(mu, src, snk, sign)
    tv = tv_norm(mu)
    if tv == 0.0:
        return [FrontierPoint(0.0, 0.0, 0.0, walked, np.zeros(0, dtype=complex),
                              np.zeros(0, dtype=np.intp), np.zeros(0))]

    costs = space.dist[np.ix_(src, snk)]
    walk = _FrontierWalk(costs, np.append(-w[src], tv + max(charge, 0.0)),
                         np.append(w[snk], tv + max(-charge, 0.0)))
    # by arc of the walk: the distance of a real pair (0 on the virtual
    # arcs), and whether the arc annihilates or creates mass
    arc_dist = np.zeros((m + 1, n + 1))
    arc_dist[:m, :n] = costs
    resid_arc = np.zeros((m + 1, n + 1), dtype=bool)
    resid_arc[:m, n] = resid_arc[m, :n] = True
    arc_dist, resid_arc = arc_dist.ravel(), resid_arc.ravel()
    points = []
    for lam in walk.walk(space.diameter):
        flow = np.array(walk.flow)
        arcs = np.flatnonzero(flow > 0.0)
        mass = flow[arcs]
        a = math.fsum((mass * arc_dist[arcs]).tolist())
        b = math.fsum(mass[resid_arc[arcs]].tolist())
        points.append(FrontierPoint(lam, a, b, walked, walk.u[:m].copy(), arcs, mass))
    return points


def vertices_of(probes: list[FrontierPoint]) -> list[FrontierPoint]:
    """Distinct trade-off points, sorted by transport cost.

    Points closer than 1e-9 of the largest a and of the largest b merge,
    a relative tolerance, so the result does not depend on the scales of
    the metric and the weights.
    """
    if not probes:
        return []
    tv_scale = max(fp.b for fp in probes)
    a_scale = max(fp.a for fp in probes)
    out: list[FrontierPoint] = []
    for fp in sorted(probes, key=lambda fp: (fp.a, -fp.b, fp.lam)):
        if out and abs(fp.a - out[-1].a) <= 1e-9 * a_scale \
                and abs(fp.b - out[-1].b) <= 1e-9 * tv_scale:
            continue
        out.append(fp)
    return out


def _frontier_table(probes: list[FrontierPoint],
                    diameter: float) -> tuple[tuple[float, float, float], ...]:
    """One (lam, a, b) row per vertex, lam where it becomes optimal."""
    cap = diameter / 2.0
    rows = [(min(fp.lam, cap), fp.a, fp.b) for fp in sorted(probes, key=lambda fp: fp.lam)]
    return tuple(rows)


def pareto_frontier(space: FiniteMetricSpace, mu: SignedMeasure,
                    max_points: int = 64) -> list[tuple[float, float, float]]:
    """Monotone (lam, a, b) table, one row per trade-off vertex.

    A row's lam is where its vertex becomes optimal: 0 for the first, an
    exact breakpoint of the curve (at most diameter / 2) for the others.
    More than ``max_points`` rows are thinned to evenly spaced ones.
    """
    if max_points < 2:
        raise ValueError("max_points must be at least 2")
    rows = list(_frontier_table(trace_frontier(space, mu), space.diameter))
    if len(rows) > max_points:
        idx = np.linspace(0, len(rows) - 1, max_points).round().astype(int)
        rows = [rows[i] for i in sorted(set(int(i) for i in idx))]
    return rows


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
    and height."""
    vals, lip = vertex.witness(lam)
    space = vertex.walked.mu.space
    norm = lp_combine(lip, float(np.abs(vals).max(initial=0.0)), q)
    if norm == 0.0:
        return LipschitzFunction(space, np.zeros(space.n))
    return LipschitzFunction(space, vals / norm)


def vertex_at(verts: list[FrontierPoint], lam: float) -> FrontierPoint:
    """The vertex whose interval [lam_k, lam_k+1] holds ``lam``."""
    k = bisect.bisect_right([v.lam for v in verts], lam) - 1
    return verts[max(k, 0)]


def _zero_solution(space: FiniteMetricSpace, pair: HolderPair) -> PkSolution:
    zero = SignedMeasure(space, np.zeros(space.n))
    return PkSolution(pair, 0.0, zero, TransportPlan(space, ()), 0.0, 0.0,
                      ((0.0, 0.0, 0.0),),
                      LipschitzFunction(space, np.zeros(space.n)), 0.0)


def pk_norm(space: FiniteMetricSpace, mu: SignedMeasure, p: float,
            tol: float = DEFAULT_TOL,
            probes: list[FrontierPoint] | None = None) -> PkSolution:
    """Compute the p-Kantorovich norm with certificate data.

    The reported value is the l^p combination of the returned (a, b)
    exactly as evaluated from the returned xi and plan; ``gap`` is the
    value minus the pairing of the returned unit-ball dual witness.
    Raises ToleranceNotMet (with the pair attached) if the gap is above
    ``tol * max(1, value)``.
    """
    pair = HolderPair.from_p(p)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if mu.space is not space:
        raise SpaceMismatch("measure belongs to a different space instance")
    if tv_norm(mu) == 0.0:
        return _zero_solution(space, pair)

    if probes is None:
        probes = trace_frontier(space, mu)
    table = _frontier_table(probes, space.diameter)
    verts = vertices_of(probes)

    if pair.p == 1.0:
        sol = scalarized_min(space, mu, 1.0)
        xi, plan, a, b = sol.xi, sol.plan, sol.a, sol.b
        lam = 1.0
        vertex = vertex_at(verts, lam)
    else:
        best_val, best_k, best_t = math.inf, 0, None
        for k, v in enumerate(verts):
            val = lp_combine(v.a, v.b, pair.p)
            if val < best_val:
                best_val, best_k = val, k
        for k in range(len(verts) - 1):
            t = _edge_interior_argmin(verts[k], verts[k + 1], pair.p)
            if t is None or not 0.0 < t < 1.0:
                continue
            at = verts[k].a + t * (verts[k + 1].a - verts[k].a)
            bt = verts[k].b + t * (verts[k + 1].b - verts[k].b)
            val = lp_combine(at, bt, pair.p)
            if val < best_val:
                best_val, best_k, best_t = val, k, t

        if best_t is None:
            # the alignment weight of (a, b), clipped into the interval of
            # the vertex against rounding
            vertex = verts[best_k]
            sol = vertex.sol
            xi, plan, a, b = sol.xi, sol.plan, sol.a, sol.b
            hi = verts[best_k + 1].lam if best_k + 1 < len(verts) else math.inf
            lam = min(max(aligned_weight(a, b, pair.p), vertex.lam), hi)
        else:
            v0, v1 = verts[best_k], verts[best_k + 1]
            xi = SignedMeasure(space, (1.0 - best_t) * v0.sol.xi.weights
                               + best_t * v1.sol.xi.weights)
            flow = kr_norm(space, xi)
            plan, a = flow.plan, flow.cost
            b = tv_norm(mu - xi)
            # the whole edge is supported at its breakpoint
            vertex, lam = v1, v1.lam

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
