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
realized by mixing the two adjacent vertex solutions. Dual witnesses
come from the flow potentials of the supporting lam, rescaled onto the
conjugate unit ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeLambda, SpaceMismatch, ToleranceNotMet
from .holder import HolderPair, lp_combine
from .lipschitz import LipschitzFunction, _lip_const_values, pairing
from .space import FiniteMetricSpace, SignedMeasure, total_charge, tv_norm
from .transport import (
    TransportPlan,
    _TransportationSolver,
    extend_potentials,
    kr_norm,
    plan_cost,
    plan_divergence,
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
class FrontierPoint:
    """One trade-off vertex: the weight where it becomes optimal, the pair
    (a, b) and the attaining solution, with its potentials at that weight."""

    lam: float
    a: float
    b: float
    sol: ScalarizedSolution


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

    two_lam = 2.0 * lam
    xi_w = np.zeros(n)
    entries = []
    for (i_loc, j_loc), mass in sorted(flows.items()):
        i, j = src[i_loc], snk[j_loc]
        if i < n and j < n and space.dist[i, j] <= two_lam:
            entries.append((i, j, mass))
            xi_w[j] += mass
            xi_w[i] -= mass
    plan = TransportPlan(space, tuple(entries))
    xi = SignedMeasure(space, xi_w)
    a = plan_cost(space, plan)
    b = tv_norm(mu - xi)
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
    last one for every larger lam; its potentials are the optimal duals at
    the left end of that interval, which is 0 or a breakpoint of the curve.
    """
    tv = tv_norm(mu)
    if tv == 0.0:
        return [FrontierPoint(0.0, 0.0, 0.0, _trivial_scalarized(space, 0.0))]

    w = mu.weights
    src, snk = np.flatnonzero(w < 0.0), np.flatnonzero(w > 0.0)
    m, n = len(src), len(snk)
    charge = total_charge(mu)
    walk = _FrontierWalk(space.dist[np.ix_(src, snk)],
                         np.append(-w[src], tv + max(charge, 0.0)),
                         np.append(w[snk], tv + max(-charge, 0.0)))
    dist_src = space.dist[:, src]
    points = []
    for lam in walk.walk(space.diameter):
        flow = np.array(walk.flow).reshape(m + 1, n + 1)[:m, :n]
        rows, cols = np.nonzero(flow > 0.0)
        entries = list(zip(src[rows].tolist(), snk[cols].tolist(), flow[rows, cols].tolist()))
        plan = TransportPlan(space, tuple(entries))
        xi = plan_divergence(space, plan)
        # McShane extension of the source potentials, capped at lam: it is
        # 1-Lipschitz, its sup is at most lam, and on the support it equals
        # the tree potentials relative to the virtual node (the root, at 0)
        u_src = walk.u.real[:m] + lam * walk.u.imag[:m]
        f = (dist_src + u_src).min(axis=1, initial=lam)
        a, b = plan_cost(space, plan), tv_norm(mu - xi)
        sol = ScalarizedSolution(lam, xi, a, b, plan, f, a + lam * b)
        points.append(FrontierPoint(lam, a, b, sol))
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


def _alignment_lambda(a: float, b: float, p: float) -> float | None:
    """Scalarization weight whose dual touches the l^p objective at (a, b).

    Capped at 1e10: past the cap the relative Holder slack is below 1e-10
    and the constant-shift witness absorbs the rest.
    """
    if math.isinf(p) or p == 1.0 or a <= 0.0 or b <= 0.0:
        return None
    return min(math.exp(min((p - 1.0) * math.log(b / a), 700.0)), 1e10)


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
    Raises ToleranceNotMet (with the best pair attached) if the gap stays
    above ``tol * max(1, value)``.
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
    charge = total_charge(mu)

    extra_sols: list[ScalarizedSolution] = []
    if pair.p == 1.0:
        sol = scalarized_min(space, mu, 1.0)
        extra_sols.append(sol)
        xi, plan, a, b = sol.xi, sol.plan, sol.a, sol.b
        support_lams: list[float] = []
    else:
        best_val = math.inf
        best_kind: tuple = ("vertex", 0)
        for k, v in enumerate(verts):
            val = lp_combine(v.a, v.b, pair.p)
            if val < best_val:
                best_val, best_kind = val, ("vertex", k)
        for k in range(len(verts) - 1):
            t = _edge_interior_argmin(verts[k], verts[k + 1], pair.p)
            if t is None or not 0.0 < t < 1.0:
                continue
            at = verts[k].a + t * (verts[k + 1].a - verts[k].a)
            bt = verts[k].b + t * (verts[k + 1].b - verts[k].b)
            val = lp_combine(at, bt, pair.p)
            if val < best_val:
                best_val, best_kind = val, ("edge", k, t)

        if best_kind[0] == "vertex":
            v = verts[best_kind[1]]
            xi, plan, a, b = v.sol.xi, v.sol.plan, v.sol.a, v.sol.b
        else:
            _, k, t = best_kind
            xi = SignedMeasure(space, (1.0 - t) * verts[k].sol.xi.weights
                               + t * verts[k + 1].sol.xi.weights)
            flow = kr_norm(space, xi)
            plan, a = flow.plan, flow.cost
            b = tv_norm(mu - xi)
        support_lams = [_alignment_lambda(a, b, pair.p)]

    value = lp_combine(a, b, pair.p)
    scale = max(1.0, value)

    candidates: list[np.ndarray] = [fp.sol.potentials for fp in probes]
    candidates += [s.potentials for s in extra_sols]
    if charge != 0.0:
        candidates.append(np.ones(space.n))
    if charge == 0.0:
        # free midrange shift: the pairing is unchanged, the sup norm shrinks
        candidates += [vals - (vals.max() + vals.min()) / 2.0
                       for vals in list(candidates)]
    right = max(probes, key=lambda fp: fp.lam)
    probed = {fp.lam for fp in probes} | {s.lam for s in extra_sols}

    def add_aligned(lam: float | None) -> None:
        if lam is None:
            return
        if lam > right.lam:
            # only the rightmost trade-off point supports weights beyond its
            # own; there the residual is single-signed, so a constant
            # shift of its witness is exact for any larger weight
            if charge != 0.0:
                shift = math.copysign(lam - right.lam, charge)
                candidates.append(right.sol.potentials + shift)
            return
        for known in probed:
            if abs(lam - known) <= 1e-12 * max(1.0, known):
                return
        probed.add(lam)
        candidates.append(scalarized_min(space, mu, lam).potentials)

    for lam in support_lams:
        add_aligned(lam)

    def best_witness() -> tuple[LipschitzFunction, float]:
        best_score, best_vals = -math.inf, None
        for vals in candidates:
            pr = float(vals @ mu.weights)
            norm = lp_combine(_lip_const_values(space.dist, vals),
                              float(np.abs(vals).max(initial=0.0)), pair.q)
            if norm <= 1e-300:
                continue
            score = abs(pr) / norm
            if score > best_score:
                best_score = score
                best_vals = math.copysign(1.0, pr) * vals / norm
        if best_vals is None:
            best_vals = np.zeros(space.n)
        f_star = LipschitzFunction(space, best_vals)
        return f_star, pairing(f_star, mu)

    f_star, dual_value = best_witness()
    gap = value - dual_value

    for attempt in range(8):
        if gap <= tol * scale:
            break
        lam_retry = _alignment_lambda(a, b, pair.p)
        if lam_retry is None:
            break
        add_aligned(lam_retry * (1.0 + attempt * 1e-9))
        f_star, dual_value = best_witness()
        gap = value - dual_value

    result = PkSolution(pair, value, xi, plan, a, b, table, f_star, gap)
    if gap > tol * scale:
        raise ToleranceNotMet(
            f"duality gap {gap} above {tol * scale}", result=result)
    return result


def pk_dist(space: FiniteMetricSpace, mu: SignedMeasure, nu: SignedMeasure,
            p: float, tol: float = DEFAULT_TOL) -> PkSolution:
    """p-Kantorovich distance: the norm of mu - nu."""
    if mu.space is not space or nu.space is not space:
        raise SpaceMismatch("measures must live on the given space instance")
    return pk_norm(space, mu - nu, p, tol)
