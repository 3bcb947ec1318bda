"""Exact Kantorovich-Rubinstein transport via a primal network simplex.

The solver works on the bipartite transportation graph between the atoms
of the negative part (sources) and the positive part (sinks) of a
zero-charge measure, rooted at an artificial node for the initial basis.
By the triangle inequality this bipartite problem has the same optimum as
the unrestricted divergence-constrained problem, so no relay or slack
arcs are needed. The supplies are solved exactly as given: pivots run on
a strongly feasible spanning tree, which cannot cycle.

Orientation convention, fixed throughout the package: a plan entry
(i, j, m) moves mass m from point i to point j, and divergence adds at j.
Dual node potentials u then satisfy u[j] - u[i] <= d(i, j) everywhere,
with equality on every entry carrying positive mass, and sum(u * xi)
equals the transport cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonZeroCharge, NumericalFailure
from .space import (
    FiniteMetricSpace,
    SignedMeasure,
    _frozen_array,
    support,
    total_charge,
    tv_norm,
)

CHARGE_REL_TOL = 1e-9


@dataclass(frozen=True)
class TransportPlan:
    """Sparse nonnegative mass matrix over point pairs of one space."""

    space: FiniteMetricSpace
    entries: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        n = self.space.n
        clean = []
        for i, j, m in self.entries:
            i, j, m = int(i), int(j), float(m)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"plan entry ({i}, {j}) outside space of size {n}")
            if not math.isfinite(m) or m < 0.0:
                raise ValueError(f"plan mass must be finite and >= 0, got {m}")
            clean.append((i, j, m))
        object.__setattr__(self, "entries", tuple(clean))

    def __repr__(self) -> str:
        return f"TransportPlan(entries={len(self.entries)}, cost={plan_cost(self.space, self):.6g})"


@dataclass(frozen=True)
class FlowResult:
    """Optimal transport cost, an attaining plan, and dual node potentials."""

    cost: float
    plan: TransportPlan
    potentials: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "potentials", _frozen_array(self.potentials))


def plan_cost(space: FiniteMetricSpace, plan: TransportPlan) -> float:
    """Sum of mass * distance over plan entries."""
    if plan.space is not space:
        raise ValueError("plan belongs to a different space instance")
    d = space.dist
    return float(math.fsum(m * float(d[i, j]) for i, j, m in plan.entries))


def plan_divergence(space: FiniteMetricSpace, plan: TransportPlan) -> SignedMeasure:
    """Incoming minus outgoing mass per point."""
    if plan.space is not space:
        raise ValueError("plan belongs to a different space instance")
    w = np.zeros(space.n)
    for i, j, m in plan.entries:
        w[j] += m
        w[i] -= m
    return SignedMeasure(space, w)


class _TransportationSolver:
    """Primal network simplex for one balanced transportation instance.

    The basis is a spanning tree over the sources, the sinks and an
    artificial root. It is kept hung from the root as ``parent`` and
    ``parent_arc`` links, node depths and per-node child lists, and it
    starts as the star of big-M artificial arcs. A pivot finds the cycle
    of the entering arc by climbing from both endpoints to their common
    ancestor, the apex, which costs the cycle length. It then updates the
    tree in place (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 11):
    the subtree below the leaving arc is detached, the parent links on the
    path from the entering arc's endpoint up to that subtree's root are
    reversed, and the subtree is re-hung on the entering arc. Depths and
    potentials change only inside that subtree. They are recomputed there
    top-down from the new parents, so every potential is the same sum
    along its root path that a walk from the root would give, bit for bit.

    The entering arc has the most negative reduced cost, the lowest index
    on ties. The leaving arc follows Cunningham's rule (*Math. Prog.* 11,
    1976; AMO §11.5): it is the last arc that blocks the step on the cycle
    walked in the entering arc's direction from the apex. The initial star
    carries positive flow on every arc, so it is strongly feasible (every
    zero-flow tree arc points toward the root), and the rule keeps it so,
    which rules out cycling without perturbing the supplies. The final
    basis is traversed once from the root to confirm that it is still a
    spanning tree that agrees with the maintained links, and its flows are
    re-solved from the balances, which drops the rounding of the pivots.
    """

    def __init__(self, costs: np.ndarray, supplies: np.ndarray, demands: np.ndarray):
        self.costs = np.asarray(costs, dtype=float)
        self.supplies = np.asarray(supplies, dtype=float)
        self.demands = np.asarray(demands, dtype=float)
        self.m, self.n = self.costs.shape
        if self.m != len(self.supplies) or self.n != len(self.demands):
            raise ValueError("cost matrix shape must match supplies x demands")
        self.pivots = 0

    def _failure(self, stage: str, what: str) -> NumericalFailure:
        return NumericalFailure(f"{what} (stage: {stage}; m={self.m} sources, "
                                f"n={self.n} sinks; {self.pivots} pivots)")

    def solve(self):
        m, n = self.m, self.n
        num_real = m * n
        num_nodes = m + n + 1
        root = m + n

        cost_scale = max(1.0, float(self.costs.max(initial=0.0)))
        # power of two so +-M cancels exactly in reduced costs
        big_m = 2.0 ** math.ceil(math.log2(8.0 * (m + n + 2) * cost_scale))

        tail = np.empty(num_real + m + n, dtype=np.int64)
        head = np.empty_like(tail)
        cost = np.empty(num_real + m + n, dtype=float)
        k = np.arange(num_real)
        tail[:num_real] = k // n
        head[:num_real] = m + (k % n)
        cost[:num_real] = self.costs.reshape(-1)
        # artificial arcs: source -> root, then root -> sink
        tail[num_real:], head[num_real:] = np.arange(m + n), root
        tail[num_real + m:], head[num_real + m:] = root, np.arange(m, m + n)
        cost[num_real:] = big_m

        # scalar work per pivot runs on lists; pricing stays vectorized
        self.tail, self.head, self.cost = tail.tolist(), head.tolist(), cost.tolist()
        self.flow = [0.0] * num_real + self.supplies.tolist() + self.demands.tolist()
        self.in_tree = in_tree = np.zeros(len(tail), dtype=bool)
        in_tree[num_real:] = True

        # initial basis: every node hangs from the root by its artificial arc
        self.parent = [root] * (m + n) + [-1]
        self.parent_arc = list(range(num_real, num_real + m + n)) + [-1]
        self.depth = [1] * (m + n) + [0]
        self.children = [[] for _ in range(m + n)] + [list(range(m + n))]
        self.u = u = np.zeros(num_nodes)
        u[:m] = -big_m
        u[m:root] = big_m

        pivot_tol = 1e-12 * cost_scale
        max_pivots = 200 * (len(tail) + num_nodes) + 1000
        while True:
            rc = cost + u[tail] - u[head]
            rc[in_tree] = 0.0
            e = int(np.argmin(rc))
            if rc[e] >= -pivot_tol:
                break
            if self.pivots == max_pivots:
                raise self._failure("pivoting", "network simplex pivot cap exceeded")
            self._pivot(e)
            self.pivots += 1
        self._check_tree(root)

        # de-perturbation: re-solve the optimal tree's flows from the exact
        # balances, leaves first
        balance = np.zeros(num_nodes)
        balance[:m] = -self.supplies
        balance[m:m + n] = self.demands
        balance[root] = -float(balance[:m + n].sum())
        depth, parent, parent_arc = self.depth, self.parent, self.parent_arc
        order = sorted(range(m + n), key=lambda x: -depth[x])
        resid = balance.copy()
        exact = np.zeros(len(tail))
        for x in order:
            a = parent_arc[x]
            p = parent[x]
            if self.tail[a] == x:
                f = -resid[x]
                resid[p] -= f
            else:
                f = resid[x]
                resid[p] += f
            exact[a] = f

        neg_tol = 1e-8 * max(1.0, float(self.supplies.sum()))
        if float(exact.min(initial=0.0)) < -neg_tol:
            raise self._failure("de-perturbation", "negative basic flow after de-perturbation")
        exact = np.maximum(exact, 0.0)
        exact[~in_tree] = 0.0
        if float(exact[num_real:].max(initial=0.0)) > neg_tol:
            raise self._failure("de-perturbation",
                                "artificial arc carries mass: instance not balanced")

        flows = {}
        for a in range(num_real):
            if exact[a] > 0.0:
                flows[(int(tail[a]), int(head[a]) - m)] = float(exact[a])

        u_src, u_snk = self._dual_potentials(flows)
        return flows, u_src, u_snk

    def _pivot(self, e):
        tail, head, flow = self.tail, self.head, self.flow
        parent, parent_arc, depth = self.parent, self.parent_arc, self.depth
        te, he = tail[e], head[e]

        # climb to the apex; an entry is (arc, traversed forward when flow
        # runs te -> he across e, its child node, the endpoint of e below it)
        up_from_te, up_from_he = [], []
        x, y = he, te
        for _ in range(len(parent)):
            if x == y:
                break
            if depth[x] >= depth[y]:
                a = parent_arc[x]
                up_from_he.append((a, tail[a] == x, x, he))
                x = parent[x]
            else:
                a = parent_arc[y]
                up_from_te.append((a, head[a] == y, y, te))
                y = parent[y]
        else:
            # a tree path has fewer arcs than the tree has nodes
            raise self._failure("pivoting", "basis lost spanning-tree property")

        # walk from the apex down to te, across e, up from he; the last
        # blocking arc leaves, which keeps the tree strongly feasible
        cycle = up_from_te[::-1] + up_from_he
        theta = math.inf
        leaving = cut = inner = -1
        for a, forward, child, end in cycle:
            if not forward and flow[a] <= theta:
                theta, leaving, cut, inner = flow[a], a, child, end
        if leaving < 0:
            raise self._failure("pivoting", "unbounded pivot cycle")

        flow[e] += theta
        for a, forward, _, _ in cycle:
            flow[a] += theta if forward else -theta
        self.in_tree[leaving] = False
        self.in_tree[e] = True
        self._rehang(cut, inner, te + he - inner, e)

    def _rehang(self, cut, inner, outer, e):
        """Hang the subtree below node ``cut`` from ``outer`` by arc ``e``.

        ``inner`` is the endpoint of ``e`` inside that subtree. The parent
        links on the path from ``inner`` up to ``cut`` are reversed, then
        depths and potentials are reset inside the subtree only.
        """
        parent, parent_arc, children = self.parent, self.parent_arc, self.children
        x, new_parent, new_arc = inner, outer, e
        while True:
            old_parent, old_arc = parent[x], parent_arc[x]
            children[old_parent].remove(x)
            parent[x], parent_arc[x] = new_parent, new_arc
            children[new_parent].append(x)
            if x == cut:
                break
            x, new_parent, new_arc = old_parent, x, old_arc

        tail, cost, depth, u = self.tail, self.cost, self.depth, self.u
        stack = [inner]
        for _ in range(len(parent)):
            if not stack:
                break
            x = stack.pop()
            p, a = parent[x], parent_arc[x]
            depth[x] = depth[p] + 1
            # zero reduced cost on tree arcs: u[head] = u[tail] + cost
            u[x] = u[p] + cost[a] if tail[a] == p else u[p] - cost[a]
            stack.extend(children[x])
        else:
            # the root never moves, so a subtree has fewer nodes than the tree
            raise self._failure("pivoting", "basis lost spanning-tree property")

    def _check_tree(self, root):
        """Confirm that every node hangs off the root through basic arcs."""
        tail, head, in_tree = self.tail, self.head, self.in_tree
        parent, parent_arc, depth = self.parent, self.parent_arc, self.depth
        seen = [False] * len(parent)
        seen[root] = True
        stack = [root]
        while stack:
            x = stack.pop()
            for y in self.children[x]:
                a = parent_arc[y]
                if seen[y] or parent[y] != x or depth[y] != depth[x] + 1 \
                        or not in_tree[a] or {tail[a], head[a]} != {x, y}:
                    raise self._failure("final basis", "basis lost spanning-tree property")
                seen[y] = True
                stack.append(y)
        if not all(seen) or int(in_tree.sum()) != len(seen) - 1:
            raise self._failure("final basis", "basis lost spanning-tree property")

    def _dual_potentials(self, flows):
        """Feasible, complementary-slack duals via Bellman-Ford relaxation.

        The tree potentials carry +-big_m, whose rounding swamps the costs
        of a metric at small scale, so the duals are rebuilt from the costs
        and the optimal flow alone: every arc enforces u_snk[j] <= u_src[i]
        + c[i, j], and every support pair also the reverse, forcing equality.
        A round relaxes all arcs into the sinks by one column min, then the
        support pairs back into the sources by one row min.
        """
        m, n = self.m, self.n
        c = self.costs
        rows, cols = np.array(list(flows), dtype=np.intp).reshape(-1, 2).T
        back = -c[rows, cols]

        scale = max(1.0, float(c.max(initial=0.0)))
        tol_relax = 1e-13 * scale
        u_src, u_snk = np.zeros(m), np.zeros(n)
        for _ in range(m + n + 1):
            into_snk = (u_src[:, None] + c).min(axis=0)
            lower_snk = into_snk < u_snk - tol_relax
            u_snk = np.where(lower_snk, into_snk, u_snk)
            into_src = np.full(m, np.inf)
            np.minimum.at(into_src, rows, u_snk[cols] + back)
            lower_src = into_src < u_src - tol_relax
            u_src = np.where(lower_src, into_src, u_src)
            if not (lower_snk.any() or lower_src.any()):
                break
        worst = min(float((u_src[:, None] + c - u_snk).min(initial=0.0)),
                    float((u_snk[cols] + back - u_src[rows]).min(initial=0.0)))
        if worst < -1e-6 * scale:
            raise self._failure("dual extraction", "dual extraction found a negative cycle")
        return u_src, u_snk


def solve_transportation(costs, supplies, demands):
    """Balanced transportation problem; returns (flows, u_src, u_snk).

    ``flows`` maps (source row, sink column) to positive mass; the duals
    satisfy u_snk[j] - u_src[i] <= costs[i, j] with equality on flows.
    """
    return _TransportationSolver(np.asarray(costs, dtype=float),
                                 np.asarray(supplies, dtype=float),
                                 np.asarray(demands, dtype=float)).solve()


def extend_potentials(dist: np.ndarray, src_indices, u_src) -> np.ndarray:
    """McShane extension of source potentials to every point.

    f(x) = min_i (u_src[i] + d(x, src_i)) is 1-Lipschitz for the metric
    and agrees with the optimal duals on every atom that carries flow, so
    it preserves complementary slackness and strong duality.
    """
    n = dist.shape[0]
    if len(src_indices) == 0:
        return np.zeros(n)
    cols = dist[:, list(src_indices)] + np.asarray(u_src, dtype=float)[None, :]
    return cols.min(axis=1)


def kr_norm(space: FiniteMetricSpace, xi: SignedMeasure) -> FlowResult:
    """Kantorovich-Rubinstein norm of a zero-charge measure.

    Returns the exact minimum of sum(d * plan) over plans whose divergence
    is ``xi``, an attaining plan, and 1-Lipschitz node potentials with
    sum(potentials * xi) equal to the cost. Potentials are shifted so the
    lowest-index support point sits at 0.
    """
    if xi.space is not space:
        raise ValueError("measure belongs to a different space instance")
    w = xi.weights
    tv = tv_norm(xi)
    if abs(total_charge(xi)) > CHARGE_REL_TOL * max(1.0, tv):
        raise NonZeroCharge(f"total charge {total_charge(xi)} != 0")

    src_idx = [i for i in range(space.n) if w[i] < 0.0]
    snk_idx = [j for j in range(space.n) if w[j] > 0.0]
    if not src_idx or not snk_idx:
        return FlowResult(0.0, TransportPlan(space, ()), np.zeros(space.n))

    supplies = np.array([-w[i] for i in src_idx])
    demands = np.array([w[j] for j in snk_idx])
    demands *= float(supplies.sum()) / float(demands.sum())
    costs = space.dist[np.ix_(src_idx, snk_idx)]

    flows, u_src, u_snk = solve_transportation(costs, supplies, demands)

    entries = sorted((src_idx[i], snk_idx[j], f) for (i, j), f in flows.items())
    plan = TransportPlan(space, tuple(entries))
    cost = plan_cost(space, plan)

    pot = extend_potentials(space.dist, src_idx, u_src)
    sup = support(xi)
    if sup:
        pot = pot - pot[sup[0]]
    return FlowResult(cost, plan, pot)
