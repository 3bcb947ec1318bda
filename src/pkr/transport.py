"""Exact Kantorovich-Rubinstein transport via a primal network simplex.

Every transport solve in the package is one transshipment through a
virtual node: real pairs cost their distance, and moving mass into or
out of the virtual node (annihilation or creation) costs a weight lam.
The virtual node is split into a source row and a sink column joined by
a zero-cost arc, so the graph is bipartite between the atoms of the
negative part (sources) plus the virtual row and the atoms of the
positive part (sinks) plus the virtual column. By the triangle
inequality this bipartite problem has the same optimum as the
unrestricted divergence-constrained problem, so no relay arcs are
needed. This module owns that graph: ``_Graph`` builds it once per
measure and reads every solved tree of it, whether from one solve at a
fixed lam or from the parametric walk over lam. ``kr_norm`` solves it at
lam = diameter, where annihilating a unit at one atom and creating it at
another costs more than moving it, so only the measure's own charge
passes the virtual node. The simplex prices the arcs off a table of their
costs in which the spanning tree's arcs are priced at +inf, so pricing
never masks them.

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
    """Primal network simplex on the virtual-node graph of one measure.

    Row i < m - 1 is a source, column j < n - 1 a sink, and the last row
    and column are the two halves of the virtual node. Node i is row i and
    node m + j column j; arc k runs from node k // n to node m + k % n.
    ``costs`` prices the real pairs, the arcs into the virtual column or
    out of the virtual row cost ``lam``, the joining arc 0. ``supplies``
    and ``demands`` end with the virtual row's and column's (see
    ``_Graph``): the virtual row supplies more than the real sinks can
    take, so the joining arc always carries flow and both halves of the
    virtual node share one potential.

    The basis is a spanning tree rooted at the virtual column, and the
    parent links are its only record: ``parent`` and ``parent_arc`` by
    node, node depths and per-node child lists. A node's side gives its
    parent arc's direction, up from a row and down into a column. The tree
    starts as the all-annihilation tree (every source into the virtual
    column, the virtual row into every sink, the joining arc), which
    carries flow on every arc and is therefore strongly feasible: every
    zero-flow tree arc points toward the root. A pivot finds the cycle of
    the entering arc by climbing from both endpoints to their common
    ancestor, the apex, which costs the cycle length. It then updates the
    tree in place (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
    ch. 11): the subtree below the leaving arc is detached, the parent
    links on the path from the entering arc's endpoint up to that
    subtree's root are reversed, and the subtree is re-hung on the
    entering arc. Depths and potentials change only inside that subtree.
    They are recomputed there top-down from the new parents, so every
    potential is the same sum along its root path that a walk from the
    root would give, bit for bit.

    The leaving arc follows Cunningham's rule (*Math. Prog.* 11, 1976;
    AMO §11.5): it is the last arc that blocks the step on the cycle
    walked in the entering arc's direction from the apex. The rule keeps
    the tree strongly feasible, which rules out cycling without
    perturbing the supplies, and it sets the leaving arc's flow to
    f - f = 0.0 exactly, so only tree arcs ever carry flow.

    ``lam`` is a number for one fixed weight (``solve``), or 1j for the
    parametric walk over the weight (``walk``): the in-place tree update
    only adds and subtracts arc costs, so with lam = 1j it carries every
    cost and potential as c0 + 1j * c1, whose value at the weight lam is
    c0 + lam * c1, and the lam part stays an exact small integer.

    Pricing reads ``price``, one flat real table of the arc costs in arc
    order, or two for the walk (c0 and c1), with every tree arc priced at
    +inf: a pivot sets the entering arc to +inf and gives the leaving arc
    its cost back. On the (m, n) view of a table, (price + u[row]) -
    u[column] sums cost[k] + u[k // n] - u[m + k % n] in that order for
    every arc k and is +inf on tree arcs, so one argmin over it, in arc
    order, scans the reduced costs with no mask.
    """

    def __init__(self, costs: np.ndarray, supplies: np.ndarray, demands: np.ndarray, lam):
        m, n = costs.shape[0] + 1, costs.shape[1] + 1
        if len(supplies) != m or len(demands) != n:
            raise ValueError("supplies and demands must match the cost rows and columns "
                             "plus the virtual node")
        self.m, self.n, self.lam = m, n, lam
        self.pivots = 0
        self.max_pivots = 200 * (m * n + m + n) + 1000
        cost = np.full((m, n), lam)
        cost[:-1, :-1] = costs
        cost[-1, -1] = 0.0
        self.cost = cost.ravel().tolist()

        flow = np.zeros((m, n))
        flow[:-1, -1] = supplies[:-1]
        flow[-1, :-1] = demands[:-1]
        flow[-1, -1] = supplies[-1] - float(demands[:-1].sum())
        self.flow = flow.ravel().tolist()

        # the virtual column is the root: every source hangs from it, every
        # sink from the virtual row
        vrow, root = m - 1, m + n - 1
        self.parent = [root] * m + [vrow] * (n - 1) + [-1]
        self.parent_arc = list(range(n - 1, m * n, n)) + list(range(vrow * n, m * n - 1)) + [-1]
        self.depth = [1] * m + [2] * (n - 1) + [0]
        self.children = [[] for _ in range(m + n)]
        self.children[vrow] = list(range(m, root))
        self.children[root] = list(range(m))
        parts = (cost.real, cost.imag) if np.iscomplexobj(cost) else (cost,)
        self.price = [np.array(part).ravel() for part in parts]
        for table in self.price:
            table[self.parent_arc[:-1]] = math.inf
        self.u = np.zeros(m + n, dtype=cost.dtype)
        self.u[:vrow] = -lam
        self.u[m:root] = lam

    def _failure(self, stage: str, what: str) -> NumericalFailure:
        return NumericalFailure(f"{what} (stage: {stage}; m={self.m - 1} sources, "
                                f"n={self.n - 1} sinks; {self.pivots} pivots)")

    def solve(self):
        """Pivot to an optimal tree at the fixed weight ``lam``.

        The entering arc has the most negative reduced cost, the lowest
        index on ties; reduced costs above -1e-12 * lam count as zero.
        """
        m, n = self.m, self.n
        price = self.price[0].reshape(m, n)
        u_tail, u_head = self.u[:m, None], self.u[None, m:]
        rc = np.empty((m, n))
        tol = 1e-12 * self.lam
        while True:
            # cost + u[tail] - u[head] by arc, +inf on tree arcs
            np.add(price, u_tail, out=rc)
            np.subtract(rc, u_head, out=rc)
            e = int(rc.argmin())
            if rc.item(e) >= -tol:
                break
            self._step(e, "pivoting")
        self._check_tree()

    def walk(self, lam_max: float):
        """Yield each lam, up to ``lam_max``, where the tree holds a new vertex.

        For lam = 1j, from the all-annihilation tree, optimal up to
        lam = min d / 2. Each step enters the non-tree arc whose reduced
        cost rc0 + lam * rc1 reaches zero first, one already negative first
        of all; Cunningham's rule keeps a breakpoint with many tied pivots
        from cycling (Gass & Saaty, *Naval Res. Logist. Q.* 2, 1955). A
        vertex is yielded after the last pivot at its breakpoint, so the
        tree stays optimal until the next yield. Breakpoints closer than
        1e-12 * lam_max count as one.
        """
        m, n = self.m, self.n
        price0, price1 = (table.reshape(m, n) for table in self.price)
        u0_tail, u0_head = self.u.real[:m, None], self.u.real[None, m:]
        u1_tail, u1_head = self.u.imag[:m, None], self.u.imag[None, m:]
        cross, fall, gate = np.empty((m, n)), np.empty((m, n)), np.empty((m, n))
        tol = 1e-12 * lam_max
        lam, moved = 0.0, True
        while True:
            # the reduced cost is rc0 + lam * rc1: rc0 = cost0 + u0[tail] -
            # u0[head] summed as at a fixed lam, and fall = -rc1, exact in
            # small integers and -inf on tree arcs. An arc with fall >= 1
            # crosses zero at rc0 / fall, every other arc must read +inf, and
            # a masked divide is several times slower than a plain one: gate
            # = (0.5 - fall) * inf is -inf on the first and +inf on the
            # others, so max(rc0, gate) / max(fall, 0.5) is exactly
            # rc0 / fall on the first and +inf / 0.5 on the others
            np.add(price0, u0_tail, out=cross)
            np.subtract(cross, u0_head, out=cross)
            np.subtract(u1_head, u1_tail, out=fall)
            np.subtract(fall, price1, out=fall)
            np.subtract(0.5, fall, out=gate)
            np.multiply(gate, math.inf, out=gate)
            np.maximum(cross, gate, out=cross)
            np.maximum(fall, 0.5, out=fall)
            np.divide(cross, fall, out=cross)
            e = int(cross.argmin())
            lam_e = cross.item(e)
            if lam_e > lam + tol:
                if moved:
                    yield lam
                    moved = False
                if lam_e > lam_max:
                    break
                lam = lam_e
            self._step(e, "frontier walk")
            # the entering arc now carries the step length
            moved = moved or self.flow[e] > 0.0
        self._check_tree()

    def read(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The arcs that carry flow, in arc order, their flows, and the
        source rows' potentials relative to the virtual node.

        Only the m + n - 1 tree arcs are read: an arc leaves the tree with
        exactly 0.0 and enters with it.
        """
        flow = self.flow
        arcs = [a for a in sorted(self.parent_arc[:-1]) if flow[a] > 0.0]
        return (np.array(arcs, dtype=np.intp), np.array([flow[a] for a in arcs]),
                self.u[:self.m - 1].copy())

    def _step(self, e, stage):
        if self.pivots == self.max_pivots:
            raise self._failure(stage, "network simplex pivot cap exceeded")
        self._pivot(e)
        self.pivots += 1

    def _pivot(self, e):
        m, flow = self.m, self.flow
        parent, parent_arc, depth = self.parent, self.parent_arc, self.depth
        te, he = e // self.n, m + e % self.n

        # climb from both ends of e to the apex; flow runs te -> he across
        # e, so the parent arcs that run against it, and lose the step, are
        # a row's (up from it) on the te side and a column's on the he side
        te_side, he_side = [], []
        x, y = he, te
        for _ in range(len(parent)):
            if x == y:
                break
            if depth[x] >= depth[y]:
                he_side.append(x)
                x = parent[x]
            else:
                te_side.append(y)
                y = parent[y]
        else:
            # a tree path has fewer arcs than the tree has nodes
            raise self._failure("pivoting", "basis lost spanning-tree property")

        # walk from the apex down to te, across e, up from he; the last
        # blocking arc leaves, which keeps the tree strongly feasible
        theta, cut, inner = math.inf, -1, -1
        for y in reversed(te_side):
            if y < m and flow[parent_arc[y]] <= theta:
                theta, cut, inner = flow[parent_arc[y]], y, te
        for x in he_side:
            if x >= m and flow[parent_arc[x]] <= theta:
                theta, cut, inner = flow[parent_arc[x]], x, he
        if cut < 0:
            raise self._failure("pivoting", "unbounded pivot cycle")

        flow[e] += theta
        for y in te_side:
            flow[parent_arc[y]] += -theta if y < m else theta
        for x in he_side:
            flow[parent_arc[x]] += -theta if x >= m else theta
        # the leaving arc gets its cost back (a float's .real is itself)
        leaving = parent_arc[cut]
        c = self.cost[leaving]
        for table, part in zip(self.price, (c.real, c.imag)):
            table[leaving], table[e] = part, math.inf
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

        m, cost, depth, u = self.m, self.cost, self.depth, self.u
        stack = [inner]
        for _ in range(len(parent)):
            if not stack:
                break
            x = stack.pop()
            p, a = parent[x], parent_arc[x]
            depth[x] = depth[p] + 1
            # zero reduced cost on tree arcs; a column's parent arc runs into it
            u[x] = u[p] + cost[a] if x >= m else u[p] - cost[a]
            stack.extend(children[x])
        else:
            # the root never moves, so a subtree has fewer nodes than the tree
            raise self._failure("pivoting", "basis lost spanning-tree property")

    def _check_tree(self):
        """Confirm that every node hangs off the root by an arc joining it to
        its parent, and that the pricing tables are +inf on those arcs only."""
        m, n = self.m, self.n
        root = m + n - 1
        parent, parent_arc, depth = self.parent, self.parent_arc, self.depth
        seen = [False] * len(parent)
        seen[root] = True
        stack = [root]
        while stack:
            x = stack.pop()
            for y in self.children[x]:
                a = parent_arc[y]
                if seen[y] or parent[y] != x or depth[y] != depth[x] + 1 \
                        or {a // n, m + a % n} != {x, y}:
                    raise self._failure("final basis", "basis lost spanning-tree property")
                seen[y] = True
                stack.append(y)
        tree_arcs = sorted(parent_arc[:-1])
        if not all(seen) or any(np.flatnonzero(table == math.inf).tolist() != tree_arcs
                                for table in self.price):
            raise self._failure("final basis", "basis lost spanning-tree property")


@dataclass(frozen=True)
class _Graph:
    """The virtual-node graph of one measure mu, built once and read by
    every solve of it.

    Sources are the atoms of mu's negative part, sinks those of its
    positive part, each in index order; ``costs`` holds their distances.
    The virtual row supplies TV(mu) + max(charge, 0) and the virtual
    column takes TV(mu) + max(-charge, 0). This is the one place that
    decides where the charge of mu goes, its rounding included: all of it
    passes the virtual node, priced at the weight of the solve like any
    annihilated or created mass, and ``sign`` is its sign, 0 when
    |charge| <= CHARGE_REL_TOL * TV(mu). By arc of the (sources + 1) x
    (sinks + 1) graph, ``arc_dist`` is the distance of a real pair (0 on
    the virtual arcs) and ``resid_arc`` marks the arcs that annihilate or
    create mass.
    """

    mu: SignedMeasure
    src: np.ndarray
    snk: np.ndarray
    costs: np.ndarray
    supplies: np.ndarray
    demands: np.ndarray
    tv: float
    charge: float
    sign: float
    arc_dist: np.ndarray
    resid_arc: np.ndarray

    @classmethod
    def of(cls, mu: SignedMeasure) -> _Graph:
        w = mu.weights
        src, snk = np.flatnonzero(w < 0.0), np.flatnonzero(w > 0.0)
        m, n = len(src), len(snk)
        tv, charge = tv_norm(mu), total_charge(mu)
        sign = 0.0 if abs(charge) <= CHARGE_REL_TOL * tv else math.copysign(1.0, charge)
        costs = mu.space.dist[src][:, snk]
        arc_dist = np.zeros((m + 1, n + 1))
        arc_dist[:m, :n] = costs
        resid_arc = np.zeros((m + 1, n + 1), dtype=bool)
        resid_arc[:m, n] = resid_arc[m, :n] = True
        return cls(mu, src, snk, costs,
                   np.concatenate((-w[src], [tv + max(charge, 0.0)])),
                   np.concatenate((w[snk], [tv + max(-charge, 0.0)])),
                   tv, charge, sign, arc_dist.ravel(), resid_arc.ravel())

    def ab(self, arcs: np.ndarray, mass: np.ndarray) -> tuple[float, float]:
        """The transport cost a of a solve's flows, summed as ``plan_cost``
        sums it, and the annihilated and created mass b."""
        return (math.fsum((mass * self.arc_dist[arcs]).tolist()),
                math.fsum(mass[self.resid_arc[arcs]].tolist()))

    def plan_and_residual(self, arcs: np.ndarray, mass: np.ndarray):
        """The transport plan and the residual mu - xi of a solve's flows.

        The flows on real pairs make up the plan; those out of a source into
        the virtual column (annihilation) or from the virtual row into a sink
        (creation) make up the residual.
        """
        m, n = len(self.src), len(self.snk)
        rows, cols = np.divmod(arcs, n + 1)
        real = (rows < m) & (cols < n)
        # from a list, not an iterator: CPython then sizes the tuple exactly and
        # reuses freed tuples instead of filling up the free list of each length
        entries = list(zip(self.src[rows[real]].tolist(), self.snk[cols[real]].tolist(),
                           mass[real].tolist()))
        plan = TransportPlan(self.mu.space, tuple(entries))
        resid = np.zeros(self.mu.space.n)
        out, into = (rows < m) & (cols == n), (rows == m) & (cols < n)
        resid[self.src[rows[out]]] = -mass[out]
        resid[self.snk[cols[into]]] = mass[into]
        return plan, resid

    def potentials(self, u_src: np.ndarray, cap: float) -> np.ndarray:
        """McShane extension of the source rows' potentials, capped at ``cap``.

        It is 1-Lipschitz and equals the optimal duals (relative to the
        virtual node) on every atom that carries flow.
        """
        return (self.mu.space.dist[:, self.src] + u_src).min(axis=1, initial=cap)


def solve_transportation(costs, supplies, demands, lam):
    """Min-cost flow on the virtual-node graph at the weight ``lam``.

    ``costs`` prices the real pairs (sources x sinks); ``supplies`` and
    ``demands`` are arrays that end with the virtual node's, as ``_Graph``
    builds them. Returns the arcs of the (sources + 1) x (sinks + 1) graph
    that carry flow, in arc order, their flows, and the source rows'
    potentials relative to the virtual node: every arc's head potential
    exceeds its tail's by at most its cost, with equality on arcs that
    carry flow.
    """
    solver = _TransportationSolver(np.asarray(costs, dtype=float), supplies, demands, float(lam))
    solver.solve()
    return solver.read()


def kr_norm(space: FiniteMetricSpace, xi: SignedMeasure) -> FlowResult:
    """Kantorovich-Rubinstein norm of a zero-charge measure.

    Returns the exact minimum of sum(d * plan) over plans whose divergence
    is ``xi``, an attaining plan, and 1-Lipschitz node potentials with
    sum(potentials * xi) equal to the cost. Potentials are shifted so the
    lowest-index support point sits at 0. The rounding charge of ``xi``
    is not transported (see ``_Graph``); a charge above CHARGE_REL_TOL
    times TV(xi), the graph's nonzero ``sign``, raises NonZeroCharge.
    """
    if xi.space is not space:
        raise ValueError("measure belongs to a different space instance")
    graph = _Graph.of(xi)
    if graph.sign != 0.0:
        raise NonZeroCharge(f"total charge {graph.charge} != 0")
    if not len(graph.src) or not len(graph.snk):
        return FlowResult(0.0, TransportPlan(space, ()), np.zeros(space.n))
    arcs, mass, u_src = solve_transportation(graph.costs, graph.supplies,
                                             graph.demands, space.diameter)
    plan, _ = graph.plan_and_residual(arcs, mass)
    pot = graph.potentials(u_src, math.inf)
    sup = support(xi)
    if sup:
        pot = pot - pot[sup[0]]
    return FlowResult(graph.ab(arcs, mass)[0], plan, pot)
