import math

import numpy as np
import pytest

from conftest import random_measure, shortest_path_space, wide_weights, zero_charge_measure
from pkr.certify import check_optimality
from pkr.errors import NonZeroCharge, NumericalFailure
from pkr.oracle import RationalMeasure, oracle_kr
from pkr.pknorm import pk_norm, scalarized_min, trace_frontier
from pkr.space import SignedMeasure, dirac, tv_norm, validate_space
from pkr.transport import (
    FlowResult,
    TransportPlan,
    _Graph,
    _TransportationSolver,
    kr_norm,
    plan_cost,
    plan_divergence,
    solve_transportation,
)


class TestPlanOps:
    def test_empty_plan(self, two_point):
        plan = TransportPlan(two_point, ())
        assert plan_cost(two_point, plan) == 0.0
        assert list(plan_divergence(two_point, plan).weights) == [0.0, 0.0]

    def test_single_entry(self, two_point):
        plan = TransportPlan(two_point, ((1, 0, 1.0),))
        assert plan_cost(two_point, plan) == 1.0
        assert list(plan_divergence(two_point, plan).weights) == [1.0, -1.0]

    def test_negative_mass_rejected(self, two_point):
        with pytest.raises(ValueError):
            TransportPlan(two_point, ((0, 1, -0.5),))


class TestKrNorm:
    def test_two_point_dipole(self, two_point):
        res = kr_norm(two_point, dirac(two_point, 0, 1) - dirac(two_point, 1, 1))
        assert res.cost == pytest.approx(1.0)

    def test_line_endpoints(self, line3):
        xi = dirac(line3, 0, 1) - dirac(line3, 2, 1)
        res = kr_norm(line3, xi)
        assert res.cost == pytest.approx(2.0)
        assert res.plan.entries == ((2, 0, 1.0),)
        div = plan_divergence(line3, res.plan)
        assert np.allclose(div.weights, xi.weights)

    def test_line_split(self, line3):
        xi = SignedMeasure(line3, np.array([1.0, -2.0, 1.0]))
        res = kr_norm(line3, xi)
        assert res.cost == pytest.approx(2.0)
        assert res.plan.entries == ((1, 0, 1.0), (1, 2, 1.0))

    def test_zero_measure(self, line3):
        res = kr_norm(line3, SignedMeasure(line3, np.zeros(3)))
        assert res.cost == 0.0 and res.plan.entries == ()

    def test_nonzero_charge_rejected(self, two_point):
        with pytest.raises(NonZeroCharge):
            kr_norm(two_point, dirac(two_point, 0, 1.0))

    @pytest.mark.parametrize("mass", [1e-12, -1e-12, 1e-6, -1e-6, 1.0, -1.0])
    def test_point_mass_rejected_at_any_weight(self, line3, mass):
        # all of a point mass is charge, however small its weight is next to
        # 1; zero-charge measures at weight scales 1e-8 and 1e8 stay accepted
        # (TestScaleRobustness)
        with pytest.raises(NonZeroCharge):
            kr_norm(line3, dirac(line3, 1, mass))

    def test_potentials_normalized_at_lowest_support(self, line3):
        xi = dirac(line3, 0, 1) - dirac(line3, 2, 1)
        res = kr_norm(line3, xi)
        assert res.potentials[0] == 0.0


def _check_flow_result(space, xi, res, atol=1e-9):
    div = plan_divergence(space, res.plan)
    assert np.allclose(div.weights, xi.weights, atol=atol * max(1, tv_norm(xi)))
    u = res.potentials
    for i in range(space.n):
        for j in range(space.n):
            if i != j:
                assert abs(u[i] - u[j]) <= space.dist[i, j] + atol
    for i, j, m in res.plan.entries:
        if m > atol:
            assert u[j] - u[i] == pytest.approx(space.dist[i, j], abs=atol)
    assert float(u @ xi.weights) == pytest.approx(res.cost, rel=1e-9, abs=1e-9)


class TestKrInvariants:
    def test_sign_flip_and_homogeneity(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            sp = shortest_path_space(rng, int(rng.integers(2, 10)))
            xi = zero_charge_measure(rng, sp)
            c = float(rng.uniform(0.1, 4.0))
            base = kr_norm(sp, xi).cost
            assert kr_norm(sp, -xi).cost == pytest.approx(base, rel=1e-9, abs=1e-12)
            assert kr_norm(sp, c * xi).cost == pytest.approx(c * base, rel=1e-9, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            sp = shortest_path_space(rng, int(rng.integers(2, 9)))
            xi, eta = zero_charge_measure(rng, sp), zero_charge_measure(rng, sp)
            assert kr_norm(sp, xi + eta).cost <= \
                kr_norm(sp, xi).cost + kr_norm(sp, eta).cost + 1e-9

    def test_diameter_bound_and_witness_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            sp = shortest_path_space(rng, int(rng.integers(2, 9)))
            xi = zero_charge_measure(rng, sp)
            res = kr_norm(sp, xi)
            assert res.cost <= sp.diameter / 2.0 * tv_norm(xi) + 1e-9
            assert res.cost >= abs(float(res.potentials @ xi.weights)) - 1e-9

    def test_potentials_certify(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            sp = shortest_path_space(rng, int(rng.integers(2, 11)))
            xi = zero_charge_measure(rng, sp)
            _check_flow_result(sp, xi, kr_norm(sp, xi))

    def test_matches_oracle_on_rational_instances(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            sp = shortest_path_space(rng, int(rng.integers(2, 7)))
            while True:
                nums = rng.integers(-2, 3, sp.n)
                if nums.sum() == 0 and 0 < np.abs(nums).sum() <= 8:
                    break
            rm = RationalMeasure(sp, tuple(int(x) for x in nums),
                                 int(rng.integers(1, 101)))
            assert kr_norm(sp, rm.to_measure()).cost == pytest.approx(
                oracle_kr(sp, rm), abs=1e-9)

    def test_replayed_divergence(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            sp = shortest_path_space(rng, int(rng.integers(2, 9)))
            xi = zero_charge_measure(rng, sp)
            res = kr_norm(sp, xi)
            assert plan_cost(sp, res.plan) == pytest.approx(res.cost)
            replay = plan_divergence(sp, res.plan)
            assert tv_norm(replay - xi) <= 1e-9 * max(1.0, tv_norm(xi))


def _price_off_tree_arc(solver):
    """Price the first arc off the tree at +inf, as if it were basic."""
    a = min(set(range(solver.m * solver.n)) - set(solver.parent_arc))
    for table in solver.price:
        table[a] = math.inf


def _swap_parent_arcs(solver):
    """Give the first source the first sink's parent arc and vice versa: the
    tree arcs stay the same set, but neither joins its node to its parent."""
    arcs = solver.parent_arc
    arcs[0], arcs[solver.m] = arcs[solver.m], arcs[0]


class TestSolverFailures:
    @pytest.mark.parametrize("corrupt", [_price_off_tree_arc, _swap_parent_arcs])
    def test_failure_names_stage_sizes_and_pivots(self, corrupt, monkeypatch):
        check_tree = _TransportationSolver._check_tree

        def corrupting_check(solver):
            # after the last pivot: the final spanning-tree check must catch it
            corrupt(solver)
            check_tree(solver)

        monkeypatch.setattr(_TransportationSolver, "_check_tree", corrupting_check)
        sp = _integer_line(5)
        xi = SignedMeasure(sp, np.array([2.0, -1.0, -1.0, 1.0, -1.0]))
        with pytest.raises(NumericalFailure,
                           match=r"stage: final basis; m=3 sources, n=2 sinks; 4 pivots"):
            kr_norm(sp, xi)

    def test_supplies_must_match_the_graph(self):
        with pytest.raises(ValueError):
            solve_transportation(np.array([[1.0, 2.0]]), np.array([1.0]),
                                 np.array([1.0, 1.0]), 1.0)


class TestGraph:
    def test_costs_match_the_outer_index(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 7, 40, 300):
            sp = shortest_path_space(rng, n)
            for _ in range(5):
                graph = _Graph.of(SignedMeasure(sp, wide_weights(rng, n)))
                outer = sp.dist[np.ix_(graph.src, graph.snk)]
                assert graph.costs.shape == outer.shape
                assert graph.costs.tobytes() == outer.tobytes()


class TestKrBeyondOracleCap:
    """Certificates at sizes the brute-force oracles (ATOM_CAP) cannot reach."""

    @pytest.mark.parametrize("n", [40, 80, 200])
    def test_kr_certified_at_scale(self, n):
        rng = np.random.default_rng(100 + n)
        sp = shortest_path_space(rng, n)
        xi = zero_charge_measure(rng, sp)
        _check_flow_result(sp, xi, kr_norm(sp, xi))

    def test_pk_certified_at_n30(self):
        rng = np.random.default_rng(130)
        sp = shortest_path_space(rng, 30)
        mu = random_measure(rng, sp)
        sol = pk_norm(sp, mu, 2.0)
        cert = check_optimality(sp, mu, sol.xi, sol.plan, sol.dual_f, 2.0)
        assert cert.passed
        assert cert.value == pytest.approx(sol.value, rel=1e-9)


def _integer_line(n):
    return validate_space([f"x{i}" for i in range(n)],
                          np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float))


def _hamming_cube(bits):
    codes = np.arange(2 ** bits)
    d = np.array([[bin(a ^ b).count("1") for b in codes] for a in codes], dtype=float)
    return validate_space([format(c, f"0{bits}b") for c in codes], d)


def _integer_zero_charge(rng, n):
    """Full-support integer weights with total charge exactly zero."""
    w = rng.integers(1, 6, n) * rng.choice([-1, 1], n)
    w[0], w[1] = abs(w[0]), -abs(w[1])
    # move the excess onto an entry of the opposite sign, which cannot vanish
    excess = w.sum()
    w[1 if excess > 0 else 0] -= excess
    return w.astype(float)


def _rebuilt_tree(solver):
    """Parent links, depths and potentials walked from the root afresh, over
    the arcs that the pricing tables mark basic with +inf."""
    num_nodes = len(solver.parent)
    root = num_nodes - 1
    adj = [[] for _ in range(num_nodes)]
    for a in np.flatnonzero(solver.price[0] == math.inf).tolist():
        t, h = a // solver.n, solver.m + a % solver.n
        adj[t].append((h, a))
        adj[h].append((t, a))
    parent, parent_arc = [-1] * num_nodes, [-1] * num_nodes
    depth, u = [0] * num_nodes, [0.0] * num_nodes
    seen, stack = {root}, [root]
    while stack:
        x = stack.pop()
        for y, a in adj[x]:
            if y not in seen:
                seen.add(y)
                parent[y], parent_arc[y], depth[y] = x, a, depth[x] + 1
                c = solver.cost[a]
                u[y] = u[x] + c if a // solver.n == x else u[x] - c
                stack.append(y)
    assert len(seen) == num_nodes
    return parent, parent_arc, depth, u


class TestTieHeavyMetrics:
    """Integer metrics with integer weights: many ties and degenerate pivots."""

    SPACES = {"line25": lambda: _integer_line(25), "cube16": lambda: _hamming_cube(4)}

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_certified_and_invariant(self, name):
        sp = self.SPACES[name]()
        rng = np.random.default_rng(sorted(self.SPACES).index(name))
        for _ in range(6):
            xi = SignedMeasure(sp, _integer_zero_charge(rng, sp.n))
            res = kr_norm(sp, xi)
            _check_flow_result(sp, xi, res)
            assert res.cost == pytest.approx(round(res.cost), abs=1e-9)
            assert kr_norm(sp, -xi).cost == pytest.approx(res.cost, rel=1e-12)
            for c in (0.25, 3.0, 1e6):
                assert kr_norm(sp, c * xi).cost == pytest.approx(c * res.cost, rel=1e-9)

    def test_line_closed_form(self):
        sp = _integer_line(25)
        rng = np.random.default_rng(25)
        for _ in range(6):
            w = _integer_zero_charge(rng, sp.n)
            # on a unit-spaced line KR is the l1 norm of the cumulative charge
            expected = float(np.abs(np.cumsum(w)[:-1]).sum())
            assert kr_norm(sp, SignedMeasure(sp, w)).cost == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_tree_matches_rebuild_after_every_pivot(self, name, monkeypatch):
        sp = self.SPACES[name]()
        rng = np.random.default_rng(50 + sorted(self.SPACES).index(name))
        pivot = _TransportationSolver._pivot
        counts = {"pivots": 0, "degenerate": 0}

        def checked_pivot(solver, e):
            pivot(solver, e)
            # e entered with zero flow, so its flow now is the step length
            counts["pivots"] += 1
            counts["degenerate"] += solver.flow[e] < 1e-9
            parent, parent_arc, depth, u = _rebuilt_tree(solver)
            assert solver.parent == parent and solver.parent_arc == parent_arc
            assert solver.depth == depth
            assert solver.u.tolist() == u
            for x, kids in enumerate(solver.children):
                assert sorted(kids) == [y for y in range(len(parent)) if parent[y] == x]

        monkeypatch.setattr(_TransportationSolver, "_pivot", checked_pivot)
        for _ in range(3):
            xi = SignedMeasure(sp, _integer_zero_charge(rng, sp.n))
            _check_flow_result(sp, xi, kr_norm(sp, xi))
        assert counts["degenerate"] > 0 and counts["pivots"] > counts["degenerate"]


def _reference_pricing(solver):
    """The entering arc and the reduced costs by the gather-and-mask pricing
    that the pricing tables replaced: u[tail] and u[head] gathered over
    every arc, tree arcs (the ``parent_arc`` entries) masked to 0 at a fixed
    lam and left out of the walk's crossings."""
    k = np.arange(solver.m * solver.n)
    tail, head = k // solver.n, solver.m + k % solver.n
    rc = np.array(solver.cost) + solver.u[tail] - solver.u[head]
    in_tree = _tree_mask(solver)
    if solver.lam != 1j:
        masked = rc.copy()
        masked[in_tree] = 0.0
        return int(np.argmin(masked)), rc
    ready = (rc.imag < 0.0) & ~in_tree
    assert ready.any()
    cross = np.full(len(tail), math.inf)
    cross[ready] = rc.real[ready] / -rc.imag[ready]
    return int(np.argmin(cross)), rc


def _tree_mask(solver):
    """By arc, whether some node's parent link is that arc."""
    in_tree = np.zeros(solver.m * solver.n, dtype=bool)
    in_tree[solver.parent_arc[:-1]] = True
    return in_tree


def _table_reduced_costs(solver):
    """cost + u[tail] - u[head] from the pricing tables, one per cost part."""
    m, n = solver.m, solver.n
    parts = (solver.u.real, solver.u.imag)
    return [((table.reshape(m, n) + u[:m, None]) - u[None, m:]).ravel()
            for table, u in zip(solver.price, parts)]


PRICING_CASES = {
    "line25": lambda: _reader_case("line25"),
    "cube16": lambda: _reader_case("cube16"),
    "sp40": lambda: _reader_case((40, 1.0, 1.0)),
    "sp120": lambda: _reader_case((120, 1.0, 1.0)),
}


class TestPricingTables:
    """Pricing off the tables, tree arcs at +inf, enters the arc that the
    gathered and masked pricing enters, from the same reduced costs."""

    @pytest.mark.parametrize("name", list(PRICING_CASES))
    def test_same_entering_arc_at_every_pivot(self, name, monkeypatch):
        sp, xi, mu = PRICING_CASES[name]()
        pivot = _TransportationSolver._pivot
        counts = {"solve": 0, "walk": 0}

        def checked_pivot(solver, e):
            entering, rc = _reference_pricing(solver)
            assert e == entering
            tables = _table_reduced_costs(solver)
            in_tree = _tree_mask(solver)
            off = ~in_tree
            assert tables[0][off].tobytes() == rc.real[off].tobytes()
            if solver.lam == 1j:
                assert tables[1][off].tobytes() == rc.imag[off].tobytes()
            for table in solver.price:
                assert np.array_equal(table == math.inf, in_tree)
            counts["walk" if solver.lam == 1j else "solve"] += 1
            pivot(solver, e)

        monkeypatch.setattr(_TransportationSolver, "_pivot", checked_pivot)
        kr_norm(sp, xi)
        scalarized_min(sp, mu, sp.diameter / 4.0)
        trace_frontier(sp, mu)
        assert counts["solve"] > 0 and counts["walk"] > 0


def _reference_pivot(solver, e):
    """The leaving arc and the flows after entering ``e``, by the leaving
    rule that the node-list cycle replaced: climb to the apex collecting
    (arc, traversed forward) entries, join the tail side reversed to the head
    side, and take the last backward arc of least flow (Cunningham's rule).
    Also returns how many backward arcs tie at that flow."""
    m, n, flow = solver.m, solver.n, list(solver.flow)
    parent, parent_arc, depth = solver.parent, solver.parent_arc, solver.depth
    te, he = e // n, m + e % n
    up_from_te, up_from_he = [], []
    x, y = he, te
    while x != y:
        if depth[x] >= depth[y]:
            a = parent_arc[x]
            up_from_he.append((a, a // n == x))
            x = parent[x]
        else:
            a = parent_arc[y]
            up_from_te.append((a, m + a % n == y))
            y = parent[y]
    cycle = up_from_te[::-1] + up_from_he
    theta, leaving = math.inf, -1
    for a, forward in cycle:
        if not forward and flow[a] <= theta:
            theta, leaving = flow[a], a
    ties = sum(not forward and flow[a] == theta for a, forward in cycle)
    flow[e] += theta
    for a, forward in cycle:
        flow[a] += theta if forward else -theta
    return leaving, flow, ties


class TestLeavingRule:
    """The pivot cycle as two node lists leaves the arc, and the flows, that
    the per-arc 4-tuple cycle left, ties among blocking arcs included."""

    @pytest.mark.parametrize("name", ["line25", "cube16", "sp40"])
    def test_same_leaving_arc_and_flows_at_every_pivot(self, name, monkeypatch):
        sp, xi, mu = PRICING_CASES[name]()
        pivot = _TransportationSolver._pivot
        counts = {"pivots": 0, "tied": 0}

        def checked_pivot(solver, e):
            leaving, flow, ties = _reference_pivot(solver, e)
            before = set(solver.parent_arc)
            pivot(solver, e)
            assert before - set(solver.parent_arc) == {leaving}
            assert solver.flow == flow
            counts["pivots"] += 1
            counts["tied"] += ties > 1

        monkeypatch.setattr(_TransportationSolver, "_pivot", checked_pivot)
        kr_norm(sp, xi)
        scalarized_min(sp, mu, sp.diameter / 4.0)
        trace_frontier(sp, mu)
        assert counts["pivots"] > 0
        if name != "sp40":
            assert counts["tied"] > 0


def _kr_linprog(space, xi):
    """KR norm as an LP over every ordered pair, solved by HiGHS."""
    optimize = pytest.importorskip("scipy.optimize")
    n = space.n
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    a_eq = np.zeros((n, len(pairs)))
    for k, (i, j) in enumerate(pairs):
        a_eq[j, k] += 1.0
        a_eq[i, k] -= 1.0
    c = np.array([space.dist[i, j] for i, j in pairs])
    # one balance row is redundant for a zero-charge measure
    res = optimize.linprog(c, A_eq=a_eq[:-1], b_eq=xi.weights[:-1],
                           bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


class TestKrAgainstLinprog:
    @pytest.mark.parametrize("n", [5, 20, 40, 60, 120])
    def test_costs_agree(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(3):
            sp = shortest_path_space(rng, n)
            xi = zero_charge_measure(rng, sp)
            lp = _kr_linprog(sp, xi)
            assert kr_norm(sp, xi).cost == pytest.approx(lp, rel=1e-9)


def _random_tree(rng, n, path, integer):
    """Parent links (parent[v] < v, the root 0 has none) and edge lengths,
    ``length[v]`` for the edge from v to its parent."""
    parent = np.arange(-1, n - 1) if path else np.array(
        [-1] + [int(rng.integers(0, v)) for v in range(1, n)])
    length = (rng.integers(1, 6, n) if integer else rng.uniform(0.1, 1.0, n)).astype(float)
    return parent, length


def _tree_metric(parent, length):
    """Path lengths: a node's distance to every earlier node runs through its
    parent, since each subtree holds only later nodes."""
    n = len(parent)
    d = np.zeros((n, n))
    for v in range(1, n):
        d[v, :v] = d[parent[v], :v] + length[v]
        d[:v, v] = d[v, :v]
    return d


def _tree_kr(parent, length, w):
    """KR on a tree: the sum over edges of length times |net mass below|."""
    below = np.array(w, dtype=float)
    for v in range(len(parent) - 1, 0, -1):
        below[parent[v]] += below[v]
    return math.fsum(length[v] * abs(below[v]) for v in range(1, len(parent)))


class TestKrOnTrees:
    """The closed form of KR on a weighted tree (Evans & Matsen, JRSS B 74,
    2012): an oracle at sizes neither brute force nor linprog reaches."""

    @pytest.mark.parametrize("n", [50, 200, 300])
    @pytest.mark.parametrize("path", [False, True], ids=["tree", "path"])
    @pytest.mark.parametrize("integer", [False, True], ids=["uniform", "integer"])
    def test_kr_matches_edge_sum(self, n, path, integer):
        rng = np.random.default_rng(400 + n + 2 * path + integer)
        parent, length = _random_tree(rng, n, path, integer)
        # relabel so that the path and tree orders are not the index order
        perm = rng.permutation(n)
        d = _tree_metric(parent, length)[np.ix_(perm, perm)]
        sp = validate_space([f"t{v}" for v in perm], d)
        w = rng.uniform(-1.0, 1.0, n)
        w -= w.mean()
        cost = kr_norm(sp, SignedMeasure(sp, w[perm])).cost
        assert cost == pytest.approx(_tree_kr(parent, length, w), rel=1e-12)


def _zero_flow_arcs_point_to_root(solver):
    """Count the zero-flow tree arcs; each must run from child to parent."""
    count = 0
    for x, a in enumerate(solver.parent_arc):
        if a >= 0 and solver.flow[a] == 0.0:
            assert a // solver.n == x, f"zero-flow arc {a} points away from the root"
            count += 1
    return count


class TestStronglyFeasibleTree:
    """Cunningham's leaving rule keeps every zero-flow tree arc pointing
    toward the root, which is what rules out cycling without perturbation."""

    SPACES = {"line25": lambda: _integer_line(25), "line40": lambda: _integer_line(40),
              "cube16": lambda: _hamming_cube(4)}

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_strongly_feasible_after_every_pivot(self, name, monkeypatch):
        sp = self.SPACES[name]()
        rng = np.random.default_rng(70 + sorted(self.SPACES).index(name))
        pivot = _TransportationSolver._pivot
        counts = {"pivots": 0, "zero_flow_arcs": 0}

        def checked_pivot(solver, e):
            pivot(solver, e)
            counts["pivots"] += 1
            counts["zero_flow_arcs"] += _zero_flow_arcs_point_to_root(solver)

        monkeypatch.setattr(_TransportationSolver, "_pivot", checked_pivot)
        for _ in range(2):
            xi = SignedMeasure(sp, _integer_zero_charge(rng, sp.n))
            _check_flow_result(sp, xi, kr_norm(sp, xi))
            mu = SignedMeasure(sp, rng.integers(-5, 6, sp.n).astype(float))
            for p in (1.0, 2.0, math.inf):
                sol = pk_norm(sp, mu, p)
                assert check_optimality(sp, mu, sol.xi, sol.plan, sol.dual_f, p).passed
        assert counts["pivots"] > 0 and counts["zero_flow_arcs"] > 0


class TestPivotBudget:
    def test_kr_pivots_linear_in_nodes(self, monkeypatch):
        # the pivot count does not depend on the machine; lowest-index
        # pricing took 3259 pivots on this instance
        rng = np.random.default_rng(180)
        sp = shortest_path_space(rng, 80)
        xi = zero_charge_measure(rng, sp)
        solve = _TransportationSolver.solve
        solvers = []

        def recording_solve(solver):
            solvers.append(solver)
            return solve(solver)

        monkeypatch.setattr(_TransportationSolver, "solve", recording_solve)
        _check_flow_result(sp, xi, kr_norm(sp, xi))
        (solver,) = solvers
        assert solver.pivots <= 10 * (solver.m + solver.n)


class TestScaleRobustness:
    """Metric and weight scales far from 1 must not cost precision."""

    SCALES = (1e-8, 1.0, 1e8)

    @pytest.mark.parametrize("n", [12, 40])
    def test_certified_at_every_scale(self, n):
        rng = np.random.default_rng(300 + n)
        base = shortest_path_space(rng, n)
        xi0, mu0 = zero_charge_measure(rng, base), random_measure(rng, base)
        for metric_scale in self.SCALES:
            sp = validate_space(list(base.labels), metric_scale * base.dist)
            for weight_scale in self.SCALES:
                xi = SignedMeasure(sp, weight_scale * xi0.weights)
                res = kr_norm(sp, xi)
                # _check_flow_result's tolerances are absolute, so certify
                # the result mapped back to unit scale: then they are relative
                plan = TransportPlan(base, tuple((i, j, m / weight_scale)
                                                 for i, j, m in res.plan.entries))
                _check_flow_result(base, xi0, FlowResult(
                    res.cost / (metric_scale * weight_scale), plan,
                    res.potentials / metric_scale))
                mu = SignedMeasure(sp, weight_scale * mu0.weights)
                for p in (1.0, 2.0, math.inf):
                    sol = pk_norm(sp, mu, p)
                    assert check_optimality(sp, mu, sol.xi, sol.plan, sol.dual_f, p).passed


def _reader_case(name):
    """A space, a zero-charge measure and a measure with charge on it."""
    if name in ("line25", "cube16"):
        sp = _integer_line(25) if name == "line25" else _hamming_cube(4)
        rng = np.random.default_rng(sp.n)
        return (sp, SignedMeasure(sp, _integer_zero_charge(rng, sp.n)),
                SignedMeasure(sp, rng.integers(-5, 6, sp.n).astype(float)))
    n, metric_scale, weight_scale = name
    rng = np.random.default_rng(300 + n)
    base = shortest_path_space(rng, n)
    xi0, mu0 = zero_charge_measure(rng, base), random_measure(rng, base)
    sp = validate_space(list(base.labels), metric_scale * base.dist)
    return (sp, SignedMeasure(sp, weight_scale * xi0.weights),
            SignedMeasure(sp, weight_scale * mu0.weights))


class TestSharedReader:
    """kr_norm and every frontier vertex read a solved tree the same way,
    so their transport cost is their plan's cost, bit for bit."""

    @pytest.mark.parametrize("name", [
        pytest.param((n, ms, ws), id=f"n{n}-metric{ms:g}-weight{ws:g}")
        for n in (12, 40) for ms in TestScaleRobustness.SCALES
        for ws in TestScaleRobustness.SCALES] + ["line25", "cube16"])
    def test_cost_is_plan_cost(self, name):
        sp, xi, mu = _reader_case(name)
        res = kr_norm(sp, xi)
        assert res.cost == plan_cost(sp, res.plan)
        for measure in (xi, mu):
            for fp in trace_frontier(sp, measure):
                assert fp.a == plan_cost(sp, fp.sol.plan)
