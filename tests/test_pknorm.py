import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_measure, shortest_path_space, zero_charge_measure
from pkr.errors import InvalidP, NegativeLambda, SpaceMismatch, TriangleViolation
from pkr.holder import HolderPair, conjugate_exponent, lp_combine
from pkr.lipschitz import ql_norm
from pkr.oracle import oracle_pk
from pkr.pknorm import (
    FrontierPoint,
    pareto_frontier,
    pk_dist,
    pk_norm,
    scalarized_min,
    trace_frontier,
)
from pkr.space import SignedMeasure, dirac, tv_norm, validate_space, zero_measure
from pkr.transport import _Graph, kr_norm, plan_cost, plan_divergence, solve_transportation

PS = [1.0, 1.5, 2.0, 4.0, math.inf]


class TestHolderPair:
    def test_conjugates(self):
        assert conjugate_exponent(1.0) == math.inf
        assert conjugate_exponent(math.inf) == 1.0
        assert conjugate_exponent(2.0) == 2.0
        assert HolderPair.from_p(1.5).q == pytest.approx(3.0)

    def test_invalid(self):
        with pytest.raises(InvalidP):
            HolderPair.from_p(0.5)

    def test_lp_combine_inf_is_max(self):
        assert lp_combine(3.0, 4.0, math.inf) == 4.0
        assert lp_combine(3.0, 4.0, 2.0) == pytest.approx(5.0)
        assert lp_combine(1.0, 1.0, 1e6) == pytest.approx(1.0, rel=1e-4)


class TestScalarized:
    # two-point targets from minimizing t*d + 2*lam*(1-t) over t in [0, 1]
    def test_dipole_high_lambda_transports(self, two_point):
        mu = dirac(two_point, 0, 1) - dirac(two_point, 1, 1)
        sol = scalarized_min(two_point, mu, 1.0)
        assert (sol.a, sol.b) == (pytest.approx(1.0), pytest.approx(0.0))
        assert sol.objective == pytest.approx(1.0)
        assert np.allclose(sol.xi.weights, mu.weights)

    def test_dipole_low_lambda_annihilates(self, two_point):
        mu = dirac(two_point, 0, 1) - dirac(two_point, 1, 1)
        sol = scalarized_min(two_point, mu, 0.25)
        assert (sol.a, sol.b) == (pytest.approx(0.0), pytest.approx(2.0))
        assert sol.objective == pytest.approx(0.5)
        assert np.allclose(sol.xi.weights, 0.0)

    def test_net_charge_absorbed(self, two_point):
        sol = scalarized_min(two_point, dirac(two_point, 0, 1), 1.0)
        assert (sol.a, sol.b) == (pytest.approx(0.0), pytest.approx(1.0))
        assert sol.objective == pytest.approx(1.0)

    def test_negative_lambda(self, two_point):
        with pytest.raises(NegativeLambda):
            scalarized_min(two_point, dirac(two_point, 0, 1), -1.0)

    def test_witness_budget(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            sp = shortest_path_space(rng, int(rng.integers(2, 9)))
            mu = random_measure(rng, sp)
            lam = float(rng.uniform(0.0, sp.diameter))
            sol = scalarized_min(sp, mu, lam)
            f = sol.potentials
            assert float(np.abs(f).max()) <= lam + 1e-9
            for i in range(sp.n):
                for j in range(i + 1, sp.n):
                    assert abs(f[i] - f[j]) <= sp.dist[i, j] + 1e-9
            assert float(f @ mu.weights) == pytest.approx(
                sol.objective, rel=1e-9, abs=1e-9)
            # scalarized optimality against its own xi decomposition
            assert sol.objective <= lam * tv_norm(mu) + 1e-9

    @pytest.mark.parametrize("measure", [random_measure, zero_charge_measure])
    def test_potentials_past_diameter_are_the_witness(self, measure):
        # the shifted potentials equal those of the witness of the same
        # solved vertex, bit for bit, without its slope
        rng = np.random.default_rng(23)
        sp = shortest_path_space(rng, 16)
        mu = measure(rng, sp)
        graph = _Graph.of(mu)
        vertex = FrontierPoint.read(graph, sp.diameter, *solve_transportation(
            graph.costs, graph.supplies, graph.demands, sp.diameter))
        for lam in (1.5 * sp.diameter, 1e3):
            f = scalarized_min(sp, mu, lam).potentials
            assert f.tobytes() == vertex.witness(lam)[0].tobytes()

    def test_against_oracle_grid(self):
        # weighted-sum optimality via brute grid: scaling distances by 1/lam
        # turns KR + lam*TV into lam times the p=1 norm on the scaled space
        rng = np.random.default_rng(22)
        from pkr.space import FiniteMetricSpace
        for _ in range(10):
            sp = shortest_path_space(rng, 3)
            mu = random_measure(rng, sp)
            lam = float(rng.uniform(0.05, sp.diameter / 2))
            sol = scalarized_min(sp, mu, lam)
            scaled = FiniteMetricSpace(sp.labels, sp.dist / lam)
            val = oracle_pk(scaled, SignedMeasure(scaled, mu.weights), 1.0)
            assert lam * val == pytest.approx(sol.objective, abs=2e-3 * max(1, lam))


def _scalarized_linprog(space, mu, lam):
    """min d . x + lam * (r+ + r-) subject to div(x) + r+ - r- = mu, by HiGHS:
    the plan x over every ordered pair, r+ - r- the residual mu - xi."""
    optimize = pytest.importorskip("scipy.optimize")
    n = space.n
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    a_eq = np.zeros((n, len(i) + 2 * n))
    a_eq[j, np.arange(len(i))] += 1.0
    a_eq[i, np.arange(len(i))] -= 1.0
    a_eq[:, len(i):len(i) + n] = np.eye(n)
    a_eq[:, len(i) + n:] = -np.eye(n)
    c = np.concatenate([space.dist[i, j], np.full(2 * n, lam)])
    res = optimize.linprog(c, A_eq=a_eq, b_eq=mu.weights, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


class TestScalarizedAgainstLinprog:
    @pytest.mark.parametrize("n", [5, 20, 40, 60])
    @pytest.mark.parametrize("measure", [random_measure, zero_charge_measure])
    def test_objectives_agree(self, n, measure):
        rng = np.random.default_rng(400 + n)
        for _ in range(2):
            sp = shortest_path_space(rng, n)
            mu = measure(rng, sp)
            for lam in rng.uniform(0.0, 1.5 * sp.diameter, 4):
                sol = scalarized_min(sp, mu, lam)
                assert sol.objective == pytest.approx(
                    _scalarized_linprog(sp, mu, lam), rel=1e-9, abs=0.0)


class TestFrontierAgainstLinprog:
    """Every traced vertex against HiGHS, which shares no code with the walk."""

    @pytest.mark.parametrize("n", [5, 20, 40, 60])
    @pytest.mark.parametrize("measure", [random_measure, zero_charge_measure])
    def test_each_vertex_attains_the_optimum_inside_its_interval(self, n, measure):
        rng = np.random.default_rng(500 + n)
        sp = shortest_path_space(rng, n)
        mu = measure(rng, sp)
        points = trace_frontier(sp, mu)
        # vertex k is optimal from its own lam to the next vertex's lam, the
        # last one from its lam on
        ends = [fp.lam for fp in points[1:]] + [sp.diameter]
        for fp, end in zip(points, ends):
            lam = float(rng.uniform(fp.lam, end))
            assert fp.a + lam * fp.b == pytest.approx(
                _scalarized_linprog(sp, mu, lam), rel=1e-9, abs=0.0)


class TestFrontier:
    def test_two_point_dipole(self, two_point):
        mu = dirac(two_point, 0, 1) - dirac(two_point, 1, 1)
        rows = pareto_frontier(two_point, mu)
        assert rows[0] == (0.0, pytest.approx(0.0), pytest.approx(2.0))
        assert rows[-1] == (pytest.approx(0.5), pytest.approx(1.0), pytest.approx(0.0))

    def test_zero_measure(self, two_point):
        assert pareto_frontier(two_point, zero_measure(two_point)) == \
            [(0.0, 0.0, 0.0)]

    def test_pure_charge_is_flat(self, two_point):
        rows = pareto_frontier(two_point, dirac(two_point, 0, 1))
        assert all(a == pytest.approx(0.0) and b == pytest.approx(1.0)
                   for _, a, b in rows)

    def test_monotone(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            sp = shortest_path_space(rng, int(rng.integers(2, 10)))
            mu = random_measure(rng, sp)
            rows = pareto_frontier(sp, mu)
            lams = [r[0] for r in rows]
            assert lams == sorted(lams)
            assert all(rows[i][1] <= rows[i + 1][1] + 1e-12 for i in range(len(rows) - 1))
            assert all(rows[i][2] >= rows[i + 1][2] - 1e-12 for i in range(len(rows) - 1))
            assert 0.0 <= lams[0] and lams[-1] <= sp.diameter / 2 + 1e-12


class TestPkNorm:
    @pytest.mark.parametrize("d, p, want", [
        (1.0, 1.0, 1.0),
        (1.0, math.inf, 2.0 / 3.0),
        (1.0, 2.0, 2.0 / math.sqrt(5.0)),
        (3.0, 1.0, 2.0),
        (3.0, math.inf, 6.0 / 5.0),
        (3.0, 2.0, 6.0 / math.sqrt(13.0)),
    ])
    def test_two_point_closed_forms(self, d, p, want):
        from pkr.space import validate_space
        sp = validate_space(["x", "y"], [[0.0, d], [d, 0.0]])
        mu = dirac(sp, 0, 1) - dirac(sp, 1, 1)
        sol = pk_norm(sp, mu, p)
        assert sol.value == pytest.approx(want, rel=1e-9)
        assert sol.gap <= 1e-8 * max(1.0, sol.value)

    def test_annihilation_beats_transport(self):
        from pkr.space import validate_space
        sp = validate_space(["x", "y"], [[0.0, 3.0], [3.0, 0.0]])
        mu = dirac(sp, 0, 1) - dirac(sp, 1, 1)
        sol = pk_norm(sp, mu, 1.0)
        assert sol.value == pytest.approx(2.0)
        assert np.allclose(sol.xi.weights, 0.0)

    def test_p_infty_xi_fraction(self, two_point):
        mu = dirac(two_point, 0, 1) - dirac(two_point, 1, 1)
        sol = pk_norm(two_point, mu, math.inf)
        assert np.allclose(sol.xi.weights, [2.0 / 3.0, -2.0 / 3.0])

    def test_delta_for_all_p(self, two_point):
        for p in PS:
            sol = pk_norm(two_point, dirac(two_point, 0, 1), p)
            assert sol.value == pytest.approx(1.0, abs=1e-9)
            assert sol.gap <= 1e-9

    def test_zero_measure(self, two_point):
        sol = pk_norm(two_point, zero_measure(two_point), 2.0)
        assert sol.value == 0.0 and sol.gap == 0.0

    def test_invalid_p(self, two_point):
        with pytest.raises(InvalidP):
            pk_norm(two_point, dirac(two_point, 0, 1), 0.99)

    def test_reported_value_matches_artifacts(self):
        rng = np.random.default_rng(25)
        for _ in range(15):
            sp = shortest_path_space(rng, int(rng.integers(2, 9)))
            mu = random_measure(rng, sp)
            for p in PS:
                sol = pk_norm(sp, mu, p)
                assert sol.a == pytest.approx(plan_cost(sp, sol.plan), abs=1e-12)
                assert sol.b == pytest.approx(tv_norm(mu - sol.xi), abs=1e-12)
                assert sol.value == pytest.approx(lp_combine(sol.a, sol.b, p))
                drift = plan_divergence(sp, sol.plan) - sol.xi
                assert tv_norm(drift) <= 1e-9 * max(1.0, tv_norm(sol.xi))
                assert ql_norm(sp, sol.dual_f, sol.pair.q) <= 1.0 + 1e-9
                assert sol.gap >= -1e-9
                assert sol.gap <= 1e-8 * max(1.0, sol.value)

    def test_matches_small_oracle(self):
        rng = np.random.default_rng(26)
        for _ in range(8):
            sp = shortest_path_space(rng, 3)
            mu = random_measure(rng, sp)
            for p in PS:
                assert pk_norm(sp, mu, p).value == pytest.approx(
                    oracle_pk(sp, mu, p), abs=1e-3)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            sp = shortest_path_space(rng, int(rng.integers(2, 8)))
            mu = random_measure(rng, sp)
            vals = [pk_norm(sp, mu, p).value for p in PS]
            for lo, hi in zip(vals, vals[1:]):
                assert hi <= lo + 1e-9

    def test_upper_bounds(self):
        from conftest import zero_charge_measure
        from pkr.transport import kr_norm
        rng = np.random.default_rng(28)
        for _ in range(10):
            sp = shortest_path_space(rng, int(rng.integers(2, 8)))
            mu = random_measure(rng, sp)
            for p in PS:
                assert pk_norm(sp, mu, p).value <= tv_norm(mu) + 1e-9
            xi = zero_charge_measure(rng, sp)
            kr = kr_norm(sp, xi).cost
            for p in PS:
                assert pk_norm(sp, xi, p).value <= kr + 1e-9

    def test_dipole_bounded_by_distance(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            sp = shortest_path_space(rng, 6)
            i, j = rng.choice(6, size=2, replace=False)
            mu = dirac(sp, int(i), 1.0) - dirac(sp, int(j), 1.0)
            for p in PS:
                assert pk_norm(sp, mu, p).value <= sp.dist[i, j] + 1e-9

    def test_reusing_traced_frontier(self):
        rng = np.random.default_rng(30)
        sp = shortest_path_space(rng, 8)
        mu = random_measure(rng, sp)
        probes = trace_frontier(sp, mu)
        for p in PS:
            direct = pk_norm(sp, mu, p)
            shared = pk_norm(sp, mu, p, probes=probes)
            assert shared.value == pytest.approx(direct.value, rel=1e-12)

    def test_probes_of_another_measure_rejected(self):
        rng = np.random.default_rng(30)
        sp = shortest_path_space(rng, 8)
        mu, nu = random_measure(rng, sp), random_measure(rng, sp)
        other = shortest_path_space(rng, 8)
        copy = SignedMeasure(sp, mu.weights.copy())
        for p in PS:
            with pytest.raises(ValueError, match="different measure"):
                pk_norm(sp, mu, p, probes=trace_frontier(sp, nu))
            with pytest.raises(ValueError, match="got none"):
                pk_norm(sp, mu, p, probes=[])
            with pytest.raises(SpaceMismatch):
                pk_norm(sp, mu, p, probes=trace_frontier(other, SignedMeasure(other, mu.weights)))
            # equal weights on the same space are the same measure
            assert (pk_norm(sp, mu, p, probes=trace_frontier(sp, copy)).value
                    == pk_norm(sp, mu, p).value)


class TestPkDist:
    def test_identical_measures(self, line3):
        m = dirac(line3, 1, 1.0)
        assert pk_dist(line3, m, m, 2.0).value == 0.0

    def test_fortet_mourier_point_masses(self, two_point):
        a, b = dirac(two_point, 0, 1.0), dirac(two_point, 1, 1.0)
        assert pk_dist(two_point, a, b, math.inf).value == pytest.approx(2.0 / 3.0)
        assert pk_dist(two_point, a, b, 1.0).value == pytest.approx(1.0)

    def test_space_mismatch(self, two_point, line3):
        with pytest.raises(SpaceMismatch):
            pk_dist(two_point, dirac(two_point, 0, 1), dirac(line3, 0, 1), 2.0)


def _triangle_rejected(labels, d):
    try:
        validate_space(labels, d)
    except TriangleViolation:
        return True
    return False


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12))
def test_relabelling_invariance(data, seed, n):
    """Permuting the points of a space and its measure changes no value."""
    rng = np.random.default_rng(seed)
    sp = shortest_path_space(rng, n)
    perm = np.array(data.draw(st.permutations(range(n))))
    labels = [sp.labels[i] for i in perm]
    sq = validate_space(labels, sp.dist[np.ix_(perm, perm)])
    assert sq.diameter == sp.diameter

    w = rng.uniform(-1.0, 1.0, n)
    xi = w - w.mean()
    assert kr_norm(sq, SignedMeasure(sq, xi[perm])).cost == pytest.approx(
        kr_norm(sp, SignedMeasure(sp, xi)).cost, rel=1e-12)
    for p in (1.0, 2.0, math.inf):
        assert pk_norm(sq, SignedMeasure(sq, w[perm]), p).value == pytest.approx(
            pk_norm(sp, SignedMeasure(sp, w), p).value, rel=1e-12)

    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    bad = np.array(sp.dist)
    bad[i, j] = bad[j, i] = bad[i, j] * data.draw(st.floats(0.5, 3.0))
    assert _triangle_rejected(labels, bad[np.ix_(perm, perm)]) == \
        _triangle_rejected(sp.labels, bad)
