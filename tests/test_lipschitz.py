import math

import numpy as np
import pytest

from conftest import random_measure, shortest_path_space, wide_weights
from pkr.errors import InvalidQ, SpaceMismatch
from pkr.holder import lp_combine
from pkr.lipschitz import (
    LipschitzFunction,
    _lip_const_values,
    dual_solve,
    lip_const,
    lip_product,
    pairing,
    ql_norm,
    sup_norm,
)
from pkr.pknorm import pk_norm
from pkr.space import SignedMeasure, dirac, validate_space, zero_measure

QS = [1.0, 2.0, math.inf]


def fn(space, vals):
    return LipschitzFunction(space, np.array(vals, dtype=float))


class TestNorms:
    def test_lip_const_basic(self, two_point, line3):
        assert lip_const(two_point, fn(two_point, [1, 0])) == 1.0
        assert lip_const(line3, fn(line3, [5, 5, 5])) == 0.0
        assert lip_const(line3, fn(line3, [0, 1, 2])) == 1.0

    def test_lip_const_singleton(self):
        s1 = validate_space(["a"], [[0.0]])
        assert lip_const(s1, fn(s1, [3.0])) == 0.0

    def test_lip_const_matches_double_loop(self):
        def reference(dist, values):
            best = 0.0
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    best = max(best, abs(float(values[i] - values[j])) / float(dist[i, j]))
            return best

        rng = np.random.default_rng(33)
        for n in (1, 2, 3, 7, 16, 40, 80):
            dist = shortest_path_space(rng, n).dist
            for _ in range(36):
                metric_scale, value_scale = rng.choice([1e-8, 1.0, 1e8], 2)
                d = dist * metric_scale
                vals = rng.uniform(-1.0, 1.0, n) * value_scale
                # the same quotients and the same max: equal bit for bit
                assert _lip_const_values(d, vals) == reference(d, vals)

    def test_ql_norm(self, two_point):
        f = fn(two_point, [1, 0])
        assert ql_norm(two_point, f, 2.0) == pytest.approx(math.sqrt(2.0))
        assert ql_norm(two_point, f, math.inf) == 1.0
        assert ql_norm(two_point, fn(two_point, [4, 4]), 7.0) == 4.0

    def test_invalid_q(self, two_point):
        with pytest.raises(InvalidQ):
            ql_norm(two_point, fn(two_point, [1, 0]), 0.5)

    def test_ql_separation(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            sp = shortest_path_space(rng, int(rng.integers(1, 7)))
            f = fn(sp, rng.uniform(-2, 2, sp.n))
            for q in QS:
                assert ql_norm(sp, f, q) >= sup_norm(f) - 1e-12
                if np.any(f.values != 0):
                    assert ql_norm(sp, f, q) > 0

    def test_q_sandwich(self):
        rng = np.random.default_rng(32)
        qs = [1.0, 1.5, 2.0, 4.0, math.inf]
        for _ in range(20):
            sp = shortest_path_space(rng, int(rng.integers(2, 7)))
            f = fn(sp, rng.uniform(-2, 2, sp.n))
            vals = [ql_norm(sp, f, q) for q in qs]
            for i in range(len(qs)):
                for j in range(i + 1, len(qs)):
                    inv1 = 0.0 if math.isinf(qs[i]) else 1.0 / qs[i]
                    inv2 = 0.0 if math.isinf(qs[j]) else 1.0 / qs[j]
                    c = 2.0 ** (inv1 - inv2)
                    assert vals[j] <= vals[i] + 1e-12
                    assert vals[i] <= c * vals[j] + 1e-12


class TestPairing:
    def test_examples(self, two_point):
        mu = SignedMeasure(two_point, np.array([1.0, -1.0]))
        assert pairing(fn(two_point, [1, 0]), mu) == 1.0
        assert pairing(fn(two_point, [1, 1]), mu) == 0.0
        assert pairing(fn(two_point, [0, 0]), mu) == 0.0

    def test_constant_pairs_to_charge(self):
        rng = np.random.default_rng(33)
        sp = shortest_path_space(rng, 5)
        mu = random_measure(rng, sp)
        from pkr.space import total_charge
        assert pairing(fn(sp, np.ones(5)), mu) == pytest.approx(total_charge(mu))

    def test_space_mismatch(self, two_point, line3):
        with pytest.raises(SpaceMismatch):
            pairing(fn(two_point, [1, 0]), dirac(line3, 0, 1.0))

    def test_matches_the_scalar_fsum(self):
        # an IEEE product is the same in numpy and in Python, and fsum is
        # exact, so the sum is the same bits
        rng = np.random.default_rng(34)
        for n in (1, 2, 7, 40, 300):
            sp = shortest_path_space(rng, n)
            for _ in range(5):
                f, mu = fn(sp, wide_weights(rng, n)), SignedMeasure(sp, wide_weights(rng, n))
                loop = float(math.fsum(float(a) * float(b)
                                       for a, b in zip(f.values, mu.weights)))
                assert pairing(f, mu).hex() == loop.hex()


class TestProduct:
    def test_unit(self, line3):
        g = fn(line3, [1.0, -2.0, 0.5])
        assert np.allclose(lip_product(fn(line3, [1, 1, 1]), g).values, g.values)

    def test_disjoint_supports(self, two_point):
        out = lip_product(fn(two_point, [1, 0]), fn(two_point, [0, 1]))
        assert list(out.values) == [0.0, 0.0]

    def test_algebra_bound(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            sp = shortest_path_space(rng, int(rng.integers(2, 7)))
            f = fn(sp, rng.uniform(-2, 2, sp.n))
            g = fn(sp, rng.uniform(-2, 2, sp.n))
            for q in QS:
                inv_q = 0.0 if math.isinf(q) else 1.0 / q
                bound = 2.0 ** (1.0 + inv_q) * ql_norm(sp, f, q) * ql_norm(sp, g, q)
                assert ql_norm(sp, lip_product(f, g), q) <= bound + 1e-9


class TestDualSolve:
    def test_dipole_q_inf(self, two_point):
        mu = SignedMeasure(two_point, np.array([1.0, -1.0]))
        sol = dual_solve(two_point, mu, math.inf)
        assert sol.value == pytest.approx(1.0)
        assert float(sol.f.values[0] - sol.f.values[1]) == pytest.approx(1.0)

    def test_dipole_q_one(self, two_point):
        mu = SignedMeasure(two_point, np.array([1.0, -1.0]))
        sol = dual_solve(two_point, mu, 1.0)
        assert sol.value == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert np.allclose(sol.f.values, [1.0 / 3.0, -1.0 / 3.0], atol=1e-9)
        s, m = sol.active_budget
        assert s == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert m == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_zero_measure(self, two_point):
        # pk_norm's witness of the zero measure: the constant 1, with its
        # budget on the unit sphere
        for q, budget in [(1.0, (1.0, 0.0)), (1.5, (1.0, 0.0)), (2.0, (1.0, 0.0)),
                          (math.inf, (1.0, 1.0))]:
            sol = dual_solve(two_point, zero_measure(two_point), q)
            assert sol.value == 0.0 and list(sol.f.values) == [1.0, 1.0]
            assert sol.active_budget == budget

    def test_budget_feasible_and_value_exact(self):
        rng = np.random.default_rng(35)
        for _ in range(25):
            sp = shortest_path_space(rng, int(rng.integers(2, 10)))
            mu = random_measure(rng, sp)
            for q in [1.0, 1.5, 2.0, 4.0, math.inf]:
                sol = dual_solve(sp, mu, q)
                s, m = sol.active_budget
                assert lp_combine(s, m, q) <= 1.0 + 1e-9
                assert lip_const(sp, sol.f) <= s + 1e-9
                assert sup_norm(sol.f) <= m + 1e-9
                assert pairing(sol.f, mu) == pytest.approx(sol.value, abs=1e-12)

    def test_strong_duality_against_primal(self):
        rng = np.random.default_rng(36)
        pairs = [(1.0, math.inf), (1.5, 3.0), (2.0, 2.0), (4.0, 4.0 / 3.0),
                 (math.inf, 1.0)]
        for _ in range(15):
            sp = shortest_path_space(rng, int(rng.integers(2, 9)))
            mu = random_measure(rng, sp)
            for p, q in pairs:
                primal = pk_norm(sp, mu, p).value
                dual = dual_solve(sp, mu, q).value
                assert abs(primal - dual) <= 1e-6 * max(1.0, primal)

    def test_budget_search_matches_bisection_and_golden_section(self):
        # the search dual_solve used before the closed-form crossing, kept
        # here as the reference: an 80-step bisection per pair of adjacent
        # vertices and a 150-step golden-section search over the budget
        from pkr.pknorm import trace_frontier

        def budget(s, q):
            s = min(max(s, 0.0), 1.0)
            return (s, 1.0 - s) if q == 1.0 else (s, max(0.0, 1.0 - s ** q) ** (1.0 / q))

        def bisect_switch(v0, v1, q):
            def h(s):
                s, m = budget(s, q)
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

        def golden_max(fn):
            inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
            lo, hi = 0.0, 1.0
            c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
            fc, fd = fn(c), fn(d)
            for _ in range(150):
                if fc > fd:
                    hi, d, fd = d, c, fc
                    c = hi - inv_phi * (hi - lo)
                    fc = fn(c)
                else:
                    lo, c, fc = c, d, fd
                    d = lo + inv_phi * (hi - lo)
                    fd = fn(d)
                if hi - lo < 1e-14:
                    break
            return 0.5 * (lo + hi)

        rng = np.random.default_rng(37)
        for _ in range(40):
            # distances up to 10 put breakpoints on both sides of lam = 1,
            # where the closed form switches branches
            hi = float(rng.choice([1.0, 10.0]))
            sp = shortest_path_space(rng, int(rng.integers(2, 17)), 0.1 * hi, hi)
            mu = random_measure(rng, sp)
            ab = [(v.a, v.b) for v in trace_frontier(sp, mu)]
            for q in (1.0, 1.5, 2.0, 3.0):
                def value_at(s):
                    s, m = budget(s, q)
                    return min(s * a + m * b for a, b in ab)
                cands = [0.0, 1.0, golden_max(value_at)]
                cands += [bisect_switch(v0, v1, q) for v0, v1 in zip(ab, ab[1:])]
                if q > 1.0:
                    p = q / (q - 1.0)
                    cands += [(1.0 + (b / a) ** p) ** (-1.0 / q) for a, b in ab
                              if a > 0.0 and b > 0.0]
                ref = max(value_at(s) for s in cands)
                sol = dual_solve(sp, mu, q)
                s, m = sol.active_budget
                assert min(s * a + m * b for a, b in ab) == pytest.approx(ref, rel=1e-12)
                assert sol.value == pytest.approx(ref, rel=1e-12)


class TestHolderInequality:
    def test_random_triples(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            sp = shortest_path_space(rng, int(rng.integers(2, 7)))
            mu = random_measure(rng, sp)
            f = fn(sp, rng.uniform(-2, 2, sp.n))
            for p in [1.0, 1.5, 2.0, 4.0, math.inf]:
                q = 1.0 if math.isinf(p) else (math.inf if p == 1.0 else p / (p - 1.0))
                lhs = abs(pairing(f, mu))
                rhs = pk_norm(sp, mu, p).value * ql_norm(sp, f, q)
                assert lhs <= rhs + 1e-9
