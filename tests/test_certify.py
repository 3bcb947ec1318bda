import math

import numpy as np
import pytest

from conftest import random_measure, shortest_path_space
from pkr.certify import check_equivalence, check_holder, check_optimality
from pkr.errors import ConjugacyError, DivergenceMismatch, OrderError
from pkr.lipschitz import LipschitzFunction
from pkr.pknorm import pk_norm
from pkr.space import SignedMeasure, dirac, zero_measure
from pkr.transport import TransportPlan


def fn(space, vals):
    return LipschitzFunction(space, np.array(vals, dtype=float))


class TestCheckOptimality:
    def test_two_point_p_inf_closed_form(self, two_point):
        mu = SignedMeasure(two_point, np.array([1.0, -1.0]))
        xi = SignedMeasure(two_point, np.array([2.0 / 3.0, -2.0 / 3.0]))
        plan = TransportPlan(two_point, ((1, 0, 2.0 / 3.0),))
        f = fn(two_point, [1.0 / 3.0, -1.0 / 3.0])
        cert = check_optimality(two_point, mu, xi, plan, f, math.inf)
        assert cert.passed
        for rep in cert.conditions().values():
            assert rep.residual <= 1e-12
        assert cert.pairing == pytest.approx(2.0 / 3.0)

    def test_two_point_p_one_flat_norm(self, two_point):
        mu = SignedMeasure(two_point, np.array([1.0, -1.0]))
        plan = TransportPlan(two_point, ((1, 0, 1.0),))
        f = fn(two_point, [1.0, 0.0])
        cert = check_optimality(two_point, mu, mu, plan, f, 1.0)
        assert cert.passed
        assert cert.pairing == pytest.approx(1.0)

    def test_scaled_xi_fails(self, two_point):
        mu = SignedMeasure(two_point, np.array([1.0, -1.0]))
        xi = SignedMeasure(two_point, np.array([0.6, -0.6]))
        plan = TransportPlan(two_point, ((1, 0, 0.6),))
        f = fn(two_point, [1.0 / 3.0, -1.0 / 3.0])
        cert = check_optimality(two_point, mu, xi, plan, f, math.inf)
        assert not cert.passed
        assert cert.cond_ii.residual >= 0.01

    def test_divergence_mismatch(self, two_point):
        mu = SignedMeasure(two_point, np.array([1.0, -1.0]))
        plan = TransportPlan(two_point, ((1, 0, 0.2),))
        with pytest.raises(DivergenceMismatch):
            check_optimality(two_point, mu, mu, plan,
                             fn(two_point, [1.0, 0.0]), 1.0)

    def test_bad_exponent(self, two_point):
        mu = SignedMeasure(two_point, np.array([1.0, -1.0]))
        with pytest.raises(ConjugacyError):
            check_optimality(two_point, mu, mu,
                             TransportPlan(two_point, ((1, 0, 1.0),)),
                             fn(two_point, [1.0, 0.0]), 0.5)

    def test_solver_output_passes(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            sp = shortest_path_space(rng, int(rng.integers(2, 10)))
            mu = random_measure(rng, sp)
            for p in [1.0, 1.5, 2.0, 4.0, math.inf]:
                sol = pk_norm(sp, mu, p, tol=1e-8)
                cert = check_optimality(sp, mu, sol.xi, sol.plan, sol.dual_f, p,
                                        tol=1e-7)
                assert cert.passed, (p, cert.conditions())

    def test_detection_of_perturbed_xi(self):
        rng = np.random.default_rng(42)
        found = 0
        for _ in range(30):
            sp = shortest_path_space(rng, int(rng.integers(3, 9)))
            mu = random_measure(rng, sp)
            sol = pk_norm(sp, mu, 2.0)
            if sol.a < 1e-6 or sol.b < 1e-6:
                continue
            found += 1
            bad_xi = 0.9 * sol.xi
            bad_plan = TransportPlan(
                sp, tuple((i, j, 0.9 * m) for i, j, m in sol.plan.entries))
            cert = check_optimality(sp, mu, bad_xi, bad_plan, sol.dual_f, 2.0,
                                    tol=1e-5)
            assert not cert.passed
        assert found >= 5

    def test_pure_tv_degenerate_pass(self, two_point):
        # flat-norm optimum with an empty plan: conditions (iii) hold vacuously
        mu = dirac(two_point, 0, 1.0)
        cert = check_optimality(two_point, mu, zero_measure(two_point),
                                TransportPlan(two_point, ()),
                                fn(two_point, [1.0, 1.0]), 1.0)
        assert cert.passed


class TestCheckHolder:
    def test_zero_function(self, two_point):
        # both sides of the pairing bound vanish at f = 0
        mu = SignedMeasure(two_point, np.array([1.0, -1.0]))
        slack = check_holder(two_point, mu, fn(two_point, [0.0, 0.0]), 2.0)
        assert slack == 0.0

    def test_constant_on_unit_charge(self, two_point):
        mu = dirac(two_point, 0, 1.0)
        assert check_holder(two_point, mu, fn(two_point, [1.0, 1.0]), 2.0) == \
            pytest.approx(0.0, abs=1e-9)

    def test_certified_witness_equality(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            sp = shortest_path_space(rng, int(rng.integers(2, 8)))
            mu = random_measure(rng, sp)
            for p in [1.0, 2.0, math.inf]:
                sol = pk_norm(sp, mu, p)
                slack = check_holder(sp, mu, sol.dual_f, p)
                assert -1e-9 <= slack <= 1e-6 * max(1.0, sol.value)

    def test_never_negative(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            sp = shortest_path_space(rng, int(rng.integers(2, 6)))
            mu = random_measure(rng, sp)
            f = fn(sp, rng.uniform(-3, 3, sp.n))
            p = float(rng.choice([1.0, 1.5, 2.0, 4.0, np.inf]))
            assert check_holder(sp, mu, f, p) >= -1e-9


class TestCheckEquivalence:
    def test_two_point_pair(self, two_point):
        mu = SignedMeasure(two_point, np.array([1.0, -1.0]))
        rep = check_equivalence(two_point, mu, 1.0, math.inf)
        assert rep.passed
        assert rep.value1 == pytest.approx(1.0)
        assert rep.value2 == pytest.approx(2.0 / 3.0)
        assert rep.constant == pytest.approx(2.0)

    def test_zero_measure(self, two_point):
        rep = check_equivalence(two_point, zero_measure(two_point), 1.0, 2.0)
        assert rep.passed and rep.value1 == 0.0 and rep.value2 == 0.0

    def test_equal_exponents(self, two_point):
        mu = SignedMeasure(two_point, np.array([0.3, -0.8]))
        rep = check_equivalence(two_point, mu, 2.0, 2.0)
        assert rep.passed and rep.constant == 1.0
        assert rep.value1 == rep.value2

    def test_order_error(self, two_point):
        mu = SignedMeasure(two_point, np.array([1.0, -1.0]))
        with pytest.raises(OrderError):
            check_equivalence(two_point, mu, 2.0, 1.0)

    def test_frontier_traced_once(self, monkeypatch):
        import pkr.pknorm
        calls = []
        trace = pkr.pknorm.trace_frontier

        def counted(space, mu):
            calls.append(mu)
            return trace(space, mu)

        monkeypatch.setattr(pkr.pknorm, "trace_frontier", counted)
        rng = np.random.default_rng(64)
        sp = shortest_path_space(rng, 10)
        rep = check_equivalence(sp, random_measure(rng, sp), 1.5, 3.0)
        assert rep.passed and len(calls) == 1
