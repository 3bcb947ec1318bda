"""Dual witnesses read off the traced frontier, with no search and no extra solve."""

import math

import numpy as np
import pytest

import pkr.pknorm
from conftest import random_measure, shortest_path_space, zero_charge_measure
from pkr.certify import check_optimality
from pkr.holder import HolderPair
from pkr.lipschitz import dual_solve
from pkr.pknorm import pk_norm, trace_frontier
from pkr.space import SignedMeasure, dirac, validate_space, zero_measure
from test_frontier import INSTANCES

SCALES = (1e-8, 1.0, 1e8)


def _zero_charge_scaled(n, metric_scale, weight_scale):
    rng = np.random.default_rng(300 + n)
    base = shortest_path_space(rng, n)
    mu0 = zero_charge_measure(rng, base)
    sp = validate_space(list(base.labels), metric_scale * base.dist)
    return sp, SignedMeasure(sp, weight_scale * mu0.weights)


def _pk_cell(n, ms, ws, p):
    marks = ()
    if (n, ms, ws, p) == (12, 1e-8, 1e8, 1.0):
        # at lam = 1, far past the diameter, the measure's rounding charge
        # (6.3e-8 on a TV of 4.3e8) is annihilated at unit price, which puts
        # 5e-8 of the value into b; the witness of a zero-charge measure
        # does not pair to it, so the gap is above the 1e-8 tolerance
        marks = pytest.mark.xfail(strict=True, reason="rounding charge of the measure "
                                  "exceeds the gap tolerance at p = 1")
    return pytest.param(n, ms, ws, p, marks=marks, id=f"n{n}-metric{ms:g}-weight{ws:g}-p{p:g}")


class TestZeroChargeScaleRobustness:
    """Zero-charge measures on metrics and weights scaled by 1e-8 and 1e8."""

    @pytest.mark.parametrize("n, ms, ws, p", [
        _pk_cell(n, ms, ws, p) for n in (12, 40) for ms in SCALES for ws in SCALES
        for p in (1.0, 2.0, math.inf)])
    def test_pk_norm_certified(self, n, ms, ws, p):
        sp, mu = _zero_charge_scaled(n, ms, ws)
        sol = pk_norm(sp, mu, p)
        assert check_optimality(sp, mu, sol.xi, sol.plan, sol.dual_f, p).passed

    @pytest.mark.parametrize("n, ms, ws", [
        pytest.param(n, ms, ws, id=f"n{n}-metric{ms:g}-weight{ws:g}")
        for n in (12, 40) for ms in SCALES for ws in SCALES])
    def test_dual_solve_matches_pk_norm(self, n, ms, ws):
        sp, mu = _zero_charge_scaled(n, ms, ws)
        for q in (1.5, 2.0, 4.0):
            primal = pk_norm(sp, mu, q / (q - 1.0)).value
            assert dual_solve(sp, mu, q).value == pytest.approx(primal, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_zero_measure_witness_certified(line3, p):
    # the zero measure pairs to 0 with anything; its witness must still
    # lie on the conjugate unit sphere
    mu = zero_measure(line3)
    sol = pk_norm(line3, mu, p)
    assert sol.value == 0.0 and sol.gap == 0.0
    assert check_optimality(line3, mu, sol.xi, sol.plan, sol.dual_f, p).passed


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6, -1e-12, -1e-6, -1.0, -1e6])
def test_point_mass_certified_at_every_scale(line3, c, p):
    # a point mass is all charge however small it is: its witness at
    # lam = inf is the constant sign(c), not 0
    mu = dirac(line3, 0, c)
    sol = pk_norm(line3, mu, p)
    assert check_optimality(line3, mu, sol.xi, sol.plan, sol.dual_f, p).passed
    assert sol.gap <= 1e-12 * sol.value


def test_fully_transported_points_leave_no_residual():
    # rounding residue of a fully transported point would count as support
    # of mu - xi, where the witness need not reach +-sup
    for seed in range(60):
        rng = np.random.default_rng(seed)
        sp = shortest_path_space(rng, int(rng.integers(3, 41)))
        mu = SignedMeasure(sp, 1e5 * zero_charge_measure(rng, sp).weights)
        sol = pk_norm(sp, mu, 1.0)
        assert check_optimality(sp, mu, sol.xi, sol.plan, sol.dual_f, 1.0).passed


@pytest.mark.parametrize("name", list(INSTANCES))
def test_witness_pairs_to_the_supporting_line(name):
    sp, mu = INSTANCES[name]()
    points = trace_frontier(sp, mu)
    i, j = np.triu_indices(sp.n, 1)
    ends = [fp.lam for fp in points[1:]] + [None]
    for fp, end in zip(points, ends):
        if end is None:
            # the last interval is open: cross the diameter, where the
            # potentials are clamped and shifted
            lams = [fp.lam, (fp.lam + sp.diameter) / 2.0, sp.diameter,
                    1.5 * sp.diameter, 3.0 * sp.diameter]
        else:
            lams = [fp.lam + t * (end - fp.lam) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        for lam in lams:
            vals, lip = fp.witness(lam)
            target = fp.a + lam * fp.b
            assert math.fsum(vals * mu.weights) == pytest.approx(target, rel=1e-12, abs=0.0)
            assert lip <= 1.0 + 1e-12
            assert float((np.abs(vals[i] - vals[j]) / sp.dist[i, j]).max()) <= 1.0 + 1e-12
            assert float(np.abs(vals).max()) <= lam * (1.0 + 1e-12)


def test_no_scalarized_solve_for_witnesses(monkeypatch):
    calls = []
    solve = pkr.pknorm.scalarized_min

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pkr.pknorm, "scalarized_min", counted)
    rng = np.random.default_rng(41)
    for _ in range(10):
        sp = shortest_path_space(rng, int(rng.integers(2, 20)))
        for mu in (random_measure(rng, sp), zero_charge_measure(rng, sp)):
            probes = trace_frontier(sp, mu)
            for p in (1.5, 2.0, 4.0, math.inf):
                pk_norm(sp, mu, p, probes=probes)
            for q in (1.0, 1.5, 2.0, 4.0, math.inf):
                dual_solve(sp, mu, q)
    assert calls == []
    pk_norm(sp, mu, 1.0, probes=probes)
    assert len(calls) == 1


def _zero(rng, sp):
    return zero_measure(sp)


class TestOneWitness:
    """``dual_solve`` returns ``pk_norm``'s witness: the q-Lipschitz ball is
    the dual of the p-Kantorovich one, so one frontier optimum serves both."""

    # pairs whose conjugates round-trip exactly (4 -> 4/3 -> 4.000000000000001)
    @pytest.mark.parametrize("p, q", [(1.0, math.inf), (1.5, 3.0), (2.0, 2.0),
                                      (3.0, 1.5), (1.25, 5.0), (math.inf, 1.0)])
    @pytest.mark.parametrize("measure", [random_measure, zero_charge_measure, _zero])
    def test_dual_solve_witness_is_pk_norms(self, p, q, measure):
        assert HolderPair.from_p(p).q == q and HolderPair.from_q(q).p == p
        rng = np.random.default_rng(500)
        for _ in range(12):
            sp = shortest_path_space(rng, int(rng.integers(2, 26)))
            mu = measure(rng, sp)
            want = pk_norm(sp, mu, p).dual_f.values
            assert dual_solve(sp, mu, q).f.values.tobytes() == want.tobytes()
