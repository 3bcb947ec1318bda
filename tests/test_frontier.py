"""The trade-off frontier from the parametric walk: complete, exact, scale-free."""

import math

import numpy as np
import pytest

from conftest import random_measure, shortest_path_space
from pkr.certify import check_optimality
from pkr.pknorm import pk_norm, scalarized_min, trace_frontier
from pkr.space import SignedMeasure, validate_space
from pkr.transport import _TransportationSolver
from test_transport import _hamming_cube, _integer_line, _zero_flow_arcs_point_to_root


def _shortest_path(n):
    rng = np.random.default_rng(5)
    sp = shortest_path_space(rng, n)
    return sp, random_measure(rng, sp)


def _integer_measure(sp, seed):
    rng = np.random.default_rng(seed)
    return sp, SignedMeasure(sp, rng.integers(-5, 6, sp.n).astype(float))


INSTANCES = {
    "sp40": lambda: _shortest_path(40),
    "sp80": lambda: _shortest_path(80),
    "sp120": lambda: _shortest_path(120),
    "line25": lambda: _integer_measure(_integer_line(25), 25),
    "line40": lambda: _integer_measure(_integer_line(40), 40),
    "cube16": lambda: _integer_measure(_hamming_cube(4), 16),
    "cube32": lambda: _integer_measure(_hamming_cube(5), 32),
}

# pivots per walk node measured on these instances: sp40 38 / 42,
# sp80 92 / 82, sp120 134 / 122, line25 10 / 25, line40 29 / 39,
# cube16 14 / 15, cube32 17 / 31; a walk that restarted at each breakpoint
# would need about one pass of pivots per vertex
WALK_PIVOT_BUDGET = 2


@pytest.fixture
def walks(monkeypatch):
    """Record every frontier walk and check its tree after every pivot."""
    pivot = _TransportationSolver._pivot
    seen = {"walks": [], "zero_flow_arcs": 0}

    def checked_pivot(solver, e):
        pivot(solver, e)
        if solver.lam == 1j:
            if not seen["walks"] or seen["walks"][-1] is not solver:
                seen["walks"].append(solver)
            seen["zero_flow_arcs"] += _zero_flow_arcs_point_to_root(solver)

    monkeypatch.setattr(_TransportationSolver, "_pivot", checked_pivot)
    return seen


class TestCompleteness:
    """At sizes the brute-force oracles cannot reach, the vertices must
    reproduce every cold scalarized solve."""

    @pytest.mark.parametrize("name", list(INSTANCES))
    def test_vertices_match_cold_solves(self, name, walks):
        sp, mu = INSTANCES[name]()
        points = trace_frontier(sp, mu)
        # in lam order, a strictly rises and b strictly falls, by more than
        # rounding: every point is a distinct vertex
        a, b = [fp.a for fp in points], [fp.b for fp in points]
        assert all(a1 - a0 > 1e-9 * max(a) for a0, a1 in zip(a, a[1:]))
        assert all(b0 - b1 > 1e-9 * max(b) for b0, b1 in zip(b, b[1:]))
        (walk,) = walks["walks"]
        assert walk.pivots <= WALK_PIVOT_BUDGET * (walk.m + walk.n)
        # vertex k is optimal from its own lam to the next vertex's lam,
        # the last one up to the diameter and beyond
        ends = [fp.lam for fp in points[1:]] + [sp.diameter]
        for fp, end in zip(points, ends):
            for lam in (fp.lam, (fp.lam + end) / 2.0, end):
                cold = scalarized_min(sp, mu, lam).objective
                assert fp.a + lam * fp.b == pytest.approx(cold, rel=1e-12, abs=1e-300)
        # breakpoints live in [0, diameter / 2]
        rng = np.random.default_rng(len(name))
        for lam in rng.uniform(0.0, sp.diameter / 2.0, 12):
            cold = scalarized_min(sp, mu, lam).objective
            best = min(fp.a + lam * fp.b for fp in points)
            assert best == pytest.approx(cold, rel=1e-12)

    @pytest.mark.parametrize("name", list(INSTANCES))
    def test_potentials_certify_each_vertex(self, name):
        sp, mu = INSTANCES[name]()
        for fp in trace_frontier(sp, mu):
            f = fp.sol.potentials
            scale = max(1.0, fp.sol.objective)
            assert float(f @ mu.weights) == pytest.approx(fp.sol.objective, abs=1e-12 * scale)
            assert float(np.abs(f).max()) <= fp.lam + 1e-12 * sp.diameter
            i, j = np.triu_indices(sp.n, 1)
            assert float((np.abs(f[i] - f[j]) - sp.dist[i, j]).max()) <= 1e-12 * sp.diameter

    @pytest.mark.parametrize("name", list(INSTANCES))
    def test_pk_norm_certified(self, name, walks):
        sp, mu = INSTANCES[name]()
        for p in (1.0, 2.0, math.inf):
            sol = pk_norm(sp, mu, p)
            assert check_optimality(sp, mu, sol.xi, sol.plan, sol.dual_f, p).passed
        assert walks["walks"]

    def test_tie_heavy_walks_keep_zero_flow_arcs_toward_root(self, walks):
        for name in ("line25", "line40", "cube16", "cube32"):
            sp, mu = INSTANCES[name]()
            trace_frontier(sp, mu)
        assert walks["zero_flow_arcs"] > 0


class TestVertexShape:
    def test_no_three_consecutive_vertices_collinear(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            sp = shortest_path_space(rng, 16)
            mu = random_measure(rng, sp)
            verts = trace_frontier(sp, mu)
            for v0, v1, v2 in zip(verts, verts[1:], verts[2:]):
                da0, db0 = v1.a - v0.a, v1.b - v0.b
                da1, db1 = v2.a - v1.a, v2.b - v1.b
                cross = da0 * db1 - db0 * da1
                assert cross > 1e-9 * (abs(da0 * db1) + abs(db0 * da1))

    def test_each_vertex_once_on_the_integer_line(self):
        # on a unit-spaced line every breakpoint is a half-integer, and
        # many pivots tie at each of them
        sp, mu = _integer_measure(_integer_line(25), 25)
        points = trace_frontier(sp, mu)
        lams = [fp.lam for fp in points]
        assert lams == sorted(set(lams))
        assert all(2.0 * lam == round(2.0 * lam) for lam in lams)
        assert len({(fp.a, fp.b) for fp in points}) == len(points)

    def test_homogeneous_in_metric_and_weight_scale(self):
        rng = np.random.default_rng(340)
        base = shortest_path_space(rng, 40)
        mu0 = random_measure(rng, base)
        unit = trace_frontier(base, mu0)
        a_max, b_max = max(fp.a for fp in unit), max(fp.b for fp in unit)
        for s in (1e-8, 1.0, 1e8):
            sp = validate_space(list(base.labels), s * base.dist)
            for t in (1e-8, 1.0, 1e8):
                scaled = trace_frontier(sp, SignedMeasure(sp, t * mu0.weights))
                assert len(scaled) == len(unit)
                for fp, ref in zip(scaled, unit):
                    assert fp.a == pytest.approx(s * t * ref.a, abs=1e-12 * s * t * a_max)
                    assert fp.b == pytest.approx(t * ref.b, abs=1e-12 * t * b_max)
                    assert fp.lam == pytest.approx(s * ref.lam, abs=1e-12 * s * base.diameter)
