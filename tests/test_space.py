import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shortest_path_space, wide_weights
from pkr import space as space_mod
from pkr.errors import (
    AsymmetryError,
    DimensionMismatch,
    IndexOutOfRange,
    NegativeDistance,
    PkrError,
    SpaceMismatch,
    TriangleViolation,
    ZeroOffDiagonal,
)
from pkr.space import (
    DEFAULT_METRIC_TOL,
    FiniteMetricSpace,
    SignedMeasure,
    dirac,
    from_euclidean,
    jordan_decompose,
    support,
    total_charge,
    tv_norm,
    validate_space,
    zero_measure,
)


class TestValidateSpace:
    def test_two_point(self):
        sp = validate_space(["a", "b"], [[0, 1], [1, 0]])
        assert sp.n == 2 and sp.diameter == 1.0

    def test_singleton(self):
        sp = validate_space(["a"], [[0.0]])
        assert sp.n == 1 and sp.diameter == 0.0

    def test_triangle_violation_reports_worst_triple(self):
        with pytest.raises(TriangleViolation) as err:
            validate_space(["a", "b", "c"],
                           [[0, 3, 1], [3, 0, 1], [1, 1, 0]])
        assert "3.0" in str(err.value)

    def test_asymmetry(self):
        with pytest.raises(AsymmetryError):
            validate_space(["a", "b"], [[0, 1], [2, 0]])

    def test_asymmetry_repair(self):
        sp = validate_space(["a", "b"], [[0, 1], [1 + 1e-12, 0]],
                            allow_repair=True)
        assert sp.dist[0, 1] == sp.dist[1, 0]

    def test_zero_off_diagonal(self):
        with pytest.raises(ZeroOffDiagonal):
            validate_space(["a", "b"], [[0, 0], [0, 0]])

    def test_negative(self):
        with pytest.raises(NegativeDistance):
            validate_space(["a", "b"], [[0, -1], [-1, 0]])

    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            validate_space(["a", "a"], [[0, 1], [1, 0]])


def _loop_validate(labels, matrix, tol=DEFAULT_METRIC_TOL, allow_repair=False):
    """Reference: every check on whole n x n temporaries, the triangle one
    as a loop over k keeping the first argmax of the first largest slice."""
    d = np.array(matrix, dtype=float)
    labels = tuple(str(x) for x in labels)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    if d.shape[0] != len(labels):
        raise ValueError("matrix size must match the number of labels")
    if not np.all(np.isfinite(d)):
        raise ValueError("distance matrix entries must be finite")
    n = d.shape[0]
    scale = tol * max(1.0, float(d.max()) if d.size else 0.0)
    if d.size and float(d.min()) < -scale:
        i, j = np.unravel_index(int(np.argmin(d)), d.shape)
        raise NegativeDistance(f"d[{labels[i]},{labels[j]}] = {d[i, j]} < 0")
    asym = np.abs(d - d.T)
    if float(asym.max(initial=0.0)) > scale:
        i, j = np.unravel_index(int(np.argmax(asym)), d.shape)
        raise AsymmetryError(
            f"d[{labels[i]},{labels[j]}] = {d[i, j]} but d[{labels[j]},{labels[i]}] = {d[j, i]}")
    if allow_repair:
        d = (d + d.T) / 2.0
    diag = np.abs(np.diagonal(d))
    if float(diag.max(initial=0.0)) > scale:
        i = int(np.argmax(diag))
        raise ValueError(f"d[{labels[i]},{labels[i]}] = {d[i, i]} must be 0")
    off = d + np.where(np.eye(n, dtype=bool), np.inf, 0.0)
    if n > 1 and float(off.min()) <= scale:
        i, j = np.unravel_index(int(np.argmin(off)), d.shape)
        raise ZeroOffDiagonal(f"points {labels[i]} and {labels[j]} are at distance {d[i, j]}")
    worst, worst_triple = -math.inf, None
    for k in range(n):
        viol = d - (d[:, k][:, None] + d[k, :][None, :])
        m = float(viol.max())
        if m > worst:
            worst = m
            i, j = np.unravel_index(int(np.argmax(viol)), d.shape)
            worst_triple = (i, k, j)
    if worst_triple is not None and worst > scale:
        i, k, j = worst_triple
        raise TriangleViolation(
            f"d[{labels[i]},{labels[j]}] = {d[i, j]} > "
            f"d[{labels[i]},{labels[k]}] + d[{labels[k]},{labels[j]}] = {d[i, k] + d[k, j]}")
    return FiniteMetricSpace(labels, d)


def _outcome(validate, d, **kw):
    """The exception type and message, or the dist bytes and diameter."""
    try:
        sp = validate([f"p{i}" for i in range(len(d))], d, **kw)
    except (ValueError, PkrError) as err:
        return type(err), str(err)
    return sp.dist.tobytes(), sp.diameter


def _corrupted(rng, d, count):
    """``d`` with ``count`` symmetric pairs scaled by factors in [0.5, 3]."""
    d = d.copy()
    n = len(d)
    for _ in range(count):
        i, j = rng.choice(n, 2, replace=False)
        d[i, j] = d[j, i] = d[i, j] * rng.uniform(0.5, 3.0)
    return d


def _raised_integer_metric(rng, n, count, line):
    """The integer line, or the metric with every distance 1, with ``count``
    pairs, the first from point 0, each lengthened to violate the triangle
    inequality by 1: tied across every k between its ends (on the line) or
    off them (all distances 1), and across pairs. With all distances 1, the
    pair from point 0 has the first row but not the first k."""
    idx = np.arange(n)
    d = np.abs(np.subtract.outer(idx, idx)) if line else (idx[:, None] != idx).astype(int)
    for c in range(count):
        i = 0 if c == 0 else rng.integers(0, n - 2)
        j = rng.integers(i + 2, n)
        d[i, j] = d[j, i] = d[i, j] + (1 if line else 2)
    return d.astype(float)


def _off_check_cases(rng, d):
    """``d`` broken for each of the other checks, each at one random entry."""
    n = len(d)
    i, j = rng.choice(n, 2, replace=False)
    cases = []
    for value in (-0.5, 0.0, 1e-12, np.nan, np.inf):
        e = d.copy()
        e[i, j] = e[j, i] = value
        cases.append(e)
    asym, diag, small_diag = d.copy(), d.copy(), d.copy()
    asym[i, j] += 1e-3
    diag[j, j] = 1e-3
    small_diag[j, j] = 1e-12
    return cases + [asym, diag, small_diag]


TILES = [7, 50, space_mod._TILE]
SIZES = [1, 2, 3, 4, 7, 8, 12, 25, 50, 97, 190]


class TestTiledScanMatchesLoop:
    """The tiled scans raise what the loop raises, message included, and
    accept what it accepts with the same bytes, for every tile size: with 7
    and 50 floats most tiles are single rows and ties straddle tile edges;
    the default takes blocks of k up to n = 181 and row blocks past it."""

    @pytest.mark.parametrize("tile", TILES)
    @pytest.mark.parametrize("n", SIZES)
    def test_shortest_path_metrics(self, monkeypatch, tile, n):
        monkeypatch.setattr(space_mod, "_TILE", tile)
        rng = np.random.default_rng(1000 * n + tile)
        d = np.array(shortest_path_space(rng, n).dist)
        cases = [d] + [_corrupted(rng, d, c) for c in (1, 2, 3) if n > 1]
        for e in cases:
            assert _outcome(validate_space, e) == _outcome(_loop_validate, e)

    @pytest.mark.parametrize("line", [True, False], ids=["line", "uniform"])
    @pytest.mark.parametrize("tile", TILES)
    @pytest.mark.parametrize("n", SIZES)
    def test_integer_metrics_with_tied_violations(self, monkeypatch, tile, n, line):
        monkeypatch.setattr(space_mod, "_TILE", tile)
        rng = np.random.default_rng(2000 * n + tile + line)
        for count in (0, 1, 3) if n > 2 else (0,):
            e = _raised_integer_metric(rng, n, count, line)
            want = _outcome(_loop_validate, e)
            assert _outcome(validate_space, e) == want
            assert (want[0] is TriangleViolation) == (count > 0)

    @pytest.mark.parametrize("tile", [7, space_mod._TILE])
    @pytest.mark.parametrize("n", [2, 3, 12, 50])
    def test_other_checks(self, monkeypatch, tile, n):
        monkeypatch.setattr(space_mod, "_TILE", tile)
        rng = np.random.default_rng(3000 * n + tile)
        d = np.array(shortest_path_space(rng, n).dist)
        for e in _off_check_cases(rng, d):
            for kw in ({}, {"allow_repair": True}, {"tol": 0.0}):
                assert _outcome(validate_space, e, **kw) == _outcome(_loop_validate, e, **kw)

    def test_validated_matrix_is_not_copied_again(self, line3):
        assert line3.dist.flags.owndata and not line3.dist.flags.writeable
        assert FiniteMetricSpace(line3.labels, line3.dist).dist is line3.dist


class TestFromEuclidean:
    def test_line(self):
        sp = from_euclidean([[0.0], [1.0], [2.0]])
        assert np.allclose(sp.dist[0], [0, 1, 2])

    def test_345(self):
        sp = from_euclidean([[0.0, 0.0], [3.0, 4.0]])
        assert sp.dist[0, 1] == pytest.approx(5.0)

    def test_duplicate_points(self):
        with pytest.raises(ZeroOffDiagonal):
            from_euclidean([[0.0], [0.0]])

    def test_ragged_coords(self):
        with pytest.raises(DimensionMismatch):
            from_euclidean([[0.0], [0.0, 1.0]])

    def test_random_clouds_validate(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pts = rng.normal(size=(rng.integers(2, 8), rng.integers(1, 4)))
            from_euclidean(pts.tolist())


class TestMeasures:
    def test_dirac(self, two_point):
        m = dirac(two_point, 0, 1.0)
        assert list(m.weights) == [1.0, 0.0]

    def test_dirac_out_of_range(self, two_point):
        with pytest.raises(IndexOutOfRange):
            dirac(two_point, 5, 1.0)

    def test_dipole_charge_and_tv(self, two_point):
        m = dirac(two_point, 0, 1.0) - dirac(two_point, 1, 1.0)
        assert total_charge(m) == 0.0
        assert tv_norm(m) == 2.0

    def test_tv_example(self, line3):
        m = SignedMeasure(line3, np.array([1.0, -2.0, 1.0]))
        assert tv_norm(m) == 4.0
        assert tv_norm(zero_measure(line3)) == 0.0

    def test_jordan(self, line3):
        m = SignedMeasure(line3, np.array([1.0, -2.0, 1.0]))
        pos, neg = jordan_decompose(m)
        assert list(pos.weights) == [1.0, 0.0, 1.0]
        assert list(neg.weights) == [0.0, 2.0, 0.0]
        m2 = SignedMeasure(line3, np.array([-0.5, 0.0, 0.0]))
        pos, neg = jordan_decompose(m2)
        assert list(pos.weights) == [0.0, 0.0, 0.0]
        assert list(neg.weights) == [0.5, 0.0, 0.0]

    def test_support_threshold(self, two_point):
        m = SignedMeasure(two_point, np.array([1e-15, 1.0]))
        assert support(m, tol=1e-12) == [1]
        dip = dirac(two_point, 0, 1.0) - dirac(two_point, 1, 1.0)
        assert support(dip) == [0, 1]

    def test_support_matches_the_scalar_loop(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 7, 40, 300):
            sp = shortest_path_space(rng, n)
            for _ in range(5):
                mu = SignedMeasure(sp, wide_weights(rng, n))
                for tol in (0.0, 1e-12, 1e-9, 1e-3):
                    cut = tol * max(1.0, tv_norm(mu))
                    loop = [i for i, x in enumerate(mu.weights) if abs(float(x)) > cut]
                    assert support(mu, tol) == loop
                    assert all(type(i) is int for i in support(mu, tol))

    def test_cross_space_arithmetic_rejected(self, two_point, line3):
        with pytest.raises(SpaceMismatch):
            dirac(two_point, 0, 1.0) + dirac(line3, 0, 1.0)

    def test_immutable(self, two_point):
        m = dirac(two_point, 0, 1.0)
        with pytest.raises(ValueError):
            m.weights[0] = 2.0
        with pytest.raises(ValueError):
            two_point.dist[0, 1] = 9.0


finite_weights = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(w=finite_weights, c=st.floats(min_value=-100, max_value=100))
def test_tv_norm_axioms(w, c):
    sp = validate_space([str(i) for i in range(len(w))],
                        np.abs(np.subtract.outer(np.arange(len(w)), np.arange(len(w)))) * 1.0) \
        if len(w) > 1 else validate_space(["0"], [[0.0]])
    m = SignedMeasure(sp, np.array(w))
    assert tv_norm(c * m) == pytest.approx(abs(c) * tv_norm(m), rel=1e-12, abs=1e-9)
    assert tv_norm(m + m) <= 2 * tv_norm(m) + 1e-9
    assert (tv_norm(m) == 0.0) == all(x == 0.0 for x in w)


@settings(max_examples=200, deadline=None)
@given(w=finite_weights)
def test_jordan_roundtrip(w):
    sp = validate_space([str(i) for i in range(len(w))],
                        np.abs(np.subtract.outer(np.arange(len(w)), np.arange(len(w)))) * 1.0) \
        if len(w) > 1 else validate_space(["0"], [[0.0]])
    m = SignedMeasure(sp, np.array(w))
    pos, neg = jordan_decompose(m)
    assert np.allclose((pos - neg).weights, m.weights)
    assert math.isclose(tv_norm(m), total_charge(pos) + total_charge(neg),
                        rel_tol=1e-12, abs_tol=1e-9)
    assert not set(support(pos)) & set(support(neg))
