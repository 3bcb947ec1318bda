import numpy as np
import pytest

from pkr.space import FiniteMetricSpace, SignedMeasure, validate_space


def shortest_path_space(rng: np.random.Generator, n: int,
                        lo: float = 0.1, hi: float = 1.0) -> FiniteMetricSpace:
    """Random metric: shortest-path closure of a random symmetric matrix."""
    w = rng.uniform(lo, hi, (n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    d = w.copy()
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return validate_space([f"p{i}" for i in range(n)], d)


def random_measure(rng: np.random.Generator, space: FiniteMetricSpace) -> SignedMeasure:
    return SignedMeasure(space, rng.uniform(-1.0, 1.0, space.n))


def zero_charge_measure(rng: np.random.Generator, space: FiniteMetricSpace) -> SignedMeasure:
    w = rng.uniform(-1.0, 1.0, space.n)
    w -= w.mean()
    return SignedMeasure(space, w)


def wide_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Weights of either sign with magnitudes from 1e-12 to 1e12, a few of them 0."""
    w = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 12.0, n)
    w[rng.random(n) < 0.1] = 0.0
    return w


@pytest.fixture
def two_point():
    return validate_space(["x", "y"], [[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture
def line3():
    return validate_space(["x0", "x1", "x2"],
                          [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
