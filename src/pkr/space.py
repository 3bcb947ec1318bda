"""Finite metric spaces and signed measures with finite support.

A space is a list of labeled points plus a validated symmetric distance
matrix; a measure is a real weight vector bound to one space instance.
All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetryError,
    DimensionMismatch,
    IndexOutOfRange,
    NegativeDistance,
    SpaceMismatch,
    TriangleViolation,
    ZeroOffDiagonal,
)

DEFAULT_METRIC_TOL = 1e-9
SUPPORT_REL_TOL = 1e-12
# relative duality-gap tolerance of pk_norm, dual_solve and check_equivalence
DEFAULT_TOL = 1e-8


def _frozen_array(values, dtype=float) -> np.ndarray:
    """A read-only copy of ``values``; an array that is read-only already,
    owns its data and has the dtype is taken as it is."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.flags.owndata and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Labeled point set with a validated distance matrix.

    Construct through :func:`validate_space` or :func:`from_euclidean`;
    the raw constructor performs no metric checks.

    Attributes:
        labels: point identifiers, order fixes all vector/matrix indexing
        dist: n x n matrix of pairwise distances
        diameter: cached max entry of ``dist``
    """

    labels: tuple[str, ...]
    dist: np.ndarray
    diameter: float = field(init=False)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("point labels must be distinct")
        d = _frozen_array(self.dist)
        if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] != len(self.labels):
            raise ValueError("distance matrix must be square and match the labels")
        diameter = float(d.max()) if d.size else 0.0
        # max and min propagate NaN, so both are finite iff every entry is
        if d.size and not (math.isfinite(diameter) and math.isfinite(float(d.min()))):
            raise ValueError("distance matrix entries must be finite")
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "diameter", diameter)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise IndexOutOfRange(f"unknown point label {label!r}") from None

    def __repr__(self) -> str:
        return f"FiniteMetricSpace(n={self.n}, diameter={self.diameter:.6g})"


@dataclass(frozen=True)
class SignedMeasure:
    """Real weight vector over the points of one space instance.

    Measures are bound to a specific space; arithmetic across different
    instances raises :class:`SpaceMismatch` rather than re-indexing.
    """

    space: FiniteMetricSpace
    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights)
        if w.ndim != 1 or w.shape[0] != self.space.n:
            raise ValueError("weight vector length must equal the number of points")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", w)

    def _check_same_space(self, other: "SignedMeasure") -> None:
        if self.space is not other.space:
            raise SpaceMismatch("measures are bound to different space instances")

    def __add__(self, other: "SignedMeasure") -> "SignedMeasure":
        self._check_same_space(other)
        return SignedMeasure(self.space, self.weights + other.weights)

    def __sub__(self, other: "SignedMeasure") -> "SignedMeasure":
        self._check_same_space(other)
        return SignedMeasure(self.space, self.weights - other.weights)

    def __neg__(self) -> "SignedMeasure":
        return SignedMeasure(self.space, -self.weights)

    def __mul__(self, scalar: float) -> "SignedMeasure":
        return SignedMeasure(self.space, self.weights * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"SignedMeasure(n={self.space.n}, tv={tv_norm(self):.6g})"


# floats in the one scratch buffer that validate_space's triangle scan fills
# tile by tile
_TILE = 1 << 15


def _triangle_tiles(d: np.ndarray, buf: np.ndarray):
    """d[i, j] - (d[i, k] + d[k, j]) over every (k, i, j), by tiles: a block
    of k over all rows while n^2 floats fit in ``_TILE``, else one k over a
    block of rows."""
    n = len(d)
    ks = max(1, _TILE // (n * n))
    rows = min(n, max(1, _TILE // n))
    for k0 in range(0, n, ks):
        k1 = min(k0 + ks, n)
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            t = buf[:(k1 - k0) * (r1 - r0) * n].reshape(k1 - k0, r1 - r0, n)
            # filling t with the column first, then adding the row, is faster
            # than one broadcast add of both
            t[...] = d[r0:r1, k0:k1].T[:, :, None]
            np.add(t, d[k0:k1, None, :], out=t)
            yield np.subtract(d[r0:r1], t, out=t)


def validate_space(labels, matrix, tol: float = DEFAULT_METRIC_TOL,
                   allow_repair: bool = False) -> FiniteMetricSpace:
    """Validate a distance matrix and return the space.

    Checks, within ``tol * max(1, diameter)``: zero diagonal, symmetry,
    strictly positive off-diagonal entries, and the triangle inequality.
    With ``allow_repair`` the matrix is symmetrized to (d + d^T)/2 before
    the remaining checks; by default the matrix is kept exactly as given.

    The triangle scan fills one buffer of at most ``_TILE`` floats, tile
    by tile, and keeps only the largest d[i, j] - (d[i, k] + d[k, j]).
    Only when that exceeds the tolerance does a loop over k name the
    triple: the first argmax of the first n x n slice that holds it.

    Raises: NegativeDistance, AsymmetryError, ZeroOffDiagonal,
        TriangleViolation (reporting the worst triple).
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    d = np.array(matrix, dtype=float)
    labels = tuple(str(x) for x in labels)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    if d.shape[0] != len(labels):
        raise ValueError("matrix size must match the number of labels")
    if not d.size:
        return FiniteMetricSpace(labels, d)
    hi, lo = float(d.max()), float(d.min())  # NaN propagates through both
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError("distance matrix entries must be finite")

    n = d.shape[0]
    scale = tol * max(1.0, hi)
    if lo < -scale:
        i, j = np.unravel_index(int(np.argmin(d)), d.shape)
        raise NegativeDistance(f"d[{labels[i]},{labels[j]}] = {d[i, j]} < 0")

    asym = np.abs(d - d.T)
    if float(asym.max()) > scale:
        i, j = np.unravel_index(int(asym.argmax()), d.shape)
        raise AsymmetryError(
            f"d[{labels[i]},{labels[j]}] = {d[i, j]} but d[{labels[j]},{labels[i]}] = {d[j, i]}"
        )
    if allow_repair:
        d = (d + d.T) / 2.0

    diag = d.diagonal().copy()
    i = int(np.argmax(np.abs(diag)))
    if abs(diag[i]) > scale:
        raise ValueError(f"d[{labels[i]},{labels[i]}] = {d[i, i]} must be 0")

    # the smallest off-diagonal entry: the diagonal is set to inf for the
    # scan and then restored
    d.flat[::n + 1] = math.inf
    at = int(np.argmin(d))
    d.flat[::n + 1] = diag
    if n > 1 and d.flat[at] <= scale:
        i, j = np.unravel_index(at, d.shape)
        raise ZeroOffDiagonal(f"points {labels[i]} and {labels[j]} are at distance {d[i, j]}")

    # holds the largest tile: at most _TILE floats, or one row when a row
    # alone is longer
    buf = np.empty(min(n ** 3, max(_TILE, n)))
    worst = max(float(t.max()) for t in _triangle_tiles(d, buf))
    if worst > scale:
        for k in range(n):
            viol = d - (d[:, k, None] + d[k])
            if float(viol.max()) == worst:
                break
        i, j = np.unravel_index(int(viol.argmax()), d.shape)
        raise TriangleViolation(
            f"d[{labels[i]},{labels[j]}] = {d[i, j]} > "
            f"d[{labels[i]},{labels[k]}] + d[{labels[k]},{labels[j]}] = {d[i, k] + d[k, j]}"
        )

    d.setflags(write=False)
    return FiniteMetricSpace(labels, d)


def from_euclidean(coords, labels=None, tol: float = DEFAULT_METRIC_TOL) -> FiniteMetricSpace:
    """Build a space from point coordinates with pairwise Euclidean distances."""
    pts = [np.asarray(c, dtype=float) for c in coords]
    if not pts:
        raise ValueError("need at least one point")
    dim = pts[0].shape
    for c in pts:
        if c.shape != dim or c.ndim != 1:
            raise DimensionMismatch("coordinate vectors must share one length")
    arr = np.vstack(pts)
    diff = arr[:, None, :] - arr[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(d, 0.0)
    d = (d + d.T) / 2.0
    if labels is None:
        labels = [str(i) for i in range(len(pts))]
    return validate_space(labels, d, tol=tol)


def dirac(space: FiniteMetricSpace, index: int, mass: float = 1.0) -> SignedMeasure:
    """Point mass ``mass`` at ``index``."""
    if not 0 <= index < space.n:
        raise IndexOutOfRange(f"index {index} outside space of size {space.n}")
    w = np.zeros(space.n)
    w[index] = float(mass)
    return SignedMeasure(space, w)


def zero_measure(space: FiniteMetricSpace) -> SignedMeasure:
    return SignedMeasure(space, np.zeros(space.n))


def jordan_decompose(mu: SignedMeasure) -> tuple[SignedMeasure, SignedMeasure]:
    """Split into positive and negative parts with disjoint supports."""
    w = mu.weights
    return (SignedMeasure(mu.space, np.maximum(w, 0.0)),
            SignedMeasure(mu.space, np.maximum(-w, 0.0)))


def tv_norm(mu: SignedMeasure) -> float:
    """Total variation: the sum of absolute weights, so that a unit dipole has TV 2."""
    return math.fsum(np.abs(mu.weights).tolist())


def total_charge(mu: SignedMeasure) -> float:
    return math.fsum(mu.weights.tolist())


def support(mu: SignedMeasure, tol: float = SUPPORT_REL_TOL) -> list[int]:
    """Indices carrying weight above ``tol * max(1, tv_norm)``."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    cut = tol * max(1.0, tv_norm(mu))
    return np.flatnonzero(np.abs(mu.weights) > cut).tolist()
