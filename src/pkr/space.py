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


def _frozen_array(values, dtype=float) -> np.ndarray:
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
        if not np.all(np.isfinite(d)):
            raise ValueError("distance matrix entries must be finite")
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "diameter", float(d.max()) if d.size else 0.0)

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


def validate_space(labels, matrix, tol: float = DEFAULT_METRIC_TOL,
                   allow_repair: bool = False) -> FiniteMetricSpace:
    """Validate a distance matrix and return the space.

    Checks, within ``tol * max(1, diameter)``: zero diagonal, symmetry,
    strictly positive off-diagonal entries, and the triangle inequality.
    With ``allow_repair`` the matrix is symmetrized to (d + d^T)/2 before
    the remaining checks; by default the matrix is kept exactly as given.

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
            f"d[{labels[i]},{labels[j]}] = {d[i, j]} but d[{labels[j]},{labels[i]}] = {d[j, i]}"
        )
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

    # worst triangle violation: max over k of d[i,j] - d[i,k] - d[k,j]
    worst = -math.inf
    worst_triple = None
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
            f"d[{labels[i]},{labels[k]}] + d[{labels[k]},{labels[j]}] = {d[i, k] + d[k, j]}"
        )

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
    return float(math.fsum(abs(float(x)) for x in mu.weights))


def total_charge(mu: SignedMeasure) -> float:
    return float(math.fsum(float(x) for x in mu.weights))


def support(mu: SignedMeasure, tol: float = SUPPORT_REL_TOL) -> list[int]:
    """Indices carrying weight above ``tol * max(1, tv_norm)``."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    cut = tol * max(1.0, tv_norm(mu))
    return [i for i, x in enumerate(mu.weights) if abs(float(x)) > cut]
