"""Holder-conjugate exponent pairs and the two-coordinate l^p combination."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConjugacyError, InvalidP, InvalidQ

INF = math.inf


def check_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise InvalidP(f"p must lie in [1, inf], got {p}")
    return p


def check_q(q: float) -> float:
    q = float(q)
    if math.isnan(q) or q < 1.0:
        raise InvalidQ(f"q must lie in [1, inf], got {q}")
    return q


def conjugate_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1, under the conventions 1 <-> inf."""
    p = check_p(p)
    if p == 1.0:
        return INF
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class HolderPair:
    """Conjugate exponents (p, q) with 1/p + 1/q = 1 (1/inf read as 0)."""

    p: float
    q: float

    def __post_init__(self):
        p = check_p(self.p)
        q = check_q(self.q)
        inv = (0.0 if math.isinf(p) else 1.0 / p) + (0.0 if math.isinf(q) else 1.0 / q)
        if abs(inv - 1.0) > 1e-9:
            raise ConjugacyError(f"1/{p} + 1/{q} = {inv} != 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def from_p(cls, p: float) -> "HolderPair":
        p = check_p(p)
        return cls(p, conjugate_exponent(p))

    @classmethod
    def from_q(cls, q: float) -> "HolderPair":
        q = check_q(q)
        return cls(conjugate_exponent(q), q)


def lp_combine(a: float, b: float, p: float) -> float:
    """(a^p + b^p)^(1/p) for a, b >= 0, with p = inf read as max(a, b).

    Scaled by max(a, b) before exponentiation so large finite p cannot
    overflow.
    """
    p = check_p(p)
    a = abs(float(a))
    b = abs(float(b))
    m = max(a, b)
    if m == 0.0:
        return 0.0
    if math.isinf(p):
        return m
    if p == 1.0:
        return a + b
    return m * ((a / m) ** p + (b / m) ** p) ** (1.0 / p)


def aligned_weight(a: float, b: float, p: float) -> float:
    """The weight lam = (b / a)^(p - 1) for a, b >= 0, so that (1, lam) is
    parallel to (a^(p-1), b^(p-1)), the direction of the conjugate unit
    vector that attains the l^p norm of (a, b) in Holder's inequality.

    p = 1 gives 1; p = inf gives 0 when a >= b and inf otherwise. Written
    with logarithms, so that no quotient or power can overflow.
    """
    p = check_p(p)
    if p == 1.0:
        return 1.0
    if math.isinf(p):
        return 0.0 if a >= b else INF
    if b <= 0.0:
        return 0.0
    if a <= 0.0:
        return INF
    expo = (p - 1.0) * (math.log(b) - math.log(a))
    return INF if expo > 709.0 else math.exp(expo)
