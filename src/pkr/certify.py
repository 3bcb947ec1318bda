"""Machine-checkable optimality certificates.

Verifies a proposed (xi, plan, witness) triple for a given measure and
exponent by pure arithmetic, independent of how it was produced: if the
four residuals vanish, the chain

    pairing(f, mu) = lip(f) * cost(plan) + sup(f) * tv(mu - xi)
                   = lp(cost, tv) >= norm >= pairing(f, mu)

closes, so the triple and the witness are simultaneously optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import pknorm
from .errors import ConjugacyError, DivergenceMismatch, InvalidP, OrderError
from .holder import HolderPair, lp_combine
from .lipschitz import LipschitzFunction, lip_const, pairing, sup_norm
from .pknorm import pk_norm
from .space import DEFAULT_TOL, FiniteMetricSpace, SignedMeasure, support, tv_norm
from .transport import TransportPlan, plan_cost, plan_divergence

DEFAULT_CERT_TOL = 1e-6


@dataclass(frozen=True)
class ConditionReport:
    residual: float
    passed: bool


@dataclass(frozen=True)
class Certificate:
    """Residuals of the four optimality conditions at a stated tolerance.

    cond_i:   witness lies on the unit sphere of the conjugate norm
    cond_ii:  weighted-sum identity ties the witness norms to the value
    cond_iii: the witness has full slope along every plan arc
    cond_iv:  the witness saturates +-sup on the residual, sign by part
    """

    cond_i: ConditionReport
    cond_ii: ConditionReport
    cond_iii: ConditionReport
    cond_iv: ConditionReport
    value: float
    a: float
    b: float
    pairing: float
    gap: float
    tol: float

    @property
    def passed(self) -> bool:
        return (self.cond_i.passed and self.cond_ii.passed
                and self.cond_iii.passed and self.cond_iv.passed)

    def conditions(self) -> dict[str, ConditionReport]:
        return {"i": self.cond_i, "ii": self.cond_ii,
                "iii": self.cond_iii, "iv": self.cond_iv}


def check_optimality(space: FiniteMetricSpace, mu: SignedMeasure,
                     xi: SignedMeasure, plan: TransportPlan,
                     f: LipschitzFunction, p: float,
                     tol: float = DEFAULT_CERT_TOL) -> Certificate:
    """Evaluate the optimality conditions for a proposed solution.

    The transport cost enters as the cost of the given plan; a suboptimal
    plan cannot sneak through because it breaks the full-slope condition.
    Pass/fail is decided at ``tol * max(1, value)`` per condition and the
    raw residuals are always reported.
    """
    try:
        pair = HolderPair.from_p(p)
    except InvalidP as exc:
        raise ConjugacyError(str(exc)) from exc
    if mu.space is not space or xi.space is not space or f.space is not space:
        raise ValueError("all inputs must live on the given space instance")

    div = plan_divergence(space, plan)
    drift = tv_norm(div - xi)
    if drift > max(tol, 1e-9) * max(1.0, tv_norm(xi)):
        raise DivergenceMismatch(
            f"plan divergence differs from xi by {drift} in total variation")

    lip = lip_const(space, f)
    sup = sup_norm(f)
    a = plan_cost(space, plan)
    resid = mu - xi
    b = tv_norm(resid)
    value = lp_combine(a, b, pair.p)
    scale = max(1.0, value)

    r_i = abs(lp_combine(lip, sup, pair.q) - 1.0)
    r_ii = abs(lip * a + sup * b - value)

    mass_cut = 1e-12 * max(1.0, math.fsum(m for _, _, m in plan.entries))
    r_iii = 0.0
    for i, j, m in plan.entries:
        if m > mass_cut:
            r_iii = max(r_iii, abs(float(f.values[j] - f.values[i])
                                   - lip * float(space.dist[i, j])))

    r_iv = 0.0
    for k in support(resid):
        target = math.copysign(sup, float(resid.weights[k]))
        r_iv = max(r_iv, abs(float(f.values[k]) - target))

    pr = pairing(f, mu)
    cut = tol * scale
    return Certificate(
        ConditionReport(r_i, r_i <= cut),
        ConditionReport(r_ii, r_ii <= cut),
        ConditionReport(r_iii, r_iii <= cut),
        ConditionReport(r_iv, r_iv <= cut),
        value, a, b, pr, value - pr, tol,
    )


def check_holder(space: FiniteMetricSpace, mu: SignedMeasure,
                 f: LipschitzFunction, p: float) -> float:
    """Slack of the pairing bound: norm(mu) * conj_norm(f) - |pairing|.

    Nonnegative up to solver tolerance; zero exactly at a certified
    optimal witness.
    """
    pair = HolderPair.from_p(p)
    bound = pk_norm(space, mu, pair.p).value * lp_combine(
        lip_const(space, f), sup_norm(f), pair.q)
    return bound - abs(pairing(f, mu))


@dataclass(frozen=True)
class EquivalenceReport:
    p1: float
    p2: float
    value1: float
    value2: float
    constant: float
    monotone_ok: bool
    sandwich_ok: bool

    @property
    def passed(self) -> bool:
        return self.monotone_ok and self.sandwich_ok


def check_equivalence(space: FiniteMetricSpace, mu: SignedMeasure,
                      p1: float, p2: float, tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Two-sided norm equivalence with the sharp two-dimensional constant.

    For p1 <= p2: value(p2) <= value(p1) and
    value(p1) <= 2^(1/p1 - 1/p2) * value(p2), both within ``tol``.
    """
    a1 = HolderPair.from_p(p1).p
    a2 = HolderPair.from_p(p2).p
    if a1 > a2:
        raise OrderError(f"need p1 <= p2, got {p1} > {p2}")
    # read off the module at call time, so a wrapper installed on it is used
    probes = pknorm.trace_frontier(space, mu)
    v1 = pk_norm(space, mu, a1, probes=probes).value
    v2 = pk_norm(space, mu, a2, probes=probes).value
    inv1 = 0.0 if math.isinf(a1) else 1.0 / a1
    inv2 = 0.0 if math.isinf(a2) else 1.0 / a2
    constant = 2.0 ** (inv1 - inv2)
    return EquivalenceReport(
        a1, a2, v1, v2, constant,
        monotone_ok=v2 <= v1 + tol,
        sandwich_ok=v1 <= constant * v2 + tol,
    )
