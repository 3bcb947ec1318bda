"""JSON file formats and output records.

Input schemas:
    space    {"points": [str, ...],
              "metric": {"type": "matrix", "d": [[...]]}
                      | {"type": "euclidean", "coords": [[...]]}}
    measure  {"weights": [real, ...]}
             or {"weights": {"label": real, ...}} (omitted labels are 0)
    function {"values": [real, ...]}
    plan     {"entries": [{"from": label, "to": label, "mass": real}, ...]}

Outputs are plain dicts of Python floats in fixed key order, so
``json.dumps`` produces byte-identical text for identical inputs
(shortest round-trip float formatting).
"""

from __future__ import annotations

import math

import numpy as np

from .certify import Certificate
from .errors import SchemaError
from .lipschitz import DualSolution, LipschitzFunction
from .pknorm import PkSolution
from .space import (
    DEFAULT_METRIC_TOL,
    FiniteMetricSpace,
    SignedMeasure,
    from_euclidean,
    validate_space,
)
from .transport import FlowResult, TransportPlan, plan_cost


def _require(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{where}: missing key {key!r}")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise SchemaError(f"{where}: key {key!r} has wrong type")
    return val


def _real(x, where) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {type(x).__name__}")
    x = float(x)
    if not math.isfinite(x):
        raise SchemaError(f"{where}: number must be finite")
    return x


def load_space(obj: dict, tol: float = DEFAULT_METRIC_TOL,
               allow_repair: bool = False) -> FiniteMetricSpace:
    points = _require(obj, "points", list, "space")
    if not points or not all(isinstance(s, str) for s in points):
        raise SchemaError("space: 'points' must be a nonempty list of strings")
    metric = _require(obj, "metric", dict, "space")
    kind = _require(metric, "type", str, "space.metric")
    if kind == "matrix":
        rows = _require(metric, "d", list, "space.metric")
        d = [[_real(x, "space.metric.d") for x in row] for row in rows]
        return validate_space(points, d, tol=tol, allow_repair=allow_repair)
    if kind == "euclidean":
        coords = _require(metric, "coords", list, "space.metric")
        pts = [[_real(x, "space.metric.coords") for x in row] for row in coords]
        if len(pts) != len(points):
            raise SchemaError("space: coords and points disagree in length")
        return from_euclidean(pts, labels=points, tol=tol)
    raise SchemaError(f"space.metric: unknown type {kind!r}")


def load_measure(space: FiniteMetricSpace, obj: dict) -> SignedMeasure:
    weights = _require(obj, "weights", None, "measure")
    if isinstance(weights, list):
        if len(weights) != space.n:
            raise SchemaError(
                f"measure: {len(weights)} weights for {space.n} points")
        w = [_real(x, "measure.weights") for x in weights]
        return SignedMeasure(space, np.array(w))
    if isinstance(weights, dict):
        w = np.zeros(space.n)
        for label, x in weights.items():
            if label not in space.labels:
                raise SchemaError(f"measure: unknown point label {label!r}")
            w[space.index_of(label)] = _real(x, "measure.weights")
        return SignedMeasure(space, w)
    raise SchemaError("measure: 'weights' must be a list or a label map")


def load_function(space: FiniteMetricSpace, obj: dict) -> LipschitzFunction:
    values = _require(obj, "values", list, "function")
    if len(values) != space.n:
        raise SchemaError(f"function: {len(values)} values for {space.n} points")
    return LipschitzFunction(space, np.array([_real(x, "function.values") for x in values]))


def load_plan(space: FiniteMetricSpace, obj: dict) -> TransportPlan:
    entries = _require(obj, "entries", list, "plan")
    parsed = []
    for e in entries:
        src = _require(e, "from", str, "plan.entries")
        dst = _require(e, "to", str, "plan.entries")
        mass = _real(_require(e, "mass", None, "plan.entries"), "plan.entries.mass")
        if mass < 0:
            raise SchemaError("plan: masses must be nonnegative")
        parsed.append((space.index_of(src), space.index_of(dst), mass))
    return TransportPlan(space, tuple(parsed))


# --- output records -----------------------------------------------------------

def _floats(seq) -> list[float]:
    return [float(x) for x in seq]


def plan_record(space: FiniteMetricSpace, plan: TransportPlan,
                potentials=None) -> dict:
    rec = {
        "cost": float(plan_cost(space, plan)),
        "entries": [
            {"from": space.labels[i], "to": space.labels[j], "mass": float(m)}
            for i, j, m in plan.entries
        ],
    }
    if potentials is not None:
        rec["potentials"] = _floats(potentials)
    return rec


def flow_record(space: FiniteMetricSpace, result: FlowResult) -> dict:
    rec = plan_record(space, result.plan, result.potentials)
    rec["cost"] = float(result.cost)
    return rec


def p_label(p: float):
    if math.isinf(p):
        return "inf"
    if p == 1.0:
        return "1"
    return float(p)


def pk_record(space: FiniteMetricSpace, sol: PkSolution) -> dict:
    return {
        "p": p_label(sol.pair.p),
        "value": float(sol.value),
        "a": float(sol.a),
        "b": float(sol.b),
        "xi": _floats(sol.xi.weights),
        "plan": plan_record(space, sol.plan),
        "dual_f": _floats(sol.dual_f.values),
        "gap": float(sol.gap),
        "frontier": [[float(l), float(a), float(b)] for l, a, b in sol.frontier],
    }


def dual_record(space: FiniteMetricSpace, sol: DualSolution) -> dict:
    return {
        "q": p_label(sol.q),
        "value": float(sol.value),
        "f": _floats(sol.f.values),
        "budget": [float(sol.active_budget[0]), float(sol.active_budget[1])],
    }


def certificate_record(cert: Certificate) -> dict:
    return {
        "conditions": {
            name: {"residual": float(rep.residual), "pass": bool(rep.passed)}
            for name, rep in cert.conditions().items()
        },
        "value": float(cert.value),
        "a": float(cert.a),
        "b": float(cert.b),
        "gap": float(cert.gap),
        "pairing": float(cert.pairing),
        "pass": bool(cert.passed),
    }
