"""Command line front end.

Exit codes: 0 success (result JSON on stdout), 2 invalid input (metric
violation, schema error, bad exponent), 3 tolerance not met (best
primal/dual pair still printed), 1 internal numerical failure. Errors go
to stderr as {"error": {"kind": ..., "detail": ...}}. Diagnostics are
controlled by the PKR_LOG environment variable (quiet, info, debug) and
never touch stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import formats
from .certify import DEFAULT_CERT_TOL, check_optimality
from .errors import NumericalFailure, PkrError, SchemaError, ToleranceNotMet
from .holder import check_p, check_q
from .lipschitz import DualSolution, dual_solve
from .pknorm import PkSolution, pareto_frontier, pk_dist, pk_norm
from .transport import kr_norm
from .space import DEFAULT_METRIC_TOL, DEFAULT_TOL, tv_norm

log = logging.getLogger("pkr")


def _setup_logging() -> None:
    level = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("PKR_LOG", "quiet"), logging.ERROR)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="pkr: %(levelname)s: %(message)s")


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None


def _exponent(text: str, check) -> float:
    if text.strip().lower() == "inf":
        return math.inf
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(f"exponent must be a number or 'inf', got {text!r}") from None
    return check(value)


def _space_from(args):
    sp = formats.load_space(_read_json(args.space), tol=args.metric_tol,
                            allow_repair=getattr(args, "allow_repair", False))
    log.debug("loaded space with %d points, diameter %g", sp.n, sp.diameter)
    return sp


def _emit(payload: dict, output: str | None = None) -> None:
    text = json.dumps(payload) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_validate(args) -> dict:
    sp = _space_from(args)
    return {"valid": True, "n": sp.n, "diameter": float(sp.diameter),
            "points": list(sp.labels)}


def cmd_kr(args) -> dict:
    sp = _space_from(args)
    mu = formats.load_measure(sp, _read_json(args.measure))
    return formats.flow_record(sp, kr_norm(sp, mu))


def cmd_tv(args) -> dict:
    obj = _read_json(args.measure)
    if args.space is not None:
        sp = _space_from(args)
        return {"value": tv_norm(formats.load_measure(sp, obj))}
    weights = obj.get("weights")
    if not isinstance(weights, list):
        raise SchemaError("tv with label-keyed weights requires --space")
    vals = [formats._real(x, "measure.weights") for x in weights]
    return {"value": float(math.fsum(abs(x) for x in vals))}


def cmd_pk(args) -> dict:
    sp = _space_from(args)
    mu = formats.load_measure(sp, _read_json(args.measure))
    p = _exponent(args.p, check_p)
    return formats.pk_record(sp, pk_norm(sp, mu, p, tol=args.tol))


def _manifest_files(path: str):
    """The (mu, nu) file paths of a --pairs manifest, relative to its folder,
    each entry checked as it is reached."""
    pairs = _read_json(path).get("pairs")
    if not isinstance(pairs, list):
        raise SchemaError("manifest must contain a 'pairs' list")
    base = Path(path).parent
    for k, entry in enumerate(pairs):
        if not isinstance(entry, dict) or "mu" not in entry or "nu" not in entry:
            raise SchemaError(f"pairs[{k}] must map 'mu' and 'nu' to file paths")
        yield str(base / entry["mu"]), str(base / entry["nu"])


def cmd_dist(args) -> dict:
    sp = _space_from(args)
    p = _exponent(args.p, check_p)
    if args.pairs is not None:
        files = _manifest_files(args.pairs)
    elif args.mu is None or args.nu is None:
        raise SchemaError("dist needs --mu and --nu, or --pairs")
    else:
        files = [(args.mu, args.nu)]
    results = []
    for mu_file, nu_file in files:
        mu = formats.load_measure(sp, _read_json(mu_file))
        nu = formats.load_measure(sp, _read_json(nu_file))
        results.append(formats.pk_record(sp, pk_dist(sp, mu, nu, p, tol=args.tol)))
    return {"results": results} if args.pairs is not None else results[0]


def cmd_dual(args) -> dict:
    sp = _space_from(args)
    mu = formats.load_measure(sp, _read_json(args.measure))
    q = _exponent(args.q, check_q)
    return formats.dual_record(sp, dual_solve(sp, mu, q, tol=args.tol))


def cmd_certify(args) -> dict:
    sp = _space_from(args)
    mu = formats.load_measure(sp, _read_json(args.measure))
    if args.solution is not None:
        rec = _read_json(args.solution)
        xi = formats.load_measure(sp, {"weights": rec.get("xi")})
        plan = formats.load_plan(sp, rec.get("plan", {}))
        f = formats.load_function(sp, {"values": rec.get("dual_f")})
        p_text = args.p if args.p is not None else str(rec.get("p"))
    else:
        if args.xi is None or args.plan is None or args.f is None:
            raise SchemaError("certify needs --solution, or --xi, --plan and --f")
        if args.p is None:
            raise SchemaError("certify needs --p when not using --solution")
        xi = formats.load_measure(sp, _read_json(args.xi))
        plan = formats.load_plan(sp, _read_json(args.plan))
        f = formats.load_function(sp, _read_json(args.f))
        p_text = args.p
    p = _exponent(p_text, check_p)
    cert = check_optimality(sp, mu, xi, plan, f, p, tol=args.tol)
    return formats.certificate_record(cert)


def cmd_frontier(args) -> dict:
    sp = _space_from(args)
    mu = formats.load_measure(sp, _read_json(args.measure))
    rows = pareto_frontier(sp, mu)
    return {"frontier": [[float(l), float(a), float(b)] for l, a, b in rows]}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkr",
        description="p-Kantorovich norms, transport plans, dual witnesses "
                    "and optimality certificates on finite metric spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp_parser, space=True, measure=True, tol=False):
        if space:
            sp_parser.add_argument("--space", required=True, help="space JSON file")
            sp_parser.add_argument("--metric-tol", type=float, default=DEFAULT_METRIC_TOL,
                                   help="relative metric validation tolerance")
        if measure:
            sp_parser.add_argument("--measure", required=True, help="measure JSON file")
        if tol:
            sp_parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                                   help="relative duality-gap tolerance")
        sp_parser.add_argument("--output", default=None,
                               help="write the result JSON here instead of stdout")

    c = sub.add_parser("validate", help="validate a space file")
    common(c, measure=False)
    c.add_argument("--allow-repair", action="store_true",
                   help="symmetrize near-symmetric matrices before validation")
    c.set_defaults(func=cmd_validate)

    c = sub.add_parser("kr", help="Kantorovich-Rubinstein norm of a zero-charge measure")
    common(c)
    c.set_defaults(func=cmd_kr)

    c = sub.add_parser("tv", help="total variation norm of a measure")
    common(c, space=False, measure=False)
    c.add_argument("--measure", required=True)
    c.add_argument("--space", default=None, help="needed for label-keyed weights")
    c.add_argument("--metric-tol", type=float, default=DEFAULT_METRIC_TOL)
    c.set_defaults(func=cmd_tv)

    c = sub.add_parser("pk", help="p-Kantorovich norm with certificate data")
    common(c, tol=True)
    c.add_argument("--p", required=True, help="exponent in [1, inf], or 'inf'")
    c.set_defaults(func=cmd_pk)

    c = sub.add_parser("dist", help="p-Kantorovich distance between measures")
    common(c, measure=False, tol=True)
    c.add_argument("--p", required=True)
    c.add_argument("--mu", default=None, help="first measure JSON file")
    c.add_argument("--nu", default=None, help="second measure JSON file")
    c.add_argument("--pairs", default=None,
                   help="manifest JSON with a 'pairs' list of {mu, nu} paths")
    c.set_defaults(func=cmd_dist)

    c = sub.add_parser("dual", help="q-Lipschitz dual witness for a measure")
    common(c, tol=True)
    c.add_argument("--q", required=True, help="exponent in [1, inf], or 'inf'")
    c.set_defaults(func=cmd_dual)

    c = sub.add_parser("certify", help="check optimality conditions for a solution")
    common(c)
    c.add_argument("--p", default=None)
    c.add_argument("--solution", default=None, help="pk output record to check")
    c.add_argument("--xi", default=None, help="decomposition measure JSON file")
    c.add_argument("--plan", default=None, help="transport plan JSON file")
    c.add_argument("--f", default=None, help="witness function JSON file")
    c.add_argument("--tol", type=float, default=DEFAULT_CERT_TOL,
                   help="relative pass/fail tolerance per condition")
    c.set_defaults(func=cmd_certify)

    c = sub.add_parser("frontier", help="transport/annihilation trade-off table")
    common(c)
    c.set_defaults(func=cmd_frontier)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    output = getattr(args, "output", None)
    try:
        payload = args.func(args)
    except (PkrError, ValueError) as exc:
        # a ToleranceNotMet carries the best pair, which is still printed
        result = getattr(exc, "result", None)
        if isinstance(result, PkSolution):
            _emit(formats.pk_record(result.xi.space, result), output)
        elif isinstance(result, DualSolution):
            _emit(formats.dual_record(result.f.space, result), output)
        kind = exc.kind if isinstance(exc, PkrError) else "SchemaError"
        sys.stderr.write(json.dumps({"error": {"kind": kind, "detail": str(exc)}}) + "\n")
        if isinstance(exc, ToleranceNotMet):
            return 3
        return 1 if isinstance(exc, NumericalFailure) else 2
    _emit(payload, output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
