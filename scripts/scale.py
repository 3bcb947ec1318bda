"""Time the solver's stages on one large instance per size, and count their work.

Usage, from the root of a checkout:

    python scripts/scale.py --n 200 400 700 --repeat 3 > after.json
    python scripts/scale.py --n 200 --check BENCH_11.json

The instances are the ROADMAP Baseline's: from ``default_rng(5)``, the
shortest-path closure of a symmetric uniform(0.1, 1) n x n matrix, then a
zero-charge measure for ``kr_norm`` and a uniform(-1, 1) measure for the
frontier, drawn as ``tests/conftest.py`` draws them. The stages are
``validate_space``, ``kr_norm``, ``trace_frontier`` and
``pk_norm(p=2, probes=...)`` on the traced frontier. Each stage runs
``--repeat`` times and reports the median wall time. Pivots (summed over
the transport solvers a stage starts) and frontier vertices do not depend
on the machine; ``sha256`` hashes a stage's outputs, so two versions that
agree on it returned the same bytes. ``arcs`` is the arc count of the
charged measure's transport graph, (sources + 1) x (sinks + 1).

Without ``--check`` the script prints one JSON object keyed by n. With
``--check FILE`` it compares the pivot and vertex counts, and the hashes
of the stages in ``HASHED``, with the ones recorded under ``"after"`` in
FILE, prints what differs and exits 1 if anything does; wall times are
not checked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pkr  # noqa: E402
from pkr import transport  # noqa: E402

COUNTS = ("pivots", "vertices")
# the stages whose outputs come only from IEEE + - * /, comparisons and
# math.fsum, so their bytes do not depend on the machine; pk_norm_p2 is left
# out, as lp_combine's ** goes through the platform's libm
HASHED = ("validate_space", "kr_norm", "trace_frontier")


def instance(n: int):
    """The metric matrix, a zero-charge and a charged weight vector."""
    rng = np.random.default_rng(5)
    w = rng.uniform(0.1, 1.0, (n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    d = w.copy()
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    xi = rng.uniform(-1.0, 1.0, n)
    xi -= xi.mean()
    return d, xi, rng.uniform(-1.0, 1.0, n)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def plan_array(plan) -> np.ndarray:
    return np.array(plan.entries, dtype=float).reshape(-1, 3)


def record_solvers() -> list:
    """Keep the transport solvers made from here on, to read their pivots."""
    made = []
    init = transport._TransportationSolver.__init__

    def recording_init(solver, *args):
        init(solver, *args)
        made.append(solver)

    transport._TransportationSolver.__init__ = recording_init
    return made


def stage(solvers: list, repeat: int, run) -> tuple[dict, object]:
    """Median wall time and pivots of ``repeat`` calls of ``run``."""
    times, pivots, out = [], set(), None
    for _ in range(repeat):
        solvers.clear()
        t = perf_counter()
        out = run()
        times.append(perf_counter() - t)
        pivots.add(sum(s.pivots for s in solvers))
    if len(pivots) != 1:
        raise RuntimeError(f"pivot counts differ between repeats: {sorted(pivots)}")
    return {"s": statistics.median(times), "pivots": pivots.pop()}, out


def measure(n: int, repeat: int, solvers: list) -> dict:
    d, xi_w, mu_w = instance(n)
    labels = [f"p{i}" for i in range(n)]
    row, space = stage(solvers, repeat, lambda: pkr.validate_space(labels, d))
    row["sha256"] = digest(space.dist)
    out = {"arcs": int(((mu_w < 0).sum() + 1) * ((mu_w > 0).sum() + 1)),
           "validate_space": row}

    xi, mu = pkr.SignedMeasure(space, xi_w), pkr.SignedMeasure(space, mu_w)
    row, res = stage(solvers, repeat, lambda: pkr.kr_norm(space, xi))
    row["sha256"] = digest([res.cost], plan_array(res.plan), res.potentials)
    out["kr_norm"] = row

    row, verts = stage(solvers, repeat, lambda: pkr.trace_frontier(space, mu))
    row["vertices"] = len(verts)
    row["sha256"] = digest(*[part for fp in verts
                             for part in ([fp.lam, fp.a, fp.b], fp.u, fp.arcs, fp.mass)])
    out["trace_frontier"] = row

    row, sol = stage(solvers, repeat, lambda: pkr.pk_norm(space, mu, 2.0, probes=verts))
    row["sha256"] = digest([sol.value, sol.a, sol.b, sol.gap], sol.xi.weights,
                           plan_array(sol.plan), sol.dual_f.values, sol.frontier)
    out["pk_norm_p2"] = row
    return out


def differences(result: dict, recorded: dict) -> list[str]:
    found = []
    for n, stages in result.items():
        if n not in recorded:
            found.append(f"n={n}: nothing recorded")
            continue
        for name, row in stages.items():
            keys = COUNTS + ("sha256",) if name in HASHED else COUNTS
            for key in keys:
                if isinstance(row, dict) and key in row and row[key] != recorded[n][name][key]:
                    found.append(f"n={n} {name} {key}: {row[key]}, "
                                 f"recorded {recorded[n][name][key]}")
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", required=True)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--check", type=Path,
                    help="compare counts and hashes with this file's \"after\" runs")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    solvers = record_solvers()
    result = {str(n): measure(n, args.repeat, solvers) for n in args.n}
    print(json.dumps(result, indent=1))
    if args.check is None:
        return 0
    found = differences(result, json.loads(args.check.read_text())["after"])
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
