"""One benchmark worker process: set up a workload, time it, check it.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src`` and every BLAS pool limited to one thread. The worker
is the single closed-loop client: it issues the next operation only when
the previous one has returned. It prints one JSON object as the last line
of its standard output.

Modes:
  setup    import pkr and set the workload up, report ``setup_s`` only
  measure  set up, run the timed phase untraced, then check every output
  trace    install the span wrappers and alternate untraced and traced
           passes over a fixed prefix of the schedule (see README.md)
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, deque
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from workloads import WORKLOADS, rng_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_pkr():
    pkr = importlib.import_module("pkr")
    where = Path(pkr.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise RuntimeError(f"pkr imported from {where}, not from {ROOT / 'src'}")
    return pkr


def timed_op(run, pkr, state, key):
    """Run one operation; an exception is returned as the output."""
    start = perf_counter()
    try:
        out = run(pkr, state, key)
    except Exception as exc:  # a failed op is counted, not fatal
        out = exc
    return out, perf_counter() - start


def verdicts(wl, pkr, state, outputs: dict) -> dict:
    """Check the first output of every key; None means certified."""
    found = {}
    for key, out in outputs.items():
        if isinstance(out, Exception):
            found[key] = f"raised {type(out).__name__}: {out}"
            continue
        try:
            found[key] = wl.check(pkr, state, key, out)
        except Exception as exc:  # an output that breaks its check fails it
            found[key] = f"check raised {type(exc).__name__}: {exc}"
    return found


def tally(keys, prints, found, reference) -> tuple[int, Counter]:
    """Failed ops: raised, failed their check, or not byte-identical."""
    reasons: Counter = Counter()
    for key, fp in zip(keys, prints):
        if found[key] is not None:
            reasons[found[key]] += 1
        elif reference.setdefault(key, fp) != fp:
            reasons["output differs from the first run of the same operation"] += 1
    return sum(reasons.values()), reasons


REF_SECOND = 1.5e-3     # wall time of one reference loop on the nominal machine
RERUNS = 3              # operations run again after the timed phase


def _reference_loop() -> int:
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


class RefClock:
    """Wall time rescaled by the speed of a fixed pure-Python loop.

    On a shared 2-core virtual machine the same work was measured to take
    up to 1.6x longer from one half-minute to the next, for every
    workload at once, as other tenants load the host. The loop slows down
    with it, so a duration times REF_SECOND / (recent loop time) stays
    put. Call ``probe`` between operations; ``scale`` uses the median of
    the last ``window`` probes.
    """

    def __init__(self, window: int = 9):
        self.recent: deque[float] = deque(maxlen=window)
        self.samples: list[float] = []
        for _ in range(window):
            self.probe()

    def probe(self) -> None:
        start = perf_counter()
        _reference_loop()
        took = perf_counter() - start
        self.recent.append(took)
        self.samples.append(took)

    def scale(self) -> float:
        return REF_SECOND / statistics.median(self.recent)

    def run_scale(self) -> float:
        return REF_SECOND / statistics.median(self.samples)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples above it (fewer if short)."""
    xs = sorted(latencies)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def timing_metrics(latencies: list[float], ok: int) -> dict:
    value, _, _ = tail(latencies)
    return {"ops_per_s": ok / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": value}


def measure(wl, pkr, state, seconds: float, clock: RefClock) -> dict:
    """Closed loop until the operations have taken ``seconds`` of wall time."""
    schedule = wl.schedule(state)
    keys, prints, wall, ref, outputs = [], [], [], [], {}
    while sum(wall) < seconds:
        key = schedule[len(keys) % len(schedule)]
        clock.probe()
        out, dt = timed_op(wl.run, pkr, state, key)
        keys.append(key)
        wall.append(dt)
        ref.append(dt * clock.scale())
        outputs.setdefault(key, out)
        prints.append(None if isinstance(out, Exception) else wl.fingerprint(out))
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-dist" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss

    timed = len(keys)
    for key in schedule[:RERUNS]:  # rerun untimed: output must repeat byte for byte
        out, _ = timed_op(wl.run, pkr, state, key)
        keys.append(key)
        outputs.setdefault(key, out)
        prints.append(None if isinstance(out, Exception) else wl.fingerprint(out))
    found = verdicts(wl, pkr, state, outputs)
    failed, reasons = tally(keys, prints, found, {})
    ok = timed - tally(keys[:timed], prints[:timed], found, {})[0]
    _, pct, beyond = tail(ref)
    return {
        "attempted": len(keys),
        "failed": failed,
        "failures": dict(reasons.most_common(5)),
        "metrics": {**timing_metrics(ref, ok), "peak_rss_mb": peak_kb / 1024.0},
        "wall": timing_metrics(wall, ok),
        "tail": {"percentile": pct, "samples": len(ref), "beyond": beyond},
        "timed_wall_s": sum(wall),
        "distinct_ops": len(outputs),
    }


def import_seconds(samples: int = 3) -> float:
    """Median wall time of a separate ``python -c "import pkr"``."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import pkr"], check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def trace(wl, raw, seconds: float) -> dict:
    """Per-layer spans over setup, one fixed pass of operations and its checks.

    Untraced and traced passes over the same operations alternate until
    ``seconds`` have passed, which gives the tracing overhead; every traced
    pass must repeat the first one's counts exactly.
    """
    start = perf_counter()
    clock = RefClock()
    pkr = import_pkr()
    tracer = spans.Tracer()
    tracer.install()
    tracer.active, tracer.op = True, "setup"
    state = wl.setup(pkr, raw)
    tracer.active = False
    setup_spans = tracer.take()

    run = getattr(wl, "run_in_process", wl.run)
    keys = wl.schedule(state)[:wl.trace_pass]
    times = {False: [], True: []}
    first_pass, first_counts, prints = None, None, []
    all_keys, warm = [], True
    while not (times[False] and times[True] and perf_counter() - start >= seconds):
        for traced in (False, True):
            tracer.active = traced
            outputs, took = {}, 0.0
            for i, key in enumerate(keys):
                tracer.op = f"op{i}"
                clock.probe()
                out, dt = timed_op(run, pkr, state, key)
                took += dt
                outputs.setdefault(key, out)
                all_keys.append(key)
                prints.append(None if isinstance(out, Exception) else wl.fingerprint(out))
            tracer.active = False
            if warm:  # the first pass warms caches and is not timed
                warm = False
                continue
            times[traced].append(took)
            if not traced:
                continue
            pass_spans = tracer.take()
            counts = spans.counts_only(spans.summary(pass_spans))
            if first_pass is None:
                first_pass, first_counts, first_outputs = pass_spans, counts, outputs
            elif counts != first_counts:
                raise RuntimeError(f"traced counts differ between passes: "
                                   f"{first_counts} != {counts}")

    tracer.active, tracer.op, tracer.only = True, "check", {"certify.check_optimality"}
    found = verdicts(wl, pkr, state, first_outputs)
    tracer.active, tracer.only = False, None
    check_spans = tracer.take()
    tracer.uninstall()

    fired_ops = {sp.name for sp in first_pass}
    table = spans.summary(setup_spans + first_pass + check_spans)
    missing = spans.EXPECTED[wl.name] - set(table)
    stray = spans.ABSENT[wl.name] & fired_ops
    if missing or stray:
        raise RuntimeError(f"workload {wl.name}: layers without spans {sorted(missing)}, "
                           f"layers its operations must not reach {sorted(stray)}; "
                           f"wrapper sites {tracer.sites}")

    failed, reasons = tally(all_keys, prints, found, {})
    scale = clock.run_scale()
    for row in table.values():
        row["s"] *= scale
        row["self_s"] *= scale
    metrics = spans.layer_metrics(table)
    metrics["cli.import_s"] = (import_seconds() * scale if wl.name == "cli-dist" else 0.0, "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(times[False]) / statistics.median(times[True]), "ratio")
    return {
        "attempted": len(all_keys),
        "failed": failed,
        "failures": dict(reasons.most_common(5)),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "units": {k: u for k, (_, u) in metrics.items()},
        "passes": len(times[True]),
        "pass_ops": len(keys),
        "sites": tracer.sites,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "measure", "trace"])
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        raw = wl.generate(rng_for(wl.name, args.seed), Path(tmp))
        if args.mode == "trace":
            result = trace(wl, raw, args.seconds)
        else:
            clock = RefClock()
            start = perf_counter()
            pkr = import_pkr()
            state = wl.setup(pkr, raw)
            took = perf_counter() - start
            for _ in range(len(clock.recent)):
                clock.probe()
            result = {"setup_s": took * clock.run_scale(), "setup_wall_s": took}
            if args.mode == "measure":
                result.update(measure(wl, pkr, state, args.seconds, clock))
    result["numpy"] = np.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
