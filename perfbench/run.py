"""Run one workload of the pkr benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kr --seed 7 --seconds 15 --trace 0

Workloads: kr, pk, pk-reuse, cli-dist (see perfbench/README.md). With
``--trace 0`` the report carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run. Every
line but the last is for people: provenance, then one line per metric
with its unit. The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is built from this checkout's ``src``; the script
exits non-zero without a result when that source is missing or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3       # setup_s is the median of this many fresh setups
DEADLINE_S = 170.0      # whole run, all workers included

END_TO_END = {"ops_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def start(cmd: list[str], deadline: float) -> str:
    """Run a child in its own process group; kill the group at the deadline
    or when this script is terminated."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)

    def stop():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()

    signal.signal(signal.SIGTERM, lambda *_: (stop(), sys.exit("run.py: terminated")))
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        stop()
        sys.exit(f"run.py: {' '.join(cmd[1:3])} timed out")
    if proc.returncode != 0:
        sys.stderr.write(err)
        sys.exit(f"run.py: {' '.join(cmd[1:])} exited with code {proc.returncode}")
    return out


def worker(args, mode: str, deadline: float) -> dict:
    out = start([sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--mode", mode], deadline)
    return json.loads(out.strip().splitlines()[-1])


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one workload of the pkr benchmark.")
    ap.add_argument("--workload", required=True,
                    choices=["kr", "pk", "pk-reuse", "cli-dist"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "pkr" / "__init__.py").is_file():
        sys.exit(f"run.py: no pkr source under {ROOT / 'src'}")

    deadline = monotonic() + DEADLINE_S
    # one core for every process of the run, so that the reference probe
    # and the operations it rescales share the same CPU
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    # compile pkr's bytecode once, untimed: users do not pay it on every run
    start([sys.executable, "-c", "import pkr"], deadline)

    if args.trace:
        res = worker(args, "trace", deadline)
        metrics = {k: (v, res["units"][k]) for k, v in res["metrics"].items()}
        details = {"pass_ops": res["pass_ops"], "traced_passes": res["passes"],
                   "wrapper_sites": res["sites"]}
    else:
        runs = [worker(args, "setup", deadline) for _ in range(SETUP_REPEATS - 1)]
        res = worker(args, "measure", deadline)
        runs.append(res)
        res["metrics"]["setup_s"] = statistics.median(r["setup_s"] for r in runs)
        res["wall"]["setup_s"] = statistics.median(r["setup_wall_s"] for r in runs)
        metrics = {k: (res["metrics"][k], u) for k, u in END_TO_END.items()}
        details = {"latency_tail": res["tail"], "timed_wall_s": res["timed_wall_s"],
                   "distinct_ops": res["distinct_ops"],
                   "setup_samples_s": [r["setup_s"] for r in runs],
                   "wall_clock": res["wall"]}

    from workloads import WORKLOADS  # numpy only; kept out of the failure path above
    provenance = {
        "git_sha": git_sha(), "python": platform.python_version(), "numpy": res["numpy"],
        "nproc": os.cpu_count(), "pinned_cpu": cpu, "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload, "trace": args.trace,
        "workloads": {name: wl.params for name, wl in WORKLOADS.items()},
        **details,
    }
    attempted, failed = res["attempted"], res["failed"]
    print(f"# pkr benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    if res["failures"]:
        print("# failures " + json.dumps(res["failures"]))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    if not args.trace:
        print("# wall clock: " + ", ".join(f"{k} = {v:.6g}" for k, v in res["wall"].items()))
        tail = res["tail"]
        print(f"latency_tail_s is p{tail['percentile']:.4g} of {tail['samples']} samples, "
              f"{tail['beyond']} beyond it")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
