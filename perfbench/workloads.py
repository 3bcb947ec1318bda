"""Seeded inputs, operations and correctness checks of the four workloads.

Every input is drawn from ``numpy.random.default_rng((seed, workload))``
by the generators below, so one seed always gives the same inputs and
pkr receives only the generated numbers and files. Nothing is imported
from the repository's tests. Metric instances are the shortest-path
closure of a symmetric uniform(0.1, 1) matrix, the family the test suite
and the ROADMAP Baseline use.

A workload has three phases, and only ``setup`` and ``run`` call pkr's
solvers:

* ``generate`` draws the raw numbers (and, for ``cli-dist``, writes the
  files). It is the benchmark's own cost and stays outside ``setup_s``.
* ``setup`` turns them into pkr objects: ``validate_space`` on every
  matrix and, for ``pk-reuse``, ``trace_frontier`` on every measure.
* ``run`` performs one operation, named by a key from ``schedule``.

``check`` certifies one output outside the timed phase, and
``fingerprint`` reduces an output to bytes, so that a repeated key can be
held to byte-identical output.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

TOL = 1e-6         # relative tolerance of every certificate check
GAP_TOL = 1e-8     # pk_norm's own default duality-gap tolerance
INF = math.inf


def metric_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Shortest-path closure of a symmetric uniform(0.1, 1) matrix."""
    w = rng.uniform(0.1, 1.0, (n, n))
    d = (w + w.T) / 2.0
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


def zero_charge_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Full-support weights summing to zero."""
    w = rng.uniform(-1.0, 1.0, n)
    return w - w.mean()


def signed_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Weights with nonzero total charge."""
    return rng.uniform(-1.0, 1.0, n)


def probability_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.uniform(0.0, 1.0, n)
    return w / w.sum()


def labels(n: int) -> list[str]:
    return [f"p{i}" for i in range(n)]


def _instances(pkr, n: int, raw) -> list:
    """Validated spaces, each with its measure, from (matrix, weights) pairs."""
    names = labels(n)
    out = []
    for d, w in raw:
        space = pkr.validate_space(names, d)
        out.append((space, pkr.SignedMeasure(space, w)))
    return out


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return h.digest()


def _plan_array(plan) -> np.ndarray:
    return np.array([[i, j, m] for i, j, m in plan.entries], dtype=float).reshape(-1, 3)


def _lip(dist: np.ndarray, values: np.ndarray) -> float:
    """Lipschitz constant, computed here rather than by pkr."""
    diff = np.abs(values[:, None] - values[None, :])
    off = ~np.eye(len(values), dtype=bool)
    return float((diff[off] / dist[off]).max(initial=0.0))


def _lp(x: float, y: float, p: float) -> float:
    if math.isinf(p):
        return max(x, y)
    return (x ** p + y ** p) ** (1.0 / p)


def _pk_check(pkr, space, mu, sol, p) -> str | None:
    """Certify one pk_norm output with check_optimality and its gap."""
    cert = pkr.check_optimality(space, mu, sol.xi, sol.plan, sol.dual_f, p)
    scale = max(1.0, sol.value)
    if not cert.passed:
        bad = [k for k, c in cert.conditions().items() if not c.passed]
        return f"check_optimality failed conditions {bad}"
    if not sol.gap <= GAP_TOL * scale:
        return f"gap {sol.gap} above {GAP_TOL * scale}"
    if abs(cert.value - sol.value) > TOL * scale:
        return f"value {sol.value} differs from certified {cert.value}"
    return None


def _pk_digest(sol) -> bytes:
    return _digest([sol.value, sol.a, sol.b, sol.gap], sol.xi.weights,
                   _plan_array(sol.plan), sol.dual_f.values,
                   np.array(sol.frontier, dtype=float))


class Workload:
    """One seeded set of inputs and the operation the benchmark repeats."""

    name = ""
    why = ""
    params: dict = {}
    trace_pass = 0     # operations in one pass of the traced run

    def generate(self, rng: np.random.Generator, workdir: Path):
        raise NotImplementedError

    def setup(self, pkr, raw):
        raise NotImplementedError

    def schedule(self, state) -> list:
        raise NotImplementedError

    def run(self, pkr, state, key):
        raise NotImplementedError

    def check(self, pkr, state, key, out) -> str | None:
        raise NotImplementedError

    def fingerprint(self, out) -> bytes:
        raise NotImplementedError


class KR(Workload):
    name = "kr"
    why = ("kr_norm on full-support zero-charge measures: the transport engine "
           "alone, no frontier and no witness")
    params = {"n": 40, "instances": 256}
    trace_pass = 12

    def generate(self, rng, workdir):
        n = self.params["n"]
        return [(metric_matrix(rng, n), zero_charge_weights(rng, n))
                for _ in range(self.params["instances"])]

    def setup(self, pkr, raw):
        return _instances(pkr, self.params["n"], raw)

    def schedule(self, state):
        return list(range(len(state)))

    def run(self, pkr, state, key):
        space, mu = state[key]
        return pkr.kr_norm(space, mu)

    def check(self, pkr, state, key, out):
        space, mu = state[key]
        w = mu.weights
        scale = max(1.0, out.cost)
        div = np.zeros(space.n)
        for i, j, m in out.plan.entries:
            div[j] += m
            div[i] -= m
        drift = float(np.abs(div - w).max())
        if drift > TOL * max(1.0, float(np.abs(w).sum())):
            return f"plan divergence differs from the measure by {drift}"
        lip = _lip(space.dist, np.asarray(out.potentials))
        if lip > 1.0 + TOL:
            return f"potentials have Lipschitz constant {lip} > 1"
        dual = float(np.dot(out.potentials, w))
        if abs(dual - out.cost) > TOL * scale:
            return f"potentials pair to {dual}, cost is {out.cost}"
        cost = math.fsum(m * float(space.dist[i, j]) for i, j, m in out.plan.entries)
        if abs(cost - out.cost) > TOL * scale:
            return f"plan costs {cost}, reported cost is {out.cost}"
        return None

    def fingerprint(self, out):
        return _digest([out.cost], _plan_array(out.plan), out.potentials)


class PK(Workload):
    name = "pk"
    why = ("cold pk_norm for p in {1, 2, inf} and dual_solve(q=2) on nonzero-charge "
           "measures: frontier tracing dominates")
    params = {"n": 16, "measures": 128, "ops": ["pk_norm p=1", "pk_norm p=2",
                                                "pk_norm p=inf", "dual_solve q=2"]}
    trace_pass = 8
    EXPONENTS = (1.0, 2.0, INF, "dual")

    def generate(self, rng, workdir):
        n = self.params["n"]
        return [(metric_matrix(rng, n), signed_weights(rng, n))
                for _ in range(self.params["measures"])]

    def setup(self, pkr, raw):
        return _instances(pkr, self.params["n"], raw)

    def schedule(self, state):
        """One fresh measure per operation, the operations in cyclic order."""
        return [(k, self.EXPONENTS[k % len(self.EXPONENTS)]) for k in range(len(state))]

    def run(self, pkr, state, key):
        space, mu = state[key[0]]
        if key[1] == "dual":
            return pkr.dual_solve(space, mu, q=2.0)
        return pkr.pk_norm(space, mu, key[1])

    def check(self, pkr, state, key, out):
        space, mu = state[key[0]]
        if key[1] != "dual":
            return _pk_check(pkr, space, mu, out, key[1])
        f = np.asarray(out.f.values)
        norm = _lp(_lip(space.dist, f), float(np.abs(f).max()), 2.0)
        if norm > 1.0 + TOL:
            return f"dual witness has q-Lipschitz norm {norm} > 1"
        primal = pkr.pk_norm(space, mu, 2.0).value
        if abs(out.value - primal) > TOL * max(1.0, primal):
            return f"dual value {out.value} != pk_norm(p=2) value {primal}"
        return None

    def fingerprint(self, out):
        if hasattr(out, "active_budget"):
            return _digest([out.value, out.q, *out.active_budget], out.f.values)
        return _pk_digest(out)


class PKReuse(Workload):
    name = "pk-reuse"
    why = ("pk_norm for five exponents from a frontier traced once in setup, on "
           "zero-charge measures: witness selection and extra probes")
    params = {"n": 16, "measures": 48, "exponents": [1, 1.5, 2, 4, "inf"]}
    trace_pass = 40
    EXPONENTS = (1.0, 1.5, 2.0, 4.0, INF)

    def generate(self, rng, workdir):
        n = self.params["n"]
        return [(metric_matrix(rng, n), zero_charge_weights(rng, n))
                for _ in range(self.params["measures"])]

    def setup(self, pkr, raw):
        return [(space, mu, pkr.trace_frontier(space, mu))
                for space, mu in _instances(pkr, self.params["n"], raw)]

    def schedule(self, state):
        return [(k, p) for k in range(len(state)) for p in self.EXPONENTS]

    def run(self, pkr, state, key):
        space, mu, probes = state[key[0]]
        return pkr.pk_norm(space, mu, key[1], probes=probes)

    def check(self, pkr, state, key, out):
        space, mu, _ = state[key[0]]
        return _pk_check(pkr, space, mu, out, key[1])

    def fingerprint(self, out):
        return _pk_digest(out)


class CLIDist(Workload):
    name = "cli-dist"
    why = ("python -m pkr.cli dist --pairs as a subprocess: import, JSON formats, "
           "file validation and many small zero-charge pk solves")
    params = {"n": 12, "pairs": 10, "file_sets": 32, "exponents": ["1", "2", "inf"]}
    trace_pass = 3

    def generate(self, rng, workdir):
        n, sets = self.params["n"], []
        for s in range(self.params["file_sets"]):
            d = metric_matrix(rng, n)
            space_file = workdir / f"space{s}.json"
            space_file.write_text(json.dumps(
                {"points": labels(n), "metric": {"type": "matrix", "d": d.tolist()}}))
            entries, weights = [], []
            for k in range(self.params["pairs"]):
                pair = {}
                for side in ("mu", "nu"):
                    w = probability_weights(rng, n)
                    pair[side] = f"{side}{s}_{k}.json"
                    (workdir / pair[side]).write_text(json.dumps({"weights": w.tolist()}))
                    weights.append(w)
                entries.append(pair)
            manifest = workdir / f"pairs{s}.json"
            manifest.write_text(json.dumps({"pairs": entries}))
            sets.append((d, str(space_file), str(manifest), weights))
        return sets

    def setup(self, pkr, raw):
        names = labels(self.params["n"])
        state = []
        for d, space_file, manifest, weights in raw:
            space = pkr.validate_space(names, d)
            measures = [pkr.SignedMeasure(space, mu - nu)
                        for mu, nu in zip(weights[::2], weights[1::2])]
            state.append((space, space_file, manifest, measures))
        return state

    def schedule(self, state):
        """A fresh file set per command, the exponents in cyclic order."""
        ps = self.params["exponents"]
        return [(s, ps[s % len(ps)]) for s in range(len(state))]

    @staticmethod
    def argv(state, key) -> list[str]:
        _, space_file, manifest, _ = state[key[0]]
        return ["dist", "--p", key[1], "--space", space_file, "--pairs", manifest]

    def run(self, pkr, state, key):
        proc = subprocess.run([sys.executable, "-m", "pkr.cli", *self.argv(state, key)],
                              capture_output=True, check=False)
        return proc.returncode, proc.stdout

    def run_in_process(self, pkr, state, key):
        """The same command through ``pkr.cli.main``, for the traced run."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = importlib.import_module("pkr.cli").main(self.argv(state, key))
        return code, buf.getvalue().encode()

    def check(self, pkr, state, key, out):
        code, stdout = out
        if code != 0:
            return f"pkr dist exited with code {code}"
        space, _, _, measures = state[key[0]]
        p = INF if key[1] == "inf" else float(key[1])
        results = json.loads(stdout)["results"]
        if len(results) != len(measures):
            return f"{len(results)} results for {len(measures)} pairs"
        for k, (rec, mu) in enumerate(zip(results, measures)):
            xi = pkr.SignedMeasure(space, rec["xi"])
            plan = pkr.TransportPlan(space, tuple(
                (space.index_of(e["from"]), space.index_of(e["to"]), e["mass"])
                for e in rec["plan"]["entries"]))
            f = pkr.LipschitzFunction(space, rec["dual_f"])
            cert = pkr.check_optimality(space, mu, xi, plan, f, p)
            scale = max(1.0, rec["value"])
            if not cert.passed or not rec["gap"] <= GAP_TOL * scale \
                    or abs(cert.value - rec["value"]) > TOL * scale:
                return f"pair {k}: record not certified"
        return None

    def fingerprint(self, out):
        return hashlib.sha256(repr(out[0]).encode() + out[1]).digest()


WORKLOADS = {w.name: w for w in (KR(), PK(), PKReuse(), CLIDist())}
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}


def rng_for(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng((seed, WORKLOAD_IDS[name]))
