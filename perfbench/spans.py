"""Spans around pkr's layer functions, recorded from the benchmark's side.

``Tracer.install`` wraps each layer function named in ``LAYERS`` at every
binding site: every attribute of every loaded ``pkr`` module that holds
the original function object, so a call through
``pkr.pknorm.solve_transportation`` is recorded as well as one through
``pkr.transport.solve_transportation``. A layer function that is missing
from its home module raises ``LayerMissing`` at install time, and the
traced run fails if a layer that a workload must exercise records no
span, so a rename or a re-import cannot silently drop a span.

Each span keeps its name, parent span, start and end, the operation it
belongs to and a few counts. Spans stay in memory until ``summary``
folds them into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

LAYERS = {
    "pkr.transport": ("solve_transportation", "kr_norm"),
    "pkr.pknorm": ("trace_frontier", "scalarized_min", "pk_norm"),
    "pkr.lipschitz": ("dual_solve",),
    "pkr.space": ("validate_space",),
    "pkr.formats": ("load_space", "load_measure", "pk_record"),
    "pkr.cli": ("main",),
    "pkr.certify": ("check_optimality",),
}

# Layers each workload must exercise in a traced run (setup, operations and
# checks together), and layers its timed operations must not reach.
EXPECTED = {
    "kr": {"space.validate_space", "transport.kr_norm", "transport.solve_transportation"},
    "pk": {"space.validate_space", "pknorm.pk_norm", "pknorm.trace_frontier",
           "pknorm.scalarized_min", "transport.solve_transportation",
           "lipschitz.dual_solve", "certify.check_optimality"},
    "pk-reuse": {"space.validate_space", "pknorm.trace_frontier", "pknorm.pk_norm",
                 "pknorm.scalarized_min", "transport.solve_transportation",
                 "certify.check_optimality"},
    "cli-dist": {"cli.main", "formats.load_space", "formats.load_measure",
                 "formats.pk_record", "space.validate_space", "pknorm.pk_norm",
                 "pknorm.trace_frontier", "pknorm.scalarized_min",
                 "transport.solve_transportation", "certify.check_optimality"},
}
ABSENT = {
    "kr": {"pknorm.trace_frontier", "pknorm.pk_norm", "lipschitz.dual_solve", "cli.main"},
    "pk": {"cli.main"},
    "pk-reuse": {"pknorm.trace_frontier", "lipschitz.dual_solve", "cli.main"},
    "cli-dist": {"lipschitz.dual_solve"},
}

# (span, statistic) pairs reported as per-layer metrics, with their units.
REPORTED = [
    ("transport.solve_transportation", "calls", "count"),
    ("transport.solve_transportation", "s", "s"),
    ("transport.solve_transportation", "arcs", "count"),
    ("transport.kr_norm", "calls", "count"),
    ("transport.kr_norm", "self_s", "s"),
    ("pknorm.trace_frontier", "calls", "count"),
    ("pknorm.trace_frontier", "self_s", "s"),
    ("pknorm.trace_frontier", "probes", "count"),
    ("pknorm.trace_frontier", "vertices", "count"),
    ("pknorm.trace_frontier", "cap_hits", "count"),
    ("pknorm.scalarized_min", "calls", "count"),
    ("pknorm.scalarized_min", "self_s", "s"),
    ("pknorm.pk_norm", "calls", "count"),
    ("pknorm.pk_norm", "self_s", "s"),
    ("pknorm.pk_norm", "extra_probes", "count"),
    ("lipschitz.dual_solve", "calls", "count"),
    ("lipschitz.dual_solve", "self_s", "s"),
    ("space.validate_space", "calls", "count"),
    ("space.validate_space", "s", "s"),
    ("formats.load_space", "s", "s"),
    ("formats.load_measure", "s", "s"),
    ("formats.pk_record", "s", "s"),
    ("cli.main", "self_s", "s"),
    ("certify.check_optimality", "calls", "count"),
    ("certify.check_optimality", "s", "s"),
]
COUNT_STATS = {"calls", "arcs", "probes", "vertices", "cap_hits", "extra_probes"}


class LayerMissing(RuntimeError):
    """A layer function named in LAYERS is gone from its home module."""


@dataclass
class Span:
    name: str
    op: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _counts(name: str, sig: inspect.Signature, args, kwargs, out) -> dict:
    """Machine-independent work counts read off a layer call."""
    if name == "transport.solve_transportation":
        m, n = np.shape(sig.bind(*args, **kwargs).arguments["costs"])
        return {"arcs": m * n}
    if name == "pknorm.trace_frontier":
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        cap = bound.arguments.get("max_probes")
        return {"probes": len(out),
                "vertices": len({(fp.a, fp.b) for fp in out}),
                "cap_hits": int(cap is not None and len(out) >= cap)}
    return {}


class Tracer:
    """Installs span-recording wrappers; records only while ``active``,
    and only the layers in ``only`` when that is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.only: set[str] | None = None
        self.op = ""
        self.sites: dict[str, list[str]] = {}
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        pkr = importlib.import_module("pkr")
        for info in pkgutil.iter_modules(pkr.__path__):
            importlib.import_module(f"pkr.{info.name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "pkr" or name.startswith("pkr.")]
        found = {}
        for home, funcs in LAYERS.items():
            for fname in funcs:
                orig = getattr(sys.modules[home], fname, None)
                if not callable(orig):
                    raise LayerMissing(f"{home}.{fname} is not a function")
                found[f"{home.rsplit('.', 1)[-1]}.{fname}"] = orig
        for span, orig in found.items():
            wrapper = self._wrap(span, orig)
            self.sites[span] = []
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, orig))
                        self.sites[span].append(f"{m.__name__}.{attr}")

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or (self.only is not None and name not in self.only):
                return fn(*args, **kwargs)
            span = Span(name, self.op, self._stack[-1] if self._stack else None,
                        perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            span.counts = _counts(name, sig, args, kwargs, out)
            return out

        return wrapper

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def summary(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Fold spans into {layer: {calls, s, self_s, <counts>}}.

    ``s`` is inclusive time, ``self_s`` subtracts direct child spans, and
    ``extra_probes`` counts scalarized_min calls made by pk_norm outside
    trace_frontier.
    """
    out: dict[str, dict[str, float]] = {}
    child_time: dict[int, float] = {}
    for sp in spans:
        if sp.parent is not None:
            child_time[id(sp.parent)] = child_time.get(id(sp.parent), 0.0) + sp.end - sp.start
    for sp in spans:
        row = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += sp.end - sp.start
        row["self_s"] += sp.end - sp.start - child_time.get(id(sp), 0.0)
        for key, val in sp.counts.items():
            row[key] = row.get(key, 0) + val
        if sp.name == "pknorm.scalarized_min":
            names = set()
            p = sp.parent
            while p is not None:
                names.add(p.name)
                p = p.parent
            if "pknorm.pk_norm" in names and "pknorm.trace_frontier" not in names:
                pk = out.setdefault("pknorm.pk_norm", {"calls": 0, "s": 0.0, "self_s": 0.0})
                pk["extra_probes"] = pk.get("extra_probes", 0) + 1
    return out


def counts_only(table: dict[str, dict[str, float]]) -> dict[str, dict[str, int]]:
    return {name: {k: v for k, v in row.items() if k in COUNT_STATS}
            for name, row in table.items()}


def layer_metrics(table: dict[str, dict[str, float]]) -> dict[str, tuple[float, str]]:
    """The REPORTED statistics, zero for layers that recorded no span."""
    return {f"{span}.{stat}": (table.get(span, {}).get(stat, 0), unit)
            for span, stat, unit in REPORTED}
