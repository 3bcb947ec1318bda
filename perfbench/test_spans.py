"""Self-test of the traced run.

Run from the root of a checkout:

    python3 -m pytest perfbench -q

It pins every site where a layer function is bound, so a refactor that
renames, moves or re-imports a layer function fails here by name instead
of losing a span. It then runs the traced run of every workload twice on
small inputs: every expected layer must fire, traced outputs must equal
untraced ones and pass their checks, and the counts must repeat exactly.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, rng_for  # noqa: E402

SITES = {
    "transport.solve_transportation": ["pkr.pknorm.solve_transportation",
                                       "pkr.transport.solve_transportation"],
    "transport.kr_norm": ["pkr.kr_norm", "pkr.cli.kr_norm", "pkr.pknorm.kr_norm",
                          "pkr.transport.kr_norm"],
    "pknorm.trace_frontier": ["pkr.trace_frontier", "pkr.pknorm.trace_frontier"],
    "pknorm.scalarized_min": ["pkr.scalarized_min", "pkr.pknorm.scalarized_min"],
    "pknorm.pk_norm": ["pkr.pk_norm", "pkr.certify.pk_norm", "pkr.cli.pk_norm",
                       "pkr.pknorm.pk_norm"],
    "lipschitz.dual_solve": ["pkr.dual_solve", "pkr.cli.dual_solve",
                             "pkr.lipschitz.dual_solve"],
    "space.validate_space": ["pkr.validate_space", "pkr.formats.validate_space",
                             "pkr.space.validate_space"],
    "formats.load_space": ["pkr.formats.load_space"],
    "formats.load_measure": ["pkr.formats.load_measure"],
    "formats.pk_record": ["pkr.formats.pk_record"],
    "cli.main": ["pkr.cli.main"],
    "certify.check_optimality": ["pkr.check_optimality", "pkr.certify.check_optimality",
                                 "pkr.cli.check_optimality"],
}

SMALL = {
    "kr": {"n": 12, "instances": 4},
    "pk": {"n": 8, "measures": 4},
    "pk-reuse": {"n": 10, "measures": 2},
    "cli-dist": {"n": 6, "pairs": 2, "file_sets": 1},
}


def _pkr_attrs():
    return {(name, attr): val for name, mod in sys.modules.items()
            if name == "pkr" or name.startswith("pkr.")
            for attr, val in vars(mod).items()}


def test_every_binding_site_is_wrapped_and_restored():
    tracer = spans.Tracer()
    tracer.install()
    restore = list(tracer._restore)
    try:
        assert tracer.sites == SITES
        originals = {id(orig) for _, _, orig in restore}
        left = [key for key, val in _pkr_attrs().items() if id(val) in originals]
        assert left == [], f"unwrapped bindings: {left}"
    finally:
        tracer.uninstall()
    assert all(getattr(mod, attr) is orig for mod, attr, orig in restore)


def test_renamed_layer_fails_at_install(monkeypatch):
    import pkr.pknorm
    monkeypatch.delattr(pkr.pknorm, "trace_frontier")
    with pytest.raises(spans.LayerMissing, match="pkr.pknorm.trace_frontier"):
        spans.Tracer().install()


def _small(name):
    wl = copy.copy(WORKLOADS[name])
    wl.params = {**wl.params, **SMALL[name]}
    return wl


def _traced(name, tmp_path):
    wl = _small(name)
    workdir = tmp_path / name
    workdir.mkdir(exist_ok=True)
    raw = wl.generate(rng_for(name, 3), workdir)
    return worker.trace(wl, raw, seconds=0.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_fires_checks_and_repeats(name, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    first = _traced(name, tmp_path)
    second = _traced(name, tmp_path)
    assert first["failed"] == 0, first["failures"]
    assert second["failed"] == 0, second["failures"]
    counts = [{k: v for k, v in run["metrics"].items()
               if k.rsplit(".", 1)[-1] in spans.COUNT_STATS} for run in (first, second)]
    assert counts[0] == counts[1]


def test_missing_span_fails_the_traced_run(tmp_path, monkeypatch):
    monkeypatch.setitem(spans.EXPECTED, "kr", spans.EXPECTED["kr"] | {"cli.main"})
    with pytest.raises(RuntimeError, match="layers without spans"):
        _traced("kr", tmp_path)
