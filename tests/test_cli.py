import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_measure, shortest_path_space

DATA = Path(__file__).parent / "data"


def run_cli(*args, env_extra=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "pkr.cli", *args],
        capture_output=True, env=env)


class TestCommands:
    def test_pk_closed_form(self):
        # mu = delta_0 - delta_2 on the integer line: two atoms at distance 2
        res = run_cli("pk", "--p", "2", "--space", str(DATA / "line3.json"),
                      "--measure", str(DATA / "mu_ends.json"))
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert rec["value"] == pytest.approx(math.sqrt(2.0), rel=1e-9)
        assert rec["p"] == 2.0
        assert rec["gap"] <= 1e-8

    def test_tv(self):
        res = run_cli("tv", "--measure", str(DATA / "mu_split.json"),
                      "--space", str(DATA / "line3.json"))
        assert res.returncode == 0
        assert json.loads(res.stdout) == {"value": 4.0}

    def test_tv_plain_weights_without_space(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text('{"weights": [1.0, -2.0, 1.0]}')
        res = run_cli("tv", "--measure", str(f))
        assert res.returncode == 0
        assert json.loads(res.stdout) == {"value": 4.0}

    def test_validate_rejects_triangle_violation(self):
        res = run_cli("validate", "--space", str(DATA / "bad_triangle.json"))
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["error"]["kind"] == "TriangleViolation"
        assert res.stdout == b""

    def test_validate_ok(self):
        res = run_cli("validate", "--space", str(DATA / "line3.json"))
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert rec["valid"] is True and rec["n"] == 3 and rec["diameter"] == 2.0

    def test_kr(self):
        res = run_cli("kr", "--space", str(DATA / "line3.json"),
                      "--measure", str(DATA / "mu_split.json"))
        rec = json.loads(res.stdout)
        assert rec["cost"] == 2.0
        assert {e["from"] for e in rec["entries"]} == {"x1"}

    def test_kr_nonzero_charge_exit_2(self):
        res = run_cli("kr", "--space", str(DATA / "two_points.json"),
                      "--measure", str(DATA / "delta_x.json"))
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"]["kind"] == "NonZeroCharge"

    def test_bad_p_exit_2(self):
        res = run_cli("pk", "--p", "0.3", "--space", str(DATA / "two_points.json"),
                      "--measure", str(DATA / "dipole.json"))
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"]["kind"] == "InvalidP"

    def test_missing_file_exit_2(self):
        res = run_cli("pk", "--p", "2", "--space", str(DATA / "nope.json"),
                      "--measure", str(DATA / "dipole.json"))
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"]["kind"] == "SchemaError"

    def test_tolerance_not_met_exit_3(self):
        res = run_cli("pk", "--p", "2", "--space", str(DATA / "line3.json"),
                      "--measure", str(DATA / "mu_split.json"), "--tol", "1e-300")
        assert res.returncode == 3
        assert json.loads(res.stderr)["error"]["kind"] == "ToleranceNotMet"
        # the best pair is still printed
        rec = json.loads(res.stdout)
        assert rec["p"] == 2.0 and rec["gap"] == 2.220446049250313e-16

    def test_numerical_failure_exit_1(self, monkeypatch, capsys):
        from pkr import cli
        from pkr.errors import NumericalFailure

        def fail(*args, **kwargs):
            raise NumericalFailure("no pivot left")

        monkeypatch.setattr(cli, "kr_norm", fail)
        code = cli.main(["kr", "--space", str(DATA / "line3.json"),
                         "--measure", str(DATA / "mu_split.json")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": {"kind": "NumericalFailure",
                                             "detail": "no pivot left"}}

    def test_dual(self):
        res = run_cli("dual", "--q", "1", "--space", str(DATA / "two_points.json"),
                      "--measure", str(DATA / "dipole.json"))
        rec = json.loads(res.stdout)
        assert rec["value"] == pytest.approx(2.0 / 3.0, rel=1e-9)

    def test_dist_batch_order(self):
        res = run_cli("dist", "--p", "inf", "--space", str(DATA / "two_points.json"),
                      "--pairs", str(DATA / "pairs.json"))
        rec = json.loads(res.stdout)
        assert len(rec["results"]) == 2
        assert rec["results"][0]["value"] == pytest.approx(1.0)
        assert rec["results"][1]["value"] == 0.0

    def test_frontier(self):
        res = run_cli("frontier", "--space", str(DATA / "two_points.json"),
                      "--measure", str(DATA / "dipole.json"))
        rec = json.loads(res.stdout)
        assert rec["frontier"][0] == [0.0, 0.0, 2.0]
        assert rec["frontier"][-1] == [0.5, 1.0, 0.0]

    def test_frontier_prints_every_vertex(self, tmp_path):
        # 93 vertices, more than the 64 rows the table was once thinned to
        rng = np.random.default_rng(5)
        sp = shortest_path_space(rng, 80)
        space, measure = tmp_path / "space.json", tmp_path / "mu.json"
        space.write_text(json.dumps({"points": list(sp.labels), "metric": {
            "type": "matrix", "d": sp.dist.tolist()}}))
        measure.write_text(json.dumps({"weights": random_measure(rng, sp).weights.tolist()}))
        files = ("--space", str(space), "--measure", str(measure))
        rows = json.loads(run_cli("frontier", *files).stdout)["frontier"]
        assert len(rows) == 93
        assert rows == json.loads(run_cli("pk", "--p", "2", *files).stdout)["frontier"]
        assert run_cli("frontier", *files, "--max-points", "3").returncode == 2

    def test_log_env_keeps_stdout_clean(self):
        res = run_cli("tv", "--measure", str(DATA / "dipole.json"),
                      env_extra={"PKR_LOG": "debug"})
        assert res.returncode == 0
        assert json.loads(res.stdout) == {"value": 2.0}


class TestRoundTrip:
    @pytest.mark.parametrize("p", ["1", "2", "inf"])
    def test_pk_then_certify(self, tmp_path, p):
        res = run_cli("pk", "--p", p, "--space", str(DATA / "line3.json"),
                      "--measure", str(DATA / "mu_split.json"))
        assert res.returncode == 0
        sol = tmp_path / "sol.json"
        sol.write_bytes(res.stdout)
        res2 = run_cli("certify", "--space", str(DATA / "line3.json"),
                       "--measure", str(DATA / "mu_split.json"),
                       "--solution", str(sol))
        assert res2.returncode == 0
        cert = json.loads(res2.stdout)
        assert cert["pass"] is True

    def test_certify_with_explicit_files(self, tmp_path):
        (tmp_path / "xi.json").write_text('{"weights": [1.0, -1.0]}')
        (tmp_path / "plan.json").write_text(
            '{"entries": [{"from": "y", "to": "x", "mass": 1.0}]}')
        (tmp_path / "f.json").write_text('{"values": [1.0, 0.0]}')
        res = run_cli("certify", "--p", "1",
                      "--space", str(DATA / "two_points.json"),
                      "--measure", str(DATA / "dipole.json"),
                      "--xi", str(tmp_path / "xi.json"),
                      "--plan", str(tmp_path / "plan.json"),
                      "--f", str(tmp_path / "f.json"))
        assert res.returncode == 0
        assert json.loads(res.stdout)["pass"] is True


FULL_SET = [
    ("validate", "--space", str(DATA / "line3.json")),
    ("kr", "--space", str(DATA / "line3.json"),
     "--measure", str(DATA / "mu_split.json")),
    ("tv", "--measure", str(DATA / "mu_split.json"),
     "--space", str(DATA / "line3.json")),
    ("pk", "--p", "2", "--space", str(DATA / "line3.json"),
     "--measure", str(DATA / "mu_ends.json")),
    ("pk", "--p", "inf", "--space", str(DATA / "two_points.json"),
     "--measure", str(DATA / "dipole.json")),
    ("pk", "--p", "1.5", "--space", str(DATA / "line3.json"),
     "--measure", str(DATA / "mu_split.json")),
    ("dist", "--p", "inf", "--space", str(DATA / "two_points.json"),
     "--pairs", str(DATA / "pairs.json")),
    ("dual", "--q", "1", "--space", str(DATA / "two_points.json"),
     "--measure", str(DATA / "dipole.json")),
    ("frontier", "--space", str(DATA / "line3.json"),
     "--measure", str(DATA / "mu_split.json")),
]


class TestDeterminism:
    def test_byte_identical_runs(self):
        for cmd in FULL_SET:
            first = run_cli(*cmd)
            second = run_cli(*cmd)
            assert first.returncode == second.returncode == 0, cmd
            assert first.stdout == second.stdout, cmd
