"""The bench harness (``repro.bench.matrix``) and the ``bench`` command."""

import json
import math
import os
import subprocess
import sys
import time

import pytest

from repro.bench.matrix import json_safe, run_matrix, write_report
from repro.cli import main

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _toy_cell(name, x):
    """A cell whose ``stamp`` and ``wall_s`` differ on every run."""
    return {"name": name, "x": x, "stamp": time.perf_counter_ns(),
            "wall_s": time.perf_counter()}


class TestRunMatrix:
    def test_diverging_compared_field_names_the_cell(self):
        with pytest.raises(AssertionError,
                           match="parallel toy pass diverged from serial: "
                                 "a/1, b/2"):
            run_matrix("toy", _toy_cell, [("a", 1), ("b", 2)],
                       ("name", "x", "stamp"), jobs=2)

    def test_only_wall_s_differing_passes(self):
        cells = run_matrix("toy", _toy_cell, [("a", 1), ("b", 2)],
                           ("name", "x"), jobs=2)
        assert [(c["name"], c["x"]) for c in cells] == [("a", 1), ("b", 2)]

    def test_one_job_runs_the_serial_pass_only(self):
        cells = run_matrix("toy", _toy_cell, [("a", 1)],
                           ("name", "x", "stamp"), jobs=1)
        assert len(cells) == 1


class TestJsonReport:
    def test_non_finite_floats_become_null_in_strict_json(self, tmp_path):
        report = {"cells": [{"best": math.inf, "worst": -math.inf,
                             "mean": math.nan, "ok": 1.5}],
                  "pair": (math.inf, 2)}
        safe = {"cells": [{"best": None, "worst": None, "mean": None,
                           "ok": 1.5}],
                "pair": [None, 2]}
        assert json_safe(report) == safe

        def reject(literal):
            raise ValueError(f"non-strict JSON literal {literal}")

        path = tmp_path / "BENCH_toy.json"
        write_report(report, str(path))
        assert json.loads(path.read_text(), parse_constant=reject) == safe


class TestBenchCommand:
    def test_unknown_bench_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "nope"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_cli_and_serve_load_no_bench_module(self):
        """``repro serve`` starts with no bench module imported, so a
        bench import cannot add to the service's start-up time."""
        code = (
            "import sys, repro.cli\n"
            "from repro.kb.service import serve_forever\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('repro.bench')))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (os.path.join(_ROOT, "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
