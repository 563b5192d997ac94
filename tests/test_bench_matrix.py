"""The bench harness (``repro.bench.matrix``) and the ``bench`` command."""

import importlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.bench.matrix import json_safe, write_report
from repro.cli import main

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


#: One quick cell per matrix bench: (bench, run_cell arguments).
_FRESH_CELLS = (
    ("chaos", ("dbms", "experiment-driven", 0.3, True)),
    ("fleet", ("dbms", 0.1, True)),
    ("mf", ("dbms", "cem", True)),
    ("surrogate", ("spark", "spark-kmeans", True)),
    ("transfer", ("dbms", "ituned", True)),
)


def _compared(cell, compare):
    # repr, so inf and nan compare equal to themselves; sorted items, so
    # a dict's insertion order is not part of the contract
    return [
        repr(sorted(cell[f].items()) if isinstance(cell[f], dict) else cell[f])
        for f in compare
    ]


@pytest.fixture(scope="class")
def spawned():
    """Every fresh-process cell, submitted up front to one worker made
    by the ``spawn`` start method under another hash seed: a new
    interpreter with no inherited module state and a cold evaluation
    cache.  The worker runs while the tests run their in-process cells.
    """
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONHASHSEED", seed)
        pool = ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn")
        )
        futures = {"probe": pool.submit(hash, "probe")}
        for name, args in _FRESH_CELLS:
            module = importlib.import_module(f"repro.bench.{name}")
            futures[name] = pool.submit(module.run_cell, *args)
    yield futures
    pool.shutdown(cancel_futures=True)


class TestFreshProcessCells:
    """A matrix bench's cell is a pure function of its arguments: a
    freshly spawned process reproduces its ``COMPARE`` fields."""

    def test_worker_hashes_strings_differently(self, spawned):
        assert spawned["probe"].result(timeout=120) != hash("probe")

    @pytest.mark.parametrize("name,args", _FRESH_CELLS,
                             ids=[name for name, _ in _FRESH_CELLS])
    def test_cell_matches_in_a_spawned_process(self, spawned, name, args):
        module = importlib.import_module(f"repro.bench.{name}")
        here = module.run_cell(*args)
        there = spawned[name].result(timeout=300)
        diverged = [
            field for field, a, b in zip(
                module.COMPARE, _compared(here, module.COMPARE),
                _compared(there, module.COMPARE),
            ) if a != b
        ]
        assert not diverged, f"{name} cell {args} diverged: {diverged}"


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
