"""Smoke test of the repo benchmark at its smallest scale.

Runs ``perfbench/run.py`` on every workload with ``--requests 20 --lc
masstree``, untraced and traced, and checks the result contract against
``BENCHMARK.json``.  From the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every workload run.py accepts, including any kept out of BENCHMARK.json.
WORKLOADS = ["table3", "fig12_slack", "fig13_schemes"]


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", "2014",
            "--seconds", "1",
            "--trace", str(trace),
            "--requests", "20",
            "--lc", "masstree",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _result(workload, trace=0)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_exactly_the_per_layer_metrics(workload):
    result = _result(workload, trace=1)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    # Layer predictions that hold at any scale: only Table 3 runs the
    # shared-LRU path, and only Figure 13 replays one cell per group.
    if workload == "table3":
        assert values["sim.shared_lru_cells"] > 0
        assert values["cache.occupancy_steps"] > 0
    else:
        assert values["sim.shared_lru_s"] == 0
        assert values["cache.occupancy_steps"] == 0
    if workload == "fig13_schemes":
        assert values["sim.group_cells_mean"] == 1.0
    else:
        assert values["sim.group_cells_mean"] > 1.0
    assert values["runtime.cells"] == result["attempted"] / 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
