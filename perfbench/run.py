"""Repo benchmark: cold, serial regeneration of the paper's Ubik artifacts.

Run from the repository root::

    python3 perfbench/run.py --workload table3 --seed 2014 --seconds 10 --trace 0

Workloads are ``table3``, ``fig12_slack`` and ``fig13_schemes`` (see
``perfbench/README.md``).  One run:

1. times ``SETUP_SAMPLES`` fresh interpreters from start to a ready
   ``Session`` (``perfbench/probe.py``) and reports the median as
   ``setup_s``;
2. regenerates the workload's artifact in this process through its
   public entry point, from a cold state each time (fresh ``memory://``
   store, ``reset_artifacts()``, cleared sweep memo, serial executor),
   until ``--seconds`` of timed work have accumulated (one regeneration
   at the pinned scale), while ``hostspeed.HostSpeed`` samples the
   host's speed; ``host_s_per_sim_gcycle`` is the median wall time,
   scaled to the reference host speed, per billion simulated cycles;
3. checks the outputs after the timed section: every regeneration must
   yield the same record for every cell, a fixed sample of cells must
   match the scalar ``MixRunner.run_mix`` oracle record for record, and
   the golden grid must reproduce ``tests/golden/fixtures`` exactly.

With ``--trace 1`` the run instead makes one plain regeneration and then
one with the layer wrappers of ``perfbench/layers.py`` installed, and
reports the per-layer metrics; the two must agree cell for cell.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (sweep cells) and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

import refloop
from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "golden" / "fixtures"
PROBE = Path(__file__).resolve().parent / "probe.py"
#: Where the traced run writes its spans (ignored by git).
OUT_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("table3", "fig12_slack", "fig13_schemes")
#: Requests per LC instance.  At 80 requests one cold regeneration
#: takes 25-52 s of wall time on a 2-vCPU 2.0 GHz Xeon VM, depending on
#: how busy the host is, so one run makes one regeneration and the
#: 4 + 22 x 2 runs of an acceptance measurement fit in 3420 s.
BENCH_REQUESTS = 80
#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_SAMPLES = 5
#: Cells per workload re-run through the scalar oracle.
ORACLE_SAMPLE = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "host_s_per_sim_gcycle": "s/Gcycle",
    "peak_rss_mb": "MB",
    "ubik_weighted_speedup": "x",
    "qos_tail_pct": "%",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run in this directory."""


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed (default: ExperimentScale's, 2014)",
    )
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--requests", type=int, default=BENCH_REQUESTS,
        help="requests per LC instance (smoke tests shrink the scale)",
    )
    parser.add_argument(
        "--lc", action="append", default=None,
        help="restrict to one LC workload (repeatable; default: all five)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _pin_environment() -> List[str]:
    """Clear every ``REPRO_*`` knob so the program runs at its defaults.

    A developer's ``REPRO_STORE``/``REPRO_CACHE_DIR`` could otherwise
    turn cold runs into store hits, and ``REPRO_REQUESTS`` & co. would
    change the scale.  Returns the names that were cleared.
    """
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    return cleared


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources under {SRC}")
    for name in ("table3", "fig12", "fig13"):
        if not (FIXTURES / f"{name}.json").is_file():
            raise BenchmarkError(f"missing golden fixture {name}.json under {FIXTURES}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchmarkError(f"imported repro from {repro.__file__}, not {SRC}")


def measure_setup(samples: int = SETUP_SAMPLES) -> float:
    """Median seconds from interpreter start to a ready Session, at the
    reference host speed.  Each probe reports the time it spent on its
    own ``refloop.core_sample`` runs, which is taken out, and their
    durations, whose mean sets the scale."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(PROBE), str(SRC)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        word, *numbers = line.split() or [""]
        if word != "ready" or proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed (exit {proc.returncode})")
        own, *speed = [float(n) for n in numbers]
        times.append(
            refloop.to_reference(
                elapsed - own, statistics.fmean(speed), refloop.CORE_NOMINAL_S
            )
        )
    return statistics.median(times)


def _cold_session():
    """A fresh serial memory-only session over cold process caches."""
    from repro.experiments import sweep
    from repro.runtime import SerialExecutor, Session
    from repro.runtime.artifacts import reset_artifacts

    reset_artifacts()
    sweep._CACHE.clear()
    gc.collect()
    return Session(store="memory://", executor=SerialExecutor(), shards=1)


class Regeneration:
    """One cold regeneration of a workload's artifact.

    ``wall`` is its host time in seconds.  An untraced regeneration runs
    under :class:`HostSpeed`: ``wall`` then excludes the sampling, and
    ``norm_wall`` is ``wall`` at the reference host speed.
    """

    def __init__(self, workload, scale, tracer=None):
        from repro.runtime.artifacts import get_artifacts
        from repro.runtime.work import store_lookup

        session = _cold_session()
        self.norm_wall = self.sample_ms = None
        if tracer is None:
            with HostSpeed() as speed:
                start = time.perf_counter()
                self.output = workload.artifact(scale, session=session)
                end = time.perf_counter()
            self.wall = end - start - speed.sampling_s(start, end)
            self.norm_wall = speed.normalize(start, end)
            self.sample_ms = speed.mean_sample_s() * 1e3
        else:
            from layers import traced

            with traced(tracer):
                start = time.perf_counter()
                self.output = workload.artifact(scale, session=session)
                self.wall = time.perf_counter() - start
        self.artifact_stats = get_artifacts().stats()
        self.specs = workload.cells(scale, session)
        self.records = [store_lookup(spec, session.store)[1] for spec in self.specs]


def _oracle_positions(n: int) -> List[int]:
    """A fixed spread of cell positions: with the sweep's mix-major
    order this visits every LC app and every policy or scheme."""
    k = min(ORACLE_SAMPLE, n)
    return sorted({j * (n // k) + j * (n // (k * k)) for j in range(k)})


def oracle_records(specs) -> Dict[int, Any]:
    """Scalar ``run_mix`` records for the sampled cells, computed with the
    artifact cache off and no store, so nothing is shared with the
    regenerations under test."""
    from repro.runtime.artifacts import get_artifacts
    from repro.runtime.work import execute_spec

    with get_artifacts().disabled():
        return {p: execute_spec(specs[p], None) for p in _oracle_positions(len(specs))}


def golden_matches(workload) -> bool:
    """Whether the golden grid reproduces the committed fixture exactly."""
    from repro.experiments.common import ExperimentScale
    from repro.runtime.spec import canonical_json

    # The pinned grid of tests/golden/test_golden.py.
    scale = ExperimentScale(
        requests=60,
        lc_names=("masstree",),
        loads=(0.2, 0.6),
        combos=("nft",),
        mixes_per_combo=1,
    )
    output = workload.artifact(scale, session=_cold_session())
    actual = json.loads(canonical_json(workload.golden_payload(output)))
    expected = json.loads((FIXTURES / f"{workload.golden}.json").read_text())
    return actual == expected


def failed_cells(regenerations: List[Regeneration], oracle: Dict[int, Any]) -> int:
    """Cells that are missing, disagree with the oracle, or differ from
    the first regeneration, summed over regenerations."""
    first = regenerations[0].records
    failed = 0
    for regen in regenerations:
        for position, record in enumerate(regen.records):
            if (
                record is None
                or record != first[position]
                or (position in oracle and record != oracle[position])
            ):
                failed += 1
    return failed


def _settings(args, scale, cleared: List[str]) -> Dict[str, Any]:
    """The effective program settings, as the program itself reports them."""
    from repro.runtime.artifacts import artifacts_enabled, artifacts_tier2_target
    from repro.runtime.executors import default_jobs
    from repro.runtime.sharding import default_shards
    from repro.sim.grid_replay import grid_replay_enabled
    from repro.sim.lockstep import lockstep_enabled

    return {
        "workload": args.workload,
        "seed": scale.seed,
        "requests": scale.requests,
        "lc_names": list(scale.lc_names),
        "loads": list(scale.loads),
        "combos": list(scale.combos),
        "store": "memory://",
        "executor": "serial",
        "cleared_env": cleared,
        "default_jobs": default_jobs(),
        "default_shards": default_shards(),
        "artifacts": artifacts_enabled(),
        "artifacts_tier2": artifacts_tier2_target(),
        "grid_replay": grid_replay_enabled(),
        "lockstep": lockstep_enabled(),
    }


def run(args: argparse.Namespace) -> Dict[str, Any]:
    """Measure and check one workload; returns the result object."""
    cleared = _pin_environment()
    _import_program()
    setup_s = measure_setup()

    from layers import PER_LAYER_UNITS, Tracer, per_layer_metrics
    from repro.experiments.common import ExperimentScale
    from workloads import WORKLOADS, simulated_gcycles, simulated_stats

    workload = WORKLOADS[args.workload]
    scale_kwargs = {"requests": args.requests}
    if args.lc:
        scale_kwargs["lc_names"] = tuple(args.lc)
    if args.seed is not None:
        scale_kwargs["seed"] = args.seed
    scale = ExperimentScale(**scale_kwargs)
    print("settings " + json.dumps(_settings(args, scale, cleared)), flush=True)

    regenerations = [Regeneration(workload, scale)]
    if not args.trace:
        while sum(r.wall for r in regenerations) < args.seconds:
            regenerations.append(Regeneration(workload, scale))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced_wall = statistics.median(r.wall for r in regenerations)
    norm_wall = statistics.median(r.norm_wall for r in regenerations)
    if args.trace:
        tracer = Tracer()
        regenerations.append(Regeneration(workload, scale, tracer=tracer))

    oracle = oracle_records(regenerations[0].specs)
    failed = failed_cells(regenerations, oracle)
    stats = [
        simulated_stats(workload, r.output, r.specs, r.records) if all(r.records) else None
        for r in regenerations
    ]
    deterministic = all(s == stats[0] for s in stats)
    gcycles = simulated_gcycles(regenerations[0].specs)
    golden_ok = golden_matches(workload)
    correct = failed == 0 and deterministic and golden_ok and stats[0] is not None
    print(
        "checks "
        + json.dumps(
            {
                "regenerations": len(regenerations),
                "walls_s": [r.wall for r in regenerations],
                "norm_walls_s": [r.norm_wall for r in regenerations if r.norm_wall],
                "host_sample_ms": [r.sample_ms for r in regenerations if r.sample_ms],
                "sim_gcycles": gcycles,
                "oracle_cells": sorted(oracle),
                "deterministic": deterministic,
                "golden": golden_ok,
                "simulated": stats[0],
            }
        ),
        flush=True,
    )

    if args.trace:
        traced_regen = regenerations[-1]
        values, notes = per_layer_metrics(
            tracer, traced_regen.wall, untraced_wall, traced_regen.artifact_stats
        )
        if stats[-1] is not None:
            values["experiments.paper_mae_pt"] = stats[-1]["paper_mae_pt"]
        print("layers " + json.dumps(notes), flush=True)
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"{args.workload}-seed{scale.seed}-spans.json"
        out.write_text(
            json.dumps(
                {
                    "fields": ["id", "parent", "name", "start", "end", "child_s"],
                    "spans": tracer.spans,
                    "calls": dict(tracer.calls),
                }
            )
        )
        units = PER_LAYER_UNITS
    else:
        values = dict(stats[0] or {})
        values.update(
            setup_s=setup_s,
            host_s_per_sim_gcycle=norm_wall / gcycles,
            peak_rss_mb=peak_rss_mb,
        )
        units = END_TO_END_UNITS
    # A metric is missing only when a check already failed the run.
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    cells = len(regenerations[0].specs)
    return {
        "correct": correct,
        "attempted": cells * len(regenerations),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
