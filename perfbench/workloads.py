"""The benchmark's workloads: which artifact each regenerates, over which
sweep cells, and the simulated statistics each reports.

Every workload is one of the paper's Ubik artifacts regenerated through
its public entry point (``run_table3``, ``run_fig12``, ``run_fig13``).
The cells a workload simulates are enumerated with
``Session.sweep_specs`` using the same policies and schemes the entry
point asks for, so the benchmark can read each cell's record back from
the session store and re-run a sample through the scalar oracle.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Sequence

from repro.experiments.fig12_slack import DEFAULT_SLACKS, PAPER_SLACK_SPEEDUPS, run_fig12
from repro.experiments.fig13_schemes import FIG13_SCHEME_NAMES, run_fig13
from repro.experiments.table3_speedups import PAPER_TABLE3, run_table3
from repro.runtime.registry import make_scheme
from repro.runtime.session import DEFAULT_POLICIES, Session
from repro.runtime.spec import PolicySpec, RunRecord, RunSpec, SchemeSpec
from repro.sim.config import CMPConfig
from repro.sim.mix_runner import MixRunner
from repro.workloads.mixes import LC_INSTANCES

#: The Figure 13 scheme that is the paper's default configuration (Ubik
#: at 5% slack on Vantage over the 4-way 52-candidate zcache), i.e. the
#: configuration behind Table 3's Ubik row.
_DEFAULT_SCHEME = "vantage_zcache"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: Public entry point: ``artifact(scale, session=...)``.
    artifact: Callable[..., Any]
    #: Golden fixture under ``tests/golden/fixtures`` that pins it.
    golden: str
    #: Every sweep cell the entry point simulates, in sweep order.
    cells: Callable[[Any, Session], List[RunSpec]]
    #: Mean absolute difference from the paper's numbers, in points.
    paper_mae_pt: Callable[[Any], float]

    def golden_payload(self, output: Any) -> Any:
        """The artifact output in the fixture's layout."""
        if isinstance(output, list):
            return [asdict(entry) for entry in output]
        return output


def _table3_cells(scale, session: Session) -> List[RunSpec]:
    return session.sweep_specs(scale, policies=DEFAULT_POLICIES)


def _table3_mae(table: Dict[str, Dict[str, float]]) -> float:
    return statistics.fmean(
        abs(table[load][policy] - paper)
        for load, row in PAPER_TABLE3.items()
        for policy, paper in row.items()
    )


def _fig12_cells(scale, session: Session) -> List[RunSpec]:
    # The policy list run_fig12 builds for its default slacks.
    policies = tuple(
        PolicySpec.of("ubik", label=f"Ubik-{int(round(s * 100))}%", slack=s)
        for s in DEFAULT_SLACKS
    )
    return session.sweep_specs(scale, policies=policies)


def _fig12_mae(entries) -> float:
    # The paper gives one average per slack; average the two loads.
    return statistics.fmean(
        abs(
            statistics.fmean(e.average_speedup_pct for e in entries if e.slack == slack)
            - paper
        )
        for slack, paper in PAPER_SLACK_SPEEDUPS.items()
    )


def _fig13_cells(scale, session: Session) -> List[RunSpec]:
    policies = (PolicySpec.of("ubik", label="Ubik", slack=0.05),)
    return [
        spec
        for name in FIG13_SCHEME_NAMES
        for spec in session.sweep_specs(
            scale, policies=policies, scheme=SchemeSpec.of(name)
        )
    ]


def _fig13_mae(entries) -> float:
    # The repo holds no Figure 13 values; the default-scheme bars are the
    # Table 3 Ubik configuration, so they are held to Table 3's Ubik row.
    default = make_scheme(_DEFAULT_SCHEME, CMPConfig().llc_lines).name
    return statistics.fmean(
        abs(e.average_speedup_pct - PAPER_TABLE3[e.load_label]["Ubik"])
        for e in entries
        if e.scheme == default
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("table3", run_table3, "table3", _table3_cells, _table3_mae),
        Workload("fig12_slack", run_fig12, "fig12", _fig12_cells, _fig12_mae),
        Workload("fig13_schemes", run_fig13, "fig13", _fig13_cells, _fig13_mae),
    )
}


def simulated_stats(
    workload: Workload,
    output: Any,
    specs: Sequence[RunSpec],
    records: Sequence[RunRecord],
) -> Dict[str, float]:
    """The simulated statistics of one regeneration.

    They depend only on the seed and the scale, so every run of one
    seed must reproduce them bit for bit.

    * ``ubik_weighted_speedup`` — mean weighted speedup of the Ubik
      cells over private LLCs, as a ratio (1.06 is 6% more batch work).
    * ``qos_tail_pct`` — the worst Ubik tail latency of each Ubik
      configuration (slack and partitioning scheme) as a percent of the
      isolated baseline tail, averaged over configurations; Table 3 has
      one configuration, so there it is simply the worst Ubik tail.
    * ``paper_mae_pt`` — mean absolute difference from the paper's
      numbers, in percentage points.
    """
    ubik = [(s, r) for s, r in zip(specs, records) if s.policy.name == "ubik"]
    worst: Dict[Any, float] = {}
    for spec, record in ubik:
        config = (spec.policy, spec.scheme)
        worst[config] = max(worst.get(config, 0.0), record.tail_degradation)
    return {
        "ubik_weighted_speedup": statistics.fmean(r.weighted_speedup for _, r in ubik),
        "qos_tail_pct": statistics.fmean(worst.values()) * 100.0,
        "paper_mae_pt": workload.paper_mae_pt(output),
    }


def simulated_gcycles(specs: Sequence[RunSpec]) -> float:
    """Simulated time the cells cover, in billions of cycles.

    A cell's simulated time is at least the arrival of the last request
    over its mix's LC instances, and the host time a cell takes follows
    it: most of a regeneration is per-interval policy work, and the
    intervals span the simulated time.  The streams are rebuilt through
    ``MixRunner.stream``, the call the cells make themselves.
    """
    spans: Dict[Any, float] = {}
    total = 0.0
    for spec in specs:
        key = (spec.mix, spec.core_kind, spec.requests, spec.seed)
        if key not in spans:
            runner = MixRunner(config=spec.config(), requests=spec.requests, seed=spec.seed)
            mix = spec.mix.build()
            spans[key] = max(
                float(runner.stream(mix.lc_workload, mix.load, i)[0][-1])
                for i in range(LC_INSTANCES)
            )
        total += spans[key]
    return total / 1e9
