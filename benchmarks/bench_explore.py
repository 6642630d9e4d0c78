"""Schedule-exploration strategies and pruning, measured.

Two claims of the exploration tentpoles, quantified on every
registered workload:

1. **Systematic strategies beat random** (the original exploration
   bench): PCT priority scheduling and delay-bounded scheduling find
   *more distinct failing interleavings* than naive random scheduling
   at the same execution budget.  Enforced: some systematic variant
   strictly beats random on at least ``MIN_WINS`` workloads.
2. **Partial-order pruning cuts redundancy**: at equal budget, runs
   with Mazurkiewicz-class pruning on vs off are compared by
   *redundant executions per distinct canonical interleaving*
   (``pruned_equivalent / distinct_canonical``).  Enforced (the perf
   acceptance gate): a ≥20% aggregate redundancy reduction from
   pruning.

Every discovered failure is replay-verified (the replay reproduces
the trace record for record) before it is counted; a run with a
diverged replay fails the bench.  Everything is seeded, so the tables and assertions are
deterministic for a given budget.

The result lands in ``BENCH_explore.json`` (committed at the repo root
and uploaded by CI)::

    {
      "workloads": {"npgsql": {"random": {...}, "pct_d5": {...}, ...}},
      "wins": {"npgsql": "pct_d10", ...},
      "superiority_count": ...,
      "pruning": {"cells": [...], "aggregate": {...}},
      "budget": ..., "cpu_count": ...,
    }

Run:  PYTHONPATH=src python benchmarks/bench_explore.py
Env:  REPRO_EXPLORE_BUDGET to override the per-cell budget (the
      superiority and pruning assertions are calibrated at the default).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.explore import ExploreConfig, explore
from repro.workloads.common import REGISTRY

BUDGET = int(os.environ.get("REPRO_EXPLORE_BUDGET", "80"))
MIN_WINS = 2
#: acceptance floor: aggregate reduction in redundant executions per
#: distinct canonical interleaving from partial-order pruning
MIN_PRUNING_REDUCTION = 0.20

# One random baseline, three systematic contenders.  The variants are
# fixed here — per-workload parameter tuning would make "beats random"
# a self-fulfilling prophecy.
VARIANTS = (
    ("random", "random", {}),
    ("pct_d3", "pct", {"depth": 3}),
    ("pct_d5", "pct", {"depth": 5}),
    ("pct_d10", "pct", {"depth": 10}),
    ("delay_k2", "delay", {"delays": 2}),
)

#: strategies compared for the pruning on/off redundancy table
PRUNING_STRATEGIES = ("random", "pct_d3")


def _variant(label: str) -> tuple[str, dict]:
    for name, strategy, params in VARIANTS:
        if name == label:
            return strategy, params
    raise KeyError(label)


def bench_cell(program, strategy: str, params: dict) -> dict:
    started = time.perf_counter()
    result = explore(
        program,
        ExploreConfig(budget=BUDGET, strategy=strategy, strategy_params=params),
    )
    elapsed = time.perf_counter() - started
    assert result.all_replays_verified, (
        f"{program.name}/{strategy}: a discovered failure did not "
        f"replay byte-identically"
    )
    return {
        "distinct_failing_signatures": result.distinct_failing_signatures,
        "distinct_signatures": result.distinct_signatures,
        "distinct_canonical": result.distinct_canonical,
        "pruned_equivalent": result.pruned_equivalent,
        "coverage_edges": result.coverage_edges,
        "executions": result.executions,
        "n_failed": result.n_failed,
        "failures_replay_verified": True,
        "seconds": elapsed,
    }


def bench_pruning(programs) -> dict:
    """Redundancy per distinct canonical class, pruning on vs off."""
    cells = []
    totals = {True: [0, 0], False: [0, 0]}  # [distinct, pruned]
    for program in programs:
        for label in PRUNING_STRATEGIES:
            strategy, params = _variant(label)
            row = {"workload": program.name, "strategy": label}
            for on in (False, True):
                result = explore(
                    program,
                    ExploreConfig(
                        budget=BUDGET,
                        strategy=strategy,
                        strategy_params=params,
                        partial_order=on,
                    ),
                )
                key = "on" if on else "off"
                row[f"distinct_canonical_{key}"] = result.distinct_canonical
                row[f"pruned_equivalent_{key}"] = result.pruned_equivalent
                totals[on][0] += result.distinct_canonical
                totals[on][1] += result.pruned_equivalent
            off_red = (
                row["pruned_equivalent_off"] / row["distinct_canonical_off"]
            )
            on_red = (
                row["pruned_equivalent_on"] / row["distinct_canonical_on"]
            )
            row["redundancy_off"] = off_red
            row["redundancy_on"] = on_red
            row["reduction"] = (
                (off_red - on_red) / off_red if off_red else 0.0
            )
            cells.append(row)
    off = totals[False][1] / totals[False][0]
    on = totals[True][1] / totals[True][0]
    return {
        "cells": cells,
        "aggregate": {
            "redundancy_off": off,
            "redundancy_on": on,
            "reduction": (off - on) / off,
            "metric": (
                "pruned_equivalent / distinct_canonical at equal budget"
            ),
        },
    }


def main() -> int:
    programs = [
        REGISTRY.build(name).program for name in REGISTRY.names()
    ]
    workloads = {
        name: {
            label: bench_cell(REGISTRY.build(name).program, strategy, params)
            for label, strategy, params in VARIANTS
        }
        for name in REGISTRY.names()
    }

    wins: dict[str, str] = {}
    for name, cells in workloads.items():
        baseline = cells["random"]["distinct_failing_signatures"]
        best_label, best = max(
            (
                (label, cells[label]["distinct_failing_signatures"])
                for label, _, _ in VARIANTS
                if label != "random"
            ),
            key=lambda item: item[1],
        )
        if best > baseline:
            wins[name] = best_label

    pruning = bench_pruning(programs)

    payload = {
        "workloads": workloads,
        "wins": wins,
        "superiority_count": len(wins),
        "min_wins": MIN_WINS,
        "budget": BUDGET,
        "variants": [
            {"label": label, "strategy": strategy, "params": params}
            for label, strategy, params in VARIANTS
        ],
        "pruning": pruning,
        "cpu_count": os.cpu_count(),
    }
    out = Path("BENCH_explore.json")
    out.write_text(json.dumps(payload, indent=2, sort_keys=True))

    header = f"{'workload':16s}" + "".join(
        f"{label:>10s}" for label, _, _ in VARIANTS
    )
    print(header)
    for name, cells in workloads.items():
        row = f"{name:16s}" + "".join(
            f"{cells[label]['distinct_failing_signatures']:>10d}"
            for label, _, _ in VARIANTS
        )
        marker = f"  <- {wins[name]} beats random" if name in wins else ""
        print(row + marker)
    print(
        f"systematic strategies beat random on {len(wins)}/"
        f"{len(workloads)} workloads at budget {BUDGET} "
        f"(floor {MIN_WINS}, cpu_count {os.cpu_count()})"
    )
    agg = pruning["aggregate"]
    print(
        f"\npartial-order pruning: redundancy per distinct class "
        f"{agg['redundancy_off']:.2f} -> {agg['redundancy_on']:.2f} "
        f"({agg['reduction'] * 100:+.1f}% reduction)"
    )
    print(f"wrote {out.resolve()}")

    assert len(wins) >= MIN_WINS, (
        f"expected pct or delay to strictly beat random on at least "
        f"{MIN_WINS} workloads, got {len(wins)}: {wins}"
    )
    # The perf acceptance gate: the pruning redundancy reduction.
    assert agg["reduction"] >= MIN_PRUNING_REDUCTION, (
        f"pruning reduction {agg['reduction'] * 100:.1f}% is below the "
        f"floor {MIN_PRUNING_REDUCTION * 100:.0f}%"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
