#!/usr/bin/env python
"""Pin the simulator's output: one sha256 per (workload, intervention set).

Every bundled case study runs under four intervention sets — none,
``DelayBefore``, ``SerializeMethods`` and ``ForceOrder`` — for seeds
0-49.  Each execution contributes its canonical trace JSON, its
schedule decisions, its per-decision footprints (each sorted) and its
step count to the digest of its (workload, intervention set) cell.  The
fixture also records the total step count, which doubles as the work
unit for simulator throughput measurements.

The interventions are derived from the workload itself, so the fixture
needs no per-workload table.  On the uninstrumented seed-0 run, ``late``
is the last method to start and ``early`` the first non-entry method
that is neither ``late`` nor one of its callers.  ``DelayBefore``
delays every ``early`` call by 7 ticks, ``SerializeMethods`` locks
``early`` and ``late`` against each other, and ``ForceOrder`` makes
every ``late`` call wait until some ``early`` call has completed.

Usage:
    PYTHONPATH=src python scripts/golden_sim.py --check   # exit 1 on drift
    PYTHONPATH=src python scripts/golden_sim.py --write   # regenerate
    PYTHONPATH=src python scripts/golden_sim.py --time 5  # steps/s, best of 5

``--time`` runs the same executions without hashing them and prints one
JSON line: steps, best steps/s and ``cpu_count``.  The script needs
nothing newer than the simulator API, so a copy of it times an older
checkout the same way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness.experiments import CASE_STUDY_ORDER  # noqa: E402
from repro.sim import (  # noqa: E402
    DelayBefore,
    ForceOrder,
    MethodSelector,
    Program,
    SerializeMethods,
    Simulator,
)
from repro.sim.serialize import trace_to_json  # noqa: E402
from repro.workloads.common import REGISTRY  # noqa: E402

FIXTURE = REPO_ROOT / "tests" / "fixtures" / "golden_sim.json"
SEEDS = range(50)


def intervention_sets(program: Program) -> dict[str, tuple]:
    """The four intervention sets for ``program`` (see module doc)."""
    calls = Simulator(program).run(0).trace.method_executions()
    by_id = {m.call_id: m for m in calls}
    late = calls[-1]
    ancestors = set()
    parent = late.parent_call_id
    while parent is not None:
        ancestors.add(parent)
        parent = by_id[parent].parent_call_id
    early = next(
        m
        for m in calls
        if m.method != program.main
        and m.call_id not in ancestors
        and m.method != late.method
    )
    first, then = MethodSelector(early.method), MethodSelector(late.method)
    return {
        "none": (),
        "DelayBefore": (DelayBefore(first, ticks=7),),
        "SerializeMethods": (SerializeMethods((first, then)),),
        "ForceOrder": (ForceOrder(first=first, then=then),),
    }


def execution_record(result) -> bytes:
    """One execution's pinned bytes: trace, decisions, footprints, steps."""
    return json.dumps(
        {
            "trace": trace_to_json(result.trace),
            "decisions": list(result.schedule.decisions),
            "footprints": [sorted(fp) for fp in result.footprints],
            "steps": result.steps,
        },
        sort_keys=True,
    ).encode()


def run_cell(program: Program, interventions: tuple, seeds=SEEDS) -> dict:
    """Digest and step count of one (workload, intervention set) cell."""
    simulator = Simulator(program)
    digest = hashlib.sha256()
    steps = 0
    for seed in seeds:
        result = simulator.run(seed, interventions)
        digest.update(execution_record(result))
        steps += result.steps
    return {"sha256": digest.hexdigest(), "steps": steps}


def compute(workloads=CASE_STUDY_ORDER, seeds=SEEDS) -> dict:
    """The whole fixture document."""
    cells = {}
    for name in workloads:
        program = REGISTRY.build(name).program
        for label, interventions in intervention_sets(program).items():
            cells[f"{name}/{label}"] = run_cell(program, interventions, seeds)
    return {
        "seeds": [min(seeds), max(seeds)],
        "cells": cells,
        "total_steps": sum(cell["steps"] for cell in cells.values()),
    }


def throughput(repeats: int, workloads=CASE_STUDY_ORDER, seeds=SEEDS) -> dict:
    """Simulator steps/s over the fixture's executions, best of
    ``repeats`` passes (program construction is outside the timing)."""
    cells = []
    for name in workloads:
        program = REGISTRY.build(name).program
        cells += [(program, ivs) for ivs in intervention_sets(program).values()]
    best = 0.0
    for _ in range(repeats):
        steps = 0
        start = time.perf_counter()
        for program, interventions in cells:
            simulator = Simulator(program)
            for seed in seeds:
                steps += simulator.run(seed, interventions).steps
        best = max(best, steps / (time.perf_counter() - start))
    return {"steps": steps, "steps_per_s": round(best), "cpu_count": os.cpu_count()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="regenerate the committed fixture")
    mode.add_argument("--check", action="store_true",
                      help="exit 1 if the simulator drifted from it")
    mode.add_argument("--time", type=int, metavar="REPEATS",
                      help="print simulator steps/s, best of REPEATS")
    args = parser.parse_args(argv)
    if args.time is not None:
        if args.time < 1:
            parser.error("--time needs at least one repeat")
        print(json.dumps(throughput(args.time)))
        return 0
    document = compute()
    if args.write:
        FIXTURE.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE} ({document['total_steps']} steps)")
        return 0
    expected = json.loads(FIXTURE.read_text())
    drift = sorted(
        cell
        for cell in expected["cells"].keys() | document["cells"].keys()
        if expected["cells"].get(cell) != document["cells"].get(cell)
    )
    for cell in drift:
        print(f"drift: {cell}")
    if drift or expected != document:
        return 1
    print(f"ok: {len(document['cells'])} cells, {document['total_steps']} steps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
