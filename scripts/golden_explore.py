#!/usr/bin/env python
"""Pin the exploration driver's output: two sha256 digests per case.

Every bundled case study is explored twice, with partial-order pruning
on and off, at budget 96 from ``start_seed`` 3, each run into a freshly
initialised corpus.  A case records:

* ``payload`` — the sha256 of the result's ``to_dict()`` as canonical
  JSON (sorted keys, no whitespace);
* ``corpus`` — the sha256 of the corpus directory the run left behind:
  every file's path relative to the corpus root, in sorted order, each
  followed by the file's bytes.

Together they pin the search (which schedules ran, which failures were
found) and the ingest path (which traces were stored, and the manifests
and evaluation memo the incremental pipeline wrote for them).

Usage:
    PYTHONPATH=src python scripts/golden_explore.py --check   # exit 1 on drift
    PYTHONPATH=src python scripts/golden_explore.py --write   # regenerate
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.corpus import TraceStore  # noqa: E402
from repro.explore import ExplorationDriver, ExploreConfig  # noqa: E402
from repro.harness.experiments import CASE_STUDY_ORDER  # noqa: E402
from repro.sim.serialize import canonical_json  # noqa: E402
from repro.workloads.common import REGISTRY  # noqa: E402

FIXTURE = REPO_ROOT / "tests" / "fixtures" / "golden_explore.json"
BUDGET = 96
START_SEED = 3


def directory_digest(root: Path) -> str:
    """sha256 over the sorted relative paths and bytes of ``root``'s files."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_case(name: str, partial_order: bool, scratch: Path) -> dict:
    """Both digests of one exploration into a fresh corpus."""
    program = REGISTRY.build(name).program
    root = scratch / f"{name}-{'po' if partial_order else 'raw'}"
    store = TraceStore.init(root, program=program.name)
    config = ExploreConfig(
        budget=BUDGET, start_seed=START_SEED, partial_order=partial_order
    )
    result = ExplorationDriver(program, config=config, store=store).run()
    payload = canonical_json(result.to_dict()).encode()
    return {
        "payload": hashlib.sha256(payload).hexdigest(),
        "corpus": directory_digest(root),
    }


def compute(workloads=CASE_STUDY_ORDER) -> dict:
    """The whole fixture document."""
    cases = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in workloads:
            for partial_order in (True, False):
                label = "partial_order" if partial_order else "exact"
                cases[f"{name}/{label}"] = run_case(
                    name, partial_order, Path(scratch)
                )
    return {"budget": BUDGET, "start_seed": START_SEED, "cases": cases}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="regenerate the committed fixture")
    mode.add_argument("--check", action="store_true",
                      help="exit 1 if exploration drifted from it")
    args = parser.parse_args(argv)
    document = compute()
    if args.write:
        FIXTURE.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE} ({len(document['cases'])} cases)")
        return 0
    expected = json.loads(FIXTURE.read_text())
    drift = sorted(
        case
        for case in expected["cases"].keys() | document["cases"].keys()
        if expected["cases"].get(case) != document["cases"].get(case)
    )
    for case in drift:
        print(f"drift: {case}")
    if drift or expected != document:
        return 1
    print(f"ok: {len(document['cases'])} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
