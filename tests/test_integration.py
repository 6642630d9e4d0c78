"""End-to-end integration: full pipelines on fresh programs and the
experiment drivers that regenerate the paper's artifacts."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import SessionConfig, debug, load_workload
from repro.core import Approach, all_approaches
from repro.harness.experiments import (
    example3_report,
    figure6_report,
    figure7_report,
    figure8,
    figure8_report,
    tagt_worst_case_table,
)
from repro.sim import Program


class TestEndToEnd:
    def test_racy_counter_full_pipeline(self, racy_session):
        report = racy_session.run(Approach.AID)
        path = report.causal_path
        assert path[0].startswith("race(counter)")
        assert any(pid.startswith("wrongret[") for pid in path)
        assert any(pid.startswith("fails(TornRead)") for pid in path)
        assert path[-1].startswith("FAILURE[")

    def test_all_approaches_agree_end_to_end(self, racy_session):
        paths = {
            tuple(racy_session.run(a).causal_path) for a in all_approaches()
        }
        assert len(paths) == 1

    def test_explanation_is_actionable(self, racy_session):
        report = racy_session.run(Approach.AID)
        text = report.explanation.render()
        assert "data race on 'counter'" in text

    def test_intervention_on_discovered_root_fixes_program(self, racy_session):
        """The acid test: applying the root cause's repair makes the
        program stop failing — the discovered cause is real."""
        from repro.sim import Simulator

        report = racy_session.run(Approach.AID)
        root = report.discovery.root_cause
        injections = report.suite[root].interventions()
        simulator = Simulator(racy_session.program)
        for seed in range(80):
            assert not simulator.run(seed, injections).failed

    def test_multi_bug_program_targets_dominant_signature(self):
        """With two distinct intermittent bugs, AID debugs the grouped
        dominant signature (Section 5.1 failure grouping)."""

        def main(ctx):
            yield from ctx.spawn("w", "Flaky")
            yield from ctx.work(2)
            if ctx.rand() < 0.15:
                yield from ctx.call("RareCrash")
            yield from ctx.join("w")
            return "ok"

        def flaky(ctx):
            yield from ctx.work(ctx.randint(0, 10))
            if ctx.rand() < 0.45:
                bad = yield from ctx.call("CheckState")
                if bad:
                    ctx.throw("CommonBug")
            return None

        def check_state(ctx):
            yield from ctx.work(1)
            return True

        def rare_crash(ctx):
            yield from ctx.work(1)
            ctx.throw("RareBug")

        program = Program(
            name="twobugs",
            methods={
                "Main": main,
                "Flaky": flaky,
                "CheckState": check_state,
                "RareCrash": rare_crash,
            },
            main="Main",
            readonly_methods=frozenset({"Flaky", "CheckState"}),
        )
        report = debug(
            program, config=SessionConfig(n_success=25, n_fail=25, repeats=15)
        )
        assert "CommonBug" in report.dag.failure
        assert all(t.failure.exception == "CommonBug"
                   for t in report.corpus.failures)


class TestExperimentDrivers:
    def test_example3_report(self):
        text = example3_report()
        assert "64" in text and "15" in text

    def test_figure6_report(self):
        text = figure6_report()
        assert "CPD" in text and "GT" in text

    def test_tagt_worst_case_table(self):
        text = tagt_worst_case_table()
        assert "cosmosdb" in text and "42" in text

    def test_figure8_small_sweep(self):
        result = figure8(maxt_values=(2, 10), apps_per_setting=8, seed=3)
        assert result.all_exact
        report = figure8_report(result)
        assert "Figure 8 (left)" in report and "TAGT" in report
        for maxt in (2, 10):
            for approach in all_approaches():
                assert len(result.cells[(maxt, approach)].rounds) == 8

    def test_figure7_report_renders(self):
        # Use the cached sessions via a single fresh row to keep it fast.
        from repro.harness.experiments import CaseStudyResult

        from conftest import case_study_session

        session = case_study_session("network")
        workload = load_workload("network")
        row = CaseStudyResult(
            workload=workload,
            aid=session.run(Approach.AID),
            tagt=session.run(Approach.TAGT),
        )
        text = figure7_report([row])
        assert "network" in text
        assert row.matches_ground_truth


class TestPublicAPI:
    def test_load_workload(self):
        workload = load_workload("npgsql")
        assert workload.program.main == "PoolMain"

    def test_version_and_exports(self):
        """Every ``__all__`` name of ``repro``, ``repro.api`` and each
        subpackage resolves in a fresh interpreter (the lazy ``_EXPORTS``
        tables hold no typo), and ``from repro import *`` works."""
        import repro

        assert repro.__version__
        src = str(Path(repro.__file__).resolve().parent.parent)
        script = """
import importlib, pkgutil, repro
star = {}
exec("from repro import *", star)
missing = set(repro.__all__) - set(star)
exec("from repro.api import *", star)
packages = ["repro", "repro.api"] + [
    "repro." + info.name
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
]
for name in packages:
    module = importlib.import_module(name)
    missing |= {f"{name}.{n}" for n in module.__all__ if not hasattr(module, n)}
assert not missing, sorted(missing)
print(len(packages))
"""
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert int(result.stdout) >= 10
