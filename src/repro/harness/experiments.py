"""Experiment drivers: regenerate every table and figure of Section 7.

* :func:`figure7_row` / :func:`figure7` — the six case studies
  (SD predicate counts, causal path length, AID vs TAGT interventions);
* :func:`figure8` — the synthetic sweep over MAXt for the four
  approaches, average and worst case;
* :func:`figure6` lives in :mod:`repro.core.theory` (pure math) and is
  rendered by :func:`figure6_report` here;
* :func:`example3_report` — the Section 6.1 search-space example.

Each driver returns structured results *and* can render the paper-style
text table, so the pytest benchmarks both check shape properties and
print the artifact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..core.digraph import Digraph
from ..core.theory import (
    count_cpd_solutions,
    figure6_table,
    gt_search_space,
    symmetric_search_space,
    tagt_worst_case_rounds,
)
from ..core.variants import Approach, all_approaches, discover
from ..exec.engine import ExecutionEngine
from ..workloads.common import REGISTRY, Workload
from ..workloads.synthetic import generate_app, spec_for_maxt
from .session import AIDSession, SessionConfig, SessionReport
from .tables import render_table

CASE_STUDY_ORDER = (
    "npgsql",
    "kafka",
    "cosmosdb",
    "network",
    "buildandtest",
    "healthtelemetry",
)

FIGURE8_MAXT = (2, 10, 18, 26, 34, 42)


# ---------------------------------------------------------------------------
# Figure 7: case studies
# ---------------------------------------------------------------------------


@dataclass
class CaseStudyResult:
    """One measured row of Figure 7, next to the paper's numbers."""

    workload: Workload
    aid: SessionReport
    tagt: SessionReport

    @property
    def name(self) -> str:
        return self.workload.name

    @property
    def sd_predicates(self) -> int:
        return self.aid.n_sd_predicates

    @property
    def causal_path_len(self) -> int:
        return self.aid.n_causal

    @property
    def aid_rounds(self) -> int:
        return self.aid.n_rounds

    @property
    def tagt_rounds(self) -> int:
        return self.tagt.n_rounds

    @property
    def paths_agree(self) -> bool:
        return self.aid.causal_path == self.tagt.causal_path

    @property
    def matches_ground_truth(self) -> bool:
        """Does the discovered path match the workload's known markers?"""
        path = self.aid.causal_path
        markers = self.workload.expected_path_markers
        if len(path) - 1 != len(markers):
            return False
        return all(marker in pid for marker, pid in zip(markers, path))

    def row(self) -> list[object]:
        paper = self.workload.paper
        return [
            self.name,
            paper.github_issue,
            f"{self.sd_predicates} ({paper.sd_predicates})",
            f"{self.causal_path_len} ({paper.causal_path_len})",
            f"{self.aid_rounds} ({paper.aid_interventions})",
            f"{self.tagt_rounds} ({paper.tagt_interventions})",
            "yes" if self.matches_ground_truth else "NO",
        ]


def figure7_row(
    name: str,
    config: Optional[SessionConfig] = None,
    engine: Optional[ExecutionEngine] = None,
) -> CaseStudyResult:
    """Run AID and TAGT on one case study.

    With a shared ``engine``, AID's and TAGT's overlapping rounds (and
    any earlier sweep persisted in the engine's cache) are memoized.
    """
    workload = REGISTRY.build(name)
    cfg = config or SessionConfig()
    if engine is not None:
        cfg = replace(cfg, engine=engine)
    session = AIDSession(workload.program, cfg)
    aid = session.run(Approach.AID)
    tagt = session.run(Approach.TAGT)
    return CaseStudyResult(workload=workload, aid=aid, tagt=tagt)


def figure7(
    names: Sequence[str] = CASE_STUDY_ORDER,
    config: Optional[SessionConfig] = None,
    engine: Optional[ExecutionEngine] = None,
) -> list[CaseStudyResult]:
    """All Figure 7 rows."""
    return [figure7_row(name, config, engine) for name in names]


def figure7_report(results: Sequence[CaseStudyResult]) -> str:
    return render_table(
        headers=[
            "Application",
            "Issue",
            "#SD preds (paper)",
            "#Causal (paper)",
            "AID (paper)",
            "TAGT (paper)",
            "truth",
        ],
        rows=[r.row() for r in results],
        title="Figure 7 — case studies: measured (paper reference in parens)",
    )


# ---------------------------------------------------------------------------
# Figure 8: synthetic sweep
# ---------------------------------------------------------------------------


@dataclass
class Figure8Cell:
    """One (MAXt, approach) aggregate."""

    maxt: int
    approach: Approach
    rounds: list[int] = field(default_factory=list)

    @property
    def average(self) -> float:
        return sum(self.rounds) / len(self.rounds) if self.rounds else 0.0

    @property
    def worst(self) -> int:
        return max(self.rounds) if self.rounds else 0


@dataclass
class Figure8Result:
    cells: dict[tuple[int, Approach], Figure8Cell]
    avg_predicates: dict[int, float]
    n_apps: int
    all_exact: bool  # every approach recovered the exact causal set

    def series(self, approach: Approach, stat: str = "average") -> list[float]:
        return [
            getattr(self.cells[(maxt, approach)], stat)
            for maxt in sorted({m for m, _ in self.cells})
        ]


def figure8(
    maxt_values: Sequence[int] = FIGURE8_MAXT,
    apps_per_setting: int = 100,
    seed: int = 7,
    engine: Optional[ExecutionEngine] = None,
) -> Figure8Result:
    """The Section 7.2 synthetic experiment.

    The paper uses 500 apps per setting; the default here is 100 (the
    oracle makes either cheap — raise it for tighter averages).  A
    shared ``engine`` memoizes overlapping rounds across the four
    approaches per app, and — with a persistent cache — across whole
    sweep invocations.
    """
    cells: dict[tuple[int, Approach], Figure8Cell] = {}
    avg_preds: dict[int, float] = {}
    all_exact = True
    for maxt in maxt_values:
        spec = spec_for_maxt(maxt)
        sizes: list[int] = []
        for approach in all_approaches():
            cells[(maxt, approach)] = Figure8Cell(maxt=maxt, approach=approach)
        for i in range(apps_per_setting):
            app = generate_app(seed * 1_000_000 + maxt * 1_000 + i, spec)
            sizes.append(app.n_predicates)
            truth = set(app.causal_path)
            for approach in all_approaches():
                result = discover(
                    approach,
                    app.dag,
                    app.runner(engine=engine),
                    rng=random.Random(seed + i),
                )
                found = set(result.causal_path) - {result.failure}
                if found != truth:
                    all_exact = False
                cells[(maxt, approach)].rounds.append(result.n_rounds)
        avg_preds[maxt] = sum(sizes) / len(sizes)
    return Figure8Result(
        cells=cells,
        avg_predicates=avg_preds,
        n_apps=apps_per_setting,
        all_exact=all_exact,
    )


def figure8_report(result: Figure8Result) -> str:
    maxts = sorted(result.avg_predicates)
    rows_avg = []
    rows_worst = []
    for maxt in maxts:
        row_a: list[object] = [maxt, result.avg_predicates[maxt]]
        row_w: list[object] = [maxt, result.avg_predicates[maxt]]
        for approach in all_approaches():
            cell = result.cells[(maxt, approach)]
            row_a.append(cell.average)
            row_w.append(cell.worst)
        rows_avg.append(row_a)
        rows_worst.append(row_w)
    headers = ["MAXt", "avg N"] + [a.value for a in all_approaches()]
    return "\n\n".join(
        [
            render_table(
                headers, rows_avg, title="Figure 8 (left) — average #interventions"
            ),
            render_table(
                headers, rows_worst, title="Figure 8 (right) — worst-case #interventions"
            ),
        ]
    )


# ---------------------------------------------------------------------------
# Figure 6 and Example 3: theory
# ---------------------------------------------------------------------------


def figure6_report(
    junctions: int = 3,
    branches: int = 4,
    chain_length: int = 3,
    n_causal: int = 4,
    s1: int = 2,
    s2: int = 2,
) -> str:
    """The Figure 6 bounds table for a symmetric AC-DAG instance."""
    rows = figure6_table(junctions, branches, chain_length, n_causal, s1, s2)
    return render_table(
        headers=["", "Search space", "Lower bound", "Upper bound"],
        rows=[[r.name, r.search_space, r.lower_bound, r.upper_bound] for r in rows],
        title=(
            f"Figure 6 — symmetric AC-DAG J={junctions} B={branches} "
            f"n={chain_length} D={n_causal} S1={s1} S2={s2} "
            f"(N={junctions * branches * chain_length})"
        ),
    )


def example3_report() -> str:
    """Example 3: two parallel 3-chains — GT 64 candidates vs CPD 15."""
    graph = Digraph([("A1", "B1"), ("B1", "C1"), ("A2", "B2"), ("B2", "C2")])
    cpd = count_cpd_solutions(graph)
    gt = gt_search_space(6)
    closed_form = symmetric_search_space(1, 2, 3)
    return render_table(
        headers=["Model", "Search space"],
        rows=[
            ["Group testing (2^6)", gt],
            ["CPD (brute force)", cpd],
            ["CPD (closed form, Lemma 1)", closed_form],
        ],
        title="Example 3 — search space of Figure 5(a)",
    )


def tagt_worst_case_table() -> str:
    """Analytic TAGT worst cases (D·⌈log2 N⌉) for the six case studies."""
    rows = []
    for name in CASE_STUDY_ORDER:
        paper = REGISTRY.build(name).paper
        analytic = tagt_worst_case_rounds(paper.sd_predicates, paper.causal_path_len)
        rows.append([name, paper.sd_predicates, paper.causal_path_len, analytic, paper.tagt_interventions])
    return render_table(
        headers=["Application", "N", "D", "D·⌈log2 N⌉", "paper TAGT"],
        rows=rows,
        title="TAGT analytic worst case vs paper Figure 7 column 6",
    )
