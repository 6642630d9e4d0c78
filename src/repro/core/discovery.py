"""Causal path discovery — the paper's Algorithm 3, plus result types.

``causal_path_discovery`` wires the two phases together:

1. optional **branch pruning** (Algorithm 2) reduces the AC-DAG to an
   approximate chain using cheap junction interventions;
2. **GIWP** (Algorithm 1) over the surviving predicates separates the
   counterfactual causes of F from the spurious correlates.

The confirmed causes, ordered by the AC-DAG's topological order and
terminated with F, form the *causal path* (Definition 1): the root cause
first, then the explanation predicates, then the failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .acdag import ACDag
from .branch import BranchPruneResult, branch_prune
from .giwp import GIWP, GIWPResult, RoundRecord, topological_item_order
from .intervention import (
    CountingRunner,
    InterventionBudget,
    InterventionRunner,
    run_round,
)
from .pruning import GroupItem


@dataclass
class DiscoveryResult:
    """Everything Algorithm 3 learned, with intervention accounting."""

    causal_path: list[str]  # root cause … explanation …, then F
    failure: str
    spurious: list[str]
    budget: InterventionBudget
    branch_result: Optional[BranchPruneResult] = None
    chain_result: Optional[GIWPResult] = None
    dag: Optional[ACDag] = None

    @property
    def root_cause(self) -> Optional[str]:
        return self.causal_path[0] if len(self.causal_path) > 1 else None

    @property
    def explanation_pids(self) -> list[str]:
        """Predicates strictly between the root cause and F."""
        return self.causal_path[1:-1]

    @property
    def n_rounds(self) -> int:
        return self.budget.rounds

    @property
    def n_executions(self) -> int:
        return self.budget.executions

    @property
    def rounds(self) -> list[RoundRecord]:
        records: list[RoundRecord] = []
        if self.branch_result is not None:
            for giwp in self.branch_result.giwp_results:
                records.extend(giwp.rounds)
        if self.chain_result is not None:
            records.extend(self.chain_result.rounds)
        return records


def causal_path_discovery(
    dag: ACDag,
    runner: InterventionRunner,
    branch_pruning: bool = True,
    observational_pruning: bool = True,
    ordering: str = "topological",
    rng: Optional[random.Random] = None,
) -> DiscoveryResult:
    """Run Algorithm 3 and return the discovered causal path.

    Parameters
    ----------
    dag:
        The AC-DAG (not mutated; a working copy is made).
    runner:
        Intervention runner; wrapped in a counting adapter so the result
        carries total rounds/executions.
    branch_pruning:
        The paper's ``Flag_B``; disable for the AID-P-B ablation.
    observational_pruning:
        Definition 2 pruning; disable for the AID-P ablation.
    ordering:
        ``"topological"`` (AID and ablations) or ``"random"``
        (traditional adaptive group testing, which ignores the DAG).
    """
    if ordering not in ("topological", "random"):
        raise ValueError(f"unknown ordering {ordering!r}")
    rng = rng or random.Random(0)
    work = dag.copy()
    counting = CountingRunner(runner)

    branch_result: Optional[BranchPruneResult] = None
    if branch_pruning:
        branch_result = branch_prune(
            work,
            counting,
            rng=rng,
            observational_pruning=observational_pruning,
        )

    candidates = sorted(work.predicates)
    items = [GroupItem.single(pid) for pid in candidates]
    if ordering == "topological":
        levels = work.topological_levels(among=candidates)
        items = topological_item_order(items, levels, rng)
        reaches = lambda a, b: work.reaches(a.pid, b.pid)  # noqa: E731
    else:
        rng.shuffle(items)
        # Traditional group testing assumes independent predicates: it
        # cannot exploit reachability, so no item "reaches" another.
        reaches = lambda a, b: False  # noqa: E731

    chain = GIWP(
        counting,
        reaches=reaches,
        observational_pruning=observational_pruning,
    ).run(items)

    causal = [i.pid for i in chain.causal]
    ordered_causal = [pid for pid in dag.topological_order() if pid in set(causal)]
    spurious = sorted(
        (set(candidates) - set(causal))
        | (set(dag.predicates) - set(candidates))  # removed by branch pruning
    )
    work.remove(spurious)

    return DiscoveryResult(
        causal_path=ordered_causal + [dag.failure],
        failure=dag.failure,
        spurious=spurious,
        budget=counting.budget,
        branch_result=branch_result,
        chain_result=chain,
        dag=work,
    )


def linear_discovery(
    dag: ACDag, runner: InterventionRunner, rng: Optional[random.Random] = None
) -> DiscoveryResult:
    """Naive baseline: intervene on one predicate at a time (N rounds).

    The paper's Section 2 strawman ("the number of required
    interventions is linear in the number of predicates"): one round
    per predicate, in shuffled order, each a round of the ``linear``
    phase.
    """
    rng = rng or random.Random(0)
    counting = CountingRunner(runner)
    causal: list[str] = []
    spurious: list[str] = []
    pool = sorted(dag.predicates)
    rng.shuffle(pool)
    for pid in pool:
        outcomes = run_round(counting, frozenset({pid}), "linear")
        if any(o.failed for o in outcomes):
            spurious.append(pid)
        else:
            causal.append(pid)
    ordered_causal = [pid for pid in dag.topological_order() if pid in set(causal)]
    return DiscoveryResult(
        causal_path=ordered_causal + [dag.failure],
        failure=dag.failure,
        spurious=sorted(spurious),
        budget=counting.budget,
    )
