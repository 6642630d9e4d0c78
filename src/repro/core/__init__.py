"""``repro.core`` — the AID pipeline (the paper's contribution).

Stages, in data-flow order:

1. :mod:`~repro.core.extraction` — traces → predicate logs;
2. :mod:`~repro.core.statistical` — logs → fully-discriminative set;
3. :mod:`~repro.core.acdag` + :mod:`~repro.core.precedence` —
   temporal precedence → Approximate Causal DAG;
4. :mod:`~repro.core.discovery` (Algorithm 3) orchestrating
   :mod:`~repro.core.branch` (Algorithm 2) and :mod:`~repro.core.giwp`
   (Algorithm 1) over an :mod:`~repro.core.intervention` runner;
5. :mod:`~repro.core.report` — causal path → narrative explanation.

:mod:`~repro.core.variants` exposes the evaluation's approach ladder
(AID / AID-P / AID-P-B / TAGT / LINEAR) and :mod:`~repro.core.theory`
the Section 6 bounds.
"""

from .acdag import ACDag, Branch, GraphInvariantError
from .branch import BranchPruneResult, branch_prune
from .discovery import DiscoveryResult, causal_path_discovery, linear_discovery
from .evalkernel import SuiteKernel, popcount_split
from .extraction import (
    CompoundConjunctionExtractor,
    DataRaceExtractor,
    DurationExtractor,
    Extractor,
    FailureExtractor,
    MethodExecutedExtractor,
    MethodFailsExtractor,
    OrderViolationExtractor,
    PredicateSuite,
    WrongReturnExtractor,
    default_extractors,
)
from .giwp import GIWP, GIWPResult, RoundRecord, topological_item_order
from .intervention import (
    CountingRunner,
    InterventionBudget,
    InterventionRunner,
    RunOutcome,
    ScriptedRunner,
    SimulationRunner,
)
from .precedence import (
    EndTimePolicy,
    KindAnchorPolicy,
    LamportAnchorPolicy,
    PrecedencePolicy,
    StartTimePolicy,
    default_policy,
)
from .predicates import (
    CompoundAndPredicate,
    DataRacePredicate,
    ExecutedPredicate,
    FailurePredicate,
    KeyedPredicate,
    MethodFailsPredicate,
    Observation,
    OrderViolationPredicate,
    PredicateDef,
    PredicateKind,
    TooFastPredicate,
    TooSlowPredicate,
    WrongReturnPredicate,
)
from .pruning import GroupItem, counterfactual_violation, observational_prunes
from .report import Explanation, ExplanationStep, explain, render_sd_ranking
from .statistical import (
    PredicateLog,
    PredicateStats,
    StatisticalDebugger,
    split_logs,
)
from .variants import Approach, all_approaches, discover

__all__ = [
    "ACDag",
    "Approach",
    "Branch",
    "BranchPruneResult",
    "CompoundAndPredicate",
    "CompoundConjunctionExtractor",
    "CountingRunner",
    "DataRaceExtractor",
    "DataRacePredicate",
    "DiscoveryResult",
    "DurationExtractor",
    "ExecutedPredicate",
    "EndTimePolicy",
    "Explanation",
    "ExplanationStep",
    "Extractor",
    "FailureExtractor",
    "FailurePredicate",
    "GIWP",
    "GIWPResult",
    "GraphInvariantError",
    "GroupItem",
    "InterventionBudget",
    "InterventionRunner",
    "KeyedPredicate",
    "KindAnchorPolicy",
    "LamportAnchorPolicy",
    "MethodExecutedExtractor",
    "MethodFailsExtractor",
    "MethodFailsPredicate",
    "Observation",
    "OrderViolationExtractor",
    "OrderViolationPredicate",
    "PrecedencePolicy",
    "PredicateDef",
    "PredicateKind",
    "PredicateLog",
    "PredicateStats",
    "PredicateSuite",
    "RoundRecord",
    "RunOutcome",
    "ScriptedRunner",
    "SimulationRunner",
    "StartTimePolicy",
    "StatisticalDebugger",
    "SuiteKernel",
    "TooFastPredicate",
    "TooSlowPredicate",
    "WrongReturnPredicate",
    "all_approaches",
    "branch_prune",
    "causal_path_discovery",
    "counterfactual_violation",
    "default_extractors",
    "default_policy",
    "discover",
    "explain",
    "linear_discovery",
    "observational_prunes",
    "popcount_split",
    "render_sd_ranking",
    "split_logs",
    "topological_item_order",
]
