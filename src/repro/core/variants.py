"""The approaches compared in the paper's evaluation (Section 7.2).

================  ==========  ==============  =============  ============
Approach          ordering    branch pruning  Def.2 pruning  uses AC-DAG
================  ==========  ==============  =============  ============
AID               topological yes             yes            fully
AID-P             topological yes             no             structure
AID-P-B           topological no              no             order only
TAGT              random      no              no             no
LINEAR            random      —               —              no
================  ==========  ==============  =============  ============

All approaches always derive the correct causal predicates (they share
GIWP's counterfactual logic); they differ only in the *number of
intervention rounds* — which is exactly what Figure 8 plots.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Optional

from .acdag import ACDag
from .discovery import DiscoveryResult, causal_path_discovery, linear_discovery
from .intervention import InterventionRunner


class Approach(str, Enum):
    AID = "AID"
    AID_P = "AID-P"
    AID_P_B = "AID-P-B"
    TAGT = "TAGT"
    LINEAR = "LINEAR"


#: Approach -> (branch_pruning, observational_pruning, ordering)
_CONFIG = {
    Approach.AID: (True, True, "topological"),
    Approach.AID_P: (True, False, "topological"),
    Approach.AID_P_B: (False, False, "topological"),
    Approach.TAGT: (False, False, "random"),
}


def discover(
    approach: Approach | str,
    dag: ACDag,
    runner: InterventionRunner,
    rng: Optional[random.Random] = None,
) -> DiscoveryResult:
    """Run one approach end to end and return its discovery result.

    All intervened executions route through the runner (and its engine);
    the approach only decides *which* groups are requested, never *how*
    they run.
    """
    approach = Approach(approach)
    if approach is Approach.LINEAR:
        return linear_discovery(dag, runner, rng=rng)
    branch, obs_pruning, ordering = _CONFIG[approach]
    return causal_path_discovery(
        dag,
        runner,
        branch_pruning=branch,
        observational_pruning=obs_pruning,
        ordering=ordering,
        rng=rng,
    )


def all_approaches() -> list[Approach]:
    """The four approaches of Figure 8, strongest first."""
    return [Approach.AID, Approach.AID_P, Approach.AID_P_B, Approach.TAGT]
