"""Branch pruning — the paper's Algorithm 2.

Walks the AC-DAG by topological level.  Single nodes (still in a chain)
are skipped; when a *junction* is encountered — several minimal
predicates at once — at most one branch can lie on the single causal
path, so GIWP is run over the branch disjunctions to find it, and every
spurious branch is removed wholesale.  With ``B`` branches this costs
about ``log B`` interventions instead of interventions on every branch
predicate, which is where the ``J log T`` term of the Section 6.3.1
bound comes from.

After the walk the AC-DAG has been reduced to (approximately) a chain;
Algorithm 3 finishes the job with plain GIWP over the remaining
predicates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .acdag import ACDag
from .giwp import GIWP, GIWPResult, topological_item_order
from .intervention import InterventionRunner
from .pruning import GroupItem


@dataclass
class BranchPruneResult:
    """What branch pruning did to the AC-DAG (mutated in place)."""

    junctions: int = 0
    removed: list[str] = field(default_factory=list)
    giwp_results: list[GIWPResult] = field(default_factory=list)

    @property
    def n_rounds(self) -> int:
        return sum(r.n_rounds for r in self.giwp_results)


def branch_prune(
    dag: ACDag,
    runner: InterventionRunner,
    rng: Optional[random.Random] = None,
    observational_pruning: bool = True,
) -> BranchPruneResult:
    """Reduce ``dag`` to an approximate causal chain (Algorithm 2).

    The DAG is mutated: spurious branches and unreachable predicates are
    removed.  The runner is consulted only at junctions; every junction
    probe is a round of the ``branch`` phase.
    """
    rng = rng or random.Random(0)
    result = BranchPruneResult()
    processed: set[str] = set()  # the paper's C, the potential-causal chain

    while True:
        pool = dag.predicates - processed
        if not pool:
            break
        level = dag.minimal_elements(among=pool)
        if len(level) == 1:
            processed.add(level[0])
            continue

        branches = dag.branches_at(level)
        if all(len(b) == 1 for b in branches):
            # Degenerate junction: every branch is a single predicate, so
            # a branch intervention eliminates nothing a plain chain
            # round would not (the J·log T savings of Section 6.3.1 need
            # multi-predicate branches).  Walk past it; GIWP resolves
            # these predicates with ordinary halving.
            processed.update(level)
            continue

        # A junction: find the causal branch via group intervention.
        result.junctions += 1
        items = [GroupItem.disjunction(b.pid, b.members) for b in branches]
        items = topological_item_order(items, [[i.pid for i in items]], rng)

        def branch_reaches(a: GroupItem, b: GroupItem) -> bool:
            # Branch *heads* are mutually unordered by construction, but
            # member predicates of one branch may still precede members
            # of another; Definition 2's ancestor exemption must honour
            # that, or intervening on one branch could falsely prune a
            # causally-upstream sibling.
            return any(
                dag.reaches(x, y) for x in a.predicates for y in b.predicates
            )

        giwp = GIWP(
            runner,
            reaches=branch_reaches,
            observational_pruning=observational_pruning,
            # With a single causal path, most junctions contain no causal
            # branch at all: one whole-junction probe dismisses them.
            # For two branches plain halving already costs two rounds,
            # so the opener only pays off from three branches up.
            probe_all_first=len(items) >= 3,
            phase="branch",
        )
        outcome = giwp.run(items)
        result.giwp_results.append(outcome)

        members_of = {i.pid: i.predicates for i in items}
        removed_now: set[str] = set()
        for item in outcome.spurious:
            removed_now |= members_of[item.pid]
        dag.remove(removed_now)
        result.removed.extend(sorted(removed_now))

        # Line 16: drop predicates no longer reachable from the
        # potential-causal prefix (they hung off pruned branches).
        if processed:
            unreachable = {
                u
                for u in dag.predicates - processed
                if not any(dag.reaches(c, u) for c in processed)
            }
            if unreachable:
                dag.remove(unreachable)
                result.removed.extend(sorted(unreachable))
                removed_now |= unreachable

        if not removed_now:
            # Degenerate junction (e.g. every branch reported causal,
            # possible only when the single-causal-path assumption is
            # violated).  Mark the heads processed to guarantee progress.
            processed.update(level)

    return result
