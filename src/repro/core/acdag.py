"""The Approximate Causal DAG (AC-DAG), paper Section 4.

Nodes are the fully-discriminative predicates plus the failure predicate
F; there is an edge P1 → P2 iff P1 temporally precedes P2 (per the
active :class:`~repro.core.precedence.PrecedencePolicy`) in **every**
failed log.  The relation is stored transitively closed — reachability
(the paper's ``P1 ⤳ P2``) is an edge test.

Guarantees established at build time:

* the graph is acyclic (enforced; see precedence module for why the
  anchor construction makes this structural);
* F is a node, and only *ancestors of F* are kept — a predicate with no
  temporal path to the failure cannot cause it (this is the step that
  discarded 30 of 72 predicates in the paper's Kafka case study);
* every kept predicate is observed in all failed logs (fully
  discriminative ⇒ recall 100%), realizing the counterfactual-causality
  exclusion rule of Section 4.

The class also provides the structural queries the intervention
algorithms need: topological levels, minimal elements ("lowest
topological level"), branch decomposition at junctions (Algorithm 2
line 10), and destructive node removal as pruning proceeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .digraph import Digraph
from .precedence import PrecedencePolicy, default_policy
from .predicates import PredicateDef
from .statistical import PredicateLog, StatisticalDebugger, failure_and_fd


class GraphInvariantError(RuntimeError):
    """The AC-DAG would violate a structural invariant (e.g. a cycle)."""


@dataclass
class Branch:
    """An independent branch at a junction (Algorithm 2, lines 10-11).

    ``head`` is the minimal predicate the branch is rooted at;
    ``members`` is ``{head} ∪ {Q : head ⤳ Q, no sibling reaches Q}``.
    Intervening on the branch means intervening on *all* members (a
    disjunction is false only when every disjunct is false).
    """

    head: str
    members: frozenset[str]

    @property
    def pid(self) -> str:
        return f"branch[{self.head}]"

    def __len__(self) -> int:
        return len(self.members)


class ACDag:
    """The approximate causal DAG over predicate ids."""

    def __init__(
        self,
        graph: Digraph,
        failure: str,
        defs: Optional[dict[str, PredicateDef]] = None,
        discarded: Optional[dict[str, str]] = None,
        n_failed_logs: int = 0,
    ) -> None:
        if failure not in graph:
            raise GraphInvariantError(f"failure predicate {failure!r} not in graph")
        try:
            graph.topological_order()
        except ValueError:
            raise GraphInvariantError("AC-DAG contains a cycle") from None
        self.graph = graph
        self.failure = failure
        self.defs = defs or {}
        #: pid -> reason, for predicates dropped during construction
        self.discarded = discarded or {}
        #: how many failed logs support this DAG (an edge precedes in
        #: *every* one of them)
        self.n_failed_logs = n_failed_logs

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        defs: dict[str, PredicateDef],
        failed_logs: Sequence[PredicateLog],
        failure: str,
        policy: Optional[PrecedencePolicy] = None,
        candidate_pids: Optional[Iterable[str]] = None,
    ) -> "ACDag":
        """Build the AC-DAG from fully-discriminative predicates.

        Parameters
        ----------
        defs:
            Predicate definitions (must cover every candidate pid).
        failed_logs:
            Logs of failed executions; temporal precedence must hold in
            all of them for an edge to exist.
        failure:
            The pid of the failure-indicating predicate F.
        policy:
            Precedence policy; defaults to the kind-anchored policy.
        candidate_pids:
            The fully-discriminative predicate ids (defaults to all of
            ``defs``).  F is always included.
        """
        if not failed_logs:
            raise GraphInvariantError("cannot build an AC-DAG without failed logs")
        policy = policy or default_policy()
        pids = set(candidate_pids) if candidate_pids is not None else set(defs)
        pids.add(failure)
        discarded: dict[str, str] = {}

        # Anchor timestamps per (log, pid).  A fully-discriminative
        # predicate must be observed in every failed log; drop violators
        # defensively (can happen when callers pass a lax candidate set).
        anchors: dict[str, list[float]] = {}
        for pid in sorted(pids):
            series: list[float] = []
            for log in failed_logs:
                obs = log.time_of(pid)
                if obs is None:
                    break
                series.append(policy.anchor(defs[pid], obs))
            if len(series) == len(failed_logs):
                anchors[pid] = series
            else:
                discarded[pid] = "not observed in every failed log"
        if failure not in anchors:
            raise GraphInvariantError(
                f"failure predicate {failure!r} unobserved in some failed log"
            )

        graph = Digraph()
        for pid in anchors:
            graph.add_node(pid)
        nodes = sorted(set(anchors) - {failure})
        for i, p1 in enumerate(nodes):
            for p2 in nodes[i + 1 :]:
                s1, s2 = anchors[p1], anchors[p2]
                if all(a < b for a, b in zip(s1, s2)):
                    graph.add_edge(p1, p2)
                elif all(b < a for a, b in zip(s1, s2)):
                    graph.add_edge(p2, p1)
        # F is the terminal event of a failed execution: predicates that
        # never anchor after it precede it (ties allowed — the crash is
        # recorded at the instant its method dies).  Predicates anchored
        # strictly after F (post-crash cleanup) cannot cause it.
        f_series = anchors[failure]
        for pid in nodes:
            series = anchors[pid]
            if all(a <= f for a, f in zip(series, f_series)):
                graph.add_edge(pid, failure)
            elif all(f < a for a, f in zip(series, f_series)):
                graph.add_edge(failure, pid)

        dag = cls(
            graph=graph,
            failure=failure,
            defs=dict(defs),
            discarded=discarded,
            n_failed_logs=len(failed_logs),
        )
        dag._prune_non_ancestors()  # only predicates that may cause F
        return dag

    # -- incremental maintenance (corpus ingestion) -------------------------
    #
    # The edge relation is "P1 precedes P2 in every failed log", so a new
    # failed log can only *remove* edges (an edge that held in all n logs
    # either also holds in log n+1 or it dies).  Node-wise, the candidate
    # set is the fully-discriminative set, which likewise only shrinks
    # under insertions (see StatisticalDebugger).  Both facts together
    # make the AC-DAG maintainable without a rebuild; tests assert the
    # patched graph equals `ACDag.build` over the whole log history.

    def update_failed_log(
        self, log: PredicateLog, policy: Optional[PrecedencePolicy] = None
    ) -> set[str]:
        """Patch the DAG under one newly-ingested failed log.

        Drops nodes the log does not observe (their recall just fell
        below 1), drops edges whose precedence the log contradicts, and
        re-applies the ancestors-of-F filter.  Returns every pid removed.
        """
        policy = policy or default_policy()
        removed: set[str] = set()
        anchors: dict[str, float] = {}
        for pid in sorted(self.graph.nodes):
            obs = log.time_of(pid)
            if obs is None:
                if pid == self.failure:
                    raise GraphInvariantError(
                        f"failure predicate {self.failure!r} unobserved in "
                        "an ingested failed log (wrong failure signature?)"
                    )
                removed.add(pid)
                self.discarded[pid] = "not observed in every failed log"
            else:
                anchors[pid] = policy.anchor(self.defs[pid], obs)
        self.graph.remove_nodes_from(removed)
        for a, b in self.graph.edges:
            # Ties with F are allowed (the crash is recorded at the
            # instant its method dies); all other precedence is strict.
            holds = (
                anchors[a] <= anchors[b]
                if b == self.failure
                else anchors[a] < anchors[b]
            )
            if not holds:
                self.graph.remove_edge(a, b)
        self.n_failed_logs += 1
        removed |= self._prune_non_ancestors()
        return removed

    def restrict_to(self, pids: Iterable[str]) -> set[str]:
        """Drop nodes outside ``pids`` (F is always kept), then re-apply
        the ancestors-of-F filter.  Used when a newly-ingested
        *successful* log breaks some predicates' precision.  Returns
        every pid removed."""
        keep = set(pids) | {self.failure}
        removed = self.graph.nodes - keep
        for pid in removed:
            self.discarded[pid] = "no longer fully discriminative"
        self.graph.remove_nodes_from(removed)
        return removed | self._prune_non_ancestors()

    def _prune_non_ancestors(self) -> set[str]:
        """Only predicates that may cause F stay: its ancestors, which are
        its predecessors because the relation is transitively closed."""
        keep = self.graph.predecessors(self.failure)
        doomed = [p for p in self.graph if p != self.failure and p not in keep]
        for pid in doomed:
            self.discarded[pid] = "no temporal path to the failure predicate"
        self.graph.remove_nodes_from(doomed)
        return set(doomed)

    def structure(self) -> tuple[frozenset, frozenset]:
        """(nodes, edges) — the comparable shape, for equality asserts."""
        return frozenset(self.graph.nodes), frozenset(self.graph.edges)

    # -- basic queries -----------------------------------------------------

    @property
    def predicates(self) -> set[str]:
        """All candidate predicates (excluding F)."""
        return self.graph.nodes - {self.failure}

    def __len__(self) -> int:
        return len(self.graph)

    def __contains__(self, pid: str) -> bool:
        return pid in self.graph

    def reaches(self, a: str, b: str) -> bool:
        """The paper's ``a ⤳ b`` (graph is transitively closed)."""
        if a == b:
            return False
        return self.graph.has_edge(a, b)

    def ancestors(self, pid: str) -> set[str]:
        return set(self.graph.predecessors(pid))

    def descendants(self, pid: str) -> set[str]:
        return set(self.graph.successors(pid))

    def minimal_elements(self, among: Optional[Iterable[str]] = None) -> list[str]:
        """Nodes with no predecessor inside ``among`` ("lowest level")."""
        pool = set(among) if among is not None else set(self.graph.nodes)
        return sorted(
            p for p in pool if not any(q in pool for q in self.graph.predecessors(p))
        )

    def topological_order(self, among: Optional[Iterable[str]] = None) -> list[str]:
        """A deterministic topological order of ``among``.

        Ties (incomparable nodes) break lexicographically; intervention
        algorithms may re-break them randomly per the paper.
        """
        return self.graph.topological_order(among)

    def topological_levels(
        self, among: Optional[Iterable[str]] = None
    ) -> list[list[str]]:
        """Antichain levels: level k = minimal elements after removing <k."""
        pool = set(among) if among is not None else set(self.graph.nodes)
        levels: list[list[str]] = []
        while pool:
            level = self.minimal_elements(pool)
            levels.append(level)
            pool -= set(level)
        return levels

    # -- branch decomposition (Algorithm 2) ---------------------------------

    def branches_at(self, heads: Sequence[str]) -> list[Branch]:
        """Branch decomposition at a junction with the given heads.

        ``B_P = P ∨ {Q : P ⤳ Q and ∀P' ≠ P at the junction, P' ̸⤳ Q}``.
        Shared descendants (merge points) belong to no branch.
        """
        branches = []
        head_set = set(heads)
        for head in sorted(heads):
            exclusive = {
                q
                for q in self.descendants(head)
                if q != self.failure
                and not any(
                    self.reaches(other, q) for other in head_set - {head}
                )
            }
            branches.append(Branch(head=head, members=frozenset({head} | exclusive)))
        return branches

    # -- mutation ------------------------------------------------------------

    def remove(self, pids: Iterable[str]) -> None:
        doomed = set(pids) - {self.failure}
        self.graph.remove_nodes_from(doomed)

    def copy(self) -> "ACDag":
        return ACDag(
            graph=self.graph.copy(),
            failure=self.failure,
            defs=dict(self.defs),
            discarded=dict(self.discarded),
            n_failed_logs=self.n_failed_logs,
        )

    # -- presentation --------------------------------------------------------

    def transitive_reduction(self) -> Digraph:
        """Minimal edge set implying the same reachability (for display)."""
        return self.graph.transitive_reduction()

    def to_dot(self) -> str:
        """A Graphviz rendering of the transitive reduction."""
        lines = ["digraph acdag {", "  rankdir=TB;"]
        reduced = self.transitive_reduction()
        for node in sorted(reduced.nodes):
            shape = "doubleoctagon" if node == self.failure else "box"
            lines.append(f'  "{node}" [shape={shape}];')
        for a, b in sorted(reduced.edges):
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines)

    def describe(self, pid: str) -> str:
        pred = self.defs.get(pid)
        return pred.description if pred is not None else pid


def learn_dag(
    suite,
    debugger: StatisticalDebugger,
    failed_logs: Iterable[PredicateLog],
    policy: Optional[PrecedencePolicy] = None,
) -> tuple[Optional[str], list[str], Optional[ACDag]]:
    """AID's learning step after evaluation: SD counters → the failure
    predicate F and the fully-discriminative set → one AC-DAG build.

    ``suite`` is the frozen :class:`~repro.core.extraction.PredicateSuite`
    (its ``defs`` and ``failure_pids()``).  ``failed_logs`` is consumed
    only when F exists, so callers may pass a lazy generator.  Returns
    ``(F, FD pids, dag)`` — ``(None, FD pids, None)`` when no failed log
    observes a failure predicate.
    """
    failure, fully = failure_and_fd(debugger, suite.failure_pids())
    if failure is None:
        return None, fully, None
    dag = ACDag.build(
        defs=dict(suite.defs),
        failed_logs=list(failed_logs),
        failure=failure,
        policy=policy,
        candidate_pids=fully,
    )
    return failure, fully, dag
