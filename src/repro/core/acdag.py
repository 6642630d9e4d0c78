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

One kernel builds and maintains the edges.  Nodes are bit positions;
each node carries the bitset of nodes anchored strictly later than it
in every log seen so far, and two masks hold the nodes anchored at or
before F and strictly after F.  One failed log narrows that state in a
single descending sweep over its anchors (:func:`_narrow`: a tie group
shares one "later" accumulator, one AND per node).  ``build`` folds the
sweep over the failed logs from all-ones masks; ``update_failed_log``
runs it once from masks read off the current edges and deletes the
edges whose bits were cleared.  No pair of predicates is compared
directly.

Anchors come from one policy call per predicate:
:meth:`~repro.core.precedence.PrecedencePolicy.anchors` over the
predicate's *anchor column*, its window in every failed log
(``build``), or over its one observation in the new log
(``update_failed_log``).  ``build`` reads columns, not logs: a live
session cuts them from its logs (:func:`log_columns`), and the corpus
pipeline reads them straight from the eval matrix's stored windows
without assembling a log.  The DAG keeps
the policy it was built under, and ``update_failed_log`` and ``copy``
use it, so a patched DAG never mixes two policies' anchors.

The class also provides the structural queries the intervention
algorithms need: topological levels, minimal elements ("lowest
topological level"), branch decomposition at junctions (Algorithm 2
line 10), and destructive node removal as pruning proceeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .digraph import Digraph
from .precedence import PrecedencePolicy, default_policy
from .predicates import Observation, PredicateDef
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


def _narrow(
    later: list[int],
    to_f: int,
    from_f: int,
    anchors: Sequence[float],
    f_anchor: float,
) -> tuple[int, int]:
    """Narrow the edge bitsets by one failed log; the AC-DAG's kernel.

    Node ``i`` is bit ``1 << i``; ``anchors[i]`` is its anchor in the
    log and ``f_anchor`` is F's.  ``later[i]`` holds the nodes anchored
    strictly after ``i`` in every log folded so far (the edges
    ``i → j``); ``to_f`` the nodes anchored at or before F (edges to F)
    and ``from_f`` those anchored strictly after F (edges from F).

    One descending sweep gives each node the set of nodes anchored
    strictly later in this log (a tie group shares one accumulator, so
    tied predicates get no edge) and ANDs it into ``later`` in place.
    F is the terminal event of a failed execution: a node anchored at
    F's instant still precedes it (the crash is recorded at the instant
    its method dies), while one anchored strictly after F (post-crash
    cleanup) cannot cause it.  Returns the narrowed ``(to_f, from_f)``.
    """
    order = sorted(range(len(anchors)), key=anchors.__getitem__, reverse=True)
    acc = group = 0  # acc: anchored strictly later than the current group
    after_f = -1  # unknown until the sweep reaches F's anchor
    previous = None
    for i in order:
        a = anchors[i]
        if a != previous:
            acc |= group
            group = 0
            previous = a
            if after_f < 0 and a <= f_anchor:
                after_f = acc
        later[i] &= acc
        group |= 1 << i
    if after_f < 0:
        after_f = acc | group  # every node is anchored after F
    return to_f & ~after_f, from_f & after_f


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ACDag:
    """The approximate causal DAG over predicate ids."""

    def __init__(
        self,
        graph: Digraph,
        failure: str,
        defs: Optional[dict[str, PredicateDef]] = None,
        discarded: Optional[dict[str, str]] = None,
        n_failed_logs: int = 0,
        policy: Optional[PrecedencePolicy] = None,
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
        #: the precedence policy the edges were built under; every
        #: later ``update_failed_log`` anchors with it too
        self.policy = policy or default_policy()

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        defs: dict[str, PredicateDef],
        columns: Mapping[str, Sequence[Optional[Observation]]],
        failure: str,
        policy: Optional[PrecedencePolicy] = None,
    ) -> "ACDag":
        """Build the AC-DAG from fully-discriminative predicates.

        Parameters
        ----------
        defs:
            Predicate definitions (must cover every pid of ``columns``).
        columns:
            The anchor columns: each candidate pid (the
            fully-discriminative set, and F) mapped to its window in
            every failed log, in one log order, ``None`` where that log
            does not observe it.  Temporal precedence must hold in all
            of the logs for an edge to exist.
        failure:
            The pid of the failure-indicating predicate F.
        policy:
            Precedence policy; defaults to the kind-anchored policy.
        """
        f_column = columns.get(failure)
        if f_column is None:
            raise GraphInvariantError(
                f"failure predicate {failure!r} has no anchor column"
            )
        n_logs = len(f_column)
        if not n_logs:
            raise GraphInvariantError("cannot build an AC-DAG without failed logs")
        policy = policy or default_policy()
        discarded: dict[str, str] = {}

        # Anchor timestamps per (pid, log).  A fully-discriminative
        # predicate must be observed in every failed log; drop violators
        # defensively (can happen when callers pass a lax candidate set).
        anchors: dict[str, list[float]] = {}
        for pid in sorted(columns):
            windows = columns[pid]
            if len(windows) != n_logs:
                raise GraphInvariantError(
                    f"anchor column of {pid!r} covers {len(windows)} "
                    f"failed logs, not {n_logs}"
                )
            if None in windows:
                discarded[pid] = "not observed in every failed log"
                continue
            anchors[pid] = policy.anchors(defs[pid], windows)
        if failure not in anchors:
            raise GraphInvariantError(
                f"failure predicate {failure!r} unobserved in some failed log"
            )

        # Fold the narrowing step over the logs, from "every node is
        # later than every node, on both sides of F".
        nodes = [pid for pid in anchors if pid != failure]
        full = (1 << len(nodes)) - 1
        later = [full] * len(nodes)
        to_f = from_f = full
        rows = zip(*(anchors[pid] for pid in nodes))
        for row, f_anchor in zip(rows, anchors[failure]):
            to_f, from_f = _narrow(later, to_f, from_f, row, f_anchor)

        graph = Digraph()
        for pid in anchors:
            graph.add_node(pid)
        for pid, mask in zip(nodes, later):
            for j in _bits(mask):
                graph.add_edge(pid, nodes[j])
        for j in _bits(to_f):
            graph.add_edge(nodes[j], failure)
        for j in _bits(from_f):
            graph.add_edge(failure, nodes[j])

        dag = cls(
            graph=graph,
            failure=failure,
            defs=dict(defs),
            discarded=discarded,
            n_failed_logs=n_logs,
            policy=policy,
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
    # make the AC-DAG maintainable without a rebuild: one narrowing step,
    # started from the current edges.  Tests assert the patched graph
    # equals `ACDag.build` over the whole log history.

    def update_failed_log(self, log: PredicateLog) -> set[str]:
        """Patch the DAG under one newly-ingested failed log.

        Drops nodes the log does not observe (their recall just fell
        below 1), drops edges whose precedence the log contradicts under
        the DAG's own policy, and re-applies the ancestors-of-F filter.
        Returns every pid removed.
        """
        if log.time_of(self.failure) is None:
            raise GraphInvariantError(
                f"failure predicate {self.failure!r} unobserved in "
                "an ingested failed log (wrong failure signature?)"
            )
        policy = self.policy
        removed: set[str] = set()
        anchors: dict[str, float] = {}
        for pid in sorted(self.graph.nodes):
            obs = log.time_of(pid)
            if obs is None:
                removed.add(pid)
                self.discarded[pid] = "not observed in every failed log"
            else:
                (anchors[pid],) = policy.anchors(self.defs[pid], (obs,))
        graph = self.graph
        graph.remove_nodes_from(removed)

        failure = self.failure
        nodes = [pid for pid in graph.nodes if pid != failure]
        bit = {pid: 1 << i for i, pid in enumerate(nodes)}
        bit[failure] = 0

        def mask(pids) -> int:
            return sum(map(bit.__getitem__, pids))

        old = [mask(graph.successors(pid)) for pid in nodes]
        old_to_f = mask(graph.predecessors(failure))
        old_from_f = mask(graph.successors(failure))
        later = list(old)
        to_f, from_f = _narrow(
            later,
            old_to_f,
            old_from_f,
            [anchors[pid] for pid in nodes],
            anchors[failure],
        )
        for pid, before, after in zip(nodes, old, later):
            for j in _bits(before & ~after):
                graph.remove_edge(pid, nodes[j])
        for j in _bits(old_to_f & ~to_f):
            graph.remove_edge(nodes[j], failure)
        for j in _bits(old_from_f & ~from_f):
            graph.remove_edge(failure, nodes[j])
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
            policy=self.policy,
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


def log_columns(
    failed_logs: Sequence[PredicateLog], pids: Iterable[str]
) -> dict[str, list[Optional[Observation]]]:
    """The anchor columns of ``pids`` cut from ``failed_logs``: each
    pid's window in every log, in log order (``None`` where a log does
    not observe it) — what :meth:`ACDag.build` reads."""
    return {
        pid: [log.observations.get(pid) for log in failed_logs] for pid in pids
    }


def learn_dag(
    suite,
    debugger: StatisticalDebugger,
    columns: Callable[[list[str]], Mapping[str, Sequence[Optional[Observation]]]],
    policy: Optional[PrecedencePolicy] = None,
) -> tuple[Optional[str], list[str], Optional[ACDag]]:
    """AID's learning step after evaluation: SD counters → the failure
    predicate F and the fully-discriminative set → one AC-DAG build.

    ``suite`` is the frozen :class:`~repro.core.extraction.PredicateSuite`
    (its ``defs`` and ``failure_pids()``).  ``columns(pids)`` returns the
    anchor columns of ``pids`` over the failed logs (see
    :meth:`ACDag.build`); it is called once, with the FD pids and F,
    and only when F exists.  Returns ``(F, FD pids, dag)`` —
    ``(None, FD pids, None)`` when no failed log observes a failure
    predicate.
    """
    failure, fully = failure_and_fd(debugger, suite.failure_pids())
    if failure is None:
        return None, fully, None
    dag = ACDag.build(
        defs=dict(suite.defs),
        columns=columns([*fully, failure]),
        failure=failure,
        policy=policy,
    )
    return failure, fully, dag
