"""Synthetic applications with known ground truth (paper Section 7.2).

The paper evaluates intervention counts on 500 generated multi-threaded
applications per setting, sweeping the maximum thread count MAXt from 2
to 40+, with N ∈ [4, 284] predicates and the number of causal predicates
drawn from ``[1, N / log N]``.  The metric is purely *how many
intervention rounds* each approach needs — so instead of simulating
threads, the generator builds the predicate-level ground truth directly:

* a layered AC-DAG shaped like real multi-threaded executions: ``J``
  sequential phases (junction levels), each phase fanning into per-thread
  runs of consecutive predicates (compare the symmetric AC-DAG of
  Figure 5(c), here randomized);
* a true causal path — a chain through the DAG — whose predicates
  deterministically propagate to the failure (Assumption 2);
* noise predicates, each wired to a *parent* (a causal predicate, an
  earlier noise predicate, or the always-on root) so they are fully
  discriminative yet non-causal — exactly the P7/P10 patterns of the
  paper's illustrative example.

:class:`OracleRunner` answers intervention rounds from this model: a
predicate occurs iff it is not intervened on and its parent occurred;
the failure occurs iff the last causal predicate occurred.  This is the
same information a real re-execution provides, at zero cost, which is
what makes 500-app sweeps practical.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Optional

from ..core.acdag import ACDag
from ..core.digraph import Digraph
from ..exec.cache import RunOutcome, RunRequest
from ..exec.engine import ExecutionEngine

FAILURE_PID = "F"


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator knobs (defaults follow the paper's Section 7.2 setup)."""

    max_threads: int = 8  # the paper's MAXt
    min_threads: int = 2
    phases: tuple[int, int] = (2, 8)  # junction levels J
    run_length: tuple[int, int] = (1, 4)  # predicates per thread per phase
    #: Cap on concurrently active threads per phase; real executions
    #: rarely have all T threads in every program phase, and the paper's
    #: N stays ≤ 284 even at MAXt 40.
    max_active: int = 14

    def validate(self) -> None:
        if self.min_threads < 1 or self.max_threads < self.min_threads:
            raise ValueError("invalid thread bounds")
        if self.phases[0] < 1 or self.phases[1] < self.phases[0]:
            raise ValueError("invalid phase bounds")


@dataclass
class SyntheticApp:
    """One generated application: AC-DAG + ground-truth causal model."""

    dag: ACDag
    causal_path: list[str]  # ordered, excluding F
    parents: dict[str, Optional[str]]  # noise pid -> parent pid (None = root)
    n_threads: int
    seed: int

    @property
    def n_predicates(self) -> int:
        return len(self.dag.predicates)

    @property
    def n_causal(self) -> int:
        return len(self.causal_path)

    def runner(self, engine: Optional[ExecutionEngine] = None) -> "OracleRunner":
        return OracleRunner(self, engine=engine)


class OracleRunner:
    """Intervention runner answering from the ground-truth model.

    Like :class:`~repro.core.intervention.SimulationRunner`, all its
    answers flow through an execution engine, so oracle-driven sweeps
    (Figure 8) get the same memoization, persistence, and accounting as
    simulator-backed sessions.  The model is deterministic, so one
    request (seed 0) per group suffices.
    """

    def __init__(
        self,
        app: SyntheticApp,
        engine: Optional[ExecutionEngine] = None,
    ) -> None:
        self.app = app
        self._topo = self.app.dag.topological_order()
        self._causal_index = {pid: i for i, pid in enumerate(app.causal_path)}
        self.engine = engine if engine is not None else ExecutionEngine()
        # The generation seed alone is ambiguous (the same seed under a
        # different SyntheticSpec yields a different model), so the key
        # fingerprints the ground truth the outcomes actually depend on.
        model = repr(
            (app.causal_path, sorted(app.parents.items()), self._topo)
        ).encode()
        fingerprint = hashlib.md5(model).hexdigest()[:12]
        self.workload = f"synthetic/{app.seed}/{fingerprint}"

    def execute_request(self, request: RunRequest) -> RunOutcome:
        return self._model_outcome(request.pids)

    def _request(self, pids: frozenset[str]) -> RunRequest:
        return RunRequest(self.workload, 0, pids)

    def run_group(self, pids: frozenset[str]) -> list[RunOutcome]:
        return self.engine.run_group(
            [self._request(pids)], self.execute_request, early_stop=False
        )

    def _model_outcome(self, pids: frozenset[str]) -> RunOutcome:
        occurred: set[str] = set()
        path = self.app.causal_path
        for pid in self._topo:
            if pid == FAILURE_PID or pid in pids:
                continue
            if pid in self._causal_index:
                idx = self._causal_index[pid]
                if idx == 0 or path[idx - 1] in occurred:
                    occurred.add(pid)
            else:
                parent = self.app.parents.get(pid)
                if parent is None or parent in occurred:
                    occurred.add(pid)
        failed = bool(path) and path[-1] in occurred
        if failed:
            occurred.add(FAILURE_PID)
        return RunOutcome(observed=frozenset(occurred), failed=failed)


def generate_app(seed: int, spec: Optional[SyntheticSpec] = None) -> SyntheticApp:
    """Generate one synthetic application.

    The construction guarantees (and tests assert) that:

    * the AC-DAG contains the true causal path as a chain;
    * every noise predicate's parent precedes it in the AC-DAG;
    * the number of causal predicates is in ``[1, max(1, N/log2 N)]``.
    """
    spec = spec or SyntheticSpec()
    spec.validate()
    rng = random.Random(seed)
    n_threads = rng.randint(spec.min_threads, spec.max_threads)
    n_phases = rng.randint(*spec.phases)

    # Layout: runs[phase][i] = list of pids, in within-thread order.
    runs: list[list[list[str]]] = []
    for phase in range(n_phases):
        active = rng.randint(1, min(n_threads, spec.max_active))
        phase_runs: list[list[str]] = []
        for thread in range(active):
            length = rng.randint(*spec.run_length)
            phase_runs.append(
                [f"P{phase}.{thread}.{k}" for k in range(length)]
            )
        runs.append(phase_runs)

    all_pids = [pid for phase in runs for run in phase for pid in run]
    n = len(all_pids)

    # Transitively-closed AC-DAG: same-run order + all cross-phase pairs.
    graph = Digraph()
    for pid in all_pids + [FAILURE_PID]:
        graph.add_node(pid)
    for phase_runs in runs:
        for run in phase_runs:
            for i, a in enumerate(run):
                for b in run[i + 1 :]:
                    graph.add_edge(a, b)
    for i, earlier in enumerate(runs):
        for later in runs[i + 1 :]:
            for run_a in earlier:
                for run_b in later:
                    for a in run_a:
                        for b in run_b:
                            graph.add_edge(a, b)
    for pid in all_pids:
        graph.add_edge(pid, FAILURE_PID)

    # True causal path: a *contiguous* band of phases starting at a
    # random position.  Real causal chains are temporally local — the
    # root cause fires and the failure follows through a tight cascade
    # (every case study in Section 7.1 has this shape) — which is
    # exactly why topologically-ordered groups are often pure noise and
    # can be discarded wholesale (the paper's first Figure 8
    # observation).  One run per phase contributes a prefix.
    d_max = max(1, int(n / math.log2(n))) if n > 2 else 1
    d_target = rng.randint(1, d_max)
    start_phase = rng.randrange(n_phases)
    causal: list[str] = []
    remaining = d_target
    for p_idx in range(start_phase, n_phases):  # forward from the start
        if remaining <= 0:
            break
        run = runs[p_idx][rng.randrange(len(runs[p_idx]))]
        take = min(len(run), remaining)
        causal.extend(run[:take])
        remaining -= take
    for p_idx in range(start_phase - 1, -1, -1):  # extend backward if short
        if remaining <= 0:
            break
        run = runs[p_idx][rng.randrange(len(runs[p_idx]))]
        take = min(len(run), remaining)
        causal = run[:take] + causal
        remaining -= take

    # Noise parents: heads attach to the root or an earlier causal
    # predicate; within a run, noise chains to its predecessor.
    causal_set = set(causal)
    parents: dict[str, Optional[str]] = {}
    for p_idx, phase_runs in enumerate(runs):
        earlier_causal = [
            pid
            for pid in causal
            if int(pid.split(".")[0][1:]) < p_idx
        ]
        for run in phase_runs:
            previous: Optional[str] = None
            for pid in run:
                if pid in causal_set:
                    previous = pid
                    continue
                if previous is not None:
                    parents[pid] = previous
                elif earlier_causal and rng.random() < 0.5:
                    parents[pid] = rng.choice(earlier_causal)
                else:
                    parents[pid] = None  # root noise: always occurs
                previous = pid

    dag = ACDag(graph=graph, failure=FAILURE_PID)
    return SyntheticApp(
        dag=dag,
        causal_path=causal,
        parents=parents,
        n_threads=n_threads,
        seed=seed,
    )


def generate_batch(
    n_apps: int, seed: int, spec: Optional[SyntheticSpec] = None
) -> list[SyntheticApp]:
    """Generate a batch of apps with derived (stable) per-app seeds."""
    return [generate_app(seed * 100_003 + i, spec) for i in range(n_apps)]


def spec_for_maxt(max_threads: int) -> SyntheticSpec:
    """The Figure 8 sweep parameterization for one MAXt setting."""
    return SyntheticSpec(max_threads=max_threads)
