"""The six case studies: Figure 7 reproduction, per workload.

For each case study we assert:

* the SD predicate count is close to the paper's (exact for five of the
  six by construction);
* the causal path length matches the paper exactly;
* the discovered path matches the workload's ground-truth markers in
  order (root cause included);
* AID needs strictly fewer intervention rounds than TAGT, and both find
  the identical path;
* the failure is genuinely intermittent (both labels occur).
"""

from __future__ import annotations

import pytest

from repro.core import Approach
from repro.workloads.common import REGISTRY

from conftest import case_study_session

#: Allowed deviation of measured SD-predicate counts from the paper.
SD_COUNT_TOLERANCE = 2


@pytest.fixture(scope="module")
def results():
    cache = {}
    for name in REGISTRY.names():
        session = case_study_session(name)
        cache[name] = {
            "workload": REGISTRY.build(name),
            "session": session,
            "aid": session.run(Approach.AID),
            "tagt": session.run(Approach.TAGT),
        }
    return cache


def _case(results, name):
    return results[name]


@pytest.mark.parametrize("name", sorted(REGISTRY.names()))
class TestFigure7Row:
    def test_intermittency(self, results, name):
        corpus = _case(results, name)["session"].collect()
        assert len(corpus.successes) == 50
        assert len(corpus.failures) == 50

    def test_sd_predicate_count_near_paper(self, results, name):
        case = _case(results, name)
        measured = case["aid"].n_sd_predicates
        expected = case["workload"].paper.sd_predicates
        assert abs(measured - expected) <= SD_COUNT_TOLERANCE, (
            f"{name}: measured {measured}, paper {expected}"
        )

    def test_causal_path_length_matches_paper(self, results, name):
        case = _case(results, name)
        assert case["aid"].n_causal == case["workload"].paper.causal_path_len

    def test_path_matches_ground_truth_markers(self, results, name):
        case = _case(results, name)
        path = case["aid"].causal_path
        markers = case["workload"].expected_path_markers
        assert len(path) - 1 == len(markers)
        for marker, pid in zip(markers, path):
            assert marker in pid, f"{name}: expected {marker} got {pid}"

    def test_root_cause_identified(self, results, name):
        case = _case(results, name)
        root = case["aid"].discovery.root_cause
        assert root is not None
        assert case["workload"].root_marker in root

    def test_aid_beats_tagt(self, results, name):
        case = _case(results, name)
        assert case["aid"].n_rounds < case["tagt"].n_rounds

    def test_aid_and_tagt_agree_on_the_path(self, results, name):
        case = _case(results, name)
        assert case["aid"].causal_path == case["tagt"].causal_path

    def test_sd_alone_overwhelms(self, results, name):
        """The paper's motivation: SD returns far more predicates than
        the causal path (except the tiny Network study)."""
        case = _case(results, name)
        assert case["aid"].n_sd_predicates >= 3 * case["aid"].n_causal

    def test_explanation_mentions_root_cause(self, results, name):
        case = _case(results, name)
        text = case["aid"].explanation.render()
        assert "[root cause]" in text
        assert "[failure]" in text


class TestWorkloadSpecifics:
    def test_kafka_discards_post_failure_predicates(self, results):
        """The paper: 30 of Kafka's 72 predicates have no temporal path
        to the failure and are discarded at AC-DAG construction."""
        dag = _case(results, "kafka")["session"].build_dag()
        no_path = [
            pid
            for pid, reason in dag.discarded.items()
            if "no temporal path" in reason
        ]
        assert len(no_path) == 30
        assert all("CleanupStep" in pid for pid in no_path)

    def test_npgsql_root_is_the_data_race(self, results):
        root = _case(results, "npgsql")["aid"].discovery.root_cause
        assert root.startswith("race(_nextSlot)")

    def test_network_single_predicate_path(self, results):
        aid = _case(results, "network")["aid"]
        assert aid.n_causal == 1

    def test_healthtelemetry_is_the_deepest_chain(self, results):
        lengths = {
            name: _case(results, name)["aid"].n_causal
            for name in REGISTRY.names()
        }
        assert max(lengths, key=lengths.get) == "healthtelemetry"
        assert lengths["healthtelemetry"] == 10
        assert len(_case(results, "healthtelemetry")["session"].build_dag()) > 90

    def test_registry_names(self):
        assert REGISTRY.names() == [
            "buildandtest",
            "cosmosdb",
            "healthtelemetry",
            "kafka",
            "network",
            "npgsql",
        ]
        with pytest.raises(KeyError):
            REGISTRY.build("nonexistent")

    def test_ablation_ladder_on_a_case_study(self, results):
        """AID ≤ AID-P ≤ (roughly) TAGT on a real workload too."""
        session = _case(results, "kafka")["session"]
        aid = _case(results, "kafka")["aid"].n_rounds
        aid_p = session.run(Approach.AID_P).n_rounds
        tagt = _case(results, "kafka")["tagt"].n_rounds
        assert aid <= aid_p <= tagt
