"""Precedence policies and the structural acyclicity guarantee."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.api.registry import policies
from repro.core.precedence import (
    EndTimePolicy,
    KindAnchorPolicy,
    LamportAnchorPolicy,
    PrecedencePolicy,
    StartTimePolicy,
    default_policy,
)
from repro.core.predicates import (
    MethodFailsPredicate,
    Observation,
    PredicateKind,
    TooSlowPredicate,
    WrongReturnPredicate,
    ExecutedPredicate,
)
from repro.sim.tracing import MethodKey


def _fails(name="M"):
    return MethodFailsPredicate(key=MethodKey(name, "t", 0), exc_kind="E")


def _exec(name="M"):
    return ExecutedPredicate(key=MethodKey(name, "t", 0))


class TestAnchoring:
    def test_end_anchored_kinds(self):
        policy = KindAnchorPolicy()
        obs = [Observation(10, 25), Observation(30, 31)]
        assert policy.anchors(_fails(), obs) == [25.0, 31.0]
        wrong = WrongReturnPredicate(key=MethodKey("M", "t", 0), correct_value=1)
        assert policy.anchors(wrong, obs) == [25.0, 31.0]

    def test_start_anchored_kinds(self):
        policy = KindAnchorPolicy()
        obs = [Observation(10, 25), Observation(30, 31)]
        assert policy.anchors(_exec(), obs) == [10.0, 30.0]
        slow = TooSlowPredicate(key=MethodKey("M", "t", 0), threshold=5)
        # TooSlow observations already start at the excess point.
        assert policy.anchors(slow, obs) == [10.0, 30.0]

    def test_overrides(self):
        policy = KindAnchorPolicy(overrides={PredicateKind.METHOD_FAILS: "start"})
        assert policy.anchors(_fails(), [Observation(10, 25)]) == [10.0]

    def test_overrides_accept_a_kind_value(self):
        policy = KindAnchorPolicy(overrides={"executed": "end"})
        assert policy.overrides == {PredicateKind.EXECUTED: "end"}
        assert policy.anchors(_exec(), [Observation(10, 25)]) == [25.0]

    @pytest.mark.parametrize("cls", [KindAnchorPolicy, LamportAnchorPolicy])
    def test_overrides_reject_an_unknown_kind(self, cls):
        with pytest.raises(ValueError, match=r"unknown predicate kind 'exec'"):
            cls(overrides={"exec": "end"})

    @pytest.mark.parametrize("cls", [KindAnchorPolicy, LamportAnchorPolicy])
    def test_overrides_reject_an_unknown_mode(self, cls):
        with pytest.raises(
            ValueError, match=r"overrides\['executed'\]: unknown anchor mode 'middle'"
        ):
            cls(overrides={"executed": "middle"})

    def test_uniform_policies(self):
        obs = [Observation(3, 9)]
        assert StartTimePolicy().anchors(_fails(), obs) == [3.0]
        assert EndTimePolicy().anchors(_exec(), obs) == [9.0]

    def test_a_subclass_defining_anchor_is_rejected(self):
        with pytest.raises(TypeError, match=r"override anchors\(pred, observations\)"):

            class _PerObservation(KindAnchorPolicy):
                def anchor(self, pred, obs):
                    return float(obs.start)

    def test_an_inherited_anchor_is_rejected(self):
        class _Mixin:
            def anchor(self, pred, obs):
                return float(obs.end)

        with pytest.raises(TypeError, match=r"anchors"):

            class _Mixed(_Mixin, PrecedencePolicy):
                pass

    def test_default_is_kind_anchored(self):
        assert isinstance(default_policy(), KindAnchorPolicy)

    def test_paper_case1_slow_callee_precedes_slow_caller(self):
        """foo() awaits bar(); both slow ⇒ bar precedes foo (Case 1).

        foo spans [0, 100] with threshold 50, bar spans [20, 90] with
        threshold 20 — bar exceeds its envelope at 40, foo at 50.
        """
        policy = default_policy()
        foo = TooSlowPredicate(key=MethodKey("foo", "t", 0), threshold=50)
        bar = TooSlowPredicate(key=MethodKey("bar", "t", 0), threshold=20)
        foo_obs = Observation(0 + 50, 100)
        bar_obs = Observation(20 + 20, 90)
        assert policy.precedes(bar, bar_obs, foo, foo_obs)
        assert not policy.precedes(foo, foo_obs, bar, bar_obs)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["fails", "exec", "slow"]),
            st.integers(0, 100),
            st.integers(0, 50),
        ),
        min_size=2,
        max_size=8,
    )
)
def test_property_precedence_is_strict_within_a_log(items):
    """Per log, `precedes` is irreflexive and asymmetric for any policy —
    the property that makes AC-DAG acyclicity structural."""
    policy = default_policy()
    preds = []
    for i, (kind, start, length) in enumerate(items):
        key = MethodKey(f"M{i}", "t", 0)
        if kind == "fails":
            pred = MethodFailsPredicate(key=key, exc_kind="E")
        elif kind == "exec":
            pred = ExecutedPredicate(key=key)
        else:
            pred = TooSlowPredicate(key=key, threshold=1)
        preds.append((pred, Observation(start, start + length)))
    for p1, o1 in preds:
        assert not policy.precedes(p1, o1, p1, o1)
        for p2, o2 in preds:
            if policy.precedes(p1, o1, p2, o2):
                assert not policy.precedes(p2, o2, p1, o1)


class TestLamportPolicy:
    def test_prefers_lamport_when_available(self):
        policy = LamportAnchorPolicy()
        obs = [Observation(10, 25, start_lamport=3, end_lamport=9)]
        assert policy.anchors(_exec(), obs) == [3.0]
        assert policy.anchors(_fails(), obs) == [9.0]

    def test_falls_back_to_virtual_time(self):
        policy = LamportAnchorPolicy()
        obs = [Observation(10, 25)]
        assert policy.anchors(_exec(), obs) == [10.0]
        assert policy.anchors(_fails(), obs) == [25.0]

    def test_full_pipeline_under_lamport_anchors(self, racy_session):
        """Swapping the clock basis still recovers the race root cause."""
        from repro.core.precedence import LamportAnchorPolicy
        from repro.harness.session import AIDSession, SessionConfig

        session = AIDSession(
            racy_session.program,
            SessionConfig(
                n_success=25, n_fail=25, repeats=12,
                policy=LamportAnchorPolicy(),
            ),
        )
        report = session.run("AID")
        assert report.discovery.root_cause.startswith("race(counter)")


# ---------------------------------------------------------------------------
# the elementwise contract of ``anchors``
# ---------------------------------------------------------------------------

_END_KINDS = {
    PredicateKind.METHOD_FAILS,
    PredicateKind.WRONG_RETURN,
    PredicateKind.FAILURE,
}


def _kind_mode(kind):
    return "end" if kind in _END_KINDS else "start"


#: The per-observation formulas ``anchors`` replaced, one per registered
#: policy: the oracle the one-call form must reproduce.
_ORACLES = {
    "kind-anchor": lambda kind, o: float(
        o.end if _kind_mode(kind) == "end" else o.start
    ),
    "lamport": lambda kind, o: float(
        (o.end if o.end_lamport is None else o.end_lamport)
        if _kind_mode(kind) == "end"
        else (o.start if o.start_lamport is None else o.start_lamport)
    ),
    "start-time": lambda kind, o: float(o.start),
    "end-time": lambda kind, o: float(o.end),
}


def test_every_registered_policy_has_an_oracle():
    assert set(policies.names()) == set(_ORACLES)


@st.composite
def _observations(draw):
    start = draw(st.integers(0, 100))
    end = start + draw(st.integers(0, 30))
    lamports = st.one_of(st.none(), st.integers(0, 200))
    return Observation(start, end, draw(lamports), draw(lamports))


@given(
    st.sampled_from(sorted(_ORACLES)),
    st.sampled_from(list(PredicateKind)),
    st.lists(_observations(), max_size=12),
)
def test_property_anchors_is_elementwise(name, kind, observations):
    """One call over many observations equals the one-element calls
    joined together, and the per-observation formula it replaced."""
    policy = policies.build(name)
    pred = SimpleNamespace(kind=kind, pid=f"{kind.value}[M]")
    column = policy.anchors(pred, observations)
    assert column == [a for o in observations for a in policy.anchors(pred, [o])]
    assert column == [_ORACLES[name](kind, o) for o in observations]
    assert all(type(a) is float for a in column)
