"""Predicate model: evaluation, interventions, and safety per kind."""

from __future__ import annotations

import pickle

import pytest

from repro.core.predicates import (
    CompoundAndPredicate,
    DataRacePredicate,
    ExecutedPredicate,
    FailurePredicate,
    MethodFailsPredicate,
    Observation,
    OrderViolationPredicate,
    PredicateKind,
    TooFastPredicate,
    TooSlowPredicate,
    WrongReturnPredicate,
    predicate_from_dict,
    predicate_to_dict,
    racy_window,
)
from repro.sim import Program, run_program
from repro.sim.faults import (
    CatchException,
    DelayReturn,
    ForceOrder,
    ForceReturn,
    SerializeMethods,
)
from repro.sim.tracing import MethodKey


def _trace(program, seed=0, interventions=()):
    return run_program(program, seed, interventions).trace


@pytest.fixture(scope="module")
def sample_program():
    def main(ctx):
        value = yield from ctx.call("Get", True)
        yield from ctx.call("Slowish", 30)
        try:
            yield from ctx.call("Thrower")
        except Exception:
            pass
        return value

    def get(ctx, good):
        yield from ctx.work(2)
        return "good" if good else "bad"

    def slowish(ctx, ticks):
        yield from ctx.work(ticks)
        return "done"

    def thrower(ctx):
        yield from ctx.work(1)
        ctx.throw("Oops")

    return Program(
        name="preds",
        methods={"Main": main, "Get": get, "Slowish": slowish, "Thrower": thrower},
        main="Main",
        readonly_methods=frozenset({"Get", "Slowish", "Thrower"}),
    )


class TestObservation:
    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            Observation(10, 5)

    def test_tuple_record_keeps_the_dataclass_surface(self):
        # Stored reports and caches never pickle observations, but logs
        # are compared, hashed and printed: keep what the frozen
        # dataclass offered.
        obs = Observation(10, 25, start_lamport=3, end_lamport=9)
        assert (obs.start, obs.end, obs.start_lamport, obs.end_lamport) == (
            10, 25, 3, 9,
        )
        assert repr(obs) == (
            "Observation(start=10, end=25, start_lamport=3, end_lamport=9)"
        )
        assert hash(obs) == hash((10, 25, 3, 9))
        assert Observation(4, 4) == Observation(4, 4, None, None)
        assert pickle.loads(pickle.dumps(obs)) == obs
        with pytest.raises(AttributeError):
            obs.start = 0  # type: ignore[misc]

    def test_identity_is_pid_based(self):
        key = MethodKey("M", "main", 0)
        a = MethodFailsPredicate(key=key, exc_kind="E")
        b = MethodFailsPredicate(key=key, exc_kind="E")
        c = MethodFailsPredicate(key=key, exc_kind="Other")
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestMethodFails(object):
    def test_detects_exception(self, sample_program):
        trace = _trace(sample_program)
        key = MethodKey("Thrower", "main", 0)
        pred = MethodFailsPredicate(key=key, exc_kind="Oops")
        obs = pred.evaluate(trace)
        assert obs is not None
        assert obs.start == obs.end
        m = trace.lookup(key)
        assert m.start_lamport != m.end_lamport
        assert obs == Observation(
            m.end_time, m.end_time,
            start_lamport=m.end_lamport, end_lamport=m.end_lamport,
        )

    def test_kind_mismatch_not_observed(self, sample_program):
        trace = _trace(sample_program)
        pred = MethodFailsPredicate(
            key=MethodKey("Thrower", "main", 0), exc_kind="Different"
        )
        assert pred.evaluate(trace) is None

    def test_intervention_is_catch(self, sample_program):
        pred = MethodFailsPredicate(
            key=MethodKey("Thrower", "main", 0), exc_kind="Oops"
        )
        (iv,) = pred.interventions()
        assert isinstance(iv, CatchException)
        repaired = _trace(sample_program, interventions=(iv,))
        assert pred.evaluate(repaired) is None

    def test_safety_requires_readonly(self, sample_program):
        pred = MethodFailsPredicate(
            key=MethodKey("Thrower", "main", 0), exc_kind="Oops"
        )
        assert pred.is_safe(sample_program)
        unsafe = MethodFailsPredicate(
            key=MethodKey("Main", "main", 0), exc_kind="Oops"
        )
        assert not unsafe.is_safe(sample_program)


class TestDurations:
    def test_too_slow_observed_and_anchored_at_excess(self, sample_program):
        trace = _trace(sample_program)
        slow = next(trace.executions_of("Slowish"))
        pred = TooSlowPredicate(
            key=slow.key, threshold=10, correct_return="done"
        )
        obs = pred.evaluate(trace)
        assert obs is not None
        assert obs.start == slow.start_time + 10  # the excess point
        assert obs.end == slow.end_time

    def test_too_slow_repaired_by_skip(self, sample_program):
        key = MethodKey("Slowish", "main", 0)
        pred = TooSlowPredicate(key=key, threshold=10, correct_return="done")
        (iv,) = pred.interventions()
        assert isinstance(iv, ForceReturn) and iv.skip_body
        repaired = _trace(sample_program, interventions=(iv,))
        assert pred.evaluate(repaired) is None

    def test_too_fast_and_delay_repair(self, sample_program):
        key = MethodKey("Slowish", "main", 0)
        pred = TooFastPredicate(key=key, threshold=100)
        trace = _trace(sample_program)
        assert pred.evaluate(trace) is not None
        (iv,) = pred.interventions()
        assert isinstance(iv, DelayReturn)
        repaired = _trace(sample_program, interventions=(iv,))
        assert pred.evaluate(repaired) is None


class TestWrongReturn:
    def test_detect_and_repair(self, sample_program):
        key = MethodKey("Get", "main", 0)
        pred = WrongReturnPredicate(key=key, correct_value="other")
        trace = _trace(sample_program)
        assert pred.evaluate(trace) is not None  # "good" != "other"
        correct = WrongReturnPredicate(key=key, correct_value="good")
        assert correct.evaluate(trace) is None
        (iv,) = pred.interventions()
        repaired = _trace(sample_program, interventions=(iv,))
        assert pred.evaluate(repaired) is None

    def test_not_observed_on_exceptioned_call(self, sample_program):
        pred = WrongReturnPredicate(
            key=MethodKey("Thrower", "main", 0), correct_value="x"
        )
        assert pred.evaluate(_trace(sample_program)) is None


class TestExecuted:
    def test_observed_unless_skipped(self, sample_program):
        key = MethodKey("Slowish", "main", 0)
        pred = ExecutedPredicate(key=key, skip_value="done")
        trace = _trace(sample_program)
        m = trace.lookup(key)
        assert m.start_lamport != m.end_lamport
        assert pred.evaluate(trace) == Observation(
            m.start_time, m.end_time,
            start_lamport=m.start_lamport, end_lamport=m.end_lamport,
        )
        (iv,) = pred.interventions()
        assert isinstance(iv, ForceReturn) and iv.skip_body
        repaired = _trace(sample_program, interventions=(iv,))
        assert pred.evaluate(repaired) is None


class TestDataRace:
    def test_canonical_pid_symmetry(self):
        a = MethodKey("A", "t1", 0)
        b = MethodKey("B", "t2", 0)
        assert (
            DataRacePredicate(a=a, b=b, obj="x").pid
            == DataRacePredicate(a=b, b=a, obj="x").pid
        )

    def test_sandwich_semantics(self, racy_program):
        failing_seed = next(
            s for s in range(100) if run_program(racy_program, s).failed
        )
        trace = _trace(racy_program, seed=failing_seed)
        updater = next(trace.executions_of("Updater"))
        reader = next(trace.executions_of("Reader"))
        window = racy_window(updater, reader, "counter")
        assert window is not None
        # The reader's intrusion lies strictly inside the protocol.
        u_times = [a.time for a in updater.accesses if a.obj == "counter"]
        assert min(u_times) == window.start
        assert min(u_times) < window.end < max(u_times)

    def test_near_miss_is_not_a_race(self, racy_program):
        succeeding = next(
            s for s in range(100) if not run_program(racy_program, s).failed
        )
        trace = _trace(racy_program, seed=succeeding)
        updater = next(trace.executions_of("Updater"))
        reader = next(trace.executions_of("Reader"))
        assert racy_window(updater, reader, "counter") is None

    def test_common_lock_suppresses_race(self, racy_program):
        pred = DataRacePredicate(
            a=MethodKey("Updater", "main", 0),
            b=MethodKey("Reader", "reader", 0),
            obj="counter",
        )
        (iv,) = pred.interventions()
        assert isinstance(iv, SerializeMethods)
        for seed in range(40):
            trace = _trace(racy_program, seed=seed, interventions=(iv,))
            assert pred.evaluate(trace) is None
            assert not trace.failed


class TestOrderViolation:
    def test_detect_and_repair(self):
        def main(ctx):
            ctx.poke("early", ctx.rand() < 0.5)
            yield from ctx.spawn("w", "Late")
            yield from ctx.call("First")
            yield from ctx.join("w")
            return "ok"

        def first(ctx):
            yield from ctx.work(40)
            return "first"

        def late(ctx):
            yield from ctx.work(5 if ctx.peek("early") else 100)
            yield from ctx.call("Second")
            return "late"

        def second(ctx):
            yield from ctx.work(3)
            return "second"

        program = Program(
            name="order",
            methods={"Main": main, "First": first, "Late": late, "Second": second},
            main="Main",
        )
        pred = OrderViolationPredicate(
            first=MethodKey("First", "main", 0),
            second=MethodKey("Second", "w", 0),
        )
        observed = {
            bool(pred.evaluate(_trace(program, seed=s))) for s in range(30)
        }
        assert observed == {True, False}, "violation must be intermittent"
        (iv,) = pred.interventions()
        assert isinstance(iv, ForceOrder)
        for seed in range(15):
            assert pred.evaluate(_trace(program, seed=seed, interventions=(iv,))) is None


class TestCompoundAndFailure:
    def test_compound_requires_all_parts(self, sample_program):
        trace = _trace(sample_program)
        good = WrongReturnPredicate(
            key=MethodKey("Get", "main", 0), correct_value="other"
        )
        absent = MethodFailsPredicate(
            key=MethodKey("Get", "main", 0), exc_kind="Nope"
        )
        both = CompoundAndPredicate(parts=(good, absent))
        assert both.evaluate(trace) is None
        fails = MethodFailsPredicate(
            key=MethodKey("Thrower", "main", 0), exc_kind="Oops"
        )
        both2 = CompoundAndPredicate(parts=(good, fails))
        obs = both2.evaluate(trace)
        assert obs is not None
        assert obs.start == max(
            good.evaluate(trace).start, fails.evaluate(trace).start
        )
        assert both2.kind is PredicateKind.COMPOUND_AND
        assert len(both2.interventions()) == 2

    def test_failure_predicate_matches_signature(self, racy_program):
        failing = next(s for s in range(100) if run_program(racy_program, s).failed)
        trace = _trace(racy_program, seed=failing)
        pred = FailurePredicate(signature=trace.failure.signature)
        assert pred.evaluate(trace) is not None
        other = FailurePredicate(signature="crash/Other")
        assert other.evaluate(trace) is None
        with pytest.raises(LookupError):
            pred.interventions()


class TestDefinitionDigestPins:
    """Stored eval matrices key on ``definition_digest``; a ``MethodKey``
    field is digested by its ``repr``, not walked as a tuple, so these
    committed digests must never move."""

    A = MethodKey("Commit", "worker-1", 0)
    B = MethodKey("Poll", "worker-0", 2)

    def test_race_digest(self):
        race = DataRacePredicate(self.A, self.B, "offsets")
        assert race.definition_digest() == "cc36e8488a03a988"

    def test_order_digest(self):
        order = OrderViolationPredicate(first=self.A, second=self.B)
        assert order.definition_digest() == "1b7f2b7ed2402246"

    def test_compound_digest(self):
        both = CompoundAndPredicate(
            parts=(
                DataRacePredicate(self.A, self.B, "offsets"),
                OrderViolationPredicate(first=self.A, second=self.B),
            )
        )
        assert both.definition_digest() == "bf68bf9b547513ab"


class TestPredicateDecoding:
    """A persisted suite names calls by ``{"$key": [method, thread,
    occurrence]}``.  A key of any other shape would name a call no trace
    holds, so decoding refuses it instead of building a predicate that
    never fires; a predicate that is not an object is refused too."""

    A = MethodKey("GetOrAdd", "main", 0)
    B = MethodKey("TryGetValue", "opener", 0)

    def _race_payload(self):
        return predicate_to_dict(DataRacePredicate(self.A, self.B, "_nextSlot"))

    def test_well_formed_keys_round_trip(self):
        race = predicate_from_dict(self._race_payload())
        assert (race.a, race.b, race.obj) == (self.A, self.B, "_nextSlot")
        assert type(race.a) is MethodKey

    @pytest.mark.parametrize(
        "raw",
        [
            ["GetOrAdd", "main", "0"],
            ["GetOrAdd", "main", True],
            ["GetOrAdd", "main", False],
            ["GetOrAdd", "main", -1],
            ["GetOrAdd", "main", 0.0],
            ["GetOrAdd", 0, 0],
            [None, "main", 0],
            ["GetOrAdd", "main"],
            ["GetOrAdd", "main", 0, 0],
            "GetOrAdd",
            {"method": "GetOrAdd", "thread": "main", "occurrence": 0},
        ],
    )
    def test_malformed_key_is_refused(self, raw):
        payload = self._race_payload()
        payload["fields"]["a"] = {"$key": raw}
        with pytest.raises(ValueError, match="method key"):
            predicate_from_dict(payload)

    @pytest.mark.parametrize("value", [1, "GetOrAdd", None, ["GetOrAdd", "main", 0]])
    def test_key_field_must_decode_to_a_key(self, value):
        payload = self._race_payload()
        payload["fields"]["a"] = value
        with pytest.raises(
            ValueError, match="DataRacePredicate.a: expected a method key"
        ):
            predicate_from_dict(payload)

    @pytest.mark.parametrize("raw", ["x", ["DataRacePredicate"], None])
    def test_non_object_predicate_is_refused(self, raw):
        with pytest.raises(ValueError, match="expected a PredicateDef"):
            predicate_from_dict(raw)

    @pytest.mark.parametrize("fields", [[], "a", 1])
    def test_non_object_fields_are_refused(self, fields):
        payload = self._race_payload()
        payload["fields"] = fields
        with pytest.raises(
            ValueError, match="DataRacePredicate: expected an object"
        ):
            predicate_from_dict(payload)

    def test_every_key_field_is_checked(self):
        order = predicate_to_dict(OrderViolationPredicate(first=self.A, second=self.B))
        order["fields"]["second"] = 0
        with pytest.raises(ValueError, match="OrderViolationPredicate.second"):
            predicate_from_dict(order)

    @pytest.mark.parametrize(
        ("pred", "field", "value", "expected"),
        [
            pytest.param(
                DataRacePredicate(A, B, "_nextSlot"), "obj", 5, "a string",
                id="obj-int",
            ),
            pytest.param(
                TooSlowPredicate(key=A, threshold=1), "threshold", True,
                "an int", id="threshold-bool",
            ),
            pytest.param(
                TooSlowPredicate(key=A, threshold=11), "threshold", "11",
                "an int", id="threshold-str",
            ),
            pytest.param(
                FailurePredicate(signature="crash/X/Y"), "signature", 5,
                "a string", id="signature-int",
            ),
            pytest.param(
                CompoundAndPredicate(
                    parts=(FailurePredicate(signature="crash/X/Y"),)
                ),
                "parts",
                [{"$pred": predicate_to_dict(FailurePredicate(signature="s"))}],
                "a tuple",
                id="parts-list",
            ),
        ],
    )
    def test_mistyped_field_is_refused(self, pred, field, value, expected):
        """Every field is checked against its annotation: a wrong-typed
        value would build a predicate that silently stops firing."""
        payload = predicate_to_dict(pred)
        payload["fields"][field] = value
        with pytest.raises(
            ValueError, match=f"{type(pred).__name__}.{field}: expected {expected}"
        ):
            predicate_from_dict(payload)

    def test_untyped_fields_take_any_value(self):
        payload = predicate_to_dict(
            WrongReturnPredicate(key=self.A, correct_value=None)
        )
        for value in (5, True, "x", [1, 2], {"$tuple": [1]}):
            payload["fields"]["correct_value"] = value
            predicate_from_dict(payload)
        fails = predicate_to_dict(
            MethodFailsPredicate(key=self.A, exc_kind="IndexOutOfRange")
        )
        fails["fields"]["key"] = {"$key": ["GetOrAdd", "main", "0"]}
        with pytest.raises(ValueError, match="method key"):
            predicate_from_dict(fails)
