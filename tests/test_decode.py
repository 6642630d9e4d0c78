"""The typed codec (`repro.decode`) and every door that reads a
persisted type through it: the checks each annotation makes, the error
paths, and properties over every persisted type: ``encode`` inverts
``decode``, and a valid payload with one leaf mutated decodes to exactly
what it says or raises the door's structured error, never anything
else."""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gen
from repro.api.spec import (
    AnalysisSpec,
    CollectionSpec,
    CorpusSpec,
    EngineSpec,
    ExploreSpec,
    RunSpec,
    SpecError,
    WorkloadSpec,
)
from repro.core.extraction import PredicateSuite, _SuitePayload
from repro.core.intervention import RunOutcome
from repro.core.predicates import (
    CompoundAndPredicate,
    DataRacePredicate,
    ExecutedPredicate,
    FailurePredicate,
    MethodFailsPredicate,
    Observation,
    OrderViolationPredicate,
    PredicateDef,
    TooFastPredicate,
    TooSlowPredicate,
    WrongReturnPredicate,
    predicate_from_dict,
    predicate_to_dict,
)
from repro.core.report import (
    ExplanationStep,
    ReportPayload,
    _ReportCollection,
    _ReportDag,
    _ReportDiscovery,
    _ReportExplanation,
    _ReportMeta,
    _ReportPredicates,
)
from repro.corpus import store as corpus_store
from repro.corpus.matrix import EvalMatrix, RowTable, _MatrixIndex, _ShardFile
from repro.corpus.store import CorpusError, TraceEntry
from repro.decode import DecodeError, decode, encode
from repro.exec.cache import OutcomeCache, RunRequest, _CacheFile
from repro.explore.driver import ExplorePayload, _ExploreMeta, _FailurePayload
from repro.sim.schedule import Schedule, ScheduleError
from repro.sim.tracing import MethodKey

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@dataclass(frozen=True)
class Inner:
    n: int
    tag: Literal["a", "b"] = "a"


@dataclass(frozen=True)
class Outer:
    name: str
    inners: list[Inner]
    by_name: dict[str, Inner] = field(default_factory=dict)
    note: Optional[str] = None
    ratio: float = 0.0
    flags: tuple[bool, ...] = ()
    pair: tuple[int, str] = (0, "")

    def __post_init__(self) -> None:
        if self.ratio < 0:
            raise ValueError("ratio must not be negative")


def _outer(**fields) -> dict:
    """A valid :class:`Outer` payload with ``fields`` overridden."""
    return {"name": "x", "inners": [], **fields}


class TestDecoder:
    def test_valid_value_builds_the_dataclass(self):
        raw = {
            "name": "x",
            "inners": [{"n": 1}, {"n": 2, "tag": "b"}],
            "by_name": {"k": {"n": 3}},
            "note": None,
            "ratio": 2,
            "flags": [True],
            "pair": [1, "a"],
        }
        value = Outer(
            "x", [Inner(1), Inner(2, "b")], {"k": Inner(3)}, None, 2, (True,),
            (1, "a"),
        )
        assert decode(Outer, raw) == value
        assert encode(value)["pair"] == [1, "a"]
        assert decode(Outer, encode(value)) == value

    @pytest.mark.parametrize(
        "raw, path, reason",
        [
            (_outer(name=5), "Outer.name", "expected a string"),
            (_outer(inners=[{"n": True}]), "Outer.inners[0].n", "expected an int"),
            (_outer(inners=[{"n": "1"}]), "Outer.inners[0].n", "expected an int"),
            (_outer(inners=[{"n": 1.0}]), "Outer.inners[0].n", "expected an int"),
            (
                _outer(by_name={"k": {"n": 1, "tag": "c"}}),
                "Outer.by_name['k'].tag",
                "expected one of 'a', 'b'",
            ),
            (_outer(inners="ab"), "Outer.inners", "expected a list"),
            (_outer(flags=[1]), "Outer.flags[0]", "expected a bool"),
            (_outer(ratio=True), "Outer.ratio", "expected a number"),
            ({"name": "x"}, "Outer", "missing key 'inners'"),
            (_outer(x=1), "Outer", "unknown key 'x'"),
            (_outer(ratio=-1), "Outer", "ratio must not"),
            ([], "Outer", "expected an object"),
            (_outer(pair=[1]), "Outer.pair", "expected a list of 2"),
            (_outer(pair=[1, 2]), "Outer.pair[1]", "expected a string"),
        ],
    )
    def test_mismatch_names_its_path(self, raw, path, reason):
        with pytest.raises(DecodeError) as excinfo:
            decode(Outer, raw, "Outer")
        assert excinfo.value.path == path
        assert excinfo.value.reason.startswith(reason)
        assert str(excinfo.value) == f"{path}: {excinfo.value.reason}"
        assert isinstance(excinfo.value, ValueError)

    def test_unknown_key_lists_the_valid_ones(self):
        with pytest.raises(DecodeError, match=r"valid: by_name, flags, inners"):
            decode(Outer, _outer(nme=1))

    def test_an_unsupported_annotation_is_a_type_error(self):
        @dataclass
        class Bad:
            x: set[int]

        with pytest.raises(TypeError, match="no decoder"):
            decode(Bad, {"x": []})


# ---------------------------------------------------------------------------
# Valid payloads of every persisted type
# ---------------------------------------------------------------------------

HOSTILE = [
    s for s in gen.METHODS + gen.THREADS + gen.OBJECTS + gen.LOCKS
    + gen.FAILURE_MODES
    if isinstance(s, str)
]
names = st.sampled_from(HOSTILE)
ints = st.integers(0, 2**40)
keys = st.builds(MethodKey, names, names, st.integers(0, 5))
scalars = st.one_of(st.none(), st.booleans(), ints, names)

leaf_predicates = st.one_of(
    st.builds(DataRacePredicate, keys, keys, names),
    st.builds(MethodFailsPredicate, keys, names, scalars),
    st.builds(TooSlowPredicate, keys, ints, scalars),
    st.builds(TooFastPredicate, keys, ints),
    st.builds(
        WrongReturnPredicate,
        keys,
        st.one_of(scalars, st.lists(scalars, max_size=2)),
    ),
    st.builds(OrderViolationPredicate, keys, keys),
    st.builds(ExecutedPredicate, keys, scalars),
    st.builds(FailurePredicate, names),
)
predicates = st.one_of(
    leaf_predicates,
    st.builds(
        CompoundAndPredicate,
        st.lists(leaf_predicates, min_size=1, max_size=3).map(tuple),
    ),
)


def _suite_payload(preds) -> dict:
    return PredicateSuite(defs={p.pid: p for p in preds}).to_dict()


def _fingerprint(n: int) -> str:
    return f"{n:016x}"


entries = st.builds(
    TraceEntry,
    st.sampled_from(["pass", "fail"]),
    ints,
    st.one_of(st.none(), names),
    st.one_of(st.none(), names),
)
shard_manifests = st.dictionaries(
    st.integers(0, 2**64 - 1).map(_fingerprint), entries, max_size=3
).map(lambda rows: encode(corpus_store._ShardManifest(rows)))
top_manifests = st.builds(
    lambda program, width, shards: {
        "version": 3,
        "program": program,
        "shard_width": width,
        "shards": shards,
    },
    st.one_of(st.none(), names),
    st.integers(0, 4),
    st.lists(st.sampled_from(["00", "0a", "ff", "all"]), max_size=3),
)


suite_files = st.builds(
    corpus_store._SuiteFile,
    st.just(corpus_store.SUITE_FILE_VERSION),
    names,
    st.one_of(st.none(), names),
    st.one_of(st.none(), names),
    st.lists(predicates, max_size=3).map(
        lambda preds: _SuitePayload.of(
            PredicateSuite(defs={p.pid: p for p in preds})
        )
    ),
).map(encode)
matrix_indexes = st.builds(
    _MatrixIndex,
    st.just(3),
    st.integers(0, 3),
    st.lists(st.tuples(names, names), max_size=3, unique=True),
    st.lists(st.sampled_from(["00", "0a", "ff"]), max_size=3),
).map(encode)


@st.composite
def matrix_shards(draw) -> dict:
    """A format-2 shard file of a few columns and rows, as the store
    writes it: every observed pair has a window."""
    n_cols, n_rows = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    pairs = [(f"p{row}", "d") for row in range(n_rows)]
    matrix = EvalMatrix(rows=RowTable(pairs, draw(st.integers(0, 2))))
    for col in range(n_cols):
        matrix.column(_fingerprint(col), draw(st.booleans()))
    bits = st.integers(0, (1 << n_cols) - 1)
    for row in range(n_rows):
        done = draw(bits)
        held = done & draw(bits)
        if done:
            matrix.evaluated[row] = done
        if held:
            matrix.observed[row] = held
        for col in range(n_cols):
            if held >> col & 1:
                start = draw(ints)
                lamport = draw(st.one_of(st.none(), ints))
                matrix.windows[col][row] = Observation(
                    start, start + draw(st.integers(0, 9)), lamport, lamport
                )
    return encode(_ShardFile.of(matrix))


@st.composite
def reports(draw) -> dict:
    """A report payload; a session report has discovery and explanation."""
    pid_list = st.lists(names, max_size=3)
    session = draw(st.booleans())
    discovery = explanation = None
    if session:
        discovery = _ReportDiscovery(
            draw(pid_list), draw(names), draw(st.one_of(st.none(), names)),
            draw(pid_list), draw(ints), draw(ints),
        )
        steps = st.builds(ExplanationStep, ints, names, names, names)
        explanation = _ReportExplanation(
            draw(st.lists(steps, max_size=2)), draw(names)
        )
    optional = st.one_of(st.none(), names)
    return encode(
        ReportPayload(
            schema=1,
            kind="session" if session else "analysis",
            program=draw(optional),
            approach=draw(optional),
            signature=draw(optional),
            collection=draw(
                st.one_of(st.none(), st.builds(_ReportCollection, ints, ints))
            ),
            predicates=_ReportPredicates(draw(ints), draw(ints), draw(pid_list)),
            dag=_ReportDag(
                draw(ints), draw(ints), draw(pid_list),
                draw(st.lists(st.lists(names, min_size=2, max_size=2), max_size=2)),
            ),
            discovery=discovery,
            explanation=explanation,
            meta=_ReportMeta(
                1,
                draw(optional),
                draw(st.one_of(st.none(), st.dictionaries(names, ints, max_size=2))),
            ),
        )
    )


@st.composite
def explore_payloads(draw) -> dict:
    """An exploration payload; ``meta`` only when observability ran."""
    failures = draw(
        st.lists(
            st.builds(
                _FailurePayload, names, names, ints, names, st.booleans(),
                st.one_of(st.none(), names), ints,
            ),
            max_size=2,
        )
    )
    counts = (
        "budget", "wave", "executions", "n_failed", "distinct_signatures",
        "distinct_failing_signatures", "distinct_canonical",
        "pruned_equivalent", "coverage_edges", "frontier_size",
    )
    meta = st.builds(_ExploreMeta, names, st.dictionaries(names, ints, max_size=2))
    return encode(
        ExplorePayload(
            schema=2,
            program=draw(names),
            strategy=draw(names),
            partial_order=draw(st.booleans()),
            ingested={"pass": draw(ints), "fail": draw(ints)},
            failures_found=len(failures),
            all_replays_verified=all(f.replay_verified for f in failures),
            failures=failures,
            meta=draw(st.one_of(st.none(), meta)),
            **{name: draw(ints) for name in counts},
        )
    )


def _cache_payload(items) -> dict:
    cache = OutcomeCache()
    for (workload, seed, pids), (observed, failed, out_seed) in items:
        cache.store(
            RunRequest(workload, seed, frozenset(pids)),
            RunOutcome(frozenset(observed), failed, out_seed),
        )
    with tempfile.TemporaryDirectory() as tmp:
        return json.loads(Path(cache.save(f"{tmp}/c.json")).read_text())


pid_lists = st.lists(names, max_size=3, unique=True)
#: one entry: two entries a mutation makes equal are one memo key
caches = st.tuples(
    st.tuples(names, ints, pid_lists),
    st.tuples(pid_lists, st.booleans(), ints),
).map(lambda item: _cache_payload([item]))
schedules = st.builds(
    Schedule, names, ints, st.lists(names, max_size=4).map(tuple)
).map(Schedule.to_dict)
specs = st.builds(
    RunSpec,
    workload=st.one_of(st.none(), st.builds(WorkloadSpec, names)),
    collection=st.builds(
        CollectionSpec,
        n_success=ints,
        n_fail=ints,
        start_seed=ints,
        strategy=st.one_of(st.none(), names),
        strategy_params=st.one_of(
            st.none(), st.dictionaries(names, scalars, max_size=2)
        ),
    ),
    engine=st.builds(EngineSpec, st.one_of(st.none(), names)),
    corpus=st.builds(CorpusSpec, st.one_of(st.none(), names), names),
    explore=st.one_of(
        st.none(),
        st.builds(ExploreSpec, ints, st.booleans(), st.one_of(st.none(), names)),
    ),
    analysis=st.builds(
        AnalysisSpec,
        approach=names,
        repeats=ints,
        rng_seed=ints,
        extractors=st.one_of(st.none(), st.lists(names, max_size=2).map(tuple)),
        policy=st.one_of(st.none(), names),
    ),
).map(RunSpec.to_dict)


# ---------------------------------------------------------------------------
# The doors, and what each writes back
# ---------------------------------------------------------------------------


def _normal_predicate(value: object) -> object:
    """A predicate (or suite) payload with each race's two keys in
    canonical order, as the race's constructor sorts them."""
    if type(value) is list:
        return [_normal_predicate(v) for v in value]
    if type(value) is not dict:
        return value
    value = {k: _normal_predicate(v) for k, v in value.items()}
    if value.get("type") == "DataRacePredicate":
        fields = dict(value["fields"])
        first, second = sorted([fields["a"]["$key"], fields["b"]["$key"]])
        fields["a"], fields["b"] = {"$key": first}, {"$key": second}
        value["fields"] = fields
    return value


def _load_cache(payload: dict) -> dict:
    """What a cache that loaded ``payload`` saves."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(payload))
        cache = OutcomeCache(path=str(path))
        return json.loads(Path(cache.save()).read_text())


def _normal_cache(payload: dict) -> dict:
    rows = [
        {
            **e,
            "pids": sorted(set(e["pids"])),
            "outcome": {
                **e["outcome"],
                "observed": sorted(set(e["outcome"]["observed"])),
            },
        }
        for e in payload["entries"]
    ]
    key = lambda e: (e["workload"], e["seed"], e["pids"])  # noqa: E731
    return {**payload, "entries": sorted(rows, key=key)}


def _normal_spec(payload: dict) -> dict:
    """A null section reads as the section's defaults."""
    return {k: v for k, v in payload.items() if v is not None}


def _file_door(tp):
    """A corpus file read as ``tp`` and written back as the store does."""

    def door(payload):
        return encode(corpus_store._decode_file(tp, Path("file.json"), payload))

    return door


#: name -> (valid payloads, door: payload -> what it writes back,
#: normalizer of an accepted payload, the door's structured error)
DOORS = {
    "predicate": (
        predicates.map(predicate_to_dict),
        lambda p: predicate_to_dict(predicate_from_dict(p)),
        _normal_predicate,
        ValueError,
    ),
    "suite": (
        st.lists(predicates, max_size=3).map(_suite_payload),
        lambda p: PredicateSuite.from_dict(p).to_dict(),
        _normal_predicate,
        ValueError,
    ),
    "manifest-row": (
        shard_manifests,
        _file_door(corpus_store._ShardManifest),
        lambda p: p,
        CorpusError,
    ),
    "manifest": (
        top_manifests,
        _file_door(corpus_store._Manifest),
        lambda p: p,
        CorpusError,
    ),
    "suite-file": (
        suite_files,
        _file_door(corpus_store._SuiteFile),
        _normal_predicate,
        CorpusError,
    ),
    "matrix-index": (
        matrix_indexes, _file_door(_MatrixIndex), lambda p: p, CorpusError
    ),
    "matrix-shard": (
        matrix_shards(), _file_door(_ShardFile), lambda p: p, CorpusError
    ),
    "report": (
        reports(),
        lambda p: encode(decode(ReportPayload, p)),
        lambda p: p,
        DecodeError,
    ),
    "explore": (
        explore_payloads(),
        lambda p: encode(decode(ExplorePayload, p)),
        lambda p: p,
        DecodeError,
    ),
    "cache": (caches, _load_cache, _normal_cache, ValueError),
    "schedule": (
        schedules,
        lambda p: Schedule.from_dict(p).to_dict(),
        lambda p: p,
        ScheduleError,
    ),
    "spec": (
        specs,
        lambda p: RunSpec.from_dict(p).to_dict(),
        _normal_spec,
        SpecError,
    ),
}


def _without(key: str):
    return lambda payload: {k: v for k, v in payload.items() if k != key}


#: name -> (the type a door decodes, the payload it is decoded from)
DOOR_TYPES = {
    "predicate": (PredicateDef, lambda p: p),
    "suite": (_SuitePayload, lambda p: p),
    "manifest-row": (corpus_store._ShardManifest, lambda p: p),
    "manifest": (corpus_store._Manifest, lambda p: p),
    "suite-file": (corpus_store._SuiteFile, lambda p: p),
    "matrix-index": (_MatrixIndex, lambda p: p),
    "matrix-shard": (_ShardFile, lambda p: p),
    "report": (ReportPayload, lambda p: p),
    "cache": (_CacheFile, lambda p: p),
    "explore": (ExplorePayload, lambda p: p),
    "schedule": (Schedule, _without("schema")),
    "spec": (RunSpec, _without("version")),
}


def _faithful(written: object, accepted: object) -> bool:
    """``written`` says what ``accepted`` said: every key of an object
    (a null reads as absent), every element, every scalar with its exact
    type (so a ``1`` never stands in for ``True``)."""
    if type(accepted) is dict:
        return type(written) is dict and all(
            _faithful(written.get(k), v) for k, v in accepted.items()
            if v is not None or k in written
        )
    if type(accepted) is list:
        return (
            type(written) is list
            and len(written) == len(accepted)
            and all(map(_faithful, written, accepted))
        )
    return type(written) is type(accepted) and written == accepted


# ---------------------------------------------------------------------------
# Mutations: one leaf changed
# ---------------------------------------------------------------------------

OTHER_TYPES = [0, -1, 1.5, True, None, "x", [], {}]


def _nodes(value: object, path: tuple = ()):
    """Every (path, value) position in a JSON tree, the root first."""
    yield path, value
    if type(value) is dict:
        for k, v in value.items():
            yield from _nodes(v, path + (k,))
    elif type(value) is list:
        for i, v in enumerate(value):
            yield from _nodes(v, path + (i,))


def _replace(value: object, path: tuple, new: object) -> object:
    if not path:
        return new
    head, rest = path[0], path[1:]
    if type(value) is dict:
        return {**value, head: _replace(value[head], rest, new)}
    return [
        _replace(v, rest, new) if i == head else v for i, v in enumerate(value)
    ]


@st.composite
def mutated(draw, payloads):
    """A valid payload with one leaf mutated: a value of another type, a
    negated int, a key dropped or added, or a hostile string."""
    payload = draw(payloads)
    positions = list(_nodes(payload))
    path, value = draw(st.sampled_from(positions))
    kind = draw(st.sampled_from(["type", "sign", "drop", "extra", "hostile"]))
    if kind == "sign" and type(value) is int and value:
        return _replace(payload, path, -value)
    if kind == "sign" and type(value) is int:
        return _replace(payload, path, -1)
    if kind == "drop" and type(value) is dict and value:
        gone = draw(st.sampled_from(sorted(value)))
        return _replace(
            payload, path, {k: v for k, v in value.items() if k != gone}
        )
    if kind == "extra" and type(value) is dict:
        return _replace(payload, path, {**value, draw(names) + "·extra": 1})
    if kind == "hostile":
        return _replace(payload, path, draw(names))
    other = draw(
        st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(value)])
    )
    return _replace(payload, path, other)


@pytest.mark.parametrize("name", sorted(DOORS))
def test_every_valid_payload_round_trips(name):
    payloads, door, normal, _ = DOORS[name]

    @settings(max_examples=40, deadline=None)
    @given(payloads)
    def check(payload):
        assert door(payload) == normal(payload)

    check()


@pytest.mark.parametrize("name", sorted(DOORS))
def test_encode_inverts_decode(name):
    payloads, _, normal, _ = DOORS[name]
    tp, unwrap = DOOR_TYPES[name]

    @settings(max_examples=40, deadline=None)
    @given(payloads)
    def check(raw):
        value = decode(tp, unwrap(raw))
        assert decode(tp, encode(value, tp)) == value
        assert encode(value, tp) == unwrap(normal(raw))

    check()


@pytest.mark.parametrize("name", sorted(DOORS))
def test_a_mutated_leaf_decodes_faithfully_or_is_a_structured_error(name):
    payloads, door, normal, error = DOORS[name]

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutated(payloads))
    def check(payload):
        try:
            written = door(payload)
        except error as exc:
            assert str(exc)
            return
        assert _faithful(written, normal(payload)), (written, payload)

    check()


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.toml")), ids=lambda p: p.name
)
def test_example_specs_round_trip_unchanged(path):
    spec = RunSpec.load(path)
    assert RunSpec.from_dict(spec.to_dict()) == spec
    assert RunSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()
