"""Seeded random-trace generator for the corpus parity harness.

Every function here is a pure function of the :class:`random.Random`
instance passed in, so a test that seeds the generator reproduces the
same corpus on every run and on every machine.  The generator aims for
breadth, not realism: unicode method and thread names, empty traces,
nested/NaN return values, duplicate method keys, self-referential
parents, and every failure shape the trace schema can express — the
corners a serializer or an indexed evaluator is most likely to get
wrong.
"""

from __future__ import annotations

import random

from repro.sim.serialize import ImportedTrace, trace_from_dict

#: Deliberately hostile name pools: ASCII, combining marks, CJK, RTL,
#: embedded separators, and strings that look like numbers or JSON.
METHODS = [
    "poll",
    "commit",
    "räce·check",
    "提交偏移",
    "сброс",
    "a/b:c.d",
    'quo"ted',
    "123",
    "null",
    "",
]
THREADS = ["T0", "T1", "T2", "λ-worker", "поток-4"]
EXCEPTIONS = [None, "Timeout", "KafkaException", "Ошибка", "e:—"]
OBJECTS = ["offsets", "журнал", "lock□map", "o1", "o2"]
LOCKS = ["L0", "L1", "замок", "锁"]
FAILURE_MODES = ["assertion", "exception", "超时", "wrong-output"]

#: Return-value palette covering every JSON shape plus the awkward
#: floats (NaN compares unequal to itself; -0.0 canonicalizes oddly).
RETURN_VALUES = [
    None,
    True,
    False,
    0,
    -7,
    2**40,
    1.5,
    -0.0,
    float("nan"),
    "",
    "ok",
    "真",
    [1, [2, None], "x"],
    {"k": [True, 3.25], "и": "v"},
]


def make_payload(rng: random.Random, seed: int, failed: bool) -> dict:
    """One random trace payload in the ``trace_to_dict`` schema."""
    n_calls = rng.choice([0, 1, 2, rng.randrange(3, 12)])
    calls = []
    max_time = 1
    for call_id in range(n_calls):
        method = rng.choice(METHODS)
        thread = rng.choice(THREADS)
        # Duplicate (method, thread) pairs are frequent on purpose so
        # occurrence indexing and key-run grouping get exercised.
        occurrence = sum(
            1
            for c in calls
            if c["method"] == method and c["thread"] == thread
        )
        start = rng.randrange(0, 500)
        end = start + rng.randrange(0, 200)
        max_time = max(max_time, end)
        accesses = [
            {
                "obj": rng.choice(OBJECTS),
                "type": rng.choice(["R", "W"]),
                "time": rng.randrange(start, end + 1),
                "lamport": rng.randrange(0, 1000),
                "locks": sorted(
                    rng.sample(LOCKS, rng.randrange(0, len(LOCKS)))
                ),
            }
            for _ in range(rng.choice([0, 0, 1, 2, 3]))
        ]
        calls.append(
            {
                "call_id": call_id,
                "method": method,
                "thread": thread,
                "occurrence": occurrence,
                "start_time": start,
                "end_time": end,
                "start_lamport": rng.randrange(0, 1000),
                "end_lamport": rng.randrange(0, 1000),
                "parent_call_id": (
                    rng.randrange(0, call_id)
                    if call_id and rng.random() < 0.4
                    else None
                ),
                "return_value": rng.choice(RETURN_VALUES),
                "exception": rng.choice(EXCEPTIONS),
                "body_skipped": rng.random() < 0.15,
                "accesses": accesses,
            }
        )
    failure = None
    if failed:
        failure = {
            "mode": rng.choice(FAILURE_MODES),
            "exception": rng.choice(EXCEPTIONS),
            "method": rng.choice(METHODS + [None]),
            "thread": rng.choice(THREADS + [None]),
            "time": rng.randrange(0, max_time + 1),
        }
    return {
        "schema": 1,
        "program": "gen",
        "seed": seed,
        "end_time": max_time + rng.randrange(0, 10),
        "failure": failure,
        "calls": calls,
    }


def make_corpus(
    seed: int, n_pass: int = 6, n_fail: int = 6
) -> list[dict]:
    """A seeded list of payloads with both labels, dedup-safe seeds."""
    rng = random.Random(seed)
    payloads = []
    for i in range(n_pass + n_fail):
        payloads.append(
            make_payload(rng, seed=seed * 1000 + i, failed=i >= n_pass)
        )
    return payloads


def make_trace(rng: random.Random, seed: int, failed: bool) -> ImportedTrace:
    """Decoded form of :func:`make_payload` (what ``store.load`` returns)."""
    return trace_from_dict(make_payload(rng, seed, failed))
