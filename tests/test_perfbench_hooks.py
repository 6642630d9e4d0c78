"""The end-to-end benchmark's tracer hooks still resolve.

``perfbench/tracer.py`` patches layer functions by name at their use
site.  A rename or deletion under ``src/`` would otherwise surface only
when the benchmark runs; this pins every hook in the tier-1 suite, looked
up exactly the way ``Tracer.installed`` looks it up.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_hooks() -> list[tuple]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._hooks()


def test_every_tracer_hook_resolves():
    hooks = _tracer_hooks()
    assert hooks
    missing = []
    for owner, attr, *_ in hooks:
        if isinstance(owner, type):
            # installed() reads the class's own __dict__ (so it can
            # re-wrap classmethods), not an inherited attribute
            raw = owner.__dict__.get(attr)
        else:
            raw = getattr(owner, attr, None)
        if isinstance(raw, classmethod):
            raw = raw.__func__
        if not callable(raw):
            missing.append(f"{owner.__name__}.{attr}")
    assert missing == []
