"""CLI glue for observability: shared flags and the ``repro obs`` verbs.

``add_obs_flags`` puts the same four flags on every pipeline command
(``run``, ``debug``, ``corpus analyze``), mirroring how
:meth:`repro.api.spec.EngineSpec.add_flags` shares the engine flags;
``obs_from_args`` turns a parsed namespace into the
:class:`~repro.obs.ObsContext` that :func:`repro.api.run` accepts (or
``None`` when nothing was requested, keeping the default path
observer-free).

The ``repro obs`` subcommand inspects logs after the fact:

* ``summary FILE|DIR [--json]`` — phase-timing breakdown + metrics of
  one run (``--json``: the versioned payload the cross-run index
  stores);
* ``compare A B [--json]`` — two runs side by side;
* ``spans FILE|DIR`` — the span tree (name, duration, % of parent);
* ``index DIR [--rebuild] [--json]`` — maintain/print the cross-run
  ``index.json`` catalog (see :mod:`repro.obs.index`);
* ``tail FILE|DIR [--follow]`` — the log as progress lines, optionally
  following a live run until its ``run-finished`` lands (the same
  cursor + rendering ``repro submit --follow`` streams over HTTP).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, TextIO

from . import ObsContext, ObsOptions
from .index import RunIndex, render_index
from .runlog import JsonlCursor, RunLogError, latest_run_log, read_run_log
from .summary import (
    compare_dict,
    render_compare,
    render_span_tree,
    render_summary,
    summarize,
    summary_dict,
)


def add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags (see module docstring)."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--log-dir", default=None, metavar="DIR",
        help="write a schema-versioned JSONL run log to DIR/<run_id>.jsonl "
        "(inspect it later with `repro obs summary DIR`)",
    )
    group.add_argument(
        "--progress", action="store_true",
        help="stream one progress line per pipeline event to stderr",
    )
    group.add_argument(
        "--metrics", action="store_true",
        help="print the final metrics snapshot (counters/gauges/timers) "
        "to stderr",
    )
    group.add_argument(
        "--profile", action="store_true",
        help="cProfile each top-level phase into DIR/<run_id>-<phase>.prof "
        "(requires --log-dir)",
    )


def obs_from_args(args: argparse.Namespace) -> Optional[ObsContext]:
    """An :class:`ObsContext` for the parsed flags, or ``None``."""
    options = ObsOptions(
        log_dir=getattr(args, "log_dir", None),
        progress=bool(getattr(args, "progress", False)),
        metrics=bool(getattr(args, "metrics", False)),
        profile=bool(getattr(args, "profile", False)),
    )
    if not (
        options.log_dir or options.progress or options.metrics
        or options.profile
    ):
        return None
    if options.profile and options.log_dir is None:
        raise SystemExit("repro: --profile requires --log-dir")
    return ObsContext(options)


def resolve_run_log(target: str) -> Path:
    """A run-log path from a CLI operand: a file, or a directory whose
    newest ``*.jsonl`` is meant."""
    path = Path(target)
    if path.is_dir():
        return latest_run_log(path)
    return path


def render_log_row(row: dict) -> str:
    """One run-log row, as :func:`~repro.obs.runlog.check_row` passed
    it, as the human progress line.

    The single rendering shared by ``repro obs tail`` (local file) and
    ``repro submit --follow`` (the daemon's NDJSON event stream) — both
    feeds carry the same rows, so they read identically.
    """
    if row.get("seq") is None:
        kind = "header" if "schema" in row else row["kind"]
        return f"[{kind}] {json.dumps(row, sort_keys=True)}"
    return (
        f"[{row['t']:8.3f}s] #{row['seq']:<3} {row['kind']:<18} "
        f"{json.dumps(row['data'], sort_keys=True)}"
    )


def tail_run_log(
    path: Path,
    follow: bool = False,
    interval: float = 0.2,
    stream: Optional[TextIO] = None,
    timeout: Optional[float] = None,
) -> int:
    """Print a run log line by line; with ``follow``, poll for new lines
    until ``run-finished`` (or ``timeout`` seconds pass).

    Built on :class:`~repro.obs.runlog.JsonlCursor`, so following works
    against the flushed-per-line JSONL of a *live* run — including one
    whose log file has not been created yet (``--follow`` simply waits
    for the writer's first line).
    """
    out = stream if stream is not None else sys.stdout
    if not follow and not path.exists():
        raise RunLogError(f"no run log at {path}")
    deadline = time.monotonic() + timeout if timeout is not None else None
    cursor = JsonlCursor(path)
    while True:
        for _, row in cursor.poll():
            print(render_log_row(row), file=out)
        if cursor.finished or not follow:
            return 0
        if deadline is not None and time.monotonic() >= deadline:
            return 1
        time.sleep(interval)


def cmd_obs(args: argparse.Namespace) -> int:
    """Dispatch ``repro obs summary|compare|tail``."""
    try:
        return _cmd_obs(args)
    except BrokenPipeError:
        # `repro obs ... | head` is routine; a closed pipe is not an
        # error.  Point stdout at devnull so the interpreter's exit-time
        # flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    try:
        if args.obs_command == "summary":
            summary = summarize(read_run_log(resolve_run_log(args.run)))
            if args.json:
                print(json.dumps(summary_dict(summary), indent=2,
                                 sort_keys=True))
            else:
                print(render_summary(summary, metrics=not args.no_metrics))
            return 0
        if args.obs_command == "compare":
            first = summarize(read_run_log(resolve_run_log(args.run_a)))
            second = summarize(read_run_log(resolve_run_log(args.run_b)))
            if args.json:
                print(json.dumps(compare_dict(first, second), indent=2,
                                 sort_keys=True))
            else:
                print(render_compare(first, second))
            return 0
        if args.obs_command == "spans":
            summary = summarize(read_run_log(resolve_run_log(args.run)))
            print(render_span_tree(summary))
            return 0
        if args.obs_command == "index":
            index = RunIndex(args.dir)
            stats = index.rebuild() if args.rebuild else index.refresh()
            if args.json:
                print(json.dumps(index.to_dict(), indent=2, sort_keys=True))
            else:
                print(render_index(index))
                print(
                    f"  ({stats.added} added, {stats.updated} updated, "
                    f"{stats.removed} removed, {stats.unchanged} unchanged "
                    f"-> {index.path})"
                )
            return 0
        if args.obs_command == "tail":
            return tail_run_log(
                resolve_run_log(args.run),
                follow=args.follow,
                interval=args.interval,
            )
    except RunLogError as exc:
        raise SystemExit(f"repro: obs: {exc}") from exc
    raise SystemExit(f"repro: obs: unknown command {args.obs_command!r}")


def add_obs_subcommand(sub: argparse._SubParsersAction) -> None:
    """Register ``repro obs`` and its verbs on the main parser."""
    obs = sub.add_parser(
        "obs",
        help="inspect durable run telemetry (JSONL run logs)",
    )
    osub = obs.add_subparsers(dest="obs_command", required=True)

    osummary = osub.add_parser(
        "summary",
        help="phase-timing breakdown and metrics of one logged run",
    )
    osummary.add_argument(
        "run",
        help="a runs/<run_id>.jsonl file, or a log dir (newest run wins)",
    )
    osummary.add_argument(
        "--no-metrics", action="store_true",
        help="omit the metrics snapshot block",
    )
    osummary.add_argument(
        "--json", action="store_true",
        help="print the versioned summary payload (the same record the "
        "cross-run index stores) instead of text",
    )

    ocompare = osub.add_parser(
        "compare", help="two logged runs side by side, phase by phase"
    )
    ocompare.add_argument("run_a", help="baseline run log (file or dir)")
    ocompare.add_argument("run_b", help="candidate run log (file or dir)")
    ocompare.add_argument(
        "--json", action="store_true",
        help="print the versioned comparison payload instead of text",
    )

    ospans = osub.add_parser(
        "spans",
        help="render the span tree of one run: name, duration, share "
        "of parent",
    )
    ospans.add_argument(
        "run",
        help="a runs/<run_id>.jsonl file, or a log dir (newest run wins)",
    )

    oindex = osub.add_parser(
        "index",
        help="maintain the cross-run index.json catalog over a log dir "
        "(incremental: only new/changed logs are re-read)",
    )
    oindex.add_argument("dir", help="the log directory to index")
    oindex.add_argument(
        "--rebuild", action="store_true",
        help="drop the existing index and re-summarize every log",
    )
    oindex.add_argument(
        "--json", action="store_true",
        help="print the full index payload instead of the table",
    )

    otail = osub.add_parser(
        "tail", help="print a run log as progress lines"
    )
    otail.add_argument("run", help="run log file or log dir (newest run)")
    otail.add_argument(
        "--follow", action="store_true",
        help="keep polling for new lines until the run finishes",
    )
    otail.add_argument(
        "--interval", type=float, default=0.2, metavar="SECONDS",
        help="poll interval for --follow (default 0.2)",
    )
