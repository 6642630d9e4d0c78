"""End-to-end benchmark of repro's user-facing commands.

Run from the repository root::

    python3 perfbench/run.py --workload live-debug --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced pass (see ``tracer.py``); its spans go
to ``.perfbench_out/spans-<workload>-seed<n>.json``.

Every operation's output is checked.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value": ..., "unit": ...}``).  The line before it
records the environment and every sample taken.  See ``README.md`` for
the workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "debug_s": "s",
    "analyze_cold_s": "s",
    "analyze_warm_s": "s",
    "explore_s": "s",
    "peak_rss_mb": "MB",
    "store_bytes_per_trace": "B",
}


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup_child(name: str, work: str, seed: int, scale: str) -> list[float]:
    """Set the workload up repeatedly; returns each time taken.

    Runs in a child process (``--set-up-into``), so the parent's peak RSS
    is the workload's alone.  Every repeat rebuilds from scratch; the
    last one is kept.
    """
    import workloads

    size = workloads.SIZES[scale]
    times: list[float] = []
    spent = 0.0
    while len(times) < size["setup_repeats"] or spent < size["setup_seconds"]:
        shutil.rmtree(work, ignore_errors=True)
        Path(work).mkdir(parents=True)
        gc.collect()
        os.sync()  # the last repeat's writeback must not land in this one
        _, elapsed, slowdown = workloads.timed(
            lambda: workloads.setup(name, Path(work), seed, scale)
        )
        spent += elapsed
        times.append(elapsed / slowdown)
    return times


def _set_up(name: str, work: Path, seed: int, scale: str) -> list[float]:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--set-up-into", str(work),
    ]
    if scale == "smoke":
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: set-up failed (exit {done.returncode})")
    return json.loads(done.stdout)


def _out_of_time(started: float, done: int, seconds: float) -> bool:
    """Whether another pass, as long as the average one so far, would
    end past ``seconds`` (the first pass always runs)."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done > seconds


def measure(name, work, seed, seconds, scale):
    """Untraced passes for about ``seconds``; returns the passes and
    metric -> part -> samples."""
    import workloads

    workload = workloads.WORKLOADS[name]
    size = workloads.SIZES[scale]
    passes = []
    samples: dict[str, dict[str, list[float]]] = {}
    started = time.perf_counter()
    while True:
        own = workloads.Pass(work=work, seed=seed, size=size)
        workload.run(own)
        extra = workloads.Pass(work=work, seed=seed, size=size)
        for companion in workload.companions:
            companion(extra)
        for p in (own, extra):
            for metric, parts in p.samples.items():
                if p is extra and metric in own.samples:
                    continue  # the workload measures this one itself
                for part, values in parts.items():
                    samples.setdefault(metric, {}).setdefault(
                        part, []
                    ).extend(values)
        passes += [own, extra]
        if _out_of_time(started, len(passes) // 2, seconds):
            break
    return passes, samples


def measure_traced(name, work, seed, seconds, scale):
    """Alternate untraced and traced passes for about ``seconds``;
    traced results must equal untraced ones."""
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    size = workloads.SIZES[scale]
    passes, pairs = [], []
    started = time.perf_counter()
    while True:
        plain = workloads.Pass(work=work, seed=seed, size=size)
        workload.run(plain)
        traced = workloads.Pass(
            work=work, seed=seed, size=size, tracer=tracing.Tracer()
        )
        with traced.tracer.installed():
            workload.run(traced)
        for label, payload in plain.payloads.items():
            traced.check(
                label,
                traced.payloads.get(label) == payload,
                "traced result differs from untraced",
            )
        passes += [plain, traced]
        pairs.append((plain, traced))
        if _out_of_time(started, len(pairs), seconds):
            break
    # Per-layer numbers come from the traced pass of median wall time.
    walls = {
        "untraced_wall_s": [plain.wall for plain, _ in pairs],
        "traced_wall_s": [traced.wall for _, traced in pairs],
    }
    traced = sorted((t for _, t in pairs), key=lambda t: t.wall)[
        (len(pairs) - 1) // 2
    ]
    metrics = dict.fromkeys(layer_units(), 0.0)
    for prefix, wanted in workload.layer_groups.items():
        roots = [r for r, label in traced.roots.items() if wanted(label)]
        layer = traced.tracer.metrics(roots)
        names = (
            tracing.LAYER_UNITS if not prefix else workloads.COLD_LAYER_METRICS
        )
        for metric in names:
            metrics[prefix + metric] = layer[metric]
    metrics["bench.trace_overhead"] = statistics.median(
        walls["traced_wall_s"]
    ) / statistics.median(walls["untraced_wall_s"])
    out = ROOT / ".perfbench_out" / f"spans-{name}-seed{seed}.json"
    traced.tracer.dump(out, {"workload": name, "seed": seed})
    return passes, metrics, walls, out


def layer_units() -> dict[str, str]:
    """Every per-layer metric name and unit, in report order."""
    import tracer as tracing
    import workloads

    units = dict(tracing.LAYER_UNITS)
    units["bench.trace_overhead"] = "ratio"
    for metric in workloads.COLD_LAYER_METRICS:
        units["cold." + metric] = tracing.LAYER_UNITS[metric]
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="toy sizes (the self-test)"
    )
    parser.add_argument(
        "--set-up-into",
        metavar="DIR",
        help="only set the workload up into DIR; print the times taken",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(one of {', '.join(workloads.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    scale = "smoke" if args.smoke else "full"
    if args.set_up_into:
        times = _setup_child(args.workload, args.set_up_into, args.seed, scale)
        print(json.dumps(times))
        return 0
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = _set_up(args.workload, work, args.seed, scale)
        if args.trace:
            passes, values, samples, spans = measure_traced(
                args.workload, work, args.seed, args.seconds, scale
            )
            units = layer_units()
        else:
            passes, samples = measure(
                args.workload, work, args.seed, args.seconds, scale
            )
            values = {
                metric: sum(statistics.median(v) for v in parts.values())
                for metric, parts in samples.items()
            }
            values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
            units = END_TO_END_UNITS
            samples["setup_s"] = setup_times
            samples["slowdown"] = [x for p in passes for x in p.slowdowns]
            spans = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still works there
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for problem in p.problems:
            print(f"perfbench: FAILED {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": scale,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "samples": samples,
        "spans": str(spans.relative_to(ROOT)) if spans else None,
    }
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
