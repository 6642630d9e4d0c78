"""``repro submit`` — the thin HTTP client for a running serve daemon.

Role
----
The CLI-side half of the service split: load a RunSpec file, POST it to
``/v1/runs``, and print the versioned report to stdout **verbatim** —
the body is written through untouched, so ``repro submit SPEC > r.json``
produces the same bytes as ``repro run SPEC --json > r.json`` (the
serve-smoke CI job diffs exactly that).

``--follow`` submits asynchronously (``?wait=0``), then streams the
run's NDJSON event feed to *stderr* — each row rendered by the same
:func:`repro.obs.cli.render_log_row` that ``repro obs tail`` uses, so a
remote run reads like a local tail — and finally fetches the report to
stdout.  Each streamed line is checked as ``repro obs tail`` checks a
log line (:func:`repro.obs.runlog.check_row`).  Structured service
errors (the JSON bodies described in :mod:`repro.serve.handlers`) and a
bad streamed line surface as ``repro: submit:`` messages.

Only :mod:`urllib.request` is used; no new dependencies.
"""

from __future__ import annotations

import json
import sys
import urllib.error
import urllib.request
from typing import Optional, TextIO

from ..api.spec import RunSpec, SpecError
from ..obs.cli import render_log_row
from ..obs.runlog import RunLogError, check_row


class SubmitError(RuntimeError):
    """The daemon rejected the submission or is unreachable."""


def _request(url: str, data: Optional[bytes] = None):
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        return urllib.request.urlopen(request)
    except urllib.error.HTTPError as exc:
        detail = _structured_detail(exc)
        raise SubmitError(
            f"{url} -> HTTP {exc.code}: {detail}"
        ) from exc
    except urllib.error.URLError as exc:
        raise SubmitError(
            f"cannot reach {url}: {exc.reason} (is `repro serve` running?)"
        ) from exc


def _structured_detail(exc: "urllib.error.HTTPError") -> str:
    """The service's JSON error body as one readable line."""
    try:
        payload = json.loads(exc.read().decode())
    except (ValueError, OSError):
        return exc.reason
    error = payload.get("error", exc.reason)
    path = payload.get("path")
    detail = payload.get("detail")
    parts = [str(error)]
    if path:
        parts.append(f"at {path}")
    if detail:
        parts.append(str(detail))
    return ": ".join(parts)


def submit(
    server: str,
    spec_path: str,
    follow: bool = False,
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
) -> int:
    """Submit one spec file; returns a process exit status."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    server = server.rstrip("/")
    try:
        spec = RunSpec.load(spec_path)
    except SpecError as exc:
        raise SystemExit(f"repro: submit: {exc}") from exc
    body = json.dumps(spec.to_dict()).encode()
    try:
        if not follow:
            response = _request(f"{server}/v1/runs", data=body)
            out.write(response.read().decode())
            return 0
        response = _request(f"{server}/v1/runs?wait=0", data=body)
        accepted = json.loads(response.read().decode())
        run_id = accepted["run_id"]
        print(f"submitted {run_id} -> {server}", file=err)
        url = f"{server}/v1/runs/{run_id}/events?format=ndjson"
        for number, raw in enumerate(_request(url), 1):
            line = raw.strip()
            if line:
                row = check_row(line, f"{url}:{number}", header=number == 1)
                print(render_log_row(row), file=err)
        report = _request(f"{server}/v1/runs/{run_id}/report")
        out.write(report.read().decode())
        return 0
    except (SubmitError, RunLogError) as exc:
        raise SystemExit(f"repro: submit: {exc}") from exc
