"""repro.serve: the live telemetry service, end to end over real HTTP.

Covers the service invariants:

* ``POST /v1/runs`` returns the versioned report **byte-identical** to
  ``repro run SPEC --json`` for the same spec (the service never
  changes results);
* the NDJSON/SSE event stream is the server-side JSONL verbatim — a
  late subscriber's replay through :func:`read_run_log` equals the
  file's, and replay-from-seq reconnects lose nothing;
* two concurrent SSE subscribers plus a submitter see consistent
  streams against a live server;
* a malformed RunSpec body is a structured 400, an unknown run id a
  structured 404, a crashing run a structured 500;
* the cross-run index is idempotent under rebuild and survives daemon
  restarts (a new server answers for runs an old one executed);
* the ``repro submit`` client round-trips the report bytes, and
  ``--follow`` streams the same rows ``repro obs tail`` renders.
"""

from __future__ import annotations

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import RunSpec, run as api_run
from repro.api.spec import CollectionSpec, SpecError, WorkloadSpec
from repro.cli import main
from repro.obs import RunIndex, read_run_log
from repro.obs.cli import tail_run_log
from repro.serve import ReproServer, submit


def small_spec(n: int = 10, **overrides) -> RunSpec:
    base = dict(
        workload=WorkloadSpec("network"),
        collection=CollectionSpec(n_success=n, n_fail=n),
    )
    base.update(overrides)
    return RunSpec(**base)


def http_get(url: str, headers: dict | None = None) -> tuple[int, bytes]:
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read()


def http_post(url: str, payload: dict) -> tuple[int, bytes]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, response.read()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    log_dir = tmp_path_factory.mktemp("serve") / "runs"
    server = ReproServer(log_dir=str(log_dir), port=0).start()
    yield server
    server.shutdown()


@pytest.fixture(scope="module")
def finished_run(server):
    """One blocking submission: (run_id, report payload bytes)."""
    status, body = http_post(
        f"{server.url}/v1/runs", small_spec().to_dict()
    )
    assert status == 200
    runs = json.loads(http_get(f"{server.url}/v1/runs")[1])["runs"]
    run_id = next(
        r["run_id"] for r in runs if r.get("status") == "finished"
    )
    return run_id, body


# ---------------------------------------------------------------------------
# submission
# ---------------------------------------------------------------------------


class TestSubmission:
    def test_post_report_is_byte_identical_to_local_run(self, finished_run):
        _, body = finished_run
        local = api_run(small_spec())
        expected = (
            json.dumps(local.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        assert body.decode() == expected

    def test_post_report_meta_stays_inert(self, finished_run):
        # Observability rides in the JSONL log, never the report —
        # that's what keeps the HTTP payload equal to `repro run --json`.
        payload = json.loads(finished_run[1])
        assert payload["meta"]["run_id"] is None
        assert payload["meta"]["metrics"] is None

    def test_malformed_spec_is_a_structured_400(self, server):
        bad = {"workload": {"name": "no-such-workload"}}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_post(f"{server.url}/v1/runs", bad)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["error"] == "invalid-spec"
        assert "no-such-workload" in payload["detail"]

    def test_unknown_section_is_a_structured_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_post(f"{server.url}/v1/runs", {"bogus": {}})
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"] == "invalid-spec"

    # A spec field of the wrong type is refused with its dotted path by
    # both doors: `repro run` exits with a message (no traceback) and the
    # daemon answers a structured 400.
    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("collection", "start_seed", "x"),
            ("analysis", "rng_seed", "x"),
            ("collection", "n_success", True),
            ("corpus", "dir", 5),
            ("engine", "cache", 5),
            ("analysis", "extractors", "ab"),
        ],
    )
    def test_mistyped_field_is_refused_with_its_path(
        self, server, tmp_path, capsys, section, field, value
    ):
        payload = small_spec().to_dict()
        payload[section][field] = value
        path = f"{section}.{field}"
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(spec_file)])
        assert str(excinfo.value.code).startswith(f"repro: run: {path}: ")
        assert capsys.readouterr().out == ""
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_post(f"{server.url}/v1/runs", payload)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"] == "invalid-spec"
        assert body["path"] == path

    def test_non_json_body_is_a_structured_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/runs",
            data=b"not json at all",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert "JSON" in json.loads(excinfo.value.read())["detail"]

    def test_crashing_run_is_a_structured_500(self, server, tmp_path):
        from repro.api.spec import CorpusSpec

        spec = small_spec(
            corpus=CorpusSpec(dir=str(tmp_path / "no-such-corpus"))
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_post(f"{server.url}/v1/runs", spec.to_dict())
        assert excinfo.value.code == 500
        payload = json.loads(excinfo.value.read())
        assert payload["error"] == "run-failed"
        assert payload["detail"]
        runs = json.loads(http_get(f"{server.url}/v1/runs")[1])["runs"]
        failed = [r for r in runs if r.get("status") == "failed"]
        assert failed and failed[0]["error"]

    def test_unexpected_handler_crash_is_a_structured_500(self, server):
        # A broken registry must not silently drop the connection —
        # the daemon always answers (found the hard way: a deleted
        # log dir turned every submit into RemoteDisconnected).
        original = server.registry.parse_spec
        server.registry.parse_spec = None  # TypeError on call
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_post(f"{server.url}/v1/runs", small_spec().to_dict())
        finally:
            server.registry.parse_spec = original
        assert excinfo.value.code == 500
        payload = json.loads(excinfo.value.read())
        assert payload["error"] == "internal"
        assert "TypeError" in payload["detail"]

    def test_async_submit_returns_202_with_links(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/runs?wait=0",
            data=json.dumps(small_spec(4).to_dict()).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 202
            accepted = json.loads(response.read())
        assert accepted["status"] == "running"
        assert accepted["links"]["events"].endswith("/events")
        # the report endpoint joins the worker, then serves the payload
        status, body = http_get(
            f"{server.url}{accepted['links']['report']}"
        )
        assert status == 200
        assert json.loads(body)["kind"] == "session"


# ---------------------------------------------------------------------------
# the event stream
# ---------------------------------------------------------------------------


def sse_data_lines(body: str) -> list[str]:
    return [
        line[len("data: "):]
        for line in body.splitlines()
        if line.startswith("data: ") and line != "data: {}"
    ]


class TestEventStream:
    def test_ndjson_stream_is_the_server_log_verbatim(
        self, server, finished_run
    ):
        run_id, _ = finished_run
        _, body = http_get(f"{server.url}/v1/runs/{run_id}/events")
        log_path = server.registry.log_dir / f"{run_id}.jsonl"
        assert body.decode() == log_path.read_text()

    def test_sse_replay_equals_read_run_log(
        self, server, finished_run, tmp_path
    ):
        run_id, _ = finished_run
        _, body = http_get(
            f"{server.url}/v1/runs/{run_id}/events",
            headers={"Accept": "text/event-stream"},
        )
        replayed = tmp_path / "replayed.jsonl"
        replayed.write_text(
            "\n".join(sse_data_lines(body.decode())) + "\n"
        )
        original = read_run_log(server.registry.log_dir / f"{run_id}.jsonl")
        copy = read_run_log(replayed)
        assert copy.events.events == original.events.events
        assert copy.records == original.records
        assert copy.metrics == original.metrics

    def test_replay_from_seq_resumes_after_a_dropped_connection(
        self, server, finished_run
    ):
        run_id, _ = finished_run
        log_path = server.registry.log_dir / f"{run_id}.jsonl"
        all_lines = log_path.read_text().splitlines()
        # a client that saw the header plus events up to seq 5, then died:
        prefix = [
            line
            for line in all_lines
            if "schema" in json.loads(line)
            or json.loads(line).get("seq", 10**9) <= 5
        ]
        _, body = http_get(
            f"{server.url}/v1/runs/{run_id}/events?from_seq=5"
        )
        resumed = body.decode().splitlines()
        assert prefix + resumed == all_lines

    def test_sse_last_event_id_header_resumes_too(self, server, finished_run):
        run_id, _ = finished_run
        _, body = http_get(
            f"{server.url}/v1/runs/{run_id}/events?format=sse",
            headers={"Last-Event-ID": "3"},
        )
        rows = [json.loads(line) for line in sse_data_lines(body.decode())]
        seqs = [row["seq"] for row in rows if "seq" in row]
        assert seqs and min(seqs) == 4
        assert not any("schema" in row for row in rows)  # header skipped

    def test_two_sse_subscribers_and_a_submitter_concurrently(self, server):
        # Submit asynchronously, attach two followers while the run is
        # live, and require both to deliver the complete stream.
        request = urllib.request.Request(
            f"{server.url}/v1/runs?wait=0",
            data=json.dumps(small_spec(40).to_dict()).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            run_id = json.loads(response.read())["run_id"]
        results: dict[int, str] = {}
        errors: list[Exception] = []

        def subscribe(slot: int) -> None:
            try:
                _, body = http_get(
                    f"{server.url}/v1/runs/{run_id}/events?format=sse"
                )
                results[slot] = body.decode()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=subscribe, args=(slot,))
            for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert set(results) == {0, 1}
        log_text = (
            server.registry.log_dir / f"{run_id}.jsonl"
        ).read_text()
        for body in results.values():
            assert "\n".join(sse_data_lines(body)) + "\n" == log_text
            assert body.rstrip().endswith("data: {}")  # orderly end

    def test_unknown_run_events_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_get(f"{server.url}/v1/runs/nope/events")
        assert excinfo.value.code == 404


# ---------------------------------------------------------------------------
# catalog, detail, health, metrics
# ---------------------------------------------------------------------------


class TestCatalog:
    def test_list_merges_live_status_with_index_rows(
        self, server, finished_run
    ):
        run_id, _ = finished_run
        payload = json.loads(http_get(f"{server.url}/v1/runs")[1])
        assert payload["api"] == 1
        row = next(r for r in payload["runs"] if r["run_id"] == run_id)
        assert row["status"] == "finished"
        assert row["outcome"] == "finished"
        assert row["durations"]  # index summary made it in
        assert row["spec_digest"] == small_spec().digest()

    def test_detail_includes_span_tree(self, server, finished_run):
        run_id, _ = finished_run
        detail = json.loads(
            http_get(f"{server.url}/v1/runs/{run_id}")[1]
        )
        assert detail["run_id"] == run_id
        assert "collection" in detail["spans"]
        assert "interventions" in detail["spans"]
        assert detail["metrics"]["counters"]["events.total"] > 0

    def test_unknown_run_detail_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_get(f"{server.url}/v1/runs/definitely-not-a-run")
        assert excinfo.value.code == 404

    def test_healthz(self, server):
        payload = json.loads(http_get(f"{server.url}/healthz")[1])
        assert payload["status"] == "ok"
        assert payload["runs"]["finished"] >= 1
        assert payload["uptime"] >= 0

    def test_metrics_exposition(self, server, finished_run):
        body = http_get(f"{server.url}/metrics")[1].decode()
        assert "repro_uptime_seconds" in body
        assert 'repro_runs{status="finished"}' in body
        assert 'repro_http_requests_total{route="/metrics"}' in body
        # the fleet fold aggregated the finished runs' registries
        assert 'repro_run_counter{name="events.total"}' in body
        assert 'repro_run_timer_seconds_total{name="span.collection"}' in body

    def test_restarted_daemon_answers_for_old_runs(
        self, server, finished_run
    ):
        run_id, body = finished_run
        reborn = ReproServer(
            log_dir=str(server.registry.log_dir), port=0
        ).start()
        try:
            listed = json.loads(http_get(f"{reborn.url}/v1/runs")[1])
            assert any(
                r["run_id"] == run_id for r in listed["runs"]
            )
            # report replayed from the durable JSONL, same bytes
            _, replayed = http_get(
                f"{reborn.url}/v1/runs/{run_id}/report"
            )
            assert replayed == body
        finally:
            reborn.shutdown()


# ---------------------------------------------------------------------------
# the cross-run index
# ---------------------------------------------------------------------------


class TestIndex:
    def test_rebuild_is_idempotent(self, server, finished_run):
        index = RunIndex(server.registry.log_dir)
        index.refresh()
        first = index.path.read_text()
        stats = index.refresh()
        assert not stats.changed
        index.rebuild()
        assert index.path.read_text() == first

    def test_index_drops_deleted_logs(self, tmp_path):
        log_dir = tmp_path / "runs"
        log_dir.mkdir()
        (log_dir / "a.jsonl").write_text(
            '{"schema": 1, "run_id": "a", "created": 1.0}\n'
        )
        index = RunIndex(log_dir)
        assert index.refresh().added == 1
        (log_dir / "a.jsonl").unlink()
        stats = index.refresh()
        assert stats.removed == 1 and len(index) == 0

    def test_unreadable_log_is_catalogued_not_fatal(self, tmp_path):
        log_dir = tmp_path / "runs"
        log_dir.mkdir()
        (log_dir / "junk.jsonl").write_text("this is not jsonl\n")
        index = RunIndex(log_dir)
        index.refresh()
        assert index.get("junk")["outcome"] == "unreadable"

    def test_index_records_spec_digest(self, server, finished_run):
        run_id, _ = finished_run
        index = RunIndex(server.registry.log_dir)
        index.refresh()
        assert index.get(run_id)["spec_digest"] == small_spec().digest()


# ---------------------------------------------------------------------------
# the submit client
# ---------------------------------------------------------------------------


class TestSubmitClient:
    def test_submit_round_trips_the_report_bytes(self, server, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(small_spec(6).to_json() + "\n")
        out, err = io.StringIO(), io.StringIO()
        assert submit(
            server.url, str(spec_file), out=out, err=err
        ) == 0
        local = api_run(small_spec(6))
        assert out.getvalue() == (
            json.dumps(local.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    def test_submitted_explore_spec_returns_the_explore_payload(
        self, server, tmp_path, capsys
    ):
        """An [explore] spec needs no service code of its own: the
        daemon answers with the payload `repro explore --json` prints
        for the same values (the spec's corpus initialised, pinned)."""
        from repro.api.spec import CorpusSpec, ExploreSpec

        spec = small_spec(
            corpus=CorpusSpec(dir=str(tmp_path / "served")),
            explore=ExploreSpec(budget=32, schedule_dir=str(tmp_path / "s")),
        )
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec.to_json() + "\n")
        out = io.StringIO()
        assert submit(server.url, str(spec_file), out=out) == 0
        assert main([
            "explore", "network", "--budget", "32",
            "--corpus", str(tmp_path / "local"),
            "--schedule-dir", str(tmp_path / "s"), "--json",
        ]) == 0
        assert out.getvalue() == capsys.readouterr().out
        assert json.loads(out.getvalue())["executions"] == 32
        assert (tmp_path / "served" / "manifest.json").exists()

    def test_submit_follow_streams_progress_to_stderr(
        self, server, tmp_path
    ):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(small_spec(6).to_json() + "\n")
        out, err = io.StringIO(), io.StringIO()
        assert submit(
            server.url, str(spec_file), follow=True, out=out, err=err
        ) == 0
        progress = err.getvalue()
        assert "submitted" in progress
        assert "[header]" in progress
        assert "run-finished" in progress
        assert json.loads(out.getvalue())["kind"] == "session"

    def test_submit_surfaces_structured_spec_errors(self, server, tmp_path):
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(
            json.dumps({"workload": {"name": "nope"}}) + "\n"
        )
        with pytest.raises(SystemExit, match="invalid-spec"):
            submit(server.url, str(spec_file), out=io.StringIO())

    def test_submit_reports_unreachable_daemon(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(small_spec().to_json() + "\n")
        with pytest.raises(SystemExit, match="cannot reach"):
            submit(
                "http://127.0.0.1:1",  # nothing listens on port 1
                str(spec_file),
                out=io.StringIO(),
            )

    def test_submit_rejects_unreadable_spec_before_posting(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            submit(
                "http://127.0.0.1:1",
                str(tmp_path / "missing.toml"),
                out=io.StringIO(),
            )


# ---------------------------------------------------------------------------
# the registry below the HTTP layer
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_parse_spec_rejects_garbage(self, server):
        with pytest.raises(SpecError):
            server.registry.parse_spec(b"\xff\xfe not utf8 json")

    def test_tail_follow_shares_the_live_cursor(self, tmp_path):
        # The satellite contract: `obs tail --follow` polls the
        # flushed-per-line JSONL of a run that is still writing — and
        # even of a file that does not exist yet.
        from conftest import wait_until

        log_path = tmp_path / "live.jsonl"
        rows = [
            {"schema": 1, "run_id": "live", "created": 0.0},
            {"seq": 1, "t": 0.001, "wall": 0.0, "kind": "suite-frozen",
             "data": {"n_predicates": 1, "source": "discovered"}},
            {"seq": 2, "t": 0.002, "wall": 0.0, "kind": "run-finished",
             "data": {"report": {}}},
        ]
        out = io.StringIO()
        started = threading.Event()

        def write_gated() -> None:
            # No fixed pacing: create the file only once the main
            # thread is entering tail_run_log (so the not-yet-existing
            # branch is in play), then gate each further line on the
            # follower having echoed the previous one — the tail
            # provably observes a growing file, bounded by deadlines
            # instead of sleep guesses.
            started.wait(10)
            markers = ("[header]", "suite-frozen", None)
            with log_path.open("w") as handle:
                for row, marker in zip(rows, markers):
                    handle.write(json.dumps(row) + "\n")
                    handle.flush()
                    if marker is not None:
                        wait_until(
                            lambda m=marker: m in out.getvalue(),
                            message=f"tail to echo {marker}",
                        )

        writer = threading.Thread(target=write_gated)
        writer.start()
        started.set()
        status = tail_run_log(
            log_path, follow=True, interval=0.005, stream=out, timeout=10
        )
        writer.join()
        assert status == 0
        text = out.getvalue()
        assert "[header]" in text
        assert "run-finished" in text
