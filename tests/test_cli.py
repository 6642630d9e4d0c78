"""Command-line interface tests (direct main() invocation)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["debug", "nonexistent"])

    def test_defaults(self):
        args = build_parser().parse_args(["debug", "network"])
        assert args.approach == "AID"
        assert args.runs == 50


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("npgsql", "kafka", "cosmosdb"):
            assert name in out

    def test_debug_network(self, capsys):
        assert main(["debug", "network", "--runs", "30"]) == 0
        out = capsys.readouterr().out
        assert "root cause" in out
        assert "DuplicateKey" in out

    def test_debug_with_dot(self, capsys):
        assert main(["debug", "network", "--runs", "30", "--dot"]) == 0
        assert "digraph acdag" in capsys.readouterr().out

    def test_example3(self, capsys):
        assert main(["example3"]) == 0
        out = capsys.readouterr().out
        assert "64" in out and "15" in out

    def test_figure6(self, capsys):
        assert main(["figure6", "--junctions", "2"]) == 0
        assert "CPD" in capsys.readouterr().out

    def test_figure8_small(self, capsys):
        assert main(["figure8", "--apps", "5"]) == 0
        out = capsys.readouterr().out
        assert "exact recovery everywhere: True" in out

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["figure8", "--apps", "0"], "--apps"),
            (["figure6", "--junctions", "0"], "--junctions"),
            (["figure6", "--branches", "0"], "--branches"),
            (["figure6", "--chain", "0"], "--chain"),
            (["figure6", "--causal", "100"], "--causal"),
            (["figure6", "--causal", "-1"], "--causal"),
            (["figure6", "--s1", "-1"], "--s1"),
            (["figure6", "--s2", "-1"], "--s2"),
        ],
        ids=[
            "apps-0", "junctions-0", "branches-0", "chain-0",
            "causal-100", "causal-neg", "s1-neg", "s2-neg",
        ],
    )
    def test_out_of_range_size_is_an_argparse_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("causal", ["0", "24"])
    def test_figure6_causal_bounds_are_inclusive(self, capsys, causal):
        # J*B*n = 2*4*3 = 24 with the default branches and chain.
        assert main(["figure6", "--junctions", "2", "--causal", causal]) == 0
        out = capsys.readouterr().out
        assert "CPD" in out and "inf" not in out

    def test_trace_to_stdout(self, capsys):
        assert main(["trace", "network", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["program"] == "network-controlplane"

    def test_trace_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main(["trace", "network", "--seed", "3", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["seed"] == 3


def test_cli_import_loads_no_networkx():
    """The CLI has no third-party runtime dependency: importing it in a
    fresh interpreter must not pull networkx in."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, repro.cli; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "repro.cli" in result.stdout
    assert "networkx" not in result.stdout
