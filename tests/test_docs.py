"""Documentation stays truthful: every ``repro`` invocation in the
docs' shell blocks must name real subcommands and live flags."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from check_docs import (  # noqa: E402
    check_file,
    check_invocation,
    extract_invocation,
    iter_shell_lines,
)
from repro.cli import build_parser  # noqa: E402


@pytest.fixture(scope="module")
def parser():
    return build_parser()


DOC_FILES = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]


def test_docs_tree_exists():
    names = {p.name for p in DOC_FILES}
    assert "architecture.md" in names
    assert "corpus.md" in names
    assert "perf.md" in names
    assert "README.md" in names


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_doc_cli_invocations_parse(path, parser):
    assert check_file(path, parser) == []


def test_docs_actually_exercise_the_cli(parser):
    """The docs must contain real invocations (the checker is not
    silently matching nothing)."""
    total = 0
    for path in DOC_FILES:
        for _, line in iter_shell_lines(path.read_text()):
            if extract_invocation(line) is not None:
                total += 1
    assert total >= 10


class TestChecker:
    def test_flags_are_validated(self, parser):
        assert check_invocation(["debug", "kafka", "--cache", "c.json"], parser) == []
        errors = check_invocation(["corpus", "analyze", "d", "--no-such"], parser)
        assert errors and "--no-such" in errors[0]
        errors = check_invocation(["corpus", "analyze", "d", "--jobs", "8"], parser)
        assert errors and "--jobs" in errors[0]
        errors = check_invocation(["debug", "kafka", "--jobs", "8"], parser)
        assert errors and "--jobs" in errors[0]

    def test_subcommands_are_validated(self, parser):
        assert check_invocation(["corpus", "shard-stats", "d"], parser) == []
        errors = check_invocation(["corpus", "defragment", "d"], parser)
        assert errors and "defragment" in errors[0]
        errors = check_invocation(["debgu", "kafka"], parser)
        assert errors and "debgu" in errors[0]

    def test_invocation_extraction(self):
        assert extract_invocation(
            "PYTHONPATH=src python -m repro debug kafka --cache c.json"
        ) == ["debug", "kafka", "--cache", "c.json"]
        assert extract_invocation("repro list") == ["list"]
        assert extract_invocation("# a comment about repro list") is None
        assert extract_invocation("pip install -e .") is None

    def test_shell_blocks_only(self):
        text = "\n".join(
            [
                "```python",
                "import repro  # not a CLI line",
                "```",
                "```sh",
                "repro list",
                "```",
            ]
        )
        lines = [line for _, line in iter_shell_lines(text)]
        assert lines == ["repro list"]
