"""The import layer order: each module loads only its layer and those below.

The layer table lives in ``docs/architecture.md`` ("Layer map"); these
tests read it from there, so the documented order and the enforced one
cannot drift apart.  Two checks hold the code to it:

* a static walk: every module-level ``repro`` import targets the
  importing module's layer or a lower one, no import hides under
  ``TYPE_CHECKING``, and the imports that wait for a function to run
  are exactly :data:`DEFERRED`, each with its reason;
* fresh interpreters: importing a package loads no module above its
  layer.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
DOCS = SRC.parent / "docs" / "architecture.md"

#: (importing module, imported module) -> why the import waits for a
#: function to run instead of loading with the module
DEFERRED = {
    ("repro.api.registry", "repro.workloads"):
        "built-in catalogue, loaded on the table's first use "
        "(the case studies register themselves as they load)",
    ("repro.api.registry", "repro.core.extraction"):
        "built-in catalogue, loaded on the table's first use",
    ("repro.api.registry", "repro.core.precedence"):
        "built-in catalogue, loaded on the table's first use",
    ("repro.api.registry", "repro.explore.strategies"):
        "built-in catalogue, loaded on the table's first use",
    ("repro.api.registry", "repro.sim.schedule"):
        "built-in catalogue and the replay factory's schedule types",
    ("repro.api.runner", "repro.explore"):
        "only an explore spec runs the explorer",
    ("repro.cli", "repro.serve"):
        "only `repro serve` and `repro submit` run the service",
}


def _layer_table() -> dict[str, int]:
    """Module or package name -> layer, from the documented table."""
    text = DOCS.read_text()
    section = text[text.index("## Layer map"):]
    section = section[: section.index("\n## ", 1)]
    table: dict[str, int] = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) >= 2 and cells[0].isdigit():
            for name in re.findall(r"`([\w.]+)`", cells[1]):
                table[name] = int(cells[0])
    return table


LAYERS = _layer_table()


def layer_of(module: str) -> int:
    """The layer of the longest table entry that names ``module`` or a
    package holding it."""
    parts = module.split(".")
    for n in range(len(parts), 0, -1):
        name = ".".join(parts[:n])
        if name in LAYERS:
            return LAYERS[name]
    raise AssertionError(f"{module} is in no layer of {DOCS.name}")


def _is_module(name: str) -> bool:
    path = SRC.joinpath(*name.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def _source_modules():
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        yield ".".join(parts), is_package, ast.parse(path.read_text())


def _targets(module: str, is_package: bool, node) -> list[str]:
    """The ``repro`` modules one import statement loads."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        base = module if is_package else module.rpartition(".")[0]
        for _ in range(node.level - 1):
            base = base.rpartition(".")[0]
        if node.level:
            base = ".".join(filter(None, [base, node.module]))
        else:
            base = node.module
        # ``from pkg import sub`` loads the submodule ``pkg.sub``
        names = [
            f"{base}.{alias.name}" if _is_module(f"{base}.{alias.name}") else base
            for alias in node.names
        ]
    return [n for n in names if n == "repro" or n.startswith("repro.")]


def _imports():
    """(module, target, kind) per ``repro`` import; kind is "module",
    "function" or "type-checking"."""
    for module, is_package, tree in _source_modules():

        def walk(node, kind):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    for target in _targets(module, is_package, child):
                        yield module, target, kind
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from walk(child, "function")
                elif isinstance(child, ast.If) and "TYPE_CHECKING" in ast.unparse(
                    child.test
                ):
                    yield from walk(child, "type-checking")
                else:
                    yield from walk(child, kind)

        yield from walk(tree, "module")


IMPORTS = list(_imports())


def test_every_source_module_has_a_layer():
    for module, _, _ in _source_modules():
        layer_of(module)


def test_module_level_imports_point_down():
    upward = [
        f"{module} (layer {layer_of(module)}) imports "
        f"{target} (layer {layer_of(target)})"
        for module, target, kind in IMPORTS
        if kind == "module" and layer_of(target) > layer_of(module)
    ]
    assert upward == []


def test_no_import_hides_under_type_checking():
    assert [i for i in IMPORTS if i[2] == "type-checking"] == []


def test_function_level_imports_are_the_listed_deferrals():
    deferred = {(module, target) for module, target, kind in IMPORTS
                if kind == "function"}
    assert sorted(deferred) == sorted(DEFERRED)


def _loaded_after(statement: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after
    ``statement``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", f"import sys\n{statement}\nprint(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return [m for m in result.stdout.split() if m.split(".")[0] == "repro"]


@pytest.mark.parametrize(
    "package",
    [
        "repro.api.registry",
        "repro.sim",
        "repro.decode",
        "repro.core",
        "repro.exec",
        "repro.corpus",
        "repro.workloads",
        "repro.harness",
        "repro.explore",
        "repro.api.runner",
        "repro.obs",
        "repro.serve",
    ],
)
def test_a_package_loads_nothing_above_its_layer(package):
    """So ``import repro.sim`` loads only layers 0-1, and
    ``import repro.corpus`` no session, workload, explorer, API front
    door (``api.spec``, ``api.runner``), telemetry or service."""
    loaded = _loaded_after(f"import {package}")
    assert package in loaded
    above = [m for m in loaded if layer_of(m) > layer_of(package)]
    assert above == []


def test_cli_loads_neither_explorer_nor_service():
    loaded = _loaded_after("import repro.cli")
    assert "repro.cli" in loaded
    assert [m for m in loaded if m.startswith(("repro.explore", "repro.serve"))] == []


def test_parsing_and_corpus_stats_load_no_explorer(tmp_path):
    """Building the parser lists no strategy table, so a command that
    explores nothing loads no ``repro.explore``."""
    loaded = _loaded_after(
        "from repro.cli import main\n"
        f"main(['corpus', 'init', {str(tmp_path / 'c')!r}])\n"
        f"main(['corpus', 'stats', {str(tmp_path / 'c')!r}])"
    )
    assert "repro.cli" in loaded and "repro.corpus.store" in loaded
    assert [m for m in loaded if m.startswith("repro.explore")] == []


def test_registry_alone_finds_the_bundled_workloads():
    loaded = _loaded_after(
        "from repro.api.registry import workloads\n"
        "assert workloads.build('npgsql').program.name"
    )
    assert "repro.workloads.npgsql" in loaded
