"""Static hygiene of the library sources and of the tests: no module
imports a name it never uses.  The package root is exempt, since it
imports names only to re-export them."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "kmw"

# kmw.suites never calls derived_groups, but the benchmark's tracer test
# (perfbench/tests, test_install_rebinds_reexported_bindings) asserts that
# the binding exists there and is rebound along with the others.
# odd_part_int lives in kmw.exact_linear beside odd_part; kmw.scissors
# re-exports it for the CLI, the reports and the tests.
ALLOWED_UNUSED = {("suites", "derived_groups"), ("scissors", "odd_part_int")}


def _modules():
    library = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    return library + sorted(TESTS.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import statement, with its line."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _module_id(path: Path) -> str:
    return path.stem if path.parent == SRC else f"tests.{path.stem}"


@pytest.mark.parametrize("path", _modules(), ids=_module_id)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used and (path.stem, name) not in ALLOWED_UNUSED
    )
    name = f"kmw.{path.stem}" if path.parent == SRC else _module_id(path)
    assert not unused, f"{name} imports unused names: {', '.join(unused)}"
