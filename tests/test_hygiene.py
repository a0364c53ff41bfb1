"""Static hygiene of the library sources and of the tests: no module
imports a name it never uses.  The package root is exempt, since it
imports names only to re-export them; instead, what it imports is
exactly what ``kmw.__all__`` lists, and each of those names is used by
a README example or by the library itself.  No library module reads
digits with the str predicates, and no module or class binds one
function under two public names.  Also the kernel signatures that the
benchmark's tracer reads by position."""

from __future__ import annotations

import ast
import importlib
import inspect
import re
import types
from pathlib import Path

import pytest

import kmw
from kmw import _snf_py
from kmw.scissors import ScissorsContext

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "kmw"
TRACING = TESTS.parent / "perfbench" / "tracing.py"
README = TESTS.parent / "README.md"

# kmw.suites never calls derived_groups, but the benchmark's tracer test
# (perfbench/tests, test_install_rebinds_reexported_bindings) asserts that
# the binding exists there and is rebound along with the others.
ALLOWED_UNUSED = {("suites", "derived_groups")}


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


def test_package_root_exports_what_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert set(_imported_names(tree)) == set(kmw.__all__)
    assert len(set(kmw.__all__)) == len(kmw.__all__)
    for name in kmw.__all__:
        assert getattr(kmw, name, None) is not None, name


def _readme_example_names() -> set[str]:
    """Every identifier in the README's ``pycon`` examples."""
    blocks = re.findall(r"```pycon\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return set(re.findall(r"[A-Za-z_]\w*", "".join(blocks)))


def _library_references() -> set[str]:
    """Every name a library module outside the package root reads, as a
    name or an attribute, except inside a definition of that name."""
    found: set[str] = set()

    def visit(node, defining: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name not in defining:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def test_every_export_is_reached():
    # an exported name that neither an example nor the library uses is
    # reached by tests alone (ROADMAP aim 2: one code path per fact)
    reached = _readme_example_names() | _library_references()
    assert sorted(set(kmw.__all__) - reached) == []


def test_library_reads_ascii_digits_only():
    # integers in text are ASCII digits (kmw.fields._DIGITS); isdigit,
    # isdecimal and isnumeric also take the digits of other scripts
    calls = sorted(
        f"kmw.{path.stem} line {node.lineno}: {node.attr}"
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in {"isdigit", "isdecimal", "isnumeric"}
    )
    assert not calls, calls


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _aliases(scope, module: str) -> list[list[str]]:
    """The public names of each function defined in ``module`` and bound
    under more than one of them in ``scope``, a module or a class.  A
    reflected operator (``__radd__ = __add__``) is not a second name."""
    names: dict = {}
    for name, obj in vars(scope).items():
        func = getattr(obj, "__func__", obj)  # staticmethod, classmethod
        if isinstance(func, types.FunctionType) and func.__module__ == module and _public(name):
            names.setdefault(func, []).append(name)
    found = []
    for group in names.values():
        group = [n for n in group if not (n.startswith("__r") and f"__{n[3:]}" in group)]
        if len(group) > 1:
            found.append(group)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_one_public_name_per_function(path):
    # a second spelling of an operation is a second path for tests and
    # docs to cover (ROADMAP aim 2); private helpers may alias freely
    name = "kmw" if path.stem == "__init__" else f"kmw.{path.stem}"
    module = importlib.import_module(name)
    scopes = [module] + [
        obj for obj in vars(module).values() if isinstance(obj, type) and obj.__module__ == name
    ]
    found = [
        f"{getattr(scope, '__qualname__', name)}: {' = '.join(group)}"
        for scope in scopes
        for group in _aliases(scope, name)
    ]
    assert not found, found


def _traced_kernels():
    """``KERNELS`` of the benchmark's tracer, read from its source
    without importing it: (layer, kernel name, {flag: position})."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "KERNELS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no KERNELS")


TRACED_KERNELS = _traced_kernels()


@pytest.mark.parametrize("layer, name, flags", TRACED_KERNELS, ids=[k[0] for k in TRACED_KERNELS])
def test_tracer_reads_kernel_arguments_by_position(layer, name, flags):
    # the tracer takes the shape from positions 1 and 2 and each flag
    # from its listed position
    params = list(inspect.signature(getattr(_snf_py, name)).parameters)
    assert params[1:3] == ["rows", "cols"], layer
    for flag, position in flags.items():
        assert params[position] == flag, layer


def test_library_passes_kernel_flags_by_position(monkeypatch):
    # a flag passed by keyword or left to its default would be censused
    # as the default (True), so carried columns must say want_u=False
    flags = {name: flags for _, name, flags in TRACED_KERNELS}
    seen = set()
    for name, positions in flags.items():
        kernel = getattr(_snf_py, name)

        def record(*args, _kernel=kernel, _name=name, _positions=positions, **kwargs):
            assert not kwargs, f"{_name} called with keywords {sorted(kwargs)}"
            assert len(args) > max(_positions.values()), f"{_name} called without every flag"
            seen.add((_name, tuple(bool(args[i]) for i in _positions.values())))
            return _kernel(*args)

        monkeypatch.setattr(_snf_py, name, record)
    ScissorsContext(5).derived()
    # presentations, kernels and cokernels all run transform-free
    assert seen == {("hnf_kernel", (False,)), ("snf_kernel", (False, False))}
