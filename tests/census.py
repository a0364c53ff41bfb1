"""Census of the library code that the program's workloads run.

Runs every ``kmw`` subcommand in every output format (text, ``--json``,
``--csv`` and ``--out``) at small sizes, a few invalid inputs for the
diagnostics, and the README's ``pycon`` examples, all in this process
under a call and line trace.  Then prints each function and method
defined in ``src/kmw`` whose body never ran, as ``module.py:line
qualname``, and, for each function that did run, its lines that never
ran outside a ``raise`` statement.  A name on the first list is reached
by tests alone, or by nothing: either an example needs it or it can go
(ROADMAP aim 2).  A line on the second is a branch or an input format
that no workload takes: an error path, or a candidate for deletion.

    python tests/census.py

Standard library only.  Pytest does not collect it, since its name does
not start with ``test_``.
"""

from __future__ import annotations

import ast
import contextlib
import doctest
import io
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LIBRARY = SRC / "kmw"
README = ROOT / "README.md"

SNF_ROWS = "[[2,4,4],[-6,6,12],[10,4,16]]"
SNF_OBJECT = '{"rows": 2, "cols": 2, "entries": [2, 0, 0, "6"]}'

#: Each command once per output format; ``{snf}`` and ``{obj}`` name
#: matrix files.
COMMANDS = (
    "pb --q 5",
    "pb --q-range 5:9",
    "rp --q 5",
    "rp --q-range 5:7",
    "derived --q 5",
    "derived --q-range 5:7",
    "verify mw-relations --field Q --samples 30",
    "verify mw-relations --field F5 --samples 30",
    "verify mw-relations --field F9t --samples 30",
    "verify delta-t --field Q --samples 30",
    "verify delta-t --field F9 --samples 30",
    "verify sv --q 5 --samples 30",
    "verify witt --q-range 3:5 --samples 30",
    "verify hilbert-product --samples 30",
    "report h2-laurent --field Q --prime-bound 5",
    "report h2-laurent --field F5",
    "report h3-laurent --field Q --prime-bound 3",
    "report h3-laurent --field F5",
    "report stabilization --field Q --degree 2",
    "report stabilization --field Q --degree 3",
    "report stabilization --field F5 --degree 2",
    "report stabilization --field F5 --degree 3",
    "snf {snf}",
    "snf {obj}",
)
FORMATS = ("", "--json", "--csv")

#: Invalid input, in text and JSON diagnostics (exit 2).
INVALID = (
    "pb --q 6",
    "pb --q-range 9:5",
    "verify mw-relations --field G5",
    "verify delta-t --field F5t",
    "report h2-laurent --field Q",
    "snf {bad}",
)


def _code_key(code) -> tuple:
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def _nested(code) -> list:
    return [c for c in code.co_consts if hasattr(c, "co_code")]


def _anonymous(code) -> bool:
    # lambdas, comprehensions and generator expressions
    return code.co_name.startswith("<")


def _lines(code) -> set:
    """The executable lines of ``code`` and of the lambdas and
    comprehensions inside it, but not of the named functions inside it."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for inner in _nested(code):
        if _anonymous(inner):
            out |= _lines(inner)
    return out


def _raise_lines(tree: ast.Module) -> set:
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        for line in range(node.lineno, node.end_lineno + 1)
    }


def _library_functions() -> dict:
    """Every named function in ``src/kmw``, keyed as ``_code_key`` keys
    its code, mapped to (module file, first line, qualified name, lines
    outside a ``raise`` statement); lambdas and comprehensions count as
    lines of the function that holds them."""
    out = {}
    for path in sorted(LIBRARY.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        raising = _raise_lines(ast.parse(source))
        stack = [compile(source, str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(_nested(code))
            if not _anonymous(code):
                name = getattr(code, "co_qualname", code.co_name)
                lines = _lines(code) - raising
                out[_code_key(code)] = (path.name, code.co_firstlineno, name, lines)
    return out


def _spans(lines: list) -> str:
    """Sorted line numbers as ranges: ``3, 7-9``."""
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def _run_cli(main, argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)


def _workloads(scratch: Path) -> None:
    from kmw.cli import main

    files = {"snf": SNF_ROWS, "obj": SNF_OBJECT, "bad": "[[1.5]]"}
    paths = {}
    for name, text in files.items():
        paths[name] = scratch / f"{name}.json"
        paths[name].write_text(text, encoding="utf-8")
    for command in COMMANDS:
        argv = command.format(**paths).split()
        for fmt in FORMATS:
            _run_cli(main, argv + fmt.split())
    _run_cli(main, "pb --q 5 --out".split() + [str(scratch / "out.txt")])
    for command in INVALID:
        argv = command.format(**paths).split()
        for fmt in ("", "--json"):
            _run_cli(main, argv + fmt.split())

    blocks = re.findall(r"^```pycon\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    test = doctest.DocTestParser().get_doctest("".join(blocks), {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    with contextlib.redirect_stdout(io.StringIO()):
        runner.run(test)
    if runner.failures:
        raise SystemExit("a README example failed; run tests/test_readme.py")


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.environ.pop("KMW_THREADS", None)  # serial, so every call is traced here
    functions = _library_functions()
    ran = set()
    ran_lines = set()  # (file, line) of every line run in src/kmw
    files = {}  # co_filename -> its real path, or None outside src/kmw

    def trace_lines(frame, event, arg):
        if event == "line":
            ran_lines.add((files[frame.f_code.co_filename], frame.f_lineno))
        return trace_lines

    def trace(frame, event, arg):
        code = frame.f_code
        ran.add(code)  # the first event of every frame is its call
        if code.co_filename not in files:
            path = os.path.realpath(code.co_filename)
            files[code.co_filename] = path if Path(path).parent == LIBRARY else None
        if files[code.co_filename] is None:
            return None
        # a call runs the first line, for which no line event comes
        ran_lines.add((files[code.co_filename], frame.f_lineno))
        return trace_lines

    with tempfile.TemporaryDirectory() as scratch:
        sys.settrace(trace)
        try:
            _workloads(Path(scratch))
        finally:
            sys.settrace(None)

    seen = {_code_key(code) for code in ran}
    never = sorted(where[:3] for key, where in functions.items() if key not in seen)
    print(f"{len(never)} of {len(functions)} functions in src/kmw never ran:")
    for module, line, name in never:
        print(f"  {module}:{line} {name}")
    partial = []
    for key, (module, line, name, lines) in functions.items():
        missed = sorted(n for n in lines if (key[0], n) not in ran_lines)
        if key in seen and missed:
            partial.append((module, line, name, missed))
    total = sum(len(missed) for *_, missed in partial)
    print(f"{total} lines outside a raise statement never ran in {len(partial)} functions that ran:")
    for module, line, name, missed in sorted(partial):
        print(f"  {module}:{line} {name}: {_spans(missed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
