"""Census of the library code that the program's workloads run.

Runs every ``kmw`` subcommand in every output format (text, ``--json``,
``--csv`` and ``--out``) at small sizes, a few invalid inputs for the
diagnostics, and the README's ``pycon`` examples, all in this process
under a call trace.  Then prints each function and method defined in
``src/kmw`` whose body never ran, as ``module.py:line qualname``.  A
name on that list is reached by tests alone, or by nothing: either an
example needs it or it can go (ROADMAP aim 2).

    python tests/census.py

Standard library only.  Pytest does not collect it, since its name does
not start with ``test_``.
"""

from __future__ import annotations

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


def _library_functions() -> dict:
    """Every named function in ``src/kmw``, keyed as ``_code_key`` keys
    its code, mapped to (module file, first line, qualified name);
    lambdas and comprehensions are left out."""
    out = {}
    for path in sorted(LIBRARY.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if not code.co_name.startswith("<"):
                name = getattr(code, "co_qualname", code.co_name)
                out[_code_key(code)] = (path.name, code.co_firstlineno, name)
    return out


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

    def trace(frame, event, arg):
        ran.add(frame.f_code)  # the first event of every frame is its call

    with tempfile.TemporaryDirectory() as scratch:
        sys.settrace(trace)
        try:
            _workloads(Path(scratch))
        finally:
            sys.settrace(None)

    seen = {_code_key(code) for code in ran}
    never = sorted(where for key, where in functions.items() if key not in seen)
    print(f"{len(never)} of {len(functions)} functions in src/kmw never ran:")
    for module, line, name in never:
        print(f"  {module}:{line} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
