"""Batch command-line surface for the library.

The ``kmw`` executable exposes the presentation computations, the seeded
verification suites, and the homology report descriptors with
deterministic, machine-readable output: identical arguments and seed
produce identical bytes.  Exit status is 0 on success, 1 when a
verification fails (the smallest witness is reported on stderr), and 2
on invalid input.

Sweeps (``--q-range A:B``) fan out one worker per q when the
``KMW_THREADS`` environment variable allows more than one process (at
most one per CPU; a value that is not a positive integer is invalid
input); output order always follows input order.

A call pays only for its own work: the argument parser is built on the
first ``main`` call and kept for the life of the process, and the process
pool machinery (``concurrent.futures``, which pulls in
``multiprocessing``) is imported only when ``KMW_THREADS`` allows more
than one worker.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .descriptor import _group_text
from .errors import BadBound, IntegrityFailure, KmwError, UnsupportedField
from .exact_linear import IntMatrix, odd_part_int, snf
from .fields import _DECIMAL, RatFunField, _prime_power, field_make
from .reports import h2_laurent_report, h3_laurent_report, stabilization_report
from .scissors import derived_groups, pb_group, pb_half, scissors_context
from .suites import (
    run_hilbert,
    run_mw_relations,
    run_residues,
    run_sv,
    run_witt,
    smallest_witness,
)


def _decimal(text: str) -> int:
    """The one integer grammar, ``kmw.fields._DECIMAL``: an optional
    ``-`` and ASCII digits (``int()`` would also take ``" 7"``, ``"+7"``,
    ``"1_000"`` and non-ASCII digits)."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"expected an optional - and ASCII digits, got {text!r}")
    return int(text)


# argparse names a type by its __name__ in "invalid <name> value: ..."
_decimal.__name__ = "integer"


def parse_field_spec(spec: str):
    """Field from a CLI spec string, ``Q``, ``F<q>``, or ``F<q>t``, read by
    ``field_make``; no command computes over ``Qt``."""
    try:
        if spec == "Qt":
            raise ValueError(f"unknown field spec {spec!r}")
        return field_make(spec)
    except ValueError as exc:
        raise UnsupportedField(f"{exc}: expected Q, F<q>, or F<q>t") from None


# -- q selection --------------------------------------------------------


def _is_odd_prime_power(n: int) -> bool:
    """Whether ``n`` is p^e with p an odd prime and e >= 1, by the
    library's one prime-power rule, ``kmw.fields._prime_power``."""
    try:
        p, _ = _prime_power(n)
    except ValueError:
        return False
    return p != 2


def _parse_range(text: str) -> Tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise BadBound(f"range must look like A:B, got {text!r}")
    try:
        lo, hi = map(_decimal, parts)
    except ValueError:
        raise BadBound(f"range endpoints must be integers, got {text!r}") from None
    if lo > hi:
        raise BadBound(f"empty range {text!r}")
    return lo, hi


def _expand_qs(ns: argparse.Namespace, minimum: int) -> List[int]:
    if ns.q is not None:
        if ns.q < minimum or not _is_odd_prime_power(ns.q):
            raise BadBound(
                f"q must be an odd prime power >= {minimum}, got {ns.q}"
            )
        return [ns.q]
    lo, hi = _parse_range(ns.q_range)
    qs = [n for n in range(max(lo, minimum), hi + 1) if _is_odd_prime_power(n)]
    if not qs:
        raise BadBound(f"no admissible q in range {ns.q_range!r}")
    return qs


def _thread_cap() -> int:
    """Worker processes allowed by ``KMW_THREADS``: 1 when it is unset or
    empty, otherwise its value capped at the CPU count."""
    raw = os.environ.get("KMW_THREADS", "")
    if not raw:
        return 1
    try:
        n = _decimal(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise BadBound(f"KMW_THREADS must be a positive integer, got {raw!r}")
    return min(n, os.cpu_count() or 1)


def _ordered_map(fn: Callable, items: Sequence) -> list:
    items = list(items)
    workers = min(_thread_cap(), len(items))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


# -- output helpers -----------------------------------------------------


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _join(values: Iterable) -> str:
    return ";".join(str(v) for v in values)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render(ns: argparse.Namespace, payloads: Sequence[dict],
            header: Sequence[str], rows: Callable[[dict], Iterable[Sequence]],
            text: Callable[[dict], Iterable[str]], keep_q: bool = True) -> List[str]:
    """Output lines for ``payloads`` in the format ``ns`` selects: one
    compact JSON object per payload (without its ``"q"`` unless
    ``keep_q``), CSV of ``header`` then every payload's ``rows``, or every
    payload's ``text`` lines."""
    if ns.json:
        return [
            _dump(p if keep_q else {k: v for k, v in p.items() if k != "q"})
            for p in payloads
        ]
    if ns.csv:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for p in payloads:
            for row in rows(p):
                writer.writerow([_cell(v) for v in row])
        return buf.getvalue().splitlines()
    return [line for p in payloads for line in text(p)]


def _write_lines(lines: List[str], ns: argparse.Namespace) -> None:
    text = "".join(line + "\n" for line in lines)
    out = getattr(ns, "out", None)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _diagnostic(ns: argparse.Namespace, kind: str, detail: str) -> None:
    if getattr(ns, "json", False):
        sys.stderr.write(_dump({"error": kind, "detail": detail}) + "\n")
    else:
        sys.stderr.write(f"kmw: error: {kind}: {detail}\n")


# -- workers (top level so sweeps can cross process boundaries) ---------


def _group_payload(group) -> dict:
    return {
        "free_rank": group.free_rank,
        "invariant_factors": list(group.invariant_factors),
    }


def _pb_payload(q: int) -> dict:
    group = pb_group(q)
    half = pb_half(q)
    expected = odd_part_int(q + 1)
    want = [expected] if expected > 1 else []
    return {
        "q": q,
        "group": {"invariant_factors": list(group.invariant_factors)},
        "half": {"invariant_factors": list(half.invariant_factors)},
        "expected": expected,
        "pass": list(half.invariant_factors) == want,
    }


def _rp_payload(q: int) -> dict:
    ctx = scissors_context(q)
    group = ctx.rp_group()
    return {
        "q": q,
        "generators": group.ngens,
        "relations": ctx._rp_row_count(),
        "group": _group_payload(group),
    }


def _derived_payload(q: int) -> dict:
    payload: dict = {"q": q}
    for name, value in derived_groups(q).items():
        payload[name] = value if isinstance(value, int) else _group_payload(value)
    return payload


def _verify_worker(job: Tuple[str, dict, int, int]) -> dict:
    """Payload of one suite run; the scope is ``{"field": spec}``,
    ``{"q": q}`` or ``{}``."""
    suite, scope, samples, seed = job
    # the runners are read when the job runs, so that a rebinding of one
    # of these names (a test's stand-in, the benchmark's tracer) runs
    runner = {
        "mw-relations": run_mw_relations,
        "delta-t": run_residues,
        "sv": run_sv,
        "witt": run_witt,
        "hilbert-product": run_hilbert,
    }[suite]
    if "field" in scope:
        field = parse_field_spec(scope["field"])
        if suite == "delta-t" and isinstance(field, RatFunField):
            raise UnsupportedField("delta-t runs over a base field: pass Q or F<q>")
        args = [field]
    else:
        args = list(scope.values())
    checked, failures = runner(*args, samples, seed)
    return {
        "suite": suite,
        **scope,
        "samples": samples,
        "seed": seed,
        "checked": checked,
        "failures": len(failures),
        "pass": not failures,
        "witness": smallest_witness(failures) if failures else None,
    }


# -- subcommand handlers ------------------------------------------------


def _by_q(ns: argparse.Namespace, payload_fn: Callable[[int], dict], header,
          rows, text) -> Tuple[List[dict], List[str]]:
    """Payloads of ``payload_fn`` at each selected q, and their output
    lines.  The JSON of a single ``--q`` omits ``"q"``, which the
    arguments already name."""
    payloads = _ordered_map(payload_fn, _expand_qs(ns, 5))
    return payloads, _render(ns, payloads, header, rows, text, keep_q=ns.q is None)


def _cmd_pb(ns: argparse.Namespace) -> Tuple[int, List[str], Optional[str]]:
    payloads, lines = _by_q(
        ns, _pb_payload, ["q", "group", "half", "expected", "pass"],
        lambda p: [[p["q"], _join(p["group"]["invariant_factors"]),
                    _join(p["half"]["invariant_factors"]), p["expected"], p["pass"]]],
        lambda p: [
            f"q={p['q']}: P = {_group_text(0, p['group']['invariant_factors'])}, "
            f"odd part = {_group_text(0, p['half']['invariant_factors'])}, "
            f"expected {_group_text(0, [p['expected']])} -> "
            f"{'pass' if p['pass'] else 'FAIL'}"
        ],
    )
    worst = next((p for p in payloads if not p["pass"]), None)
    if worst is not None:
        note = (
            f"q={worst['q']}: odd part {worst['half']['invariant_factors']} "
            f"!= expected Z/{worst['expected']}"
        )
        return 1, lines, note
    return 0, lines, None


def _cmd_rp(ns: argparse.Namespace) -> Tuple[int, List[str], Optional[str]]:
    _, lines = _by_q(
        ns, _rp_payload,
        ["q", "generators", "relations", "free_rank", "invariant_factors"],
        lambda p: [[p["q"], p["generators"], p["relations"],
                    p["group"]["free_rank"], _join(p["group"]["invariant_factors"])]],
        lambda p: [
            f"q={p['q']}: {p['generators']} generators, {p['relations']} relations, "
            f"group {_group_text(p['group']['free_rank'], p['group']['invariant_factors'])}"
        ],
    )
    return 0, lines, None


def _cmd_derived(ns: argparse.Namespace) -> Tuple[int, List[str], Optional[str]]:
    def entries(p: dict):
        return ((name, value) for name, value in p.items() if name != "q")

    def text(p: dict) -> List[str]:
        return [f"q={p['q']}:"] + [
            f"  {name}: {value}" if isinstance(value, int) else
            f"  {name}: {_group_text(value['free_rank'], value['invariant_factors'])}"
            for name, value in entries(p)
        ]

    _, lines = _by_q(
        ns, _derived_payload, ["q", "name", "free_rank", "invariant_factors"],
        lambda p: [
            [p["q"], name, None, value] if isinstance(value, int) else
            [p["q"], name, value["free_rank"], _join(value["invariant_factors"])]
            for name, value in entries(p)
        ],
        text,
    )
    return 0, lines, None


def _verify_head(p: dict) -> str:
    """The suite and its scope, e.g. ``sv q=7``."""
    for key in ("field", "q"):
        if key in p:
            return f"{p['suite']} {key}={p[key]}"
    return p["suite"]


def _cmd_verify(ns: argparse.Namespace) -> Tuple[int, List[str], Optional[str]]:
    if ns.samples < 0:
        raise BadBound(f"--samples must be >= 0, got {ns.samples}")
    if ns.suite == "hilbert-product":
        scopes = [{}]
    elif ns.suite in ("mw-relations", "delta-t"):
        scopes = [{"field": ns.field}]
    else:
        scopes = [{"q": q} for q in _expand_qs(ns, 5 if ns.suite == "sv" else 3)]
    payloads = _ordered_map(
        _verify_worker, [(ns.suite, s, ns.samples, ns.seed) for s in scopes]
    )
    lines = _render(
        ns, payloads,
        ["suite", "scope", "samples", "seed", "checked", "failures", "pass", "witness"],
        lambda p: [[p["suite"], p.get("field", p.get("q", "")), p["samples"],
                    p["seed"], p["checked"], p["failures"], p["pass"], p["witness"]]],
        lambda p: [
            f"{_verify_head(p)}: checked {p['checked']} instances, "
            + ("ok" if p["pass"] else
               f"{p['failures']} failures; smallest witness: {p['witness']}")
        ],
    )
    worst = next((p for p in payloads if not p["pass"]), None)
    if worst is not None:
        return 1, lines, f"{_verify_head(worst)}: {worst['witness']}"
    return 0, lines, None


def _cmd_report(ns: argparse.Namespace) -> Tuple[int, List[str], Optional[str]]:
    field = parse_field_spec(ns.field)
    if ns.topic == "h2-laurent":
        desc = h2_laurent_report(field, ns.prime_bound)
    elif ns.topic == "h3-laurent":
        desc = h3_laurent_report(field, ns.prime_bound)
    else:
        desc = stabilization_report(field, ns.degree)

    def text(_: dict):
        yield desc.describe()
        if desc.trunc_bound is not None:
            yield f"  truncation bound: {desc.trunc_bound}"
        for prov in desc.provenance:
            yield f"  computed by: {prov.op} {_dump(prov.args)}"
        for sym in desc.symbolic_factors:
            yield f"  cited: {sym.name} ({sym.cite})"

    lines = _render(
        ns, [desc.to_json()],
        ["label", "free_rank", "cyclic_factors", "symbolic", "bound"],
        lambda d: [[d["label"], d["free_rank"], _join(d["cyclic_factors"]),
                    _join(s["name"] for s in d["symbolic"]), d["bound"]]],
        text,
    )
    return 0, lines, None


def _matrix_entry(value) -> int:
    """A JSON integer, or a decimal string: an optional ``-`` and ASCII digits."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return int(value)
    raise ValueError(
        f"matrix entries must be integers or decimal strings, got {value!r}"
    )


def _matrix_from_json(data) -> Optional[IntMatrix]:
    if isinstance(data, dict):
        try:
            rows, cols, entries = data["rows"], data["cols"], data["entries"]
        except KeyError as exc:
            raise ValueError(f"bad matrix object: {exc}") from None
        if not isinstance(entries, list):
            raise ValueError("bad matrix object: entries must be a JSON array")
        return IntMatrix(
            _matrix_entry(rows), _matrix_entry(cols), [_matrix_entry(e) for e in entries]
        )
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError(
            "expected a JSON array of rows or a {rows, cols, entries} object"
        )
    if not data:
        return None
    widths = {len(row) for row in data}
    if len(widths) != 1:
        raise ValueError("all rows must have the same length")
    return IntMatrix.from_rows(
        [[_matrix_entry(e) for e in row] for row in data]
    )


def _cmd_snf(ns: argparse.Namespace) -> Tuple[int, List[str], Optional[str]]:
    if ns.matrix == "-":
        text = sys.stdin.read()
    else:
        with open(ns.matrix, "r", encoding="utf-8") as handle:
            text = handle.read()
    matrix = _matrix_from_json(json.loads(text))
    if matrix is None:
        payload = {"rows": 0, "cols": 0, "rank": 0, "diagonal": []}
    else:
        diag, _, _ = snf(matrix, want_u=False, want_v=False)
        chain = list(diag.diagonal())
        payload = {
            "rows": matrix.rows,
            "cols": matrix.cols,
            "rank": sum(1 for x in chain if x),
            "diagonal": [str(x) for x in chain],
        }
    lines = _render(
        ns, [payload], ["rows", "cols", "rank", "diagonal"],
        lambda p: [[p["rows"], p["cols"], p["rank"], _join(p["diagonal"])]],
        lambda p: [
            f"{p['rows']}x{p['cols']} matrix, rank {p['rank']}, "
            f"diagonal: {' '.join(p['diagonal']) or '(empty)'}"
        ],
    )
    return 0, lines, None


# -- parser -------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: parsing leaves
    it unchanged, and building it costs more than a parse."""
    parser = argparse.ArgumentParser(
        prog="kmw",
        description=(
            "Exact scissors-congruence presentations, Milnor-Witt symbol "
            "verification, and SL_2 homology reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    fmt = argparse.ArgumentParser(add_help=False)
    group = fmt.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true",
                       help="emit compact JSON, one object per line")
    group.add_argument("--csv", action="store_true",
                       help="emit CSV with a header row")
    fmt.add_argument("--out", metavar="FILE",
                     help="write output to FILE instead of stdout")

    qsel = argparse.ArgumentParser(add_help=False)
    qgroup = qsel.add_mutually_exclusive_group(required=True)
    qgroup.add_argument("--q", type=_decimal, help="one odd prime power")
    qgroup.add_argument("--q-range", dest="q_range", metavar="A:B",
                        help="sweep every odd prime power with A <= q <= B")

    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--samples", type=_decimal, default=100,
                          help="number of seeded random instances (default 100)")
    sampling.add_argument("--seed", type=_decimal, default=0,
                          help="RNG seed (default 0)")

    sub.add_parser("pb", parents=[qsel, fmt],
                   help="scissors group P(F_q), its odd part, and the "
                        "expected cyclic value")
    sub.add_parser("rp", parents=[qsel, fmt],
                   help="refined presentation RP(F_q): size and group")
    sub.add_parser("derived", parents=[qsel, fmt],
                   help="derived subgroups of RP(F_q): B, RB, RP_1, kernels")

    verify = sub.add_parser("verify", help="seeded verification suites")
    vsub = verify.add_subparsers(dest="suite", required=True, metavar="SUITE")
    v_mw = vsub.add_parser("mw-relations", parents=[sampling, fmt],
                           help="Milnor-Witt presentation relations")
    v_mw.add_argument("--field", required=True, metavar="SPEC",
                      help="Q, F<q>, or F<q>t")
    v_dt = vsub.add_parser("delta-t", parents=[sampling, fmt],
                           help="residue identities at t over a base field")
    v_dt.add_argument("--field", required=True, metavar="SPEC",
                      help="base field: Q or F<q>")
    vsub.add_parser("sv", parents=[qsel, sampling, fmt],
                    help="specialization kills admissible five-term elements")
    vsub.add_parser("witt", parents=[qsel, sampling, fmt],
                    help="Witt group structure and I^3 vanishing")
    vsub.add_parser("hilbert-product", parents=[sampling, fmt],
                    help="Hilbert symbol product formula over Q")

    report = sub.add_parser("report", help="homology decomposition descriptors")
    rsub = report.add_subparsers(dest="topic", required=True, metavar="TOPIC")
    r_h2 = rsub.add_parser("h2-laurent", parents=[fmt],
                           help="H_2 of SL_2 of the Laurent polynomial ring")
    r_h2.add_argument("--field", required=True, metavar="SPEC",
                      help="Q or F<q>")
    r_h2.add_argument("--prime-bound", dest="prime_bound", type=_decimal,
                      metavar="B", help="truncate places at primes <= B "
                      "(required over Q)")
    r_h3 = rsub.add_parser("h3-laurent", parents=[fmt],
                           help="H_3 of SL_2 of the Laurent polynomial ring")
    r_h3.add_argument("--field", required=True, metavar="SPEC",
                      help="Q or F<q>")
    r_h3.add_argument("--prime-bound", dest="prime_bound", type=_decimal,
                      metavar="B", help="truncate places at primes <= B "
                      "(required over Q)")
    r_st = rsub.add_parser("stabilization", parents=[fmt],
                           help="kernel of the stabilization map in degree 2 or 3")
    r_st.add_argument("--field", required=True, metavar="SPEC",
                      help="Q or F<q>")
    r_st.add_argument("--degree", type=_decimal, required=True, choices=(2, 3),
                      help="homology degree")

    p_snf = sub.add_parser("snf", parents=[fmt],
                           help="Smith normal form of an integer matrix")
    p_snf.add_argument("matrix", nargs="?", default="-",
                       help="JSON file with an array of rows or a "
                            "{rows, cols, entries} object (default: stdin)")
    return parser


_HANDLERS = {
    "pb": _cmd_pb,
    "rp": _cmd_rp,
    "derived": _cmd_derived,
    "verify": _cmd_verify,
    "report": _cmd_report,
    "snf": _cmd_snf,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        code, lines, note = _HANDLERS[ns.command](ns)
    except IntegrityFailure as exc:
        _diagnostic(ns, type(exc).__name__, str(exc))
        return 1
    except KmwError as exc:
        _diagnostic(ns, type(exc).__name__, str(exc))
        return 2
    except (ValueError, OSError) as exc:
        _diagnostic(ns, type(exc).__name__, str(exc))
        return 2
    _write_lines(lines, ns)
    if note is not None:
        sys.stderr.write(f"kmw: verification failed: {note}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
