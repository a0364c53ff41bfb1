"""The benchmark's workloads: their items, inputs and correctness oracles.

An item is the unit whose time is measured: one q, one suite call, one
CLI call or one matrix.  ``run`` does the library work and is timed;
``render`` turns its result into plain JSON data (untimed); ``check``
compares that data with an oracle that does not depend on the seed and
returns None when it holds, else the reason it does not.

Items call kmw through module attributes at call time, so a traced pass
sees every call through the tracer's wrappers.

Why these workloads (see README.md for the metrics each should move):

- ``scissors-sweep``: the paper's sweep.  Normal-form kernels and
  presentation calculus dominate; the q-sets are fixed by the paper, so
  the seed changes nothing here.
- ``symbol-suites``: field arithmetic, Witt rings and Milnor-Witt symbols
  with no normal forms at all; the control for any ``exact_linear``
  change.
- ``cli-offpath``: the CLI on inputs unlike the sweep: dense random
  matrices with growing entries (the CLI asks for both transforms), a
  field above the 4096-element memo threshold, and report formatting.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from typing import Callable, NamedTuple, Optional

#: The acceptance sweep: every odd prime power 5 <= q <= 49.
SWEEP_QS = (5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49)
#: derived_groups is cubic-plus in q: q=13 takes ~2 s, q=17 ~8 s.
DERIVED_QS = (5, 7, 9, 11, 13)

#: (label, samples) of the Milnor-Witt relation suite.  The F9(t) count is
#: the largest because its per-sample cost varies most between seeds.
MW_FIELDS = (("Q", 40), ("F5(t)", 40), ("F9(t)", 80))
RESIDUE_FIELDS = (("Q", 30), ("F5", 30), ("F7", 30))
WITT_QS = (3, 5, 7, 9)
WITT_SAMPLES = 20
HILBERT_SAMPLES = 200

#: (rows, cols, entry bound, count) of the dense random matrices given to
#: ``kmw snf``.  Larger shapes hit a seed-dependent cliff (a 30x30 matrix
#: in +-9 takes 0.04 s to 11 s), so many moderate matrices keep the total
#: steady across seeds.
SNF_SHAPES = ((20, 20, 9, 25), (24, 16, 30, 25), (16, 16, 99, 25))
#: F6561 = 3^8 lies above the 4096-element memo threshold.  Its samples
#: cost 0.1 s to 2 s each, so a seeded draw of the few the run can afford
#: would measure the draw, not the code: the suite keeps its own default
#: seed (0), like the q-sets.
F6561_SAMPLES = 3
H2_PRIME_BOUND = 50


class Item(NamedTuple):
    name: str
    run: Callable[[], object]
    render: Callable[[object], object]
    check: Callable[[object], Optional[str]]


# -- arithmetic the oracles use; none of it calls kmw ---------------------


def odd_part(n: int) -> int:
    while n and n % 2 == 0:
        n //= 2
    return n


def primes_upto(bound: int) -> list[int]:
    return [p for p in range(2, bound + 1) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def rank_and_det(matrix: list[list[int]]) -> tuple[int, int]:
    """Rank, and determinant when square, by fraction-free elimination."""
    a = [list(row) for row in matrix]
    n_rows, n_cols = len(a), len(a[0]) if a else 0
    rank, prev, sign = 0, 1, 1
    for c in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if a[i][c]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        p, top = a[rank][c], a[rank]
        for i in range(rank + 1, n_rows):
            row, lead = a[i], a[i][c]
            for j in range(c + 1, n_cols):
                row[j] = (row[j] * p - lead * top[j]) // prev
            row[c] = 0
        prev = p
        rank += 1
    det = sign * prev if n_rows == n_cols == rank else 0
    return rank, det


def check_snf(matrix: list[list[int]], payload: dict) -> Optional[str]:
    """Oracle for ``kmw snf --json`` output on ``matrix``."""
    rows, cols = len(matrix), len(matrix[0])
    if (payload.get("rows"), payload.get("cols")) != (rows, cols):
        return f"shape {payload.get('rows')}x{payload.get('cols')} != {rows}x{cols}"
    diag = [int(x) for x in payload["diagonal"]]
    if len(diag) != min(rows, cols) or any(d < 0 for d in diag):
        return f"malformed diagonal {diag}"
    nonzero = [d for d in diag if d]
    if diag[: len(nonzero)] != nonzero:
        return "zeros precede nonzero diagonal entries"
    for a, b in zip(nonzero, nonzero[1:]):
        if b % a:
            return f"{a} does not divide {b}"
    rank, det = rank_and_det(matrix)
    if payload["rank"] != rank or len(nonzero) != rank:
        return f"rank {payload['rank']} != {rank}"
    if rows == cols:
        product = 1
        for d in diag:
            product *= d
        if product != abs(det):
            return f"diagonal product {product} != |det| {abs(det)}"
    return None


# -- rendering ------------------------------------------------------------


def _group(g) -> dict:
    return {"free": g.free_rank, "cyclic": list(g.invariant_factors)}


def _order(group: dict) -> Optional[int]:
    if group["free"]:
        return None
    out = 1
    for d in group["cyclic"]:
        out *= d
    return out


def _suite(result) -> dict:
    checked, failures = result
    return {"checked": checked, "failures": list(failures)}


def _expect_suite(expected: int):
    def check(out: dict) -> Optional[str]:
        if out["failures"]:
            return f"{len(out['failures'])} failures, first {out['failures'][0]}"
        if out["checked"] != expected:
            return f"checked {out['checked']} != {expected}"
        return None

    return check


def _cli(argv: list[str], stdin: str = "") -> dict:
    """Run ``kmw.cli.main(argv)`` with captured standard streams."""
    import kmw.cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = kmw.cli.main(argv)
    finally:
        sys.stdin = saved
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cli_json(check: Callable[[dict], Optional[str]]):
    """Oracle for a CLI call that prints one JSON object."""

    def wrapped(out: dict) -> Optional[str]:
        if out["code"] != 0:
            return f"exit {out['code']}: {out['stderr'].strip()}"
        return check(json.loads(out["stdout"]))

    return wrapped


# -- scissors-sweep -------------------------------------------------------


def _check_pb_half(q: int):
    expected = odd_part(q + 1)
    want = {"free": 0, "cyclic": [expected] if expected > 1 else []}

    def check(out: dict) -> Optional[str]:
        return None if out == want else f"{out} != Z/{expected}"

    return check


def _render_derived(d: dict) -> dict:
    return {name: value if isinstance(value, int) else _group(value)
            for name, value in sorted(d.items())}


def _check_derived(q: int):
    def check(out: dict) -> Optional[str]:
        trivial = {"free": 0, "cyclic": []}
        if out["rblker"] != trivial:
            return f"rblker {out['rblker']} is not trivial"
        if out["cokernel_RB_to_B"] != trivial:
            return "RB -> B is not onto"
        lhs = _order(out["half_RP1"])
        rblker_odd = 1
        for d in out["rblker"]["cyclic"]:
            rblker_odd *= odd_part(d)
        half_p = _order(out["half_P"])
        if lhs is None or half_p is None or lhs != rblker_odd * half_p:
            return f"|1/2 RP1| = {lhs} != |odd(rblker)| * |1/2 P| = {rblker_odd} * {half_p}"
        if lhs != odd_part(q + 1):
            return f"|1/2 RP1| = {lhs} != {odd_part(q + 1)}"
        exponent = out["k1_intersection_exponent"]
        if 4 % exponent:
            return f"K1 intersection exponent {exponent} does not divide 4"
        return None

    return check


def _h3_verify(q: int):
    import kmw

    desc = kmw.reports.h3_laurent_report(kmw.fields.finite_field(q))
    return desc, kmw.reports.verify_descriptor(desc)


def _check_h3(q: int):
    def check(out: dict) -> Optional[str]:
        if out["verified"] is not True:
            return "verify_descriptor returned False"
        report = out["report"]
        order = _order({"free": report["free_rank"], "cyclic": report["cyclic_factors"]})
        if order != odd_part(q + 1):
            return f"report order {order} != {odd_part(q + 1)}"
        return None

    return check


def scissors_sweep(seed: int) -> list[Item]:
    import kmw

    items = []
    for q in SWEEP_QS:
        items.append(Item(f"pb_half q={q}", lambda q=q: kmw.scissors.pb_half(q),
                          _group, _check_pb_half(q)))
    for q in DERIVED_QS:
        items.append(Item(f"derived_groups q={q}", lambda q=q: kmw.scissors.derived_groups(q),
                          _render_derived, _check_derived(q)))
    for q in DERIVED_QS:
        items.append(Item(f"h3_laurent_report+verify q={q}", lambda q=q: _h3_verify(q),
                          lambda r: {"report": r[0].to_json(), "verified": r[1]},
                          _check_h3(q)))
    return items


# -- symbol-suites --------------------------------------------------------


def _field(label: str):
    import kmw

    fields = kmw.fields
    if label == "Q":
        return fields.rationals()
    if label.endswith("(t)"):
        return fields.function_field(fields.finite_field(int(label[1:-3])))
    return fields.finite_field(int(label[1:]))


def symbol_suites(seed: int) -> list[Item]:
    import kmw.suites

    suites = kmw.suites
    items = []
    for label, n in MW_FIELDS:
        items.append(Item(f"run_mw_relations {label} n={n}",
                          lambda label=label, n=n: suites.run_mw_relations(_field(label), n, seed),
                          _suite, _expect_suite(n)))
    for label, n in RESIDUE_FIELDS:
        items.append(Item(f"run_residues {label} n={n}",
                          lambda label=label, n=n: suites.run_residues(_field(label), n, seed),
                          _suite, _expect_suite(n)))
    for q in WITT_QS:
        # two structural checks, then one form over F_q and one over F_q(t) per sample
        items.append(Item(f"run_witt q={q} n={WITT_SAMPLES}",
                          lambda q=q: suites.run_witt(q, WITT_SAMPLES, seed),
                          _suite, _expect_suite(2 + 2 * WITT_SAMPLES)))
    items.append(Item(f"run_hilbert n={HILBERT_SAMPLES}",
                      lambda: suites.run_hilbert(HILBERT_SAMPLES, seed),
                      _suite, _expect_suite(HILBERT_SAMPLES)))
    return items


# -- cli-offpath ----------------------------------------------------------


def _check_delta_t(payload: dict) -> Optional[str]:
    if payload.get("field") != "F6561" or payload.get("checked") != F6561_SAMPLES:
        return f"checked {payload.get('checked')} of {F6561_SAMPLES} over {payload.get('field')}"
    if payload.get("failures") != 0 or payload.get("pass") is not True:
        return f"{payload.get('failures')} failures, witness {payload.get('witness')}"
    return None


def _check_h2(payload: dict) -> Optional[str]:
    primes = primes_upto(H2_PRIME_BOUND)
    want = sorted([p - 1 for p in primes if p % 2] + [2 for p in primes if p % 2])
    if payload.get("free_rank") != 1 + len(primes):
        return f"free rank {payload.get('free_rank')} != {1 + len(primes)}"
    if sorted(payload.get("cyclic_factors", [])) != want:
        return f"cyclic factors {payload.get('cyclic_factors')} != {want}"
    if payload.get("bound") != H2_PRIME_BOUND:
        return f"bound {payload.get('bound')} != {H2_PRIME_BOUND}"
    return None


def cli_offpath(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for rows, cols, bound, count in SNF_SHAPES:
        for i in range(count):
            matrix = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
            text = json.dumps(matrix)
            items.append(Item(
                f"snf {rows}x{cols} +-{bound} #{i}",
                lambda text=text: _cli(["snf", "--json"], text),
                lambda out: out,
                _cli_json(lambda payload, matrix=matrix: check_snf(matrix, payload)),
            ))
    items.append(Item(
        f"verify delta-t F6561 n={F6561_SAMPLES}",
        lambda: _cli(["verify", "delta-t", "--field", "F6561",
                      "--samples", str(F6561_SAMPLES), "--json"]),
        lambda out: out, _cli_json(_check_delta_t),
    ))
    items.append(Item(
        f"report h2-laurent Q bound={H2_PRIME_BOUND}",
        lambda: _cli(["report", "h2-laurent", "--field", "Q",
                      "--prime-bound", str(H2_PRIME_BOUND), "--json"]),
        lambda out: out, _cli_json(_check_h2),
    ))
    return items


#: Workload name -> item builder.  The builder takes the workload seed.
WORKLOADS = {
    "scissors-sweep": scissors_sweep,
    "symbol-suites": symbol_suites,
    "cli-offpath": cli_offpath,
}
