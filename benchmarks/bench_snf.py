"""Compare the compiled and pure-Python normal-form kernels.

Each case times the three reductions the library runs, with the
transform flags it passes:

- ``hnf`` without U on the distinct relation rows, up to sign
  (``AbGroupInfo``);
- ``snf`` with V only on the rank x n Hermite basis of those relations
  (``AbGroupInfo``);
- ``hnf`` with U on a ``left_kernel`` stack: images over the target's
  Hermite basis (``fp_kernel``, ``solve_left``, ``lattice_intersection``).

Workloads are the refined scissors presentations for a few q, where the
stack is the second ``fp_kernel`` stage of lambda_1 (kernel generators
over the relation basis of RP), plus random dense matrices, where the
stack is the matrix itself.  Both backends receive identical input;
results are checked entrywise before timings are reported.

The random shapes stay modest on purpose: exact reduction of a dense
random matrix swells intermediate entries far beyond the sparse 0/+-1
presentation matrices that dominate real use.

Usage: python benchmarks/bench_snf.py [--repeat N] [--seed S] [--qs Q,...]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Callable, List, Optional, Sequence, Tuple

from kmw import _snf_py
from kmw.exact_linear import IntMatrix, _distinct_rows, fp_group, fp_kernel
from kmw.scissors import scissors_context

try:
    from kmw import _snf_core
except ImportError:
    _snf_core = None

# (label, kernel, flags after rows and cols) for the three reductions
REDUCTIONS = (
    ("hnf u0", "hnf_kernel", (False,)),
    ("snf v", "snf_kernel", (False, True)),
    ("hnf u", "hnf_kernel", (True,)),
)

Case = Tuple[str, IntMatrix, IntMatrix, IntMatrix]


def distinct_relations(m: IntMatrix) -> IntMatrix:
    """The rows ``AbGroupInfo`` hands to its Hermite reduction."""
    return IntMatrix.from_rows(_distinct_rows(m), cols=m.cols)


def scissors_case(q: int) -> Case:
    """(name, distinct relation rows, their Hermite basis, left_kernel
    stack)."""
    ctx = scissors_context(q)
    rp = ctx.rp_group()
    _, incl = fp_kernel(ctx.maps()[0])
    stack = incl.images.stack(rp.relation_basis)
    return (f"scissors q={q}", distinct_relations(rp.relation_matrix),
            rp.relation_basis, stack)


def random_case(rng: random.Random, rows: int, cols: int, magnitude: int) -> Case:
    m = IntMatrix(rows, cols, [rng.randint(-magnitude, magnitude) for _ in range(rows * cols)])
    basis = fp_group(range(cols), m).relation_basis
    return f"random +-{magnitude}", distinct_relations(m), basis, m


def best_of(repeat: int, fn: Callable[[], object]) -> Tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def time_backends(kernel: str, m: IntMatrix, flags: Tuple[bool, ...],
                  repeat: int) -> Tuple[Optional[float], float, str]:
    """(compiled seconds or None, pure seconds, agreement note)."""
    args = (m.rows, m.cols) + flags
    pure_fn = getattr(_snf_py, kernel)
    pure_time, pure_result = best_of(repeat, lambda: pure_fn(list(m.entries), *args))
    if _snf_core is None:
        return None, pure_time, "compiled backend not built"
    core_fn = getattr(_snf_core, kernel)
    try:
        core_time, core_result = best_of(
            repeat, lambda: core_fn(list(m.entries), *args)
        )
    except _snf_core.Overflow:
        return None, pure_time, "64-bit overflow, pure fallback"
    note = "agree" if core_result == pure_result else "MISMATCH"
    return core_time, pure_time, note


def fmt_ms(seconds: Optional[float]) -> str:
    return "-" if seconds is None else f"{seconds * 1000.0:9.2f}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions, best is kept (default 3)")
    parser.add_argument("--seed", type=int, default=5,
                        help="seed for the random matrices (default 5)")
    parser.add_argument("--qs", default="13,17,25",
                        help="comma-separated q values for the scissors "
                             "matrices (default 13,17,25)")
    ns = parser.parse_args(argv)

    rng = random.Random(ns.seed)
    cases: List[Case] = [scissors_case(int(q)) for q in ns.qs.split(",")]
    cases.append(random_case(rng, 25, 25, 9))
    cases.append(random_case(rng, 60, 20, 999))
    cases.append(random_case(rng, 12, 12, 10 ** 6))

    if _snf_core is None:
        print("note: compiled backend not built; timing pure backend only")
    header = (f"{'case':<20} {'shape':>10} {'kernel':<7} "
              f"{'compiled ms':>11} {'pure ms':>9} {'speedup':>8}  result")
    print(header, flush=True)
    print("-" * len(header), flush=True)
    mismatches = 0
    for name, relations, basis, stack in cases:
        for (label, kernel, flags), m in zip(REDUCTIONS, (relations, basis, stack)):
            core_time, pure_time, note = time_backends(kernel, m, flags, ns.repeat)
            if note == "MISMATCH":
                mismatches += 1
            speedup = ("-" if core_time is None
                       else f"{pure_time / core_time:7.1f}x")
            print(f"{name:<20} {m.rows:>4}x{m.cols:<5} {label:<7} "
                  f"{fmt_ms(core_time):>11} {fmt_ms(pure_time):>9} "
                  f"{speedup:>8}  {note}", flush=True)
    if mismatches:
        print(f"{mismatches} kernel disagreements", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
