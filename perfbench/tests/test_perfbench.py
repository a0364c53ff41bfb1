"""Tests of the benchmark itself: span arithmetic, wrapping, oracles, and
agreement between BENCHMARK.json and what the benchmark emits.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import child
import kmw
import kmw.cli
import kmw.suites
import pytest
import run
import tracing
import workloads
from kmw.exact_linear import IntMatrix, snf

ROOT = Path(__file__).resolve().parents[2]


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_on_synthetic_span_tree():
    # item [0, 10] > A [1, 6] > (B [2, 3], B [4, 5]); item > C [7, 9] > C [7.5, 8.5]
    tracer = tracing.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 6, 7, 7.5, 8.5, 9, 10]))
    tracer.begin_item()
    tracer.enter("A")
    tracer.enter("B")
    tracer.exit()
    tracer.enter("B")
    tracer.exit()
    tracer.exit()
    tracer.enter("C")
    tracer.enter("C")
    tracer.exit()
    tracer.exit()
    tracer.end_item()
    assert tracer.layers == {
        tracing.ITEM: [1, 3.0],  # 10 - (5 + 2) outside every layer
        "A": [1, 3.0],
        "B": [2, 2.0],
        "C": [2, 2.0],  # the nested C's second is not counted twice
    }
    assert sum(self_s for _, self_s in tracer.layers.values()) == 10


def test_span_closes_when_the_wrapped_call_raises():
    tracer = tracing.Tracer(clock=fake_clock([0, 1, 4, 5]))

    def boom():
        raise ValueError("no")

    wrapped = tracer.wrap("L", boom)
    tracer.begin_item()
    with pytest.raises(ValueError):
        wrapped()
    tracer.end_item()
    assert tracer.layers == {tracing.ITEM: [1, 2.0], "L": [1, 3.0]}


def test_install_rebinds_reexported_bindings():
    original = kmw.scissors.derived_groups
    original_init = IntMatrix.__init__
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        wrapper = kmw.scissors.derived_groups
        assert wrapper is not original and wrapper.__wrapped__ is original
        for mod in (kmw, kmw.reports, kmw.suites, kmw.cli):
            assert mod.derived_groups is wrapper
        # no kmw module keeps an unwrapped binding of any module-level callable
        wrapped = {id(fn) for holder, _, fn in tracer._restore}
        for mod in tracing._kmw_modules():
            for name, value in vars(mod).items():
                assert id(value) not in wrapped, f"{mod.__name__}.{name} bypasses its span"
        tracer.begin_item()
        kmw.reports.derived_groups(5)
        kmw.derived_groups(5)
        tracer.end_item()
        assert tracer.layers["scissors"][0] >= 2
    finally:
        tracing.uninstall(tracer)
    assert kmw.scissors.derived_groups is original
    assert kmw.cli.derived_groups is original
    assert IntMatrix.__init__ is original_init


def test_rank_and_det_match_exact_elimination():
    rng = random.Random(3)
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.5:
            m[-1] = [a + 2 * b for a, b in zip(m[0], m[1])]  # force a dependency
        a = [[Fraction(x) for x in row] for row in m]
        rank, det = 0, Fraction(1)
        for c in range(cols):
            p = next((i for i in range(rank, rows) if a[i][c]), None)
            if p is None:
                det = Fraction(0)
                continue
            if p != rank:
                a[rank], a[p] = a[p], a[rank]
                det = -det
            det *= a[rank][c]
            for i in range(rank + 1, rows):
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
            rank += 1
        want_det = det if rows == cols == rank else 0
        assert workloads.rank_and_det(m) == (rank, want_det)


def test_snf_oracle_accepts_kmw_and_rejects_a_wrong_diagonal():
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    diag = snf(IntMatrix.from_rows(m))[0].diagonal()
    good = {"rows": 3, "cols": 3, "rank": 3, "diagonal": [str(d) for d in diag]}
    assert workloads.check_snf(m, good) is None
    assert diag == (2, 6, 12)
    for wrong in (["2", "12", "6"],   # not a divisibility chain
                  ["2", "6", "24"],   # product is not |det|
                  ["1", "6", "12"],   # product is not |det|
                  ["2", "0", "6"]):   # zero before a nonzero entry
        assert workloads.check_snf(m, dict(good, diagonal=wrong)) is not None
    assert workloads.check_snf(m, dict(good, rank=2)) is not None


def _digests(items):
    out = {}
    for item in items:
        output = item.render(item.run())
        assert item.check(output) is None, item.name
        out[item.name] = hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()
    return out


def _cheap_items():
    picks = {"pb_half q=5", "pb_half q=13", "derived_groups q=5", "derived_groups q=7",
             "h3_laurent_report+verify q=7", f"run_witt q=3 n={workloads.WITT_SAMPLES}",
             f"run_hilbert n={workloads.HILBERT_SAMPLES}",
             f"report h2-laurent Q bound={workloads.H2_PRIME_BOUND}"}
    items = []
    for build in workloads.WORKLOADS.values():
        items += [i for i in build(7) if i.name in picks or i.name.endswith("#0")]
    return items


def test_traced_and_untraced_items_give_identical_outputs():
    plain = _digests(_cheap_items())
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.begin_item()
        traced = _digests(_cheap_items())
        tracer.end_item()
    finally:
        tracing.uninstall(tracer)
    assert len(plain) >= 10
    assert traced == plain
    assert tracer.layers["exact_linear.snf"][0] > 0


def test_items_have_unique_names():
    for name, build in workloads.WORKLOADS.items():
        names = [item.name for item in build(0)]
        assert len(names) == len(set(names)), name


def test_benchmark_json_matches_what_the_benchmark_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(child.ENTRY_MODULES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
