"""End-to-end acceptance: exact structural identities and seeded
verification suites, one test per criterion, all equalities literal.

Run with ``pytest -v`` to get one pass/fail line per criterion."""

import time
from collections import Counter

from kmw.exact_linear import odd_part, odd_part_int
from kmw.fields import finite_field, function_field, rationals
from kmw.fields import _primes_upto
from kmw.reports import h2_laurent_report
from kmw.scissors import derived_groups, pb_half
from kmw.suites import (
    run_hilbert,
    run_mw_relations,
    run_residues,
    run_sv,
    run_witt,
)
from kmw.witt import i_square_is_zero, witt_group_structure

SWEEP_QS = (5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49)
KERNEL_QS = (5, 7, 9, 11, 13)
SMALL_QS = (5, 7, 9)
LARGE_QS = (81, 121, 125)


def test_odd_part_of_scissors_group_is_cyclic_of_predicted_order():
    start = time.monotonic()
    slowest = 0.0
    for q in SWEEP_QS:
        tick = time.monotonic()
        half = pb_half(q)
        expected = odd_part_int(q + 1)
        want = (expected,) if expected > 1 else ()
        assert half.invariant_factors == want, f"q={q}"
        slowest = max(slowest, time.monotonic() - tick)
    assert slowest < 10.0
    assert time.monotonic() - start < 180.0


def test_odd_part_of_scissors_group_beyond_the_sweep():
    # Z/41, Z/61 and Z/63; the three take about 0.5-0.7 s on a 2-vCPU VM
    start = time.monotonic()
    for q in LARGE_QS:
        half = pb_half(q)
        assert half.free_rank == 0, f"q={q}"
        assert half.invariant_factors == (odd_part_int(q + 1),), f"q={q}"
    assert time.monotonic() - start < 4.0


def test_derived_groups_beyond_the_sweep():
    # the checks of the benchmark's derived_groups oracle, at q = 81, 121
    # and 125; the three take about 5-7 s on a 2-vCPU VM
    start = time.monotonic()
    for q in LARGE_QS:
        derived = derived_groups(q)
        for name in ("rblker", "cokernel_RB_to_B"):
            assert derived[name].free_rank == 0, f"q={q} {name}"
            assert derived[name].invariant_factors == (), f"q={q} {name}"
        lhs = derived["half_RP1"].order()
        rhs = odd_part(derived["rblker"]).order() * derived["half_P"].order()
        assert lhs == rhs == odd_part_int(q + 1), f"q={q}"
        assert 4 % derived["k1_intersection_exponent"] == 0, f"q={q}"
    assert time.monotonic() - start < 15.0


def test_refined_kernel_vanishes_integrally():
    start = time.monotonic()
    for q in KERNEL_QS:
        kernel = derived_groups(q)["rblker"]
        assert kernel.free_rank == 0, f"q={q}"
        assert kernel.invariant_factors == (), f"q={q}"
    assert time.monotonic() - start < 60.0


def test_order_equation_for_odd_parts_of_refined_groups():
    for q in KERNEL_QS:
        derived = derived_groups(q)
        lhs = derived["half_RP1"].order()
        rhs = odd_part(derived["rblker"]).order() * derived["half_P"].order()
        assert lhs == rhs, f"q={q}"
        assert lhs == odd_part_int(q + 1), f"q={q}"


def test_k1_intersection_exponent_divides_four():
    for q in SMALL_QS:
        exponent = derived_groups(q)["k1_intersection_exponent"]
        assert 4 % exponent == 0, f"q={q}"


def test_symbol_relations_hold_on_seeded_samples():
    start = time.monotonic()
    targets = [rationals()] + [function_field(finite_field(q)) for q in SMALL_QS]
    for field in targets:
        checked, failures = run_mw_relations(field, 200, 42)
        assert checked == 200, f"{field!r}"
        assert failures == [], f"{field!r}: {failures[:3]}"
    assert time.monotonic() - start < 30.0


def test_residue_identities_on_seeded_unit_pairs():
    start = time.monotonic()
    for base in (rationals(), finite_field(5), finite_field(7)):
        checked, failures = run_residues(base, 100, 11)
        assert checked == 100, f"{base!r}"
        assert failures == [], f"{base!r}: {failures[:3]}"
    assert time.monotonic() - start < 30.0


def test_specialization_kills_five_terms_and_splits_generators():
    start = time.monotonic()
    for q in SMALL_QS:
        checked, failures = run_sv(q, 200, 23)
        assert checked == 200, f"q={q}"
        assert failures == [], f"q={q}: {failures[:3]}"
    assert time.monotonic() - start < 60.0


def test_h2_report_free_rank_and_torsion_multiset():
    start = time.monotonic()
    wide = h2_laurent_report(rationals(), 50)
    assert wide.free_rank == 16
    want = Counter()
    for p in _primes_upto(50):
        if p != 2:
            want[p - 1] += 1
            want[2] += 1
    assert Counter(wide.cyclic_factors) == want
    narrow = h2_laurent_report(rationals(), 7)
    assert narrow.free_rank == 5
    assert narrow.cyclic_factors == (2, 2, 4, 2, 6, 2)
    assert time.monotonic() - start < 5.0


def test_hilbert_product_formula_on_seeded_pairs():
    start = time.monotonic()
    checked, failures = run_hilbert(100, 17)
    assert checked == 100
    assert failures == [], failures[:3]
    assert time.monotonic() - start < 5.0


def test_witt_group_structure_and_third_power_vanishing():
    start = time.monotonic()
    assert witt_group_structure(3)["invariant_factors"] == [4]
    assert witt_group_structure(5)["invariant_factors"] == [2, 2]
    for q in (3, 5, 7, 9):
        assert i_square_is_zero(q), f"q={q}"
        checked, failures = run_witt(q, 40, 29)
        assert checked == 2 + 2 * 40, f"q={q}"
        assert failures == [], f"q={q}: {failures[:3]}"
    assert time.monotonic() - start < 30.0
