"""Witt-group decision procedures: invariant route against the
brute-force counting route, plus pinned classical values."""

import random

import pytest

from kmw.errors import (
    MixedFields,
    UnsupportedDegree,
    UnsupportedField,
    ZeroArgument,
    ZeroEntry,
)
from kmw.fields import (
    finite_field,
    function_field,
    function_place,
    hilbert,
    rationals,
    square_class,
    support_places,
)
from kmw import group_ring, witt
from kmw.group_ring import GroupRingElem, gr_unit, gr_zero, pfister_form
from kmw.milnor_witt import mw_equal, mw_symbol
from kmw.suites import run_witt
from kmw.witt import (
    CountingTable,
    _signed_disc,
    i_square_is_zero,
    in_i_power,
    signature,
    witt_equal,
    witt_group_structure,
    witt_is_zero,
)
from witt_oracle import diagonal, second_residue

Q = rationals()


def random_finite_form(field, rng, span=3):
    one = field.elem(1)
    s = field.nonsquare()
    return (
        rng.randint(-span, span) * gr_unit(field, one)
        + rng.randint(-span, span) * gr_unit(field, s)
    )


class TestVirtualForms:
    def test_formal_arithmetic(self):
        f = diagonal(Q, [1, 2]) - diagonal(Q, [2])
        assert f == gr_unit(Q, 1)
        assert (f - f).is_zero()
        assert diagonal(Q, [3, 12]).coeffs == {square_class(Q.elem(3)): 2}

    def test_rank_is_virtual(self):
        f = gr_unit(Q, 1) - gr_unit(Q, 2)
        assert f.augmentation() == 0
        assert 3 * gr_unit(Q, 5) == gr_unit(Q, 5) * 3

    def test_tensor_matches_class_product(self):
        f = diagonal(Q, [2, 3]) * diagonal(Q, [5])
        assert f == diagonal(Q, [10, 15])

    def test_pfister_multiplicative_in_slots(self):
        for field in (Q, finite_field(7)):
            a, b = field.elem(2), field.elem(3)
            assert pfister_form(field, [a, b]) == pfister_form(field, [a]) * pfister_form(field, [b])

    def test_diag_rep_moves_signs(self):
        f = gr_unit(Q, 1) - gr_unit(Q, 2)
        rep = sorted(cls.rep().val for cls in f.diag_rep())
        assert rep == [-2, 1]

    def test_zero_entry_rejected(self):
        with pytest.raises(ZeroEntry):
            diagonal(Q, [1, 0])
        assert issubclass(ZeroEntry, ZeroArgument)

    def test_forms_are_group_ring_elements(self):
        # one constructor per form, in kmw.group_ring; kmw.witt imports it
        assert witt.pfister_form is group_ring.pfister_form
        F7 = finite_field(7)
        assert isinstance(diagonal(F7, [1, -1]), GroupRingElem)
        assert diagonal(F7, [1, -1]).augmentation() == 2

    def test_repr_lists_classes_in_sort_key_order(self):
        f = gr_unit(Q, -1) + 2 * gr_unit(Q, 2) - gr_unit(Q, 1)
        assert repr(f) == "-<1> + 2*<2> + <-1>"
        assert repr(gr_zero(Q)) == "0"

    def test_mixed_fields_rejected(self):
        with pytest.raises(MixedFields):
            gr_unit(finite_field(5), 1) + gr_unit(finite_field(7), 1)


class TestInvariants:
    def test_signed_disc_of_sum_of_two_squares(self):
        f = diagonal(Q, [1, 1])
        assert _signed_disc(Q, f.diag_rep()) == square_class(Q.elem(-1))
        assert signature(f) == 2
        # even rank, but the signed discriminant keeps it out of I^2
        assert in_i_power(f, 1) and not in_i_power(f, 2)

    def test_signature_ring_hom(self):
        rng = random.Random(11)
        pool = [1, -1, 2, -2, 3, 5, -6, 7]
        for _ in range(40):
            a = diagonal(Q, rng.sample(pool, 3))
            b = diagonal(Q, rng.sample(pool, 2))
            assert signature(a + b) == signature(a) + signature(b)
            assert signature(a * b) == signature(a) * signature(b)

    def test_signature_needs_rationals(self):
        with pytest.raises(UnsupportedField):
            signature(gr_unit(finite_field(5), 1))

    def test_invariants_are_witt_invariants(self):
        # adding a hyperbolic plane changes no invariant the decisions read
        f = diagonal(Q, [2, 3, 5])
        g = f + diagonal(Q, [1, -1]) + gr_zero(Q)
        assert _signed_disc(Q, f.diag_rep()) == _signed_disc(Q, g.diag_rep())
        assert signature(f) == signature(g)
        assert witt_equal(f, g)
        for n in (1, 2, 3):
            assert in_i_power(f - gr_unit(Q, 1), n) == in_i_power(g - gr_unit(Q, 1), n)
        assert witt_is_zero(gr_zero(Q)) and witt_is_zero(diagonal(Q, [1, -1]))


class TestWittZeroRationals:
    def test_hyperbolic_is_zero(self):
        assert witt_is_zero(3 * diagonal(Q, [1, -1]))
        assert witt_is_zero(gr_zero(Q))

    def test_odd_rank_never_zero(self):
        assert not witt_is_zero(gr_unit(Q, 1))
        assert not witt_is_zero(diagonal(Q, [1, 1, 1]))

    def test_sum_of_two_squares_detects_two(self):
        # x^2 + y^2 represents 2, so <1,1> = <2,2>; it does not
        # represent 3, and the two forms differ at the place 3.
        assert witt_equal(diagonal(Q, [1, 1]), diagonal(Q, [2, 2]))
        assert not witt_equal(diagonal(Q, [1, 1]), diagonal(Q, [3, 3]))

    def test_signature_obstruction(self):
        assert not witt_is_zero(diagonal(Q, [1, 1]) - diagonal(Q, [-1, -1]))

    def test_split_quaternion_pfister_is_zero(self):
        # (2,7) is split everywhere, so the two-fold product vanishes
        assert witt_is_zero(pfister_form(Q, [2, 7]))

    def test_nonsplit_quaternion_pfister_survives(self):
        assert hilbert(Q.elem(2), Q.elem(3), 3) == -1
        assert not witt_is_zero(pfister_form(Q, [2, 3]))


class TestIFiltration:
    def test_filtration_on_pfister_generators(self):
        p1 = pfister_form(Q, [2])
        assert in_i_power(p1, 1)
        assert not in_i_power(p1, 2)
        p2 = pfister_form(Q, [2, 3])
        assert in_i_power(p2, 2)
        assert not in_i_power(p2, 3)

    def test_split_two_fold_lands_in_i3(self):
        assert in_i_power(pfister_form(Q, [2, 7]), 3)

    def test_odd_rank_not_in_i(self):
        assert not in_i_power(gr_unit(Q, 1), 1)

    def test_degree_out_of_range(self):
        with pytest.raises(UnsupportedDegree):
            in_i_power(gr_zero(Q), 4)

    def test_three_pfister_signature_model(self):
        # A triple product lies in I^3, has signature divisible by 8,
        # and equals sig/8 copies of the triple over -1 up to Witt
        # equivalence (the torsion part of I^3 over Q vanishes).
        rng = random.Random(23)
        pool = [-1, 2, -2, 3, -3, 5, -5, 6, 7, -7, 10]
        gen = pfister_form(Q, [-1, -1, -1])
        assert signature(gen) == -8
        for _ in range(12):
            slots = [rng.choice(pool) for _ in range(3)]
            phi = pfister_form(Q, slots)
            assert in_i_power(phi, 3)
            sig = signature(phi)
            assert sig % 8 == 0
            assert witt_equal(phi, (sig // -8) * gen)

    def test_finite_field_i_square_vanishes(self):
        for q in (3, 5, 7, 9):
            field = finite_field(q)
            assert witt_is_zero(pfister_form(field, [field.nonsquare(), field.nonsquare()]))
            assert i_square_is_zero(q)


class TestFiniteFieldCounting:
    def test_four_copies_of_one_vanish_mod_three(self):
        assert witt_is_zero(gr_unit(finite_field(3), 1) * 4)
        assert not witt_is_zero(gr_unit(finite_field(3), 1) * 2)
        assert witt_is_zero(gr_unit(finite_field(5), 1) * 2)

    def test_counting_table_basics(self):
        table = CountingTable(5)
        counts = table.unit_counts(1)
        # x -> x^2 hits 0 once and each nonzero square twice
        assert sorted(counts) == [0, 0, 1, 2, 2]
        assert table.rep_is_witt_zero([1, -1])
        assert not table.rep_is_witt_zero([1, 1, 1])

    # every odd prime power up to 49
    @pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49))
    def test_group_structure(self, q):
        structure = witt_group_structure(q)
        assert structure["order"] == 4
        if q % 4 == 3:
            assert structure["invariant_factors"] == [4]
            assert max(structure["element_orders"]) == 4
        else:
            assert structure["invariant_factors"] == [2, 2]
            assert max(structure["element_orders"]) == 2

    def test_run_witt_fails_on_a_broken_hasse_rule(self, monkeypatch):
        # every 3-fold Pfister form over F_q(t) is hyperbolic; a Hasse
        # rule that reports a defect must show up as suite failures
        monkeypatch.setattr(witt, "_hasse_defects", lambda field, rep: {"P": -1})
        checked, failures = run_witt(5, 20, 0)
        assert checked == 2 + 2 * 20
        assert failures and all(w.startswith("I^3(F_5(t))") for w in failures)

    def test_run_witt_builds_one_table_per_q(self, monkeypatch):
        # the group structure, the I^2 check and the I^3 samples read one
        # table per q, also across runs
        built = []
        init = CountingTable.__init__

        def counted(table, q):
            built.append(q)
            init(table, q)

        monkeypatch.setattr(CountingTable, "__init__", counted)
        witt._counting_table.cache_clear()
        for seed in (0, 1):
            for q in (3, 5, 7, 9):
                assert run_witt(q, 3, seed) == (2 + 2 * 3, [])
        assert built == [3, 5, 7, 9]

    @pytest.mark.parametrize("q", [5, 7, 9])
    def test_invariant_route_matches_counting_route(self, q):
        field = finite_field(q)
        table = CountingTable(q)
        rng = random.Random(100 + q)
        forms = [random_finite_form(field, rng) for _ in range(40)]
        for f in forms:
            assert witt_is_zero(f) == table.form_is_witt_zero(f)
        for _ in range(30):
            a, b = rng.choice(forms), rng.choice(forms)
            lhs = witt_equal(a, b)
            rhs = table.reps_witt_equal(
                [c.rep() for c in a.diag_rep()], [c.rep() for c in b.diag_rep()]
            )
            assert lhs == rhs


class TestFunctionFieldWitt:
    def setup_method(self):
        self.F5t = function_field(finite_field(5))
        self.t = self.F5t.t
        self.at_t = function_place(self.F5t, [0, 1])

    def test_hyperbolic_zero(self):
        assert witt_is_zero(2 * diagonal(self.F5t, [1, -1]))

    def test_nonsquare_constant_pfister(self):
        phi = pfister_form(self.F5t, [self.t, 2])
        assert in_i_power(phi, 2)
        assert not in_i_power(phi, 3)
        assert not witt_is_zero(phi)

    def test_split_function_pfister(self):
        # (t, t+1): every local symbol is trivial, so the product splits
        phi = pfister_form(self.F5t, [self.t, self.t + 1])
        assert witt_is_zero(phi)

    def test_second_residue_of_uniformiser(self):
        out = second_residue(gr_unit(self.F5t, self.t), self.at_t)
        assert out == gr_unit(finite_field(5), 1)

    def test_second_residue_kills_units(self):
        out = second_residue(gr_unit(self.F5t, self.t + 1), self.at_t)
        assert out.is_zero()

    def test_second_residue_of_twisted_pfister(self):
        phi = pfister_form(self.F5t, [self.t, 2])
        out = second_residue(phi, self.at_t)
        assert out == pfister_form(finite_field(5), [2])

    def test_second_residue_at_quadratic_place(self):
        F3t = function_field(finite_field(3))
        pi = F3t.t * F3t.t + 1
        place = function_place(F3t, pi)
        out = second_residue(gr_unit(F3t, 2 * pi), place)
        kappa = place.residue_field()
        assert kappa.order == 9
        # 2 = -1 is a square in F_9, so the residue class is trivial
        assert out == gr_unit(kappa, 1)

    def test_zero_forms_have_zero_residues(self):
        rng = random.Random(7)
        pool = [self.t, self.t + 1, self.t + 2, self.F5t.elem(2), 3 * self.t]
        for _ in range(25):
            f = diagonal(self.F5t, [rng.choice(pool) for _ in range(4)])
            if witt_is_zero(f):
                elems = [c.rep() for c in f.diag_rep()]
                for place in support_places(self.F5t, elems):
                    if place.kind == "inf":
                        continue
                    assert witt_is_zero(second_residue(f, place))

    def test_rational_function_field_unsupported(self):
        Qt = function_field(Q)
        with pytest.raises(UnsupportedField):
            witt_is_zero(gr_unit(Qt, Qt.t))
        with pytest.raises(UnsupportedField):
            mw_equal(mw_symbol(Qt, [Qt.t]), mw_symbol(Qt, [Qt.t]))
