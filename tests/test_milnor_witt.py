"""Milnor-Witt elements: presentation relations, the fiber-product
equality oracle, residues, the signature map, and structure
descriptors."""

import random
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmw.errors import (
    BadBound,
    BadText,
    DegreeOverflow,
    IntegrityFailure,
    KmwError,
    MixedFields,
    UnsupportedDegree,
    UnsupportedField,
    UnsupportedPlace,
    ZeroArgument,
)
from kmw.fields import (
    FieldElem,
    FiniteField,
    Poly,
    RatFunField,
    RationalField,
    _poly_key,
    finite_field,
    function_field,
    function_place,
    poly_is_irreducible,
    rationals,
    square_class,
    support_places,
)
from kmw.milnor_witt import (
    MilnorCoords,
    _check_fiber,
    _pair_elem,
    eta_mul,
    format_mw,
    gw_scale,
    h_elem,
    k1_finite_order,
    k2_finite_vanishing,
    mw_add,
    mw_delta,
    mw_descriptor,
    mw_equal,
    mw_is_zero,
    mw_mul,
    mw_neg,
    mw_scale,
    mw_symbol,
    mw_zero,
    parse_mw,
)
from kmw.group_ring import gr_unit, gr_zero, pfister_form
from kmw.witt import (
    _signed_disc,
    in_i_power,
    signature,
    witt_equal,
    witt_is_zero,
)
from symbol_oracle import hilbert, tame_symbol
from witt_oracle import _ehat_matches_hyperbolic, _rep_elems, element_residue, second_residue

Q = rationals()
F5 = finite_field(5)
F5t = function_field(F5)
Qt = function_field(Q)


def sym(field, *entries):
    return mw_symbol(field, list(entries))


class TestConstruction:
    def test_unit_symbol_is_zero(self):
        assert mw_is_zero(sym(Q, 1))
        assert mw_is_zero(sym(F5, 1))

    def test_steinberg_pinned(self):
        # 3 + (-2) = 1
        assert mw_is_zero(sym(Q, 3, -2))

    def test_zero_entry_rejected(self):
        with pytest.raises(ZeroArgument):
            sym(Q, 0, 2)

    def test_too_long_symbol(self):
        with pytest.raises(DegreeOverflow):
            mw_symbol(Q, [2, 3, 5, 7])

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
    def test_steinberg_witt_part_is_the_pfister_element(self, q):
        # the Witt part of [a][1-a] is the group-ring element <<a>><<1-a>>
        F = finite_field(q)
        for a in F.units():
            if a == F.one:
                continue
            x = mw_symbol(F, [a, F.one - a])
            assert x.witt == pfister_form(F, [a, F.one - a])

    def test_function_field_constructor(self):
        # over Q(t) an element is its monomials alone: no Witt decisions,
        # so no pair and no form
        x = sym(Qt, 5, Qt.t)
        assert x.degree == 2
        assert x.monomials == {(0, (Qt.elem(5), Qt.t)): 1}
        assert x.milnor is None and x.witt is None

    def test_h_shape(self):
        h = h_elem(Q)
        milnor, witt = h.pair()
        assert milnor.data == 2
        from kmw.witt import witt_is_zero

        assert witt_is_zero(witt)


class TestRelations:
    def test_relation_a_pinned(self):
        a, b = 2, 3
        lhs = sym(Q, a * b)
        rhs = mw_add(mw_add(sym(Q, a), sym(Q, b)), eta_mul(sym(Q, a, b)))
        assert mw_equal(lhs, rhs)

    def test_relation_b_random(self):
        rng = random.Random(5)
        for _ in range(30):
            a = 0
            while a in (0, 1):
                a = rng.randint(-40, 40)
            assert mw_is_zero(sym(Q, a, 1 - a))

    def test_relation_c_structural(self):
        a, b = Q.elem(2), Q.elem(3)
        left = eta_mul(mw_mul(sym(Q, a), sym(Q, b)))
        right = mw_mul(eta_mul(sym(Q, a)), sym(Q, b))
        assert left.monomials == right.monomials

    def test_relation_d_through_products(self):
        h = h_elem(Q)
        assert mw_is_zero(eta_mul(mw_mul(h, sym(Q, 7))))
        assert mw_is_zero(eta_mul(mw_mul(h, sym(Q, 2, 3))))

    def test_h_times_symbol_squares_first_slot(self):
        lhs = mw_mul(h_elem(Q), sym(Q, 2, 9))
        assert mw_equal(lhs, sym(Q, 4, 9))

    def test_square_slot_identity(self):
        assert mw_equal(sym(Q, 2, 2), sym(Q, 2, -1))

    def test_nonvanishing_symbol(self):
        assert not mw_is_zero(sym(Q, 2, 3))

    def test_relation_suite_function_field(self):
        rng = random.Random(17)
        t = F5t.t
        pool = [t, t + 1, t + 2, 2 * t, F5t.elem(2), F5t.elem(3), t * t + 1]
        for _ in range(20):
            a, b = rng.choice(pool), rng.choice(pool)
            lhs = sym(F5t, a * b)
            rhs = mw_add(mw_add(sym(F5t, a), sym(F5t, b)), eta_mul(sym(F5t, a, b)))
            assert mw_equal(lhs, rhs)
            one_minus = F5t.one - a
            if one_minus and a != F5t.one:
                assert mw_is_zero(sym(F5t, a, one_minus))

    def test_symbol_slot_multiplicativity_of_coords(self):
        rng = random.Random(29)
        for _ in range(15):
            a, b, c = (rng.choice([2, 3, 5, -7, 10, -14]) for _ in range(3))
            whole = sym(Q, a * c, b)
            parts = mw_add(sym(Q, a, b), sym(Q, c, b))
            assert whole.pair()[0] == parts.pair()[0]

    def test_eta_h_direct_is_out_of_range(self):
        with pytest.raises(DegreeOverflow):
            eta_mul(h_elem(Q))


class TestEquality:
    def test_reflexive_random(self):
        rng = random.Random(3)
        for _ in range(10):
            a = rng.choice([2, 3, -5, 7])
            b = rng.choice([2, -3, 5, 11])
            x = sym(Q, a, b)
            assert mw_equal(x, x)

    def test_degree_three_unsupported(self):
        x = sym(Q, 2, 3, 5)
        with pytest.raises(UnsupportedDegree):
            mw_equal(x, x)

    def test_rational_function_field_unsupported(self):
        x = sym(Qt, Qt.t)
        with pytest.raises(UnsupportedField):
            mw_equal(x, x)

    def test_mixed_fields(self):
        with pytest.raises(MixedFields):
            mw_equal(sym(Q, 2), sym(F5, 2))

    def test_degree_mismatch(self):
        with pytest.raises(UnsupportedDegree):
            mw_equal(sym(Q, 2), sym(Q, 2, 3))

    def test_function_field_symbol_identities(self):
        t = F5t.t
        assert mw_equal(sym(F5t, t, t), sym(F5t, t, -1))
        assert not mw_is_zero(sym(F5t, t, 2))

    def test_finite_field_degree_two_all_vanish(self):
        assert k2_finite_vanishing(5)
        assert k2_finite_vanishing(9)

    def test_degree_one_finite_order(self):
        for q in (5, 7, 9):
            assert k1_finite_order(q) == q - 1


class TestProductsAndScaling:
    def test_degree_overflow(self):
        with pytest.raises(DegreeOverflow):
            mw_mul(sym(Q, 2, 3), sym(Q, 5, 7))

    def test_eta_on_degree_zero(self):
        with pytest.raises(DegreeOverflow):
            eta_mul(mw_symbol(Q, []))

    def test_scaling_matches_repeated_addition(self):
        x = sym(Q, 2, 3)
        assert mw_equal(mw_scale(x, 3), mw_add(mw_add(x, x), x))
        assert mw_is_zero(mw_scale(x, 0))

    def test_gw_scale_expansion(self):
        x = sym(Q, 2, 3)
        twisted = gw_scale(x, 5)
        expected = mw_add(x, eta_mul(mw_mul(sym(Q, 5), x)))
        assert mw_equal(twisted, expected)

    def test_unit_of_ring(self):
        x = sym(Q, 7)
        assert mw_equal(mw_mul(mw_symbol(Q, []), x), x)


class TestResidues:
    def test_uniformiser_residue(self):
        out = mw_delta(sym(Qt, 5, Qt.t), function_place(Qt, [0, 1]))
        assert mw_equal(out, sym(Q, 5))

    def test_constants_have_zero_residue(self):
        place = function_place(Qt, [0, 1])
        out = mw_delta(sym(Qt, 5, 7), place)
        assert mw_is_zero(out)
        place5 = function_place(F5t, [0, 1])
        out5 = mw_delta(sym(F5t, 2, 3), place5)
        assert mw_is_zero(out5)

    def test_square_slot_residue(self):
        out = mw_delta(sym(Qt, 9, Qt.t), function_place(Qt, [0, 1]))
        assert mw_equal(out, sym(Q, 9))

    def test_twisted_residue_gives_eta(self):
        x = gw_scale(sym(Qt, 2, 3), Qt.t)
        out = mw_delta(x, function_place(Qt, [0, 1]))
        assert mw_equal(out, eta_mul(sym(Q, 2, 3)))

    def test_shifted_place(self):
        F7 = finite_field(7)
        F7t = function_field(F7)
        t = F7t.t
        place = function_place(F7t, t - 1)
        out = mw_delta(sym(F7t, t + 2, t - 1), place)
        assert mw_equal(out, sym(F7, 3))

    def test_residue_place_errors(self):
        with pytest.raises(UnsupportedPlace):
            mw_delta(sym(F5t, F5t.t, 2), function_place(F5t, "inf"))
        with pytest.raises(UnsupportedDegree):
            mw_delta(sym(F5t, F5t.t), function_place(F5t, [0, 1]))
        with pytest.raises(UnsupportedField):
            mw_delta(sym(Q, 2, 3), 3)

    def test_pair_backed_arithmetic(self):
        # a residue is a checked pair with no monomials: it is compared,
        # and every arithmetic operation refuses it, as products do
        place = function_place(F5t, [0, 1])
        out = mw_delta(sym(F5t, 2, F5t.t), place)
        # [2] over F_5
        assert out.monomials is None
        assert mw_equal(out, sym(F5, 2))
        assert not mw_is_zero(out)
        two = sym(F5, 2)
        for op in (lambda: mw_add(out, out), lambda: mw_add(out, two),
                   lambda: mw_add(two, out), lambda: mw_neg(out), lambda: mw_scale(out, 2),
                   lambda: eta_mul(out), lambda: gw_scale(out, 2),
                   lambda: mw_mul(out, two), lambda: mw_mul(two, out)):
            with pytest.raises(UnsupportedDegree, match="monomial-backed"):
                op()

    def test_broken_pair_is_rejected(self):
        with pytest.raises(IntegrityFailure):
            _pair_elem(Q, 1, MilnorCoords(Q, 1, Q.elem(2)), pfister_form(Q, [3]))


def _monic_irreducible(base, d: int, start: int) -> Poly:
    """The first monic irreducible of degree d over F_q at or after the
    start-th monic polynomial of degree d in counting order."""
    q = base.order
    for i in range(q ** d):
        n = (start + i) % q ** d
        f = Poly(base, [n // q ** j % q for j in range(d)] + [base._one_raw])
        if poly_is_irreducible(f):
            return f
    raise AssertionError(f"no monic irreducible of degree {d} over F_{q}")


def _residue_entry(data, field, pi):
    """A nonzero c pi^e g: c a nonzero constant, -2 <= e <= 2, and g a
    nonzero polynomial of degree at most 2, so the valuation at pi takes
    every parity and g may meet other places."""
    base = field.base
    if isinstance(base, FiniteField):
        consts = list(base.elements())
        c = field.elem(consts[data.draw(st.integers(1, base.order - 1))])
        coeffs = [field.elem(consts[r]) for r in data.draw(
            st.lists(st.integers(0, base.order - 1), min_size=1, max_size=3))]
    else:
        c = field.elem(data.draw(st.integers(-9, 9).filter(bool))) / data.draw(st.integers(1, 9))
        coeffs = [field.elem(r) for r in data.draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3))]
    g = sum((a * field.t ** i for i, a in enumerate(coeffs)), field.zero) or field.one
    return c * pi ** data.draw(st.integers(-2, 2)) * g


def _residue_element(data, field, pi):
    """A sum of one to three terms n x, |n| <= 3, each x one of [a][b],
    <u>[a][b], eta[a][b][c] and [c][t]."""
    def entry():
        return _residue_entry(data, field, pi)

    total = mw_zero(field, 2)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(("symbol", "scaled", "eta", "at t")))
        if kind == "symbol":
            term = sym(field, entry(), entry())
        elif kind == "scaled":
            term = gw_scale(sym(field, entry(), entry()), entry())
        elif kind == "eta":
            term = eta_mul(sym(field, entry(), entry(), entry()))
        else:
            term = sym(field, entry(), field.t)
        total = mw_add(total, mw_scale(term, data.draw(st.integers(-3, 3))))
    return total


class TestResidueRule:
    """The Witt half of ``mw_delta``, read off one valuation per symbol
    entry, against the second residue of the whole form over F_q(t) and
    against the valuations of every product of entries over Q(t)."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((3, 5, 9, 25)), st.integers(1, 3), st.integers(0, 10 ** 6), st.data())
    def test_function_field_over_finite_field(self, q, d, start, data):
        field = function_field(finite_field(q))
        pi = _monic_irreducible(field.base, d, start)
        place = function_place(field, pi)
        x = _residue_element(data, field, field.elem(pi))
        got = mw_delta(x, place).witt
        assert got == second_residue(x.witt, place)
        assert got == element_residue(x, place)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((0, -1, 3)), st.data())
    def test_rational_function_field(self, root, data):
        place = function_place(Qt, [-root, 1])
        x = _residue_element(data, Qt, Qt.t - root)
        assert mw_delta(x, place).witt == element_residue(x, place)


class TestSigma:
    """The real signature of the Witt part of a degree-2 element over Q,
    four times the signature homomorphism on K^MW_2(Q)."""

    def test_pinned_values(self):
        assert signature(sym(Q, -1, -1).witt) == 4
        assert signature(sym(Q, 2, 3).witt) == 0
        assert signature(sym(Q, -2, 3).witt) == 0

    def test_additive(self):
        rng = random.Random(41)
        pool = [-1, 2, -2, 3, -3, 5, -5]
        for _ in range(20):
            x = sym(Q, rng.choice(pool), rng.choice(pool))
            y = sym(Q, rng.choice(pool), rng.choice(pool))
            assert signature(mw_add(x, y).witt) == (
                signature(x.witt) + signature(y.witt)
            )


class TestDescriptors:
    def test_degree_two_bound_seven(self):
        d = mw_descriptor(Q, 2, 7)
        assert d.free_rank == 1
        assert d.cyclic_factors == (2, 4, 6)
        assert d.trunc_bound == 7

    def test_degree_two_bound_three(self):
        d = mw_descriptor(Q, 2, 3)
        assert d.free_rank == 1
        assert d.cyclic_factors == (2,)

    def test_degree_one_bound_three(self):
        d = mw_descriptor(Q, 1, 3)
        assert d.free_rank == 3
        assert d.cyclic_factors == (2,)

    def test_provenance_recomputable(self):
        d = mw_descriptor(Q, 1, 11)
        prov = d.provenance[0]
        again = mw_descriptor(Q, prov.args["n"], prov.args["bound"])
        assert list(again.cyclic_factors) == prov.factors["cyclic"]
        assert again.free_rank == prov.factors["free"]

    def test_errors(self):
        with pytest.raises(BadBound):
            mw_descriptor(Q, 2, 2)
        with pytest.raises(UnsupportedDegree):
            mw_descriptor(Q, 3, 7)
        with pytest.raises(UnsupportedField):
            mw_descriptor(F5, 2, 7)


class TestBracketExpressions:
    def test_parse_simple(self):
        assert mw_equal(parse_mw(Q, "[2][3]"), sym(Q, 2, 3))

    def test_parse_eta_and_signs(self):
        x = parse_mw(Q, "eta*[-1][2][3]")
        assert x.monomials == {(1, (Q.elem(-1), Q.elem(2), Q.elem(3))): 1}
        y = parse_mw(Q, "2*[5]-[3]")
        assert mw_equal(y, mw_add(mw_scale(sym(Q, 5), 2), mw_neg(sym(Q, 3))))

    # a term is an integer, eta or eta^k, then symbols, in that order, with
    # a * only between two of these parts
    @pytest.mark.parametrize("text", [
        "[2]3", "2 3 [5]", "eta2[3][5]", "[2]eta[3][5]", "*[3]", "[3]**[5]",
        "[3]*[5]", "etaeta[2][3][4]", "2*",
    ])
    def test_rejects_text_format_mw_never_writes(self, text):
        with pytest.raises(BadText):
            parse_mw(Q, text)

    def test_parse_eta_power(self):
        x = parse_mw(Q, "eta^2[2][3]")
        assert x.degree == 0
        assert x.monomials == {(2, (Q.elem(2), Q.elem(3))): 1}

    def test_parse_function_field(self):
        x = parse_mw(F5t, "[t][t+1]")
        assert mw_equal(x, sym(F5t, F5t.t, F5t.t + 1))

    def test_parse_fraction_entries(self):
        x = parse_mw(Q, "[1/2][3]")
        half = Q.elem(1) / Q.elem(2)
        assert mw_equal(x, sym(Q, half, 3))

    def test_roundtrip(self):
        samples = [
            sym(Q, 2, 3),
            mw_add(mw_scale(sym(Q, -5), 3), eta_mul(sym(Q, 2, 7))),
            h_elem(Q),
            mw_add(sym(F5t, F5t.t, 2), mw_scale(sym(F5t, F5t.t + 1, 3), -2)),
        ]
        for x in samples:
            back = parse_mw(x.field, format_mw(x))
            assert mw_equal(back, x)

    @pytest.mark.parametrize("q", [9, 25, 27])
    def test_roundtrip_over_prime_power_function_fields(self, q):
        # extension coefficients print as digit tuples, e.g. (1, 0)*t+(1, 1)
        K = function_field(finite_field(q))
        t, x = K.t, K.elem(K.base.generator())
        samples = [
            sym(K, t + x),
            sym(K, x * t**2 + x * x, t + 1),
            mw_add(mw_scale(sym(K, (x * t + 1) / (t**2 + x)), 3), eta_mul(sym(K, t, t + x))),
        ]
        for elem in samples:
            text = format_mw(elem)
            assert "," in text
            back = parse_mw(K, text)
            assert mw_equal(back, elem)
            assert format_mw(back) == text

    @pytest.mark.parametrize("q", [9, 25, 27])
    def test_roundtrip_over_extension_fields(self, q):
        # extension-field constants print as digit tuples, e.g. [(1, 1)]
        F = finite_field(q)
        g = F.generator()
        for elem in (sym(F, g), sym(F, g, g + 1)):
            text = format_mw(elem)
            assert "," in text
            back = parse_mw(F, text)
            assert back.monomials == elem.monomials
            assert mw_equal(back, elem)
            assert repr(elem) == f"MWElem({text!r})"

    def test_parse_errors(self):
        with pytest.raises(KmwError):
            parse_mw(Q, "[2")
        with pytest.raises(DegreeOverflow):
            parse_mw(Q, "[2]+[2][3]")
        with pytest.raises(ZeroArgument):
            parse_mw(Q, "[0]")


# -- the per-pair fiber check, kept as an oracle --------------------------
#
# Before degree-2 coordinates recorded a local value at every place, the
# coordinates over Q were (2-adic sign, real sign, odd-prime tame symbols),
# those over F_q(t) left out infinity, and the fiber check recomputed a
# Hilbert symbol for every monomial pair at every place.  The two
# functions below are that implementation, unchanged but for their names
# and for reading the element-level symbols of ``symbol_oracle``.


def _field_kind(field) -> str:
    if isinstance(field, FiniteField):
        return "finite"
    if isinstance(field, RationalField):
        return "rational"
    if isinstance(field, RatFunField):
        return "ratfun-finite" if isinstance(field.base, FiniteField) else "ratfun-rational"
    return "other"


def oracle_k2_coords(field, monomials) -> MilnorCoords:
    kind = _field_kind(field)
    pairs = [(syms, c) for (k, syms), c in monomials.items() if k == 0]
    if kind == "finite":
        return MilnorCoords(field, 2, None)
    if kind == "rational":
        two_adic = 1
        infinite = 1
        tame: Dict[int, FieldElem] = {}
        for (a, b), c in pairs:
            two_adic *= hilbert(a, b, 2) ** c
            infinite *= hilbert(a, b, "real") ** c
            for place in support_places(field, [a, b]):
                if place.kind != "prime" or place.data == 2:
                    continue
                p = place.data
                val = tame_symbol(a, b, place) ** c
                tame[p] = tame[p] * val if p in tame else val
        cleaned = tuple(
            (p, tame[p]) for p in sorted(tame) if tame[p] != finite_field(p).one
        )
        return MilnorCoords(field, 2, (two_adic, infinite, cleaned))
    if kind == "ratfun-finite":
        tame_places: Dict[object, FieldElem] = {}
        for (a, b), c in pairs:
            for place in support_places(field, [a, b]):
                if place.kind != "poly":
                    continue
                val = tame_symbol(a, b, place) ** c
                tame_places[place] = (
                    tame_places[place] * val if place in tame_places else val
                )
        cleaned = tuple(
            (place, tame_places[place])
            for place in sorted(
                tame_places, key=lambda pl: (pl.data.degree(), _poly_key(pl.data))
            )
            if tame_places[place] != place.residue_field().one
        )
        return MilnorCoords(field, 2, cleaned)
    raise UnsupportedField("no degree-2 Milnor coordinates for this field")


def oracle_check_fiber(field, degree: int, monomials,
                       milnor: MilnorCoords, witt):
    """Mod-2 agreement of the two fiber components, checked on every
    construction."""
    kind = _field_kind(field)
    if degree == 0:
        if (milnor.data - witt.augmentation()) % 2:
            raise IntegrityFailure("rank parity disagrees with the K_0 part")
        return
    if not in_i_power(witt, degree):
        raise IntegrityFailure("witt component escapes the expected ideal power")
    if degree == 1:
        if square_class(milnor.data) != _signed_disc(field, witt.diag_rep()):
            raise IntegrityFailure("K_1 square class disagrees with the discriminant")
        return
    # degree 2: compare local mod-2 symbol data at every relevant place
    if kind == "finite":
        if not witt_is_zero(witt):
            raise IntegrityFailure("degree-2 form over a finite field must vanish")
        return
    pairs = [(syms, c) for (k, syms), c in monomials.items() if k == 0]
    support: List = []
    seen = set()
    gather: List[FieldElem] = []
    for (a, b), _ in pairs:
        gather.extend([a, b])
    rep_elems = _rep_elems(witt.diag_rep())
    gather.extend(rep_elems)
    if gather:
        for place in support_places(field, gather):
            if place not in seen:
                seen.add(place)
                support.append(place)
    for place in support:
        milnor_side = 1
        for (a, b), c in pairs:
            milnor_side *= hilbert(a, b, place) ** c
        witt_side = 1 if _ehat_matches_hyperbolic(field, rep_elems, place) else -1
        if milnor_side != witt_side:
            raise IntegrityFailure(
                "local symbol data of the two fiber components disagree"
            )


def _verdict(check, *args):
    try:
        check(*args)
    except IntegrityFailure as exc:
        return str(exc)
    return None


def _fiber_verdicts(x, witt):
    """(oracle verdict, current verdict) on the pair (Milnor part of x, witt)."""
    old = _verdict(
        oracle_check_fiber, x.field, 2, x.monomials,
        oracle_k2_coords(x.field, x.monomials), witt,
    )
    new = _verdict(_check_fiber, x.field, 2, x.milnor, witt)
    return old, new


DIFF_FIELDS = {
    "Q": Q,
    "F3t": function_field(finite_field(3)),
    "F5t": F5t,
    "F9t": function_field(finite_field(9)),
}


def _field_elem(field, draw):
    """A nonzero element from (sign or base raws of numerator, same of
    denominator): a small rational over Q, a ratio of polynomials of
    degree at most 2 over F_q(t)."""
    num, den = draw
    if field is Q:
        return Q.elem(num[0] or 1) / Q.elem(den[0] or 1)
    base = list(field.base.elements())
    t = field.t

    def poly(raws):
        out = field.zero
        for i, r in enumerate(raws):
            out = out + field.elem(base[r % len(base)]) * t ** i
        return out or field.one

    return poly(num) / poly(den)


raw_draws = st.tuples(
    st.lists(st.integers(-12, 12), min_size=1, max_size=3),
    st.lists(st.integers(-12, 12), min_size=1, max_size=2),
)


def _two_term(field, a, b, c, c2, d):
    """x = [a][b] + c [c2][d]."""
    return mw_add(sym(field, a, b), mw_scale(sym(field, c2, d), c))


def _witt_variants(x, a, b, d):
    """The genuine Witt component of x and two perturbed ones."""
    field = x.field
    return [x.witt, x.witt + pfister_form(field, [a, d]), pfister_form(field, [a, b])]


class TestFiberCheckDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(DIFF_FIELDS)),
        st.lists(raw_draws, min_size=4, max_size=4),
        st.integers(-3, 3),
    )
    def test_verdicts_match_per_pair_oracle(self, name, draws, c):
        field = DIFF_FIELDS[name]
        a, b, c2, d = (_field_elem(field, draw) for draw in draws)
        x = _two_term(field, a, b, c, c2, d)
        for witt in _witt_variants(x, a, b, d):
            old, new = _fiber_verdicts(x, witt)
            assert old == new

    def test_seeded_corpus_reaches_both_verdicts(self):
        rng = random.Random(8)
        tally = {"pass": 0, "fail": 0}
        for name in sorted(DIFF_FIELDS):
            field = DIFF_FIELDS[name]
            for _ in range(15):
                draws = [
                    ([rng.randint(-12, 12) for _ in range(3)], [rng.randint(-12, 12)])
                    for _ in range(4)
                ]
                a, b, c2, d = (_field_elem(field, draw) for draw in draws)
                x = _two_term(field, a, b, rng.randint(-3, 3), c2, d)
                for witt in _witt_variants(x, a, b, d):
                    old, new = _fiber_verdicts(x, witt)
                    assert old == new
                    tally["pass" if new is None else "fail"] += 1
        assert tally["pass"] and tally["fail"]

    def test_coordinate_equality_matches_oracle(self):
        rng = random.Random(80)
        seen = set()
        for name in sorted(DIFF_FIELDS):
            field = DIFF_FIELDS[name]
            for _ in range(8):
                a, b, c = (
                    _field_elem(field, ([rng.randint(-9, 9) for _ in range(2)], [1]))
                    for _ in range(3)
                )
                pairs = [
                    (sym(field, a, b * c), mw_add(sym(field, a, b), sym(field, a, c))),
                    (sym(field, a, b), mw_neg(sym(field, b, a))),
                    (sym(field, a, -a), mw_zero(field, 2)),
                    (sym(field, a, b), sym(field, a, c)),
                    (mw_scale(sym(field, a, b), 2), sym(field, a * a, b)),
                ]
                for x, y in pairs:
                    old_eq = (
                        oracle_k2_coords(field, x.monomials).data
                        == oracle_k2_coords(field, y.monomials).data
                    )
                    assert (x.milnor == y.milnor) == old_eq
                    assert mw_equal(x, y) == (old_eq and witt_equal(x.witt, y.witt))
                    seen.add(old_eq)
        assert seen == {True, False}


class TestFiberCheck:
    def test_corrupt_pair_recorded_only_in_coordinates(self):
        # [t][2] has Hilbert sign -1 at t and at infinity; the zero form
        # has no support, so only the recorded places can catch it
        coords = sym(F5t, F5t.t, 2).milnor
        with pytest.raises(IntegrityFailure, match="local symbol data"):
            _pair_elem(F5t, 2, coords, gr_zero(F5t))

    def test_corrupt_pair_at_infinity_alone(self):
        inf = function_place(F5t, "inf")
        coords = MilnorCoords(F5t, 2, ((inf, F5.elem(2)),))
        with pytest.raises(IntegrityFailure, match="local symbol data"):
            _pair_elem(F5t, 2, coords, gr_zero(F5t))

    def test_corrupt_pair_over_q(self):
        coords = sym(Q, -1, -1).milnor
        with pytest.raises(IntegrityFailure, match="local symbol data"):
            _pair_elem(Q, 2, coords, gr_zero(Q))

    def test_two_trivial_symbol_pairs_with_zero_form(self):
        # over F_5(t), [t][t+1] has tame symbol -1 at t + 1 and at
        # infinity, a square in F_5: a nonzero Milnor class whose Pfister
        # form is hyperbolic, so (coordinates, 0) lies in the fiber product
        x = sym(F5t, F5t.t, F5t.t + 1)
        assert x.milnor.data
        assert witt_is_zero(x.witt)
        _pair_elem(F5t, 2, x.milnor, gr_zero(F5t))

    def test_pair_elem_degree_one_shares_message(self):
        with pytest.raises(IntegrityFailure, match="expected ideal power"):
            _pair_elem(Q, 1, MilnorCoords(Q, 1, Q.one), gr_unit(Q, 2))

    def test_degree_two_coordinates_are_exact(self):
        for entries in ([-1, -1], [-3, 6], [2, -5], [-7, -1]):
            x = sym(Q, *entries)
            for y in (mw_neg(x), mw_scale(x, -3), mw_scale(x, 2), mw_scale(x, -1)):
                values = [value for _, value in y.milnor.data]
                assert all(type(v) is int or isinstance(v, FieldElem) for v in values)
        assert mw_neg(sym(Q, -1, -1)).milnor == sym(Q, -1, -1).milnor

    def test_infinity_is_recorded(self):
        F3t = DIFF_FIELDS["F3t"]
        t = F3t.t
        coords = sym(F3t, t, t + 1).milnor
        assert [pl for pl, _ in coords.data] == [
            function_place(F3t, "inf"), function_place(F3t, t + 1),
        ]
