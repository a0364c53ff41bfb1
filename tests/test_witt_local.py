"""Witt decisions from per-place local data against the pairwise
oracle (``witt_oracle``), and square decisions in polynomial extensions
by quadratic reciprocity against Euler's criterion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmw.fields import (
    Poly,
    _PolyExtension,
    extension_field,
    finite_field,
    function_field,
    function_place,
    poly_is_irreducible,
    rationals,
    square_class,
    support_places,
)
from kmw.group_ring import pfister_form
from kmw.witt import _local_hasse, in_i_power, witt_is_zero
from witt_oracle import _hasse_product, diagonal, oracle_in_i_cube, oracle_witt_is_zero

Q = rationals()
FIELDS = {
    "Q": Q,
    "F3t": function_field(finite_field(3)),
    "F5t": function_field(finite_field(5)),
    "F9t": function_field(finite_field(9)),
    "F25t": function_field(finite_field(25)),
}


def _elem(field, num, den):
    """A nonzero element from two lists of small ints: a rational over Q;
    over F_q(t) a ratio of polynomials with those base raws, low degree
    first, so numerators reach degree 4."""
    if field is Q:
        n = 1
        for x in num:
            n *= x or 1
        return Q.elem(n) / Q.elem(sum(abs(x) for x in den) or 1)
    base = field.base

    def poly(raws):
        p = Poly(base, [r % base.order for r in raws])
        return p if not p.is_zero() else Poly.constant(base, 1)

    return field.elem((poly(num), poly(den)))


ints = st.integers(-30, 30)
elem_draws = st.tuples(
    st.lists(ints, min_size=1, max_size=5), st.lists(ints, min_size=1, max_size=3)
)


def _classes(elems):
    # the local data path reads entries by their square classes
    return [square_class(x) for x in elems]


def _random_elem(field, rng):
    num = [rng.randint(-30, 30) for _ in range(rng.randint(1, 5))]
    den = [rng.randint(-30, 30) for _ in range(rng.randint(1, 3))]
    return _elem(field, num, den)


class TestLocalHasseAgainstPairwise:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(FIELDS)), st.lists(elem_draws, min_size=1, max_size=7))
    def test_every_support_place(self, name, draws):
        field = FIELDS[name]
        elems = [_elem(field, num, den) for num, den in draws]
        for place in support_places(field, elems):
            assert _local_hasse(_classes(elems), place) == _hasse_product(elems, place), place

    def test_seeded_corpus_reaches_high_degree_places_and_both_signs(self):
        rng = random.Random(20261018)
        for name, field in FIELDS.items():
            seen = set()
            high = 0
            for _ in range(60):
                elems = [_random_elem(field, rng) for _ in range(rng.randint(1, 7))]
                form_elems = [cls.rep() for cls in diagonal(field, elems).diag_rep()]
                for entries in (elems, form_elems):
                    for place in support_places(field, entries):
                        h = _local_hasse(_classes(entries), place)
                        assert h == _hasse_product(entries, place), (name, place)
                        seen.add((_place_type(place), h))
                        high += place.degree() >= 2
            types = ("real", "2", "tame") if field is Q else ("tame",)
            for kind in types:
                assert {(kind, 1), (kind, -1)} <= seen, (name, seen)
            if field is not Q:
                assert high >= 20, (name, high)


def _place_type(place):
    if place.kind == "real":
        return "real"
    return "2" if place.kind == "prime" and place.data == 2 else "tame"


def _corpus_form(field, rng):
    """A form that is often in I^2 or I^3: small multiples of 2-fold
    Pfister forms, Steinberg forms <<a, 1 - a>>, the pair <<a, b>> -
    <<a, -ab>>, hyperbolic planes, and sometimes one random entry."""
    def unit():
        return _random_elem(field, rng)

    form = rng.randint(0, 2) * diagonal(field, [1, -1])
    for _ in range(rng.randint(1, 3)):
        a, b = unit(), unit()
        form = form + rng.randint(-2, 2) * pfister_form(field, [a, b])
    a, b = unit(), unit()
    if a != 1:
        form = form + rng.randint(-1, 1) * pfister_form(field, [a, 1 - a])
    form = form + rng.randint(-1, 1) * (
        pfister_form(field, [a, b]) - pfister_form(field, [a, -a * b])
    )
    if rng.random() < 0.2:
        form = form + diagonal(field, [unit()])
    return form


class TestDecisionsAgainstPairwise:
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_in_i_cube_and_witt_is_zero_verdicts(self, name):
        field = FIELDS[name]
        rng = random.Random(sorted(FIELDS).index(name) + 7)
        verdicts = set()
        for _ in range(50):
            form = _corpus_form(field, rng)
            cube = in_i_power(form, 3)
            zero = witt_is_zero(form)
            assert cube == oracle_in_i_cube(form)
            assert zero == oracle_witt_is_zero(form)
            verdicts.add((cube, zero, in_i_power(form, 2)))
        # some forms lie in I^2 but not in I^3, some are Witt-zero
        assert (False, False, True) in verdicts, verdicts
        assert (True, True, True) in verdicts, verdicts

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(FIELDS)), st.integers(0, 2**32))
    def test_hypothesis_verdicts(self, name, seed):
        field = FIELDS[name]
        form = _corpus_form(field, random.Random(seed))
        assert in_i_power(form, 3) == oracle_in_i_cube(form)
        assert witt_is_zero(form) == oracle_witt_is_zero(form)


# -- square decisions in polynomial extensions ---------------------------


def _random_irreducible(base, d, rng):
    while True:
        f = Poly(base, [rng.randrange(base.order) for _ in range(d)] + [base._one_raw])
        if poly_is_irreducible(f):
            return f


def _check_against_euler(K, raws):
    half = (K.order - 1) // 2
    for a in raws:
        assert _PolyExtension.is_square_raw(K, a) == (K._poly_pow(a, half) == 1), (K, a)


def _sample(K, rng, n=150):
    if K.order <= 300:
        return range(1, K.order)
    return [rng.randrange(1, K.order) for _ in range(n)]


class TestReciprocitySquareTest:
    @pytest.mark.parametrize("q", [3, 5, 9, 25, 27])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_euler_criterion(self, q, d):
        rng = random.Random(q * 10 + d)
        base = finite_field(q)
        for _ in range(2):
            K = extension_field(base, _random_irreducible(base, d, rng))
            _check_against_euler(K, _sample(K, rng))

    def test_nested_extension(self):
        rng = random.Random(5)
        F3 = finite_field(3)
        inner = extension_field(F3, Poly(F3, [2, 2, 1]))  # x^2 + 2x + 2
        assert type(inner) is _PolyExtension
        outer = extension_field(inner, _random_irreducible(inner, 3, rng))
        assert outer.order == 729
        _check_against_euler(outer, _sample(outer, rng))

    @pytest.mark.parametrize("q, d", [(3, 4), (5, 3), (9, 2), (25, 2)])
    def test_residue_fields_of_places(self, q, d):
        rng = random.Random(q + d)
        field = function_field(finite_field(q))
        pi = _random_irreducible(field.base, d, rng)
        kappa = function_place(field, pi).residue_field()
        assert kappa.order == q**d
        _check_against_euler(kappa, _sample(kappa, rng))
        # and the residue field's own square test is this one
        for a in _sample(kappa, rng, 20):
            assert kappa.is_square_raw(a) == _PolyExtension.is_square_raw(kappa, a)
