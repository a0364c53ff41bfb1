"""Square classes over F_q(t) keyed by place sets, against the polynomial
key of ``square_class_oracle``: products, triviality, representatives,
print order, local classes and supports."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmw.fields import (
    Poly,
    _class_support,
    _local_class,
    finite_field,
    function_field,
    square_class,
    support_places,
)
from square_class_oracle import (
    oracle_key,
    oracle_key_mul,
    oracle_key_rep,
    oracle_local,
    oracle_sort_key,
    oracle_trivial_key,
)

FIELDS = {q: function_field(finite_field(q)) for q in (3, 5, 9, 25)}


def _elem(field, factors, square, den):
    """A nonzero element: a product of polynomials with the given base
    raws (low degree first), times the square of another, over a third."""
    base = field.base

    def poly(raws):
        p = Poly(base, [r % base.order for r in raws])
        return p if not p.is_zero() else Poly.constant(base, 1)

    num = Poly.constant(base, 1)
    for raws in factors:
        num = num * poly(raws)
    s = poly(square)
    return field.elem((num * s * s, poly(den)))


def _polynomial_key(cls):
    """The place-set key written as the oracle's polynomial key."""
    base = cls.field.base
    prod = Poly.constant(base, 1)
    for c in cls.key[1]:
        prod = prod * Poly(base, c)
    return (cls.key[0], prod.coeffs)


def _check_class(cls, old):
    field = cls.field
    assert _polynomial_key(cls) == old
    assert cls.is_trivial() == (old == oracle_trivial_key(field))
    assert repr(cls.rep()) == repr(oracle_key_rep(field, old))
    assert cls.rep() == oracle_key_rep(field, old)
    assert cls.sort_key == oracle_sort_key(field, old)
    assert repr(cls) == f"cls({oracle_key_rep(field, old)!r})"


def _check_local(cls, old, places):
    """Local classes at the given places, all read off the keys, against
    the valuation of the oracle's representative; returns what was seen."""
    field = cls.field
    seen = set()
    for place in places:
        got = _local_class(cls, place)
        assert got == oracle_local(field, old, place), (cls, place)
        seen.add((place.kind, place.degree() >= 2, got))
    return seen


raws = st.lists(st.integers(0, 24), min_size=1, max_size=4)
elem_draws = st.tuples(
    st.lists(raws, min_size=0, max_size=3), raws, st.lists(st.integers(0, 24), max_size=3)
)


class TestPlaceSetKeyAgainstPolynomialKey:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(FIELDS)), elem_draws, elem_draws)
    def test_products_and_local_classes(self, q, da, db):
        field = FIELDS[q]
        a, b = _elem(field, *da), _elem(field, *db)
        ca, cb = square_class(a), square_class(b)
        oa, ob = oracle_key(a), oracle_key(b)
        _check_class(ca, oa)
        _check_class(cb, ob)
        prod, old = ca * cb, oracle_key_mul(field, oa, ob)
        _check_class(prod, old)
        assert prod == square_class(a * b)
        support = support_places(field, [a, b])
        _check_local(prod, old, support)
        _check_local(ca, oa, support)
        assert _class_support(field, [ca, cb]) == support_places(
            field, [oracle_key_rep(field, oa), oracle_key_rep(field, ob)]
        )

    @pytest.mark.parametrize("q", sorted(FIELDS))
    def test_seeded_corpus_reaches_high_degree_places_and_nonsquares(self, q):
        field = FIELDS[q]
        rng = random.Random(q)

        def draw():
            return (
                [[rng.randrange(q) for _ in range(rng.randint(1, 4))]
                 for _ in range(rng.randint(0, 3))],
                [rng.randrange(q) for _ in range(rng.randint(1, 3))],
                [rng.randrange(q) for _ in range(rng.randint(1, 3))],
            )

        seen = set()
        for _ in range(40):
            a, b = _elem(field, *draw()), _elem(field, *draw())
            cls, old = square_class(a) * square_class(b), oracle_key_mul(
                field, oracle_key(a), oracle_key(b)
            )
            _check_class(cls, old)
            seen |= _check_local(cls, old, support_places(field, [a, b]))
        # odd and even valuation with both residue bits, at places of
        # degree one and of degree at least two, and at infinity
        for high in (False, True):
            for local in ((0, 0), (0, 1), (1, 0), (1, 1)):
                assert ("poly", high, local) in seen, (q, high, local)
        assert {("inf", False, (v, 1)) for v in (0, 1)} & seen, q
