"""Square classes keyed by (bit, places), against the earlier keys of
``square_class_oracle``: the polynomial key over F_q(t), and over Q and
F_q the (sign, squarefree n) and bit keys.  Products, triviality,
representatives, print order, local classes, supports and printed
forms."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmw.fields import (
    FieldElem,
    Poly,
    _class_support,
    _local_class,
    finite_field,
    function_field,
    rational_place,
    rationals,
    square_class,
    support_places,
)
from kmw.group_ring import gr_unit, gr_zero
from square_class_oracle import (
    oracle_finite_key,
    oracle_form_repr,
    oracle_key,
    oracle_key_mul,
    oracle_key_rep,
    oracle_local,
    oracle_rational_key,
    oracle_rational_local,
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


# -- Q and F_q: the earlier (sign, squarefree n) and bit keys

QQ = rationals()
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
FINITE = {q: finite_field(q) for q in (3, 5, 7, 9, 25, 27)}

# a side of a rational: a sign and prime powers, repeated primes and
# powers of 2 among them; the empty product gives +-1
factors = st.lists(st.tuples(st.sampled_from(SMALL_PRIMES), st.integers(1, 4)), max_size=3)
rationals_drawn = st.builds(
    lambda neg, num, den: (-1 if neg else 1)
    * Fraction(math.prod(p**e for p, e in num), math.prod(p**e for p, e in den)),
    st.booleans(),
    factors,
    factors,
)


def _old_key(x):
    """The earlier key of a nonzero element of Q or F_q."""
    if x.field is QQ:
        return oracle_rational_key(x.val)
    return oracle_finite_key(x)


def _check_earlier(cls, old):
    """A class over Q or F_q against its earlier key."""
    field = cls.field
    assert cls.is_trivial() == (old == oracle_trivial_key(field))
    assert cls.rep() == oracle_key_rep(field, old)
    assert repr(cls) == f"cls({oracle_key_rep(field, old)!r})"
    assert cls.sort_key == old


def _rational_places(*xs):
    """The real place, 2, 3, 5 and 7, and every prime of the arguments."""
    primes = {2, 3, 5, 7}
    for x in xs:
        primes.update(p for p in SMALL_PRIMES if (x.numerator * x.denominator) % p == 0)
    return [rational_place("real")] + [rational_place(p) for p in sorted(primes)]


def _check_form(field, terms):
    """The printed form sum +-<a> over the terms (sign, a), against the
    one the earlier keys order and represent."""
    form, counts = gr_zero(field), Counter()
    for neg, a in terms:
        form = form - gr_unit(field, a) if neg else form + gr_unit(field, a)
        counts[_old_key(field.elem(a))] += -1 if neg else 1
    assert repr(form) == oracle_form_repr(field, counts)


class TestBitPlacesKeyAgainstEarlierKeys:
    @settings(max_examples=150, deadline=None)
    @given(rationals_drawn, rationals_drawn)
    def test_rationals(self, a, b):
        x, y = QQ.elem(a), QQ.elem(b)
        ca, cb = square_class(x), square_class(y)
        oa, ob = _old_key(x), _old_key(y)
        _check_earlier(ca, oa)
        _check_earlier(cb, ob)
        prod, old = ca * cb, oracle_key_mul(QQ, oa, ob)
        _check_earlier(prod, old)
        assert prod == square_class(x * y)
        for place in _rational_places(a, b):
            for cls, key in ((ca, oa), (prod, old)):
                assert _local_class(cls, place) == oracle_rational_local(key, place)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), rationals_drawn), max_size=6))
    def test_rational_forms_print_in_earlier_key_order(self, terms):
        _check_form(QQ, terms)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(FINITE)), st.data())
    def test_finite_fields(self, q, data):
        field = FINITE[q]
        raws = st.integers(1, q - 1)
        x, y = FieldElem(field, data.draw(raws)), FieldElem(field, data.draw(raws))
        ca, cb = square_class(x), square_class(y)
        oa, ob = _old_key(x), _old_key(y)
        _check_earlier(ca, oa)
        _check_earlier(cb, ob)
        _check_earlier(ca * cb, oracle_key_mul(field, oa, ob))
        terms = data.draw(st.lists(st.tuples(st.booleans(), raws), max_size=6))
        _check_form(field, [(neg, FieldElem(field, r)) for neg, r in terms])

    def test_seeded_rationals_reach_every_kind_of_local_class(self):
        rng = random.Random(33)
        corpus = [Fraction(1), Fraction(-1), Fraction(4), Fraction(-8), Fraction(1, 32)]
        for _ in range(120):
            num, den = (
                math.prod(rng.choice(SMALL_PRIMES) ** rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
                for _ in range(2)
            )
            corpus.append(rng.choice((-1, 1)) * Fraction(num, den))
        seen = set()
        for a, b in zip(corpus, corpus[1:] + corpus[:1]):
            x, y = QQ.elem(a), QQ.elem(b)
            cls, old = square_class(x) * square_class(y), oracle_key_mul(QQ, _old_key(x), _old_key(y))
            _check_earlier(cls, old)
            for place in _rational_places(a, b):
                got = _local_class(cls, place)
                assert got == oracle_rational_local(old, place)
                kind = "real" if place.kind == "real" else "2" if place.data == 2 else "odd"
                seen.add((kind, got))
        _check_form(QQ, [(i % 3 == 0, a) for i, a in enumerate(corpus[:12])])
        # both signs; odd and even valuation with every unit class mod 8 at
        # 2 and both residue bits at odd primes
        assert {("real", (0,)), ("real", (1,))} <= seen
        assert {("2", (v, u)) for v in (0, 1) for u in (1, 3, 5, 7)} <= seen
        assert {("odd", (v, r)) for v in (0, 1) for r in (0, 1)} <= seen
