"""The polynomial square-class key over F_q(t), kept as the oracle for the
place-set key of ``kmw.fields``.

Here a class over F_q(t) is keyed by (base bit, coefficients of the monic
squarefree polynomial whose irreducible factors are the places of odd
valuation).  A product runs a polynomial gcd and two divisions, the
representative is rebuilt from the key on every call, and local data is
the valuation of that representative.  ``install`` swaps these functions
in for the place-set ones of ``kmw.fields`` (and for the support that
``kmw.witt`` reads off keys), so that whole commands can be run on either
key.
"""

from math import gcd as int_gcd

import kmw.witt
from kmw import fields
from kmw.fields import (
    FiniteField,
    Poly,
    RationalField,
    _PolyExtension,
    _flat_key,
    factor_poly,
    support_places,
    valuation,
)


def oracle_trivial_key(field):
    if isinstance(field, FiniteField):
        return 0
    if isinstance(field, RationalField):
        return (0, 1)
    return (oracle_trivial_key(field.base), (field.base._one_raw,))


def oracle_key_mul(field, k1, k2):
    if isinstance(field, FiniteField):
        return k1 ^ k2
    if isinstance(field, RationalField):
        s1, n1 = k1
        s2, n2 = k2
        g = int_gcd(n1, n2)
        return (s1 ^ s2, (n1 // g) * (n2 // g))
    b1, c1 = k1
    b2, c2 = k2
    base = field.base
    f1, f2 = Poly(base, c1), Poly(base, c2)
    g = f1.gcd(f2)
    prod = (f1 // g) * (f2 // g)
    return (oracle_key_mul(base, b1, b2), prod.coeffs or (base._one_raw,))


def oracle_key_rep(field, key):
    if isinstance(field, FiniteField):
        return field.one if key == 0 else field.nonsquare()
    if isinstance(field, RationalField):
        s, n = key
        return field.elem(-n if s else n)
    b, c = key
    base_rep = oracle_key_rep(field.base, b)
    poly = Poly(field.base, c)
    return field.elem(poly * Poly(field.base, [base_rep.val]))


def oracle_key(x):
    """The polynomial key of a nonzero element of F_q(t)."""
    num, den = x.val
    g = num * den  # same class as num/den
    base = x.field.base
    sf = Poly.constant(base, 1)
    for irr, mult in factor_poly(g.monic()):
        if mult % 2:
            sf = sf * irr
    bit = 0 if base.is_square_raw(g.lc().val) else 1
    return (bit, sf.coeffs or (base._one_raw,))


def oracle_sort_key(field, key):
    if isinstance(field.base, _PolyExtension):
        b, coeffs = key
        return (b, tuple(_flat_key(field.base, c) for c in coeffs))
    return key


def oracle_local(field, key, place):
    """(v mod 2, residue nonsquare bit) of the representative at a place."""
    v, res = valuation(oracle_key_rep(field, key), place)
    return (v % 2, int(not res.field.is_square_raw(res.val)))


def oracle_support(field, rep):
    """``support_places`` of the representative elements."""
    elems = [oracle_key_rep(field, cls.key) for cls in rep]
    return support_places(field, elems) if elems else []


def install(monkeypatch, calls=None):
    """Run ``kmw.fields`` on the polynomial key over F_q(t), appending each
    oracle key built to ``calls`` when it is given.  Classes made before
    are not valid afterwards, so the cached class of -1 is cleared here;
    the caller clears it again once the monkeypatch is undone."""

    def key(x):
        out = oracle_key(x)
        if calls is not None:
            calls.append(out)
        return out

    fields._minus_one_class.cache_clear()
    monkeypatch.setattr(fields, "_trivial_key", oracle_trivial_key)
    monkeypatch.setattr(fields, "_key_mul", oracle_key_mul)
    monkeypatch.setattr(fields, "_fqt_key", key)
    # an oracle key is already (bit, coefficients of the representative)
    monkeypatch.setattr(fields, "_fqt_coeffs", lambda field, k: k)
    monkeypatch.setattr(fields, "_fqt_sort_key", oracle_sort_key)
    monkeypatch.setattr(fields, "_fqt_local", oracle_local)
    monkeypatch.setattr(kmw.witt, "_class_support", oracle_support)
