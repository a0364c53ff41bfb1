"""The earlier square-class keys, kept as oracles for the (bit, places)
key of ``kmw.fields``: one bit over F_q, (sign, positive squarefree n)
over Q, and over F_q(t) the polynomial key.

The polynomial key of a class over F_q(t) is (base bit, coefficients of
the monic squarefree polynomial whose irreducible factors are the places
of odd valuation).  A product runs a polynomial gcd and two divisions, the
representative is rebuilt from the key on every call, and local data is
the valuation of that representative.  ``install`` swaps these functions
in for the place-set ones of ``kmw.fields`` over F_q(t) (and for the
support that ``kmw.witt`` reads off keys), so that whole commands can be
run on either key.
"""

from math import gcd as int_gcd

import kmw.witt
from kmw import fields
from kmw.errors import MixedFields
from kmw.fields import (
    FiniteField,
    Poly,
    RatFunField,
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


def oracle_rational_key(x):
    """The (sign, squarefree n) key of a nonzero Fraction: n is |num * den|
    with each square divisor d^2 divided out, for d = 2, 3, ... in turn."""
    n = abs(x.numerator * x.denominator)
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        d += 1
    return (int(x < 0), n)


def oracle_finite_key(x):
    """The bit key of a unit of F_q: 1 when x^((q-1)/2) = -1 (Euler)."""
    return 0 if x ** ((x.field.order - 1) // 2) == x.field.one else 1


def oracle_rational_local(key, place):
    """The local class at a place of Q of the representative -n or n of a
    (sign, squarefree n) key: (sign bit,) at the real place, and for
    n = p^v u, (v, u mod 8) at 2 and (v, nonsquare bit of u mod p, by
    Euler's criterion) at an odd prime p."""
    s, n = key
    if place.kind == "real":
        return (s,)
    p = place.data
    v = int(n % p == 0)
    u = (-1 if s else 1) * (n // p if v else n)
    if p == 2:
        return (v, u % 8)
    return (v, int(pow(u % p, (p - 1) // 2, p) == p - 1))


def oracle_form_repr(field, counts):
    """``repr`` of the form sum c<a> over a finite field or Q, from a
    {key: c} dict of earlier keys: terms in key order, zero ones dropped."""
    parts = []
    for key in sorted(k for k, c in counts.items() if c):
        c, tag = counts[key], f"<{oracle_key_rep(field, key)!r}>"
        parts.append(tag if c == 1 else f"-{tag}" if c == -1 else f"{c}*{tag}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


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


def oracle_support(field, keys):
    """``support_places`` of the representative elements of the keys."""
    elems = [oracle_key_rep(field, key) for key in keys]
    return support_places(field, elems) if elems else []


def _poly_key(field, key):
    """An F_q(t) key as ``install`` stores it, written as the oracle's:
    the stored places are the polynomial's coefficients, with () for the
    polynomial 1, so that the trivial key is the library's (0, ())."""
    b, c = key
    return (b, c or (field.base._one_raw,))


def _stored_key(field, key):
    """An oracle key over F_q(t) as ``install`` stores it."""
    b, c = key
    return (b, () if c == (field.base._one_raw,) else c)


def install(monkeypatch, calls=None):
    """Run ``kmw.fields`` on the polynomial key over F_q(t), appending each
    oracle key built to ``calls`` when it is given; classes over F_q and Q
    keep the library's key.  Classes made before are not valid
    afterwards, so the cached class of -1 is cleared here; the caller
    clears it again once the monkeypatch is undone."""
    library_mul = fields.SquareClass.__mul__

    def key(x):
        out = oracle_key(x)
        if calls is not None:
            calls.append(out)
        return _stored_key(x.field, out)

    def mul(self, other):
        field = self.field
        if not isinstance(field, RatFunField) or not isinstance(other, fields.SquareClass):
            return library_mul(self, other)
        if other.field is not field:
            raise MixedFields("square classes over different fields")
        prod = oracle_key_mul(field, _poly_key(field, self.key), _poly_key(field, other.key))
        return fields.SquareClass(field, _stored_key(field, prod))

    def support(field, rep):
        if not isinstance(field, RatFunField):
            return fields._class_support(field, rep)
        return oracle_support(field, [_poly_key(field, cls.key) for cls in rep])

    fields._minus_one_class.cache_clear()
    monkeypatch.setattr(fields.SquareClass, "__mul__", mul)
    monkeypatch.setattr(fields, "_fqt_key", key)
    # a stored key is (bit, coefficients of the representative)
    monkeypatch.setattr(fields, "_fqt_coeffs", _poly_key)
    monkeypatch.setattr(
        fields, "_fqt_sort_key", lambda field, k: oracle_sort_key(field, _poly_key(field, k))
    )
    monkeypatch.setattr(
        fields, "_fqt_local", lambda field, k, place: oracle_local(field, _poly_key(field, k), place)
    )
    monkeypatch.setattr(kmw.witt, "_class_support", support)
