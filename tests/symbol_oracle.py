"""The element-level Hilbert and tame symbols, kept as the oracle for the
local-class path of ``kmw.fields``.

Here the Hilbert symbol over Q is computed from the arguments' values:
the (-1)^(eps eps + alpha omega + beta omega) formula at 2, the sign rule
at the real place, and Euler's criterion on the tame symbol at an odd
prime; over F_q(t) it is the quadratic character of the tame symbol.  The
tame symbol over Q reads p-adic valuations and unit parts off the
fraction (``rational_valuation``, ``_frac_mod``).  ``install`` swaps these
symbols in for every binding of ``kmw.fields.hilbert`` and
``kmw.fields.tame_symbol``, so that whole commands can be run on either.
"""

from fractions import Fraction
from functools import lru_cache

import kmw.fields
import kmw.milnor_witt
import kmw.suites
from kmw.errors import (
    InfinitePlace,
    MixedFields,
    UnsupportedField,
    ZeroArgument,
    ZeroInversion,
)
from kmw.fields import (
    FieldElem,
    FiniteField,
    RatFunField,
    RationalField,
    _as_place,
    rationals,
    valuation,
)


def rational_valuation(x, p: int) -> tuple[int, Fraction]:
    """p-adic valuation of a nonzero rational and its unit part."""
    x = Fraction(x)
    if not x:
        raise ZeroArgument("valuation of zero")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _frac_mod(x: Fraction, p: int) -> int:
    den = x.denominator % p
    if den == 0:
        raise ZeroInversion(f"denominator divisible by {p}")
    return (x.numerator % p) * pow(den, -1, p) % p


def _eps(u: int) -> int:
    # (u - 1)/2 mod 2 for odd u
    return ((u % 8) - 1) // 2 % 2


def _omega(u: int) -> int:
    # (u^2 - 1)/8 mod 2 for odd u
    return 0 if u % 8 in (1, 7) else 1


@lru_cache(maxsize=1 << 16)
def tame_symbol(a, b, place) -> FieldElem:
    """Tame symbol (-1)^{v(a)v(b)} a^{v(b)} b^{-v(a)} reduced at a finite
    place; the result lives in the residue field."""
    if isinstance(a, FieldElem):
        field = a.field
    elif isinstance(b, FieldElem):
        field = b.field
    else:
        field = rationals()
    if isinstance(field, RationalField):
        place = _as_place(field, place)
        if place.kind == "real":
            raise InfinitePlace("no tame symbol at the real place")
        p = place.data
        a, b = Fraction(a if not isinstance(a, FieldElem) else a.val), Fraction(
            b if not isinstance(b, FieldElem) else b.val
        )
        if not a or not b:
            raise ZeroArgument("tame symbol needs nonzero arguments")
        kappa = place.residue_field()
        va, ua = rational_valuation(a, p)
        vb, ub = rational_valuation(b, p)
        sign = -1 if (va * vb) % 2 else 1
        value = Fraction(sign) * ua**vb / ub**va
        return kappa.elem(_frac_mod(value, p))
    if isinstance(field, RatFunField):
        place = _as_place(field, place)
        a = field.elem(a) if not isinstance(a, FieldElem) else a
        b = field.elem(b) if not isinstance(b, FieldElem) else b
        if a.field is not field or b.field is not field:
            raise MixedFields("tame symbol arguments over different fields")
        if not a or not b:
            raise ZeroArgument("tame symbol needs nonzero arguments")
        va, ra = valuation(a, place)
        vb, rb = valuation(b, place)
        kappa = ra.field
        sign = kappa.one if (va * vb) % 2 == 0 else -kappa.one
        return sign * ra**vb * rb ** (-va)
    raise UnsupportedField(f"no tame symbols over {field}")


@lru_cache(maxsize=1 << 16)
def hilbert(a, b, place) -> int:
    """Hilbert symbol (a, b) at a place of Q or of F_q(t); returns +-1."""
    if isinstance(a, FieldElem) and isinstance(a.field, RatFunField):
        field = a.field
    elif isinstance(b, FieldElem) and isinstance(b.field, RatFunField):
        field = b.field
    else:
        field = rationals()

    if isinstance(field, RatFunField):
        if not isinstance(field.base, FiniteField):
            raise UnsupportedField("Hilbert symbols over Q(t) are not supported")
        place = _as_place(field, place)
        val = tame_symbol(a, b, place)
        kappa = val.field
        return 1 if kappa.is_square_raw(val.val) else -1

    place = _as_place(field, place)
    a = Fraction(a.val if isinstance(a, FieldElem) else a)
    b = Fraction(b.val if isinstance(b, FieldElem) else b)
    if not a or not b:
        raise ZeroArgument("Hilbert symbol needs nonzero arguments")
    if place.kind == "real":
        return -1 if a < 0 and b < 0 else 1
    p = place.data
    if p == 2:
        alpha, u = rational_valuation(a, 2)
        beta, w = rational_valuation(b, 2)
        um = _frac_mod(u, 8)
        wm = _frac_mod(w, 8)
        exp = _eps(um) * _eps(wm) + alpha * _omega(wm) + beta * _omega(um)
        return -1 if exp % 2 else 1
    val = tame_symbol(a, b, place)
    kappa = val.field
    r = pow(val.val, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


#: every binding of the library's symbols, as (module, name)
BINDINGS = (
    (kmw.fields, "hilbert"),
    (kmw.fields, "tame_symbol"),
    (kmw.milnor_witt, "hilbert"),
    (kmw.milnor_witt, "tame_symbol"),
    (kmw.suites, "hilbert"),
)


def install(monkeypatch, calls=None):
    """Bind this module's ``hilbert`` and ``tame_symbol`` at every entry
    of ``BINDINGS``, appending the name of each symbol evaluated to
    ``calls`` when it is given."""
    oracles = {"hilbert": hilbert, "tame_symbol": tame_symbol}

    def counted(name):
        def call(a, b, place):
            if calls is not None:
                calls.append(name)
            return oracles[name](a, b, place)
        return call

    for module, name in BINDINGS:
        monkeypatch.setattr(module, name, counted(name))
