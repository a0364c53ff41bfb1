"""Base fields and their quadratic symbol calculus.

Supported bases: odd-order finite fields F_q (polynomial quotients
over a base field, down to the prime field), the rationals, and
rational function fields over either.  On top of the arithmetic sit
square classes with canonical keys, places with residue fields,
valuations, polynomial factorization over F_q, and the Hilbert and
tame symbols.

Conventions that the rest of the library leans on:

* an F_q element's raw value is an int in [0, q), its index in the
  counting order; the fields of ``finite_field(q)`` with at most 2^16
  elements compute by log/Zech table lookups built on first use, other
  extensions (residue fields among them) by polynomial arithmetic over
  their base, deciding squares by quadratic reciprocity;
* the generator g of F_q is the first unit in counting order (past the
  base field's raws, for an extension) of order q - 1: a nonsquare, for
  an extension decided by reciprocity rather than by a power, with
  g^((q-1)/r) != 1 for each odd prime r | q - 1; the log tables are
  indexed by its powers;
* square classes exist over F_q, Q and F_q(t) (``_has_classes``), each
  keyed as (bit, places): the class over F_q, the sign over Q, the base
  class of the leading coefficient over F_q(t), and the sorted places
  of odd valuation (none, primes, coefficient tuples of monic
  irreducibles); a product is a bit XOR and a symmetric difference,
  the support of a class is read off its key, and over F_q(t) so is
  its local data; Q(t) has no square classes (``square_class`` raises
  ``UnsupportedField``): its residues read valuations;
* finite places of a function field are monic irreducible polynomials,
  plus the degree place at infinity with uniformizer 1/t; place lists
  run in ``_place_order``;
* each symbol has one path: the tame symbol reads ``valuation``, at the
  primes of Q as at the places of k(t), and the Hilbert symbol reads the
  local square classes of its arguments (``_local_class``) through
  ``_symbol_bit``, which ``kmw.witt`` reads as well; both take the field
  of their first element argument, or Q for plain numbers;
* all constructors are cached, so field handles compare by identity;
* text has one reader per grammar, its integers ASCII digits only:
  field specs (``field_make``, the CLI's too), elements (``parse_elem``)
  and their tokens (``_next_token``, shared by bracket expressions).
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import (
    BadText,
    InfinitePlace,
    MixedFields,
    NonIrreducibleModulus,
    UnsupportedField,
    UnsupportedPlace,
    ZeroArgument,
    ZeroInversion,
    ZeroPolynomial,
)

# ---------------------------------------------------------------------------
# text grammars

# every integer kmw reads from text is ASCII digits; int() would also take
# other scripts' digits, "+7", "1_000" or " 7", and str.isdigit the first
_DIGITS = "[0-9]+"
_DECIMAL = re.compile(f"-?{_DIGITS}")
_FIELD_SPEC = re.compile(f"(Q|F(?P<q>{_DIGITS}))(?P<t>t?)")

# ---------------------------------------------------------------------------
# integer helpers


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _primes_upto(bound: int) -> list[int]:
    """The primes up to the bound, by ``_is_prime``."""
    return [n for n in range(2, bound + 1) if _is_prime(n)]


@lru_cache(maxsize=None)
def factor_int(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of a positive integer by trial division."""
    if n <= 0:
        raise ZeroArgument("factorization needs a positive integer")
    out = []
    for p in itertools.chain([2], itertools.count(3, 2)):
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _prime_power(q: int) -> tuple[int, int]:
    fac = factor_int(q) if q >= 2 else ()
    if len(fac) != 1:
        raise BadText(f"{q} is not a prime power")
    return fac[0]


# ---------------------------------------------------------------------------
# fields and elements


def _power(x, e: int, times):
    """x^e for e >= 1 by left-to-right square and multiply: one squaring
    per bit of e below the top and one product per set bit below it."""
    out = x
    for bit in bin(e)[3:]:
        out = times(out, out)
        if bit == "1":
            out = times(out, x)
    return out


class Field:
    """Common surface of all field handles.  ``_zero_raw`` and
    ``_one_raw`` are the raw values of zero and one."""

    def elem(self, x) -> "FieldElem":
        raise NotImplementedError

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, self._zero_raw)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, self._one_raw)


class FieldElem:
    """An element tied to its field handle; arithmetic stays inside one
    field and raises ``MixedFields`` otherwise."""

    __slots__ = ("field", "val")

    def __init__(self, field: Field, val):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "val", val)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.field is not self.field:
                raise MixedFields(
                    f"cannot combine elements of {self.field} and {other.field}"
                )
            return other
        return self.field.elem(other)

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElem(self.field, self.field._add(self.val, o.val))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.field, self.field._neg(self.val))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return FieldElem(self.field, self.field._mul(self.val, o.val))

    __rmul__ = __mul__

    def inv(self) -> "FieldElem":
        return FieldElem(self.field, self.field._inv(self.val))

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        if e == 0:
            return self.field.one
        return _power(self, e, mul)

    def __bool__(self):
        return self.val != self.field._zero_raw

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.field is other.field and self.val == other.val
        try:
            return self == self.field.elem(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.val))

    def __repr__(self):
        return self.field._format(self.val)


class FiniteField(Field):
    """F_q for odd prime powers q.  Every raw element value is an int in
    [0, q): the element's index in the counting order.

    An extension of degree d over a base with b elements is base[x]
    modulo a monic irreducible, and c_0 + c_1 x + ... + c_{d-1} x^{d-1}
    has raw value c_0 + c_1 b + ... + c_{d-1} b^{d-1}, the c_i being base
    raws, so the constant coefficient varies fastest.  Zero is 0, one is
    1, and a base element keeps its raw value in the extension.

    This class is the prime field, computing mod p.  The extensions of
    ``finite_field(q)`` with at most 2^16 elements are
    ``_TabledExtension`` (log/Zech lookups); all others are
    ``_PolyExtension`` (polynomials over the base); see ``_TABLE_LIMIT``."""

    _zero_raw = 0
    _one_raw = 1

    def __init__(self, p: int, base: Optional["FiniteField"] = None, modulus=None, _token=None):
        if _token is not _FF_TOKEN:
            raise TypeError("use finite_field() or extension_field()")
        self.p = p
        self.base = base
        self.modulus = modulus  # Poly over base, monic irreducible
        if base is None:
            self.order = p
            self.degree = 1
        else:
            self.order = base.order ** modulus.degree()
            self.degree = base.degree * modulus.degree()
        self._nonsquare = None

    # raw arithmetic -------------------------------------------------

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _inv(self, a):
        if not a:
            raise ZeroInversion(f"division by zero in {self}")
        return pow(a, -1, self.p)

    def _pow_raw(self, a, e: int):
        return pow(a, e, self.p)

    def _format(self, a) -> str:
        # an extension's element prints as its coordinates over the prime
        # field, the digit tuple that parse_elem reads
        return str(_flat_key(self, a) if self.degree > 1 else a)

    @cached_property
    def _tables(self) -> tuple[list, list, list]:
        """(exp, log, zech) for the generator g, built on first use:
        exp[n] = g^n for 0 <= n < 2(q-1), so sums of two logs need no
        reduction; log[g^n] = n; zech[n] = log(1 + g^n), or -1 where
        1 + g^n = 0.  A negative index n > -(q-1) reads zech[n + q - 1]."""
        powers = self._generator_powers()
        log = [0] * self.order
        for n, a in enumerate(powers):
            log[a] = n
        zech = [log[b] if b else -1 for b in map(self._plus_one, powers)]
        return powers + powers, log, zech

    def _generator_powers(self) -> list:
        g = self._generator
        out = [1]
        for _ in range(self.order - 2):
            out.append(out[-1] * g % self.p)
        return out

    def _plus_one(self, a):
        return (a + 1) % self.p

    def _first_generator(self, pow_raw) -> int:
        """The first unit in counting order with a^((q-1)/r) != 1 for
        every prime r | q - 1.  For r = 2 that says a is a nonsquare,
        which an extension decides by reciprocity, a few Euclid steps in
        base[x], rather than by a power; the tabled subclass's
        ``is_square_raw`` reads the tables being built, so the polynomial
        one is called by name.  ``pow_raw`` serves the odd r."""
        target = self.order - 1
        odd = [r for r, _ in factor_int(target) if r != 2]
        if self.base is None:
            is_square, start = self.is_square_raw, 1
        else:
            # an extension's base elements, raws below |base|, have orders
            # dividing |base| - 1 < q - 1, so the scan starts past them
            is_square = partial(_PolyExtension.is_square_raw, self)
            start = self.base.order
        for a in range(start, self.order):
            if not is_square(a) and all(pow_raw(a, target // r) != 1 for r in odd):
                return a
        raise IndexError("no generator found")  # unreachable

    # public surface -------------------------------------------------

    def elem(self, x) -> FieldElem:
        if isinstance(x, FieldElem):
            if x.field is self:
                return x
            raise MixedFields(f"cannot coerce element of {x.field} into {self}")
        if isinstance(x, int):
            return FieldElem(self, x % self.p)
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def elements(self) -> Iterable[FieldElem]:
        """All elements, in the counting order of their raw values."""
        for raw in range(self.order):
            yield FieldElem(self, raw)

    def units(self) -> Iterable[FieldElem]:
        for raw in range(1, self.order):
            yield FieldElem(self, raw)

    def is_square_raw(self, a) -> bool:
        if not a:
            raise ZeroArgument("square class of zero")
        return self._pow_raw(a, (self.order - 1) // 2) == 1

    def nonsquare(self) -> FieldElem:
        """First nonsquare in enumeration order (canonical representative
        of the nontrivial square class)."""
        if self._nonsquare is None:
            for e in self.units():
                if not self.is_square_raw(e.val):
                    self._nonsquare = e
                    break
        return self._nonsquare

    def generator(self) -> FieldElem:
        """First multiplicative generator in enumeration order."""
        return FieldElem(self, self._generator)

    @cached_property
    def _generator(self) -> int:
        return self._first_generator(self._pow_raw)

    def __repr__(self):
        return f"F{self.order}"


class _PolyExtension(FiniteField):
    """base[x] modulo the modulus, computed on decoded coefficient lists
    with the ``_pl_*`` helpers over the base: the arithmetic of residue
    fields, of nested extensions and of extensions above 2^16 elements,
    where tables would not pay, and of the table build.  Squares are
    decided by quadratic reciprocity in base[x], a few Euclid steps.
    ``_tables``, built only when asked for, list the generator's powers
    by F_p-linear lookups on base-p digits (``_generator_powers``), one
    builder for every extension, tabled or not."""

    def __init__(self, p, base, modulus, _token=None):
        super().__init__(p, base, modulus, _token)
        self._d = modulus.degree()
        self._mod = list(modulus.coeffs)
        self._weights = [base.order**i for i in range(self._d)]

    def _coeffs(self, a) -> list:
        """The d base raws of a raw value, constant coefficient first."""
        b = self.base.order
        out = []
        for _ in range(self._d):
            a, c = divmod(a, b)
            out.append(c)
        return out

    def _encode(self, coeffs) -> int:
        """Raw value of a base-raw coefficient list; entries past degree
        d - 1 are ignored."""
        return sum(c * w for c, w in zip(coeffs, self._weights))

    def _add(self, a, b):
        add = self.base._add
        return self._encode([add(x, y) for x, y in zip(self._coeffs(a), self._coeffs(b))])

    def _neg(self, a):
        return self._encode([self.base._neg(x) for x in self._coeffs(a)])

    def _poly_mul(self, a, b):
        prod = _pl_mul(self.base, self._coeffs(a), self._coeffs(b))
        return self._encode(_pl_rem(self.base, prod, self._mod))

    def _poly_pow(self, a, e: int):
        return _power(a, e, self._poly_mul) if e else 1

    _mul = _poly_mul
    _pow_raw = _poly_pow

    @cached_property
    def _generator(self) -> int:
        # by polynomial powers: the tabled subclass's powers read the
        # tables that are indexed by this generator
        return self._first_generator(self._poly_pow)

    def _generator_powers(self) -> list:
        # g^0, ..., g^(q-2).  Multiplication by g is linear over F_p, and
        # a raw value is the vector of its n = degree base-p digits (see
        # _flat_key).  Split each power into a high and a low part at
        # S = p^ceil(n/2), look up g times each part, and add the two
        # images chunk by chunk in a K x K table of digitwise sums mod p.
        # The images are cut into two chunks of n/2 digits for even n and
        # three of ceil(n/3) for odd n, so the table has K^2 <= q entries.
        p, n = self.p, self.degree
        chunks = 2 if n % 2 == 0 else 3
        K = p ** -(-n // chunks)
        S = p ** -(-n // 2)

        def by_top_digit(count, first, entry):
            # out[c] = entry(out[c - P], P) for c < count, P the place of
            # c's top digit
            out = [first]
            top = 1
            for c in range(1, count):
                if c == top * p:
                    top *= p
                out.append(entry(out[c - top], top))
            return out

        def places(count):
            return [p**i for i in range(n) if p**i < count]

        # add[u][v]: digitwise sum mod p of u and v < K
        bump = {P: [w - (p - 1) * P if w // P % p == p - 1 else w + P for w in range(K)]
                for P in places(K)}
        add = by_top_digit(K, list(range(K)), lambda row, P: [bump[P][w] for w in row])
        g = self._generator

        def split(a):
            out = []
            for _ in range(chunks):
                a, c = divmod(a, K)
                out.append(c)
            return out[::-1]

        def images(scale, count):
            # the chunks of g * c * scale for c < count, from g times each place
            unit = {P: split(self._poly_mul(g, P * scale)) for P in places(count)}
            return by_top_digit(count, [0] * chunks,
                                lambda prev, P: [add[u][v] for u, v in zip(prev, unit[P])])

        low, high = images(1, S), images(S, self.order // S)
        out = []
        a = 1
        for _ in range(self.order - 1):
            out.append(a)
            h, l = divmod(a, S)
            a = 0
            for u, v in zip(high[h], low[l]):
                a = a * K + add[u][v]
        return out

    def _inv(self, a):
        if not a:
            raise ZeroInversion(f"division by zero in {self}")
        g, s = _pl_invmod(self.base, self._coeffs(a), self._mod)
        if g is None:
            raise ZeroInversion(f"non-invertible element in {self}")
        return self._encode(s)

    def _plus_one(self, a):
        c = a % self.base.order
        return a - c + self.base._add(c, 1)

    def is_square_raw(self, a) -> bool:
        """The Jacobi symbol (a / m) in base[x], m the modulus, by the
        Euclid steps of quadratic reciprocity in F_Q[x] (Rosen, *Number
        Theory in Function Fields*, ch. 3), Q = |base|: for monic coprime
        a and m, (a/m) = (-1)^(((Q-1)/2) deg a deg m) (m/a), and a
        constant c has (c/m) = chi(c)^deg m, chi the base character."""
        if not a:
            raise ZeroArgument("square class of zero")
        base = self.base
        half = (base.order - 1) // 2
        a, m = _pl_trim(base, self._coeffs(a)), self._mod
        odd = False  # the symbol is (-1)^odd times (a / m)
        while True:
            lc = a[-1]
            if len(m) % 2 == 0 and not base.is_square_raw(lc):  # deg m odd
                odd = not odd
            if len(a) == 1:
                return not odd
            inv = base._inv(lc)
            a = [base._mul(c, inv) for c in a]
            if half * (len(a) - 1) * (len(m) - 1) % 2:
                odd = not odd
            a, m = _pl_rem(base, m, a), a

    def elem(self, x) -> FieldElem:
        if isinstance(x, FieldElem):
            if x.field is self:
                return x
            if x.field is self.base:
                return FieldElem(self, x.val)
            raise MixedFields(f"cannot coerce element of {x.field} into {self}")
        if isinstance(x, int):
            return FieldElem(self, self.base.elem(x).val)
        raise TypeError(f"cannot coerce {x!r} into {self}")


class _TabledExtension(_PolyExtension):
    """A ``finite_field(q)`` extension with at most 2^16 elements:
    multiplication, inverse, negation and squareness are lookups in
    ``_tables``, and addition goes through the Zech table
    (Lidl & Niederreiter, *Finite Fields*, ch. 9):
    g^a + g^b = g^(a + zech[b - a])."""

    def _add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        exp, log, zech = self._tables
        la = log[a]
        z = zech[log[b] - la]
        return exp[la + z] if z >= 0 else 0

    def _neg(self, a):
        if not a:
            return 0
        exp, log, _ = self._tables
        return exp[log[a] + (self.order - 1) // 2]  # -1 = g^((q-1)/2)

    def _mul(self, a, b):
        if a and b:
            exp, log, _ = self._tables
            return exp[log[a] + log[b]]
        return 0

    def _inv(self, a):
        if not a:
            raise ZeroInversion(f"division by zero in {self}")
        exp, log, _ = self._tables
        return exp[-log[a]]

    def _pow_raw(self, a, e: int):
        if not a:
            return 0 if e else 1
        exp, log, _ = self._tables
        return exp[log[a] * e % (self.order - 1)]

    def is_square_raw(self, a) -> bool:
        if not a:
            raise ZeroArgument("square class of zero")
        return not self._tables[1][a] & 1


_FF_TOKEN = object()

#: Building the tables costs about as much as q polynomial operations, so
#: they pay only in a field that serves more operations than it has
#: elements.  The fields of ``finite_field(q)`` are the bases that whole
#: suites and commands compute in, and serve thousands to millions of
#: operations; a residue field of F_q(t), one per place, serves a few
#: dozen to about a thousand whatever its order.  So only the former are
#: tabled, recognised by their modulus (the first irreducible over the
#: prime field) however they are reached, and only up to this order,
#: where the tables take about 5 MiB.
_TABLE_LIMIT = 1 << 16


@lru_cache(maxsize=None)
def finite_field(q: int) -> FiniteField:
    """The field with q elements, q an odd prime power.  For prime powers
    the modulus is the first monic irreducible of the right degree in
    lexicographic coefficient order, so the construction is canonical."""
    p, e = _prime_power(q)
    if p == 2:
        raise BadText("finite fields of characteristic 2 are not supported")
    base = _prime_field(p)
    if e == 1:
        return base
    mod = _first_irreducible(base, e)
    return extension_field(base, mod)


@lru_cache(maxsize=None)
def _prime_field(p: int) -> FiniteField:
    return FiniteField(p, _token=_FF_TOKEN)


def extension_field(base: FiniteField, modulus: "Poly") -> FiniteField:
    """Quotient of base[x] by a monic irreducible modulus."""
    if modulus.field is not base:
        raise MixedFields("modulus is not a polynomial over the base field")
    if modulus.degree() < 1 or not modulus.is_monic():
        raise NonIrreducibleModulus("modulus must be monic of positive degree")
    return _extension_cached(base, modulus.coeffs)


@lru_cache(maxsize=None)
def _extension_cached(base: FiniteField, coeffs: tuple) -> FiniteField:
    # irreducibility is checked once per distinct modulus; failures are
    # not cached, so a bad modulus raises on every call
    mod = Poly(base, coeffs)
    if not poly_is_irreducible(mod):
        raise NonIrreducibleModulus(f"{mod} factors over {base}")
    d = mod.degree()
    tabled = (base.base is None and base.order**d <= _TABLE_LIMIT
              and coeffs == _first_irreducible(base, d).coeffs)
    cls = _TabledExtension if tabled else _PolyExtension
    return cls(base.p, base, mod, _token=_FF_TOKEN)


@lru_cache(maxsize=None)
def _first_irreducible(base: FiniteField, degree: int) -> "Poly":
    # scan monic polynomials x^d + c_{d-1} x^{d-1} + ... + c_0, ordered
    # lexicographically by (c_{d-1}, ..., c_0) in element counting order
    for tup in itertools.product(range(base.order), repeat=degree):
        coeffs = tuple(reversed(tup)) + (base._one_raw,)
        f = Poly(base, coeffs)
        if poly_is_irreducible(f):
            return f
    raise IndexError("no irreducible polynomial found")  # unreachable


class RationalField(Field):
    """The rationals; raw values are ``Fraction`` in lowest terms."""

    _zero_raw = Fraction(0)
    _one_raw = Fraction(1)

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        if not a:
            raise ZeroInversion("division by zero in Q")
        return 1 / a

    def _format(self, a):
        return str(a)

    def elem(self, x) -> FieldElem:
        if isinstance(x, FieldElem):
            if x.field is self:
                return x
            raise MixedFields(f"cannot coerce element of {x.field} into Q")
        if isinstance(x, (int, Fraction)):
            return FieldElem(self, Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into Q")

    def __repr__(self):
        return "Q"


@lru_cache(maxsize=None)
def rationals() -> RationalField:
    return RationalField()


# ---------------------------------------------------------------------------
# polynomials over a field


def _pl_trim(field: Field, c: list) -> list:
    z = field._zero_raw
    while c and c[-1] == z:
        c.pop()
    return c


def _pl_add(field: Field, a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    add = field._add
    out = [add(x, y) for x, y in zip(a, b)]
    out.extend(a[len(b):])
    return _pl_trim(field, out)


def _pl_neg(field: Field, a: list) -> list:
    return [field._neg(x) for x in a]


def _pl_mul(field: Field, a: list, b: list) -> list:
    if not a or not b:
        return []
    z = field._zero_raw
    add, mul = field._add, field._mul
    out = [z] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == z:
            continue
        for j, y in enumerate(b, i):
            out[j] = add(out[j], mul(x, y))
    return _pl_trim(field, out)


def _pl_divmod(field: Field, a: list, b: list) -> tuple[list, list]:
    if not b:
        raise ZeroInversion("polynomial division by zero")
    a = list(a)
    z = field._zero_raw
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [], _pl_trim(field, a)
    add, mul = field._add, field._mul
    neg_inv_lc = field._neg(field._inv(b[-1]))
    q = [z] * (da - db + 1)
    for i in range(da - db, -1, -1):
        c = mul(a[i + db], neg_inv_lc)  # minus the quotient coefficient
        if c != z:
            q[i] = field._neg(c)
            for j, y in enumerate(b, i):
                a[j] = add(a[j], mul(c, y))
    return _pl_trim(field, q), _pl_trim(field, a)


def _pl_rem(field: Field, a: list, b: list) -> list:
    return _pl_divmod(field, a, b)[1]


def _pl_invmod(field: Field, a: list, m: list):
    """(1, s) with s*a = 1 mod m when gcd(a, m) = 1, else (None, None)."""
    r0, r1 = list(m), _pl_rem(field, a, m)
    s0, s1 = [], [field._one_raw]
    while r1:
        q, r = _pl_divmod(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _pl_add(field, s0, _pl_neg(field, _pl_mul(field, q, s1)))
    if len(r0) != 1:
        return None, None
    inv_lc = field._inv(r0[0])
    return 1, _pl_trim(field, [field._mul(x, inv_lc) for x in s0])


class Poly:
    """Dense univariate polynomial over a field handle.  Coefficients are
    raw field values, lowest degree first, with no trailing zeros."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(_pl_trim(field, list(coeffs))))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def from_elems(cls, field: Field, elems: Sequence) -> "Poly":
        return cls(field, [field.elem(e).val for e in elems])

    @classmethod
    def constant(cls, field: Field, c) -> "Poly":
        return cls(field, [field.elem(c).val])

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, [field._zero_raw, field._one_raw])

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field._one_raw

    def lc(self) -> FieldElem:
        if not self.coeffs:
            raise ZeroPolynomial("leading coefficient of zero")
        return FieldElem(self.field, self.coeffs[-1])

    def coeff(self, i: int) -> FieldElem:
        z = self.field._zero_raw
        return FieldElem(self.field, self.coeffs[i] if i < len(self.coeffs) else z)

    def _same(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(self.field, other)
        if other.field is not self.field:
            raise MixedFields("polynomials over different fields")
        return other

    def __add__(self, other):
        o = self._same(other)
        return Poly(self.field, _pl_add(self.field, list(self.coeffs), list(o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, _pl_neg(self.field, list(self.coeffs)))

    def __sub__(self, other):
        return self + (-self._same(other))

    def __rsub__(self, other):
        return self._same(other) - self

    def __mul__(self, other):
        o = self._same(other)
        return Poly(self.field, _pl_mul(self.field, list(self.coeffs), list(o.coeffs)))

    __rmul__ = __mul__

    def __divmod__(self, other):
        o = self._same(other)
        q, r = _pl_divmod(self.field, list(self.coeffs), list(o.coeffs))
        return Poly(self.field, q), Poly(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        if e == 0:
            return Poly.constant(self.field, 1)
        return _power(self, e, mul)

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        inv = self.field._inv(self.coeffs[-1])
        return Poly(self.field, [self.field._mul(c, inv) for c in self.coeffs])

    def derivative(self) -> "Poly":
        field = self.field
        return Poly(field, [field._mul(c, field.elem(i).val)
                            for i, c in enumerate(self.coeffs[1:], 1)])

    def eval(self, x) -> FieldElem:
        xv = self.field.elem(x).val
        acc = self.field._zero_raw
        for c in reversed(self.coeffs):
            acc = self.field._add(self.field._mul(acc, xv), c)
        return FieldElem(self.field, acc)

    def pow_mod(self, e: int, m: "Poly") -> "Poly":
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return Poly(self.field, [self.field._one_raw])
        field, mm = self.field, list(self._same(m).coeffs)
        base = _pl_rem(field, list(self.coeffs), mm)
        return Poly(field, _power(base, e, lambda a, b: _pl_rem(field, _pl_mul(field, a, b), mm)))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, self._same(other)
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        # highest degree first, in the grammar parse_elem reads
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == self.field._zero_raw:
                continue
            cs = self.field._format(c)
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append("t" if cs == "1" else f"{cs}*t")
            else:
                parts.append(f"t^{i}" if cs == "1" else f"{cs}*t^{i}")
        return "+".join(parts).replace("+-", "-")


def _flat_key(field: Field, raw) -> tuple[int, ...]:
    """Stable integer key for a raw field value (sorting, seeds).  Over
    F_q it is the element's coordinates over the prime field, constant
    coefficient first: the base-p digits of the raw value, since an
    extension's raw value is its base coefficients in base b = |base|."""
    if isinstance(field, FiniteField):
        out = []
        for _ in range(field.degree):
            raw, c = divmod(raw, field.p)
            out.append(c)
        return tuple(out)
    if isinstance(field, RationalField):
        return (raw.numerator, raw.denominator)
    raise TypeError(f"no canonical key over {field}")


def _poly_key(f: Poly) -> tuple:
    key = []
    for c in f.coeffs:
        key.extend(_flat_key(f.field, c))
    return (f.degree(), tuple(key))


def poly_is_irreducible(f: Poly) -> bool:
    """Irreducibility over a finite field by Ben-Or's test on the
    distinct-degree factorization that ``factor_poly`` runs: f is
    irreducible when it is squarefree and has no factor of degree below
    its own (Ben-Or, FOCS 1981; Gao & Panario 1997)."""
    if not isinstance(f.field, FiniteField):
        raise UnsupportedField("irreducibility test needs a finite base field")
    d = f.degree()
    if d <= 1:
        return d == 1
    df = f.derivative()
    if df.is_zero() or f.gcd(df).degree() > 0:
        return False
    g = f.monic()
    return _distinct_degree(g) == [(g, d)]


def _pth_root(f: Poly) -> Poly:
    # f with zero derivative over F_q is g(x^p); recover g
    field = f.field
    p = field.p
    e = field.order // p
    out = []
    for i in range(0, len(f.coeffs), p):
        out.append(field._pow_raw(f.coeffs[i], e) if e > 1 else f.coeffs[i])
    return Poly(field, out)


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic squarefree factors with multiplicities (any field; complete
    in characteristic p via p-th-power descent)."""
    if f.is_zero():
        raise ZeroPolynomial("squarefree decomposition of zero")
    f = f.monic()
    if f.degree() == 0:
        return []
    df = f.derivative()
    result: list[tuple[Poly, int]] = []
    if df.is_zero():
        for g, m in squarefree_decomposition(_pth_root(f)):
            result.append((g, m * f.field.p))
        return result
    c = f.gcd(df)
    w = f // c
    i = 1
    while w.degree() > 0:
        y = w.gcd(c)
        fac = w // y
        if fac.degree() > 0:
            result.append((fac, i))
        w = y
        c = c // y
        i += 1
    if c.degree() > 0:
        for g, m in squarefree_decomposition(c):
            result.append((g, m * f.field.p))
    return result


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    # f monic squarefree; returns (product of degree-d factors, d)
    field = f.field
    q = field.order
    out = []
    x = Poly.x(field)
    h = x
    g = f
    d = 0
    while g.degree() >= 2 * (d + 1):
        d += 1
        h = h.pow_mod(q, g)
        gd = g.gcd(h - x)
        if gd.degree() > 0:
            out.append((gd, d))
            g = g // gd
            h = h % g
    if g.degree() > 0:
        out.append((g, g.degree()))
    return out


def _equal_degree_split(f: Poly, d: int, rng) -> list[Poly]:
    # f monic squarefree, all factors of degree d
    field = f.field
    if f.degree() == d:
        return [f]
    q = field.order
    while True:
        r = Poly(field, [rng.randrange(q) for _ in range(f.degree())])
        if r.degree() < 1:
            continue
        g = f.gcd(r)
        if 0 < g.degree() < f.degree():
            return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)
        s = r.pow_mod((q**d - 1) // 2, f)
        g = f.gcd(s - 1)
        if 0 < g.degree() < f.degree():
            return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)


def _factor_seed(f: Poly) -> int:
    seed = f.field.order
    for part in _poly_key(f)[1]:
        seed = (seed * 1000003 + part) % (1 << 61)
    return seed


def factor_poly(f: Poly) -> list[tuple[Poly, int]]:
    """Factor a nonzero polynomial over F_q into monic irreducibles with
    multiplicities, sorted by (degree, coefficient key); the unit leading
    coefficient is dropped.  Randomized splitting is reseeded from the
    input, so results are deterministic."""
    if isinstance(f, FieldElem):
        f = _ratfun_poly_num(f)
    if not isinstance(f, Poly):
        raise TypeError("factor_poly expects a polynomial")
    if not isinstance(f.field, FiniteField):
        raise UnsupportedField("factorization is implemented over finite fields")
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    return list(_factor_poly_cached(f))


@lru_cache(maxsize=1 << 14)
def _factor_poly_cached(f: Poly) -> tuple:
    import random as _random

    rng = _random.Random(_factor_seed(f))
    out = []
    for g, mult in squarefree_decomposition(f):
        for h, d in _distinct_degree(g):
            for irr in _equal_degree_split(h, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda pair: _poly_key(pair[0]))
    return tuple(out)


def _ratfun_poly_num(x: FieldElem) -> Poly:
    if not isinstance(x.field, RatFunField):
        raise TypeError("expected a rational function")
    num, den = x.val
    if den.degree() != 0:
        raise ValueError("not a polynomial")
    return num * den.field.elem(den.field._inv(den.coeffs[0]))


# ---------------------------------------------------------------------------
# rational function fields


class RatFunField(Field):
    """k(t): raw values are reduced pairs (num, den) of polynomials over
    the base with den monic."""

    def __init__(self, base: Field, _token=None):
        if _token is not _FF_TOKEN:
            raise TypeError("use function_field()")
        self.base = base
        one = Poly.constant(base, 1)
        self._zero_raw = (Poly(base, []), one)
        self._one_raw = (one, one)

    def _normalize(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroInversion(f"division by zero in {self}")
        if num.is_zero():
            return self._zero_raw
        g = num.gcd(den)
        if g.degree() > 0:
            num, den = num // g, den // g
        lc_inv = self.base._inv(den.coeffs[-1])
        if den.coeffs[-1] != self.base._one_raw:
            scale = Poly.constant(self.base, FieldElem(self.base, lc_inv))
            num, den = num * scale, den * scale
        return (num, den)

    def _add(self, a, b):
        return self._normalize(a[0] * b[1] + b[0] * a[1], a[1] * b[1])

    def _neg(self, a):
        return (-a[0], a[1])

    def _mul(self, a, b):
        return self._normalize(a[0] * b[0], a[1] * b[1])

    def _inv(self, a):
        if a[0].is_zero():
            raise ZeroInversion(f"division by zero in {self}")
        return self._normalize(a[1], a[0])

    def _format(self, a):
        num, den = a
        if den.degree() == 0:
            return repr(num)
        return f"({num!r})/({den!r})"

    @property
    def t(self) -> FieldElem:
        return FieldElem(self, (Poly.x(self.base), Poly.constant(self.base, 1)))

    def elem(self, x) -> FieldElem:
        one = Poly.constant(self.base, 1)
        if isinstance(x, FieldElem):
            if x.field is self:
                return x
            if x.field is self.base:
                return FieldElem(self, (Poly(self.base, [x.val]), one))
            raise MixedFields(f"cannot coerce element of {x.field} into {self}")
        if isinstance(x, Poly):
            if x.field is not self.base:
                raise MixedFields("polynomial over a different base field")
            return FieldElem(self, self._normalize(x, one))
        if isinstance(x, tuple) and len(x) == 2 and all(isinstance(p, Poly) for p in x):
            return FieldElem(self, self._normalize(x[0], x[1]))
        if isinstance(x, (int, Fraction)):
            return FieldElem(self, (Poly.constant(self.base, x), one))
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def __repr__(self):
        return f"{self.base}(t)"


@lru_cache(maxsize=None)
def function_field(base: Field) -> RatFunField:
    if not isinstance(base, (FiniteField, RationalField)):
        raise UnsupportedField("function fields are built over F_q or Q")
    return RatFunField(base, _token=_FF_TOKEN)


def field_make(spec: str) -> Field:
    """Field from a spec string, exactly ``Q``, ``Qt``, ``F<q>`` or
    ``F<q>t`` with q in ASCII digits: ``F9``, ``F7t``."""
    m = _FIELD_SPEC.fullmatch(spec)
    if m is None:
        raise BadText(f"unknown field spec {spec!r}")
    base = rationals() if m["q"] is None else finite_field(int(m["q"]))
    return function_field(base) if m["t"] else base


# ---------------------------------------------------------------------------
# places, valuations, residues


class Place:
    """A place of Q (odd or even prime, or the real place) or of k(t)
    (monic irreducible polynomial, or degree place at infinity)."""

    __slots__ = ("field", "kind", "data")

    def __init__(self, field, kind: str, data):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Place is immutable")

    def residue_field(self) -> Field:
        if self.kind == "prime":
            # residue fields at rational places share the standard handles;
            # the place at 2 gets a characteristic-2 carrier that exists
            # only here
            return _prime_field(self.data)
        if self.kind == "poly":
            pi: Poly = self.data
            if pi.degree() == 1:
                return pi.field
            if isinstance(pi.field, FiniteField):
                return extension_field(pi.field, pi)
            raise UnsupportedPlace(
                "higher-degree places over Q(t) have no residue support"
            )
        if self.kind == "inf":
            return self.field.base
        raise InfinitePlace("the real place has no residue field")

    def degree(self) -> int:
        return self.data.degree() if self.kind == "poly" else 1

    def __eq__(self, other):
        return (
            isinstance(other, Place)
            and self.field is other.field
            and self.kind == other.kind
            and self.data == other.data
        )

    def __hash__(self):
        return hash((id(self.field), self.kind, self.data))

    def __repr__(self):
        if self.kind == "prime":
            return f"place({self.data})"
        if self.kind == "real":
            return "place(real)"
        if self.kind == "inf":
            return "place(inf)"
        return f"place({self.data!r})"


def rational_place(x) -> Place:
    """A place of Q: a prime number, or ``"real"`` / ``"inf"`` for the
    archimedean place."""
    qq = rationals()
    if x in ("real", "inf", "infinity"):
        return Place(qq, "real", None)
    if isinstance(x, int) and _is_prime(x):
        return Place(qq, "prime", x)
    raise ValueError(f"{x!r} is not a place of Q")


def function_place(field: RatFunField, x) -> Place:
    """A place of k(t): a monic irreducible polynomial (given as a Poly,
    a polynomial element, or coefficients), or ``"inf"``."""
    if not isinstance(field, RatFunField):
        raise TypeError("function_place needs a rational function field")
    if isinstance(x, str) and x in ("inf", "infinity"):
        return Place(field, "inf", None)
    if isinstance(x, FieldElem) and x.field is field:
        x = _ratfun_poly_num(x)
    if isinstance(x, (list, tuple)):
        x = Poly.from_elems(field.base, x)
    if not isinstance(x, Poly) or x.field is not field.base:
        raise TypeError(f"cannot interpret {x!r} as a place of {field}")
    if x.degree() < 1:
        raise ZeroArgument("a finite place needs a nonconstant polynomial")
    x = x.monic()
    if isinstance(field.base, FiniteField):
        if not poly_is_irreducible(x):
            raise NonIrreducibleModulus(f"{x!r} is reducible")
    else:
        if x.degree() > 1:
            raise UnsupportedPlace(
                "over Q(t) only degree-one places are supported"
            )
    return Place(field, "poly", x)


def _as_place(field: Field, place) -> Place:
    if isinstance(place, Place):
        if place.field is not field:
            raise MixedFields(f"{place!r} is not a place of {field}")
        return place
    if isinstance(field, RationalField):
        return rational_place(place)
    if isinstance(field, RatFunField):
        return function_place(field, place)
    raise UnsupportedField(f"{field} has no places")


def _poly_valuation(f: Poly, pi: Poly) -> tuple[int, Poly]:
    v = 0
    while True:
        q, r = divmod(f, pi)
        if not r.is_zero():
            return v, f
        f = q
        v += 1


def _residue_of_poly(g: Poly, place: Place) -> FieldElem:
    pi: Poly = place.data
    kappa = place.residue_field()
    if pi.degree() == 1:
        root = pi.field._neg(pi.coeffs[0])  # pi = t - root, monic
        return g.eval(FieldElem(pi.field, root))
    return FieldElem(kappa, kappa._encode((g % pi).coeffs))


def valuation(f: FieldElem, place) -> tuple[int, FieldElem]:
    """Order of vanishing of a nonzero element of Q or k(t) at a finite
    place, together with the residue of its unit part."""
    field = f.field
    if not isinstance(field, (RationalField, RatFunField)):
        raise UnsupportedField("valuations are defined on Q and rational function fields")
    if not f:
        raise ZeroArgument("valuation of zero")
    place = _as_place(field, place)
    return _valuation_cached(f, place)


def _prime_split(x, p: int) -> tuple[int, int, int]:
    """(v, n, d) with x = p^v n / d for a nonzero rational x, p dividing
    neither n nor d."""
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


@lru_cache(maxsize=1 << 16)
def _valuation_cached(f: FieldElem, place: "Place") -> tuple[int, FieldElem]:
    if place.kind == "prime":
        p = place.data
        v, num, den = _prime_split(f.val, p)
        return v, place.residue_field().elem(num * pow(den, -1, p))
    if place.kind == "real":
        raise InfinitePlace("no valuation at the real place")
    num, den = f.val
    if place.kind == "inf":
        v = den.degree() - num.degree()
        res = num.lc() / den.lc()
        return v, res
    pi = place.data
    vn, num_u = _poly_valuation(num, pi)
    vd, den_u = _poly_valuation(den, pi)
    res = _residue_of_poly(num_u, place) / _residue_of_poly(den_u, place)
    return vn - vd, res


# ---------------------------------------------------------------------------
# square classes


class SquareClass:
    """Canonical key for an element of k^x / (k^x)^2.

    The class group is Z/2 over F_q, {+-1} + sum_p Z/2 over the primes
    p of Q, and F_q^x/(F_q^x)^2 + sum_P Z/2 over the monic irreducibles
    P of F_q(t) (Milnor, "Algebraic K-theory and quadratic forms",
    1970).  So every key is (bit, places): the bit is the class over
    F_q, the sign over Q and the base class of the leading coefficient
    over F_q(t); places is the sorted tuple of the places of odd
    valuation, empty over F_q, primes over Q and coefficient tuples
    over F_q(t).  A product is a bit XOR and a symmetric difference of
    tuples (``_key_mul``), the trivial key is (0, ()), and the parity at
    a place is membership.  ``rep`` is the squarefree representative,
    the bit's representative times the product of the places.  Q(t) has
    no square classes: its residues read valuations
    (``kmw.witt._symbol_residue``), and ``square_class`` raises
    ``UnsupportedField`` there."""

    __slots__ = ("field", "key")

    def __init__(self, field: Field, key):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "key", key)

    def __setattr__(self, name, value):
        raise AttributeError("SquareClass is immutable")

    def is_trivial(self) -> bool:
        return self.key == _TRIVIAL_KEY

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if not isinstance(other, SquareClass):
            return NotImplemented
        if other.field is not self.field:
            raise MixedFields("square classes over different fields")
        return SquareClass(self.field, _key_mul(self.key, other.key))

    @property
    def sort_key(self):
        """The order in which forms list their classes: the bit over F_q,
        (sign, squarefree n) over Q, and over F_q(t) the base bit and the
        coefficients of the product of the places, those over an
        extension F_q written as ``_flat_key`` digit tuples."""
        field, (bit, places) = self.field, self.key
        if isinstance(field, RationalField):
            return (bit, math.prod(places))
        if isinstance(field, RatFunField):
            return _fqt_sort_key(field, self.key)
        return bit

    def rep(self) -> FieldElem:
        """Canonical representative element of the class."""
        field, (bit, places) = self.field, self.key
        if isinstance(field, FiniteField):
            return field.nonsquare() if bit else field.one
        if isinstance(field, RationalField):
            n = math.prod(places)
            return field.elem(-n if bit else n)
        b, prod = _fqt_coeffs(field, self.key)
        base = field.base
        base_rep = base.one if b == 0 else base.nonsquare()
        return field.elem(Poly(base, list(prod)) * Poly(base, [base_rep.val]))

    def __eq__(self, other):
        return (
            isinstance(other, SquareClass)
            and self.field is other.field
            and self.key == other.key
        )

    def __hash__(self):
        return hash((id(self.field), self.key))

    def __repr__(self):
        return f"cls({self.rep()!r})"


_TRIVIAL_KEY = (0, ())  # no nonsquare bit, no places


def _has_classes(field: Field) -> bool:
    """Whether the field has square classes, and so Witt decisions:
    F_q, Q and F_q(t), not Q(t)."""
    if isinstance(field, RatFunField):
        return isinstance(field.base, FiniteField)
    return isinstance(field, (FiniteField, RationalField))


def _trivial_class(field: Field) -> SquareClass:
    if not _has_classes(field):
        raise UnsupportedField(f"no square classes over {field}")
    return SquareClass(field, _TRIVIAL_KEY)


def _key_mul(k1: tuple, k2: tuple) -> tuple:
    (b1, p1), (b2, p2) = k1, k2
    if not p1:
        places = p2
    elif not p2:
        places = p1
    else:
        places = tuple(sorted(set(p1).symmetric_difference(p2)))
    return (b1 ^ b2, places)


def square_class(x: FieldElem) -> SquareClass:
    """The class of a nonzero element in k^x/(k^x)^2."""
    if not isinstance(x, FieldElem):
        raise TypeError("square_class expects a field element")
    field = x.field
    if not x:
        raise ZeroArgument("square class of zero")
    if isinstance(field, FiniteField):
        return SquareClass(field, (0 if field.is_square_raw(x.val) else 1, ()))
    if isinstance(field, RationalField):
        n = x.val.numerator * x.val.denominator
        primes = tuple(p for p, e in factor_int(abs(n)) if e % 2)
        return SquareClass(field, (1 if n < 0 else 0, primes))
    if not _has_classes(field):
        raise UnsupportedField(f"no square classes over {field}")
    return SquareClass(field, _fqt_key(x))


@lru_cache(maxsize=64)
def _minus_one_class(field: Field) -> SquareClass:
    """The class of -1, which diagonal representatives and signed
    discriminants multiply by on every call."""
    return square_class(field.elem(-1))


# -- F_q(t): a class is a base bit and a set of places


def _ratfun_factors(x: FieldElem) -> tuple:
    """The leading coefficient of num * den for x = num/den over F_q(t),
    and the factorization of its monic part: x has the class of num * den,
    and its places are those factors' (num and den are coprime)."""
    num, den = x.val
    g = num * den
    if g.degree() < 1:
        return g.coeffs[0], ()
    return g.coeffs[-1], factor_poly(g.monic())


def _fqt_key(x: FieldElem) -> tuple:
    lc, factors = _ratfun_factors(x)
    places = tuple(sorted(irr.coeffs for irr, mult in factors if mult % 2))
    return (0 if x.field.base.is_square_raw(lc) else 1, places)


def _fqt_coeffs(field: RatFunField, key: tuple) -> tuple:
    """(base bit, coefficients of the product of the places) of an F_q(t)
    class: the representative is the base representative times that
    product."""
    b, places = key
    base = field.base
    prod = [base._one_raw]
    for c in places:
        prod = _pl_mul(base, prod, list(c))
    return b, tuple(prod)


@lru_cache(maxsize=1 << 14)
def _fqt_sort_key(field: RatFunField, key: tuple) -> tuple:
    """``sort_key`` of an F_q(t) class: ``_fqt_coeffs``, with coefficients
    over an extension written as ``_flat_key`` digit tuples.  No
    representative element is built."""
    b, prod = _fqt_coeffs(field, key)
    base = field.base
    if isinstance(base, _PolyExtension):
        return (b, tuple(_flat_key(base, c) for c in prod))
    return (b, prod)


def _fqt_local(field: RatFunField, key: tuple, place: Place) -> tuple:
    """(v mod 2, residue nonsquare bit) of the representative b * prod Q
    at a place: at infinity, (sum of deg Q mod 2, b); at P, membership of
    P, and chi_P(b) plus the bits of Q mod P over the other places Q."""
    b, places = key
    if place.kind == "inf":
        return (sum(len(c) - 1 for c in places) % 2, b)
    p = place.data.coeffs
    # a nonsquare of F_q stays one in the residue field iff deg P is odd
    bit = b * ((len(p) - 1) % 2)
    for c in places:
        if c != p:
            bit ^= _pair_bit(field, p, c)
    return (int(p in places), bit)


@lru_cache(maxsize=1 << 14)
def _pair_bit(field: RatFunField, p: tuple, c: tuple) -> int:
    """Whether Q mod P is a nonsquare in the residue field at P, for
    distinct monic irreducibles P and Q given by their coefficients."""
    res = _residue_of_poly(Poly(field.base, c), _fqt_place(field, p))
    return 0 if res.field.is_square_raw(res.val) else 1


@lru_cache(maxsize=1 << 12)
def _fqt_place(field: RatFunField, c: tuple) -> Place:
    """The place of the monic irreducible with coefficients c, as keys
    name places: the one constructor of a place from key data."""
    return Place(field, "poly", Poly(field.base, c))


# -- local data of classes


def _rational_local(x, place: Place) -> tuple:
    """The local square class of a nonzero rational x (an int or a
    Fraction) at a place of Q: (sign bit,) at the real place; (v mod 2,
    u mod 8) at 2, for x = 2^v u; (v mod 2, nonsquare bit of the residue
    of the unit part) at an odd prime.  Only the valuation at the place
    is read, so nothing is factored."""
    if place.kind == "real":
        return (int(x < 0),)
    p = place.data
    v, num, den = _prime_split(x, p)
    if p == 2:
        return (v % 2, num * pow(den, -1, 8) % 8)
    return (v % 2, int(not place.residue_field().is_square_raw(num * pow(den, -1, p) % p)))


def _local_class(cls: SquareClass, place: Place) -> tuple:
    """The local square class of the representative of cls at a place:
    over Q, ``_rational_local`` of it; at every place of F_q(t), all
    tame, (v mod 2, the nonsquare bit of the residue of the unit part).
    Witt decisions, Hilbert symbols and specialization read classes
    here."""
    field = cls.field
    if isinstance(field, RationalField):
        s, primes = cls.key  # the representative is -n or n
        n = math.prod(primes)
        return _rational_local(-n if s else n, place)
    if isinstance(field, RatFunField):
        return _fqt_local(field, cls.key, place)
    raise UnsupportedPlace(f"no local class of {cls!r} at {place!r}")


def _eps(u: int) -> int:
    # (u - 1)/2 mod 2 for odd u
    return ((u % 8) - 1) // 2 % 2


def _omega(u: int) -> int:
    # (u^2 - 1)/8 mod 2 for odd u
    return 0 if u % 8 in (1, 7) else 1


def _symbol_bit(place: Place, x: tuple, y: tuple) -> int:
    """The b with (x, y) = (-1)^b at the place, for local classes x, y
    as ``_local_class`` gives them; the Hilbert symbol is
    bimultiplicative (Serre, *A Course in Arithmetic*, ch. III, §1), so
    it factors through them."""
    if place.kind == "real":
        return x[0] & y[0]
    (e, s), (f, t) = x, y
    if place.kind == "prime" and place.data == 2:
        return (_eps(s) * _eps(t) + e * _omega(t) + f * _omega(s)) % 2
    # the quadratic character of the tame symbol (-1)^(ef) u^f w^(-e)
    minus_one = e * f and place.residue_field().order % 4 == 3
    return (s * f + t * e + minus_one) % 2


# -- support places


def _place_order(place: Place) -> tuple:
    """The real place or infinity first, then primes ascending, or
    monic irreducibles by degree and coefficients."""
    if place.kind == "prime":
        return (1, place.data)
    if place.kind == "poly":
        return (1, place.data.degree(), _poly_key(place.data))
    return (0,)


def _place_list(field: Field, finite: Iterable) -> list[Place]:
    """The real place and 2 of Q, or the infinite place of F_q(t), then
    the places of ``finite`` (primes over Q, coefficient tuples of monic
    irreducibles over F_q(t)) in ``_place_order``."""
    if isinstance(field, RationalField):
        first = Place(field, "real", None)
        places = [Place(field, "prime", p) for p in {2, *finite}]
    else:
        first = Place(field, "inf", None)
        places = [_fqt_place(field, c) for c in finite]
    return [first, *sorted(places, key=_place_order)]


def _class_support(field: Field, classes: Iterable[SquareClass]) -> list[Place]:
    """``support_places`` of the representatives of classes over Q or
    F_q(t), read off their keys' places."""
    union = set()
    for cls in classes:
        union.update(cls.key[1])
    return _place_list(field, union)


def support_places(field: Field, elems: Iterable) -> list[Place]:
    """Finite places where any of the given nonzero elements could be a
    non-unit, plus the archimedean / infinite place.  Over Q this means
    2, the odd primes dividing a numerator or denominator, and the real
    place; over F_q(t) the monic irreducible divisors and infinity."""
    if isinstance(field, RationalField):
        primes = set()
        for x in elems:
            fr = field.elem(x).val
            if not fr:
                raise ZeroArgument("support of zero")
            for n in (fr.numerator, fr.denominator):
                primes.update(p for p, _ in factor_int(abs(n)))
        return _place_list(field, primes)
    if isinstance(field, RatFunField) and isinstance(field.base, FiniteField):
        # factor_poly returns monic irreducibles, so these places skip the
        # irreducibility test function_place makes of caller input
        union = set()
        for x in elems:
            x = field.elem(x)
            if not x:
                raise ZeroArgument("support of zero")
            union.update(irr.coeffs for irr, _ in _ratfun_factors(x)[1])
        return _place_list(field, union)
    raise UnsupportedField(f"no place enumeration over {field}")


# ---------------------------------------------------------------------------
# symbols


def _symbol_args(a, b, place) -> tuple:
    """(field, a, b, place) for a symbol: the field of the first element
    argument, or Q for plain numbers, both arguments as its nonzero
    elements, and the place as one of its places."""
    if isinstance(a, FieldElem):
        field = a.field
    elif isinstance(b, FieldElem):
        field = b.field
    else:
        field = rationals()
    a, b = field.elem(a), field.elem(b)
    if not a or not b:
        raise ZeroArgument("symbols need nonzero arguments")
    return field, a, b, _as_place(field, place)


@lru_cache(maxsize=1 << 16)
def tame_symbol(a, b, place) -> FieldElem:
    """Tame symbol (-1)^{v(a)v(b)} a^{v(b)} b^{-v(a)} reduced at a finite
    place of Q or k(t); the result lives in the residue field."""
    _, a, b, place = _symbol_args(a, b, place)
    va, ra = _valuation_cached(a, place)
    vb, rb = _valuation_cached(b, place)
    kappa = ra.field
    sign = kappa.one if (va * vb) % 2 == 0 else -kappa.one
    return sign * ra**vb * rb ** (-va)


def hilbert(a, b, place) -> int:
    """Hilbert symbol (a, b) at a place of Q or of F_q(t); returns +-1,
    read off the local square classes of a and b at the place, which over
    Q come from the elements themselves, with nothing factored."""
    field, a, b, place = _symbol_args(a, b, place)
    if isinstance(field, RationalField):
        x, y = _rational_local(a.val, place), _rational_local(b.val, place)
    else:  # square_class raises UnsupportedField over Q(t)
        x, y = _local_class(square_class(a), place), _local_class(square_class(b), place)
    return -1 if _symbol_bit(place, x, y) else 1


# ---------------------------------------------------------------------------
# element parsing


def parse_elem(field: Field, text: str) -> FieldElem:
    """Parse a field element: integers and fractions everywhere,
    polynomial expressions in t (with +, -, *, /, ^ and parentheses)
    over rational function fields, and over an extension F_q (or F_q(t))
    constants written as their coordinates over the prime field, constant
    coefficient first, as ``_flat_key`` gives them: ``(1, 2)`` is 1 + 2x
    in F9."""
    tokens = _tokenize(text)
    elem, pos = _parse_expr(field, tokens, 0)
    if pos != len(tokens):
        raise BadText(f"trailing input in {text!r}")
    return elem


def _tokenize(text: str) -> list:
    out = []
    i = 0
    while i < len(text):
        tok, i = _next_token(text, i, "+-*/^()t,")
        if tok is not None:
            out.append(tok)
    return out


def _next_token(text: str, i: int, symbols: str):
    """The token at ``text[i]`` and the index after it: a one-character
    symbol (``-`` is always one, never a sign), an int of ASCII digits,
    or None for whitespace."""
    c = text[i]
    if c.isspace():
        return None, i + 1
    if c in symbols:
        return c, i + 1
    m = _DECIMAL.match(text, i)
    if m is None:
        raise BadText(f"unexpected character {c!r}")
    return int(m[0]), m.end()


def _parse_expr(field, toks, pos):
    elem, pos = _parse_term(field, toks, pos)
    while pos < len(toks) and toks[pos] in ("+", "-"):
        op = toks[pos]
        rhs, pos = _parse_term(field, toks, pos + 1)
        elem = elem + rhs if op == "+" else elem - rhs
    return elem, pos


def _parse_term(field, toks, pos):
    elem, pos = _parse_factor(field, toks, pos)
    while pos < len(toks) and toks[pos] in ("*", "/"):
        op = toks[pos]
        rhs, pos = _parse_factor(field, toks, pos + 1)
        elem = elem * rhs if op == "*" else elem / rhs
    return elem, pos


def _parse_factor(field, toks, pos):
    neg = False
    while pos < len(toks) and toks[pos] in ("+", "-"):
        if toks[pos] == "-":
            neg = not neg
        pos += 1
    elem, pos = _parse_atom(field, toks, pos)
    if pos < len(toks) and toks[pos] == "^":
        if pos + 1 >= len(toks) or not isinstance(toks[pos + 1], int):
            raise BadText("exponent must be a literal integer")
        elem = elem ** toks[pos + 1]
        pos += 2
    return (-elem if neg else elem), pos


def _parse_atom(field, toks, pos):
    if pos >= len(toks):
        raise BadText("unexpected end of input")
    tok = toks[pos]
    if tok == "(" and toks[pos + 2 : pos + 3] == [","]:
        return _parse_digit_tuple(field, toks, pos + 1)
    if tok == "(":
        elem, pos = _parse_expr(field, toks, pos + 1)
        if pos >= len(toks) or toks[pos] != ")":
            raise BadText("unbalanced parentheses")
        return elem, pos + 1
    if tok == "t":
        if not isinstance(field, RatFunField):
            raise BadText(f"no variable t in {field}")
        return field.t, pos + 1
    if isinstance(tok, int):
        return field.elem(tok), pos + 1
    raise BadText(f"unexpected token {tok!r}")


def _parse_digit_tuple(field, toks, pos):
    # the inverse of _flat_key: base-p digits, constant coefficient first
    digits = []
    while True:
        sep = toks[pos + 1 : pos + 2]
        if not isinstance(toks[pos], int) or sep not in ([","], [")"]):
            raise BadText("a coordinate tuple holds integers separated by commas")
        digits.append(toks[pos])
        pos += 2
        if sep == [")"]:
            break
        if pos >= len(toks):
            raise BadText("unbalanced parentheses")
    consts = field.base if isinstance(field, RatFunField) else field
    if (not isinstance(consts, FiniteField) or len(digits) != consts.degree
            or any(d >= consts.p for d in digits)):
        raise BadText(f"{tuple(digits)} is not an element of {consts} over its prime field")
    raw = sum(d * consts.p**i for i, d in enumerate(digits))
    return field.elem(FieldElem(consts, raw)), pos
