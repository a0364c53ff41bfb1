"""Milnor-Witt K-theory in degrees 0-3 via the fiber-product model.

Elements are integer combinations of monomials ``eta^k [a_1]...[a_m]``
with ``m - k`` equal to the degree.  Alongside the formal monomials,
every element of degree at most 2 over a supported field carries a
normalized pair (Milnor coordinates, virtual form) living in the fiber
product of Milnor K-theory with the matching power of the fundamental
ideal (Morel, *A^1-algebraic topology over a field*, LNM 2052).
Equality of elements is decided componentwise on the pairs.

Every pair is checked for mod-2 compatibility when it is built, by the
one function ``_check_fiber``.  In degree 2 it reads the Milnor side
from the coordinates themselves: they record a local value at each
place, and the places where its Hilbert sign (the quadratic character
of a tame symbol, or the recorded sign at the real and 2-adic places of
Q) is -1 must be those where the Hasse product of the virtual form
differs from the hyperbolic form's, which ``kmw.witt`` reads off the
form's local square-class counts.

Degree-3 elements stay formal: they have no equality oracle and are
consumed by ``eta_mul``, which lowers them into testable degree 2.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from .descriptor import GroupDescriptor, Provenance
from .errors import (
    BadBound,
    BadText,
    DegreeOverflow,
    IntegrityFailure,
    MixedFields,
    UnsupportedDegree,
    UnsupportedField,
    UnsupportedPlace,
    ZeroArgument,
)
from .fields import (
    FieldElem,
    FiniteField,
    Place,
    RatFunField,
    RationalField,
    _as_place,
    _has_classes,
    _next_token,
    _place_order,
    _primes_upto,
    finite_field,
    hilbert,
    parse_elem,
    square_class,
    support_places,
    tame_symbol,
)
from .group_ring import GroupRingElem, gr_zero, pfister_form
from .witt import (
    _hasse_defects,
    _in_i_power,
    _signed_disc,
    _symbol_residue,
    witt_equal,
)


Monomial = Tuple[int, Tuple[FieldElem, ...]]


class MilnorCoords:
    """Complete coordinates of the Milnor component, by degree.

    Degree 0 holds an integer (K_0), degree 1 a unit of the field
    (K_1).  Degree 2 holds a tuple of ``(place, local value)`` in the
    order of ``kmw.fields._place_order``, without trivial entries.  The
    local value is the Hilbert sign, an int +-1, at the real and 2-adic
    places of the rationals, and the tame symbol, in the residue field,
    at every other place: the odd primes of Q, and the monic
    irreducibles and infinity of a rational function field with finite
    base.  Over a finite field the tuple is empty (K_2 vanishes there).
    By Weil reciprocity the entry at infinity is determined by the
    others.
    """

    __slots__ = ("field", "degree", "data")

    def __init__(self, field, degree: int, data):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("MilnorCoords is immutable")

    def __eq__(self, other):
        if not isinstance(other, MilnorCoords):
            return NotImplemented
        return (
            self.field is other.field
            and self.degree == other.degree
            and self.data == other.data
        )

    def __repr__(self):
        return f"MilnorCoords(degree={self.degree}, data={self.data!r})"


def _k0_coords(field, monomials: Dict[Monomial, int]) -> MilnorCoords:
    total = sum(c for (k, syms), c in monomials.items() if k == 0)
    return MilnorCoords(field, 0, total)


def _k1_coords(field, monomials: Dict[Monomial, int]) -> MilnorCoords:
    acc = field.one
    for (k, syms), c in monomials.items():
        if k == 0:
            acc = acc * syms[0] ** c
    return MilnorCoords(field, 1, acc)


def _k2_coords(field, monomials: Dict[Monomial, int]) -> MilnorCoords:
    if isinstance(field, FiniteField):
        return MilnorCoords(field, 2, ())
    if not _has_classes(field):
        raise UnsupportedField("no degree-2 Milnor coordinates for this field")
    local: Dict[Place, object] = {}
    for (k, syms), c in monomials.items():
        if k:
            continue
        a, b = syms
        for place in support_places(field, syms):
            if place.kind == "real" or (place.kind == "prime" and place.data == 2):
                val = hilbert(a, b, place) ** (c % 2)
            else:
                val = tame_symbol(a, b, place) ** c
            local[place] = local[place] * val if place in local else val
    data = tuple(
        (place, local[place])
        for place in sorted(local, key=_place_order)
        if local[place] != 1
    )
    return MilnorCoords(field, 2, data)


def _milnor_coords(field, degree: int, monomials: Dict[Monomial, int]) -> MilnorCoords:
    if degree == 0:
        return _k0_coords(field, monomials)
    if degree == 1:
        return _k1_coords(field, monomials)
    if degree == 2:
        return _k2_coords(field, monomials)
    raise UnsupportedDegree("no normal form in degree 3")


def _witt_component(field, monomials: Dict[Monomial, int]) -> GroupRingElem:
    total = gr_zero(field)
    for (k, syms), c in monomials.items():
        total = total + c * pfister_form(field, syms)
    return total


class MWElem:
    """Milnor-Witt K-theory element: formal monomials plus, in degrees
    0-2 over supported fields, the validated fiber-product pair."""

    __slots__ = ("field", "degree", "monomials", "milnor", "witt")

    def __init__(
        self,
        field,
        degree: int,
        monomials: Optional[Dict[Monomial, int]],
        milnor: Optional[MilnorCoords] = None,
        witt: Optional[GroupRingElem] = None,
    ):
        if degree not in (0, 1, 2, 3):
            raise DegreeOverflow("degrees are restricted to 0..3")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "monomials", monomials)
        object.__setattr__(self, "milnor", milnor)
        object.__setattr__(self, "witt", witt)

    def __setattr__(self, name, value):
        raise AttributeError("MWElem is immutable")

    def pair(self) -> Tuple[MilnorCoords, GroupRingElem]:
        if self.milnor is None:
            if self.degree == 3:
                raise UnsupportedDegree("degree-3 elements have no normal form")
            raise UnsupportedField("no normalized pair over this field")
        return self.milnor, self.witt

    def __repr__(self):
        if self.monomials is None:
            return f"MWElem(degree={self.degree}, pair-backed)"
        return f"MWElem({format_mw(self)!r})"


def _local_sign(value) -> int:
    """Hilbert sign of a degree-2 local value: the recorded sign, or
    the quadratic character of a tame symbol."""
    if isinstance(value, int):
        return value
    return 1 if value.field.is_square_raw(value.val) else -1


def _check_fiber(field, degree: int, milnor: MilnorCoords, witt: GroupRingElem):
    """Mod-2 agreement of the two fiber components, checked on every
    construction."""
    if degree == 0:
        if (milnor.data - witt.augmentation()) % 2:
            raise IntegrityFailure("rank parity disagrees with the K_0 part")
        return
    rep = witt.diag_rep()
    if not _in_i_power(witt, rep, degree):
        raise IntegrityFailure("witt component escapes the expected ideal power")
    if degree == 1:
        if square_class(milnor.data) != _signed_disc(field, rep):
            raise IntegrityFailure("K_1 square class disagrees with the discriminant")
        return
    # over a finite field the Witt class is decided by rank parity and
    # signed discriminant, which _in_i_power has just found trivial
    if isinstance(field, FiniteField):
        return
    # degree 2: the places where the Hilbert sign the Milnor coordinates
    # record is -1 against those where the Hasse comparison of the form
    # with the hyperbolic form of its rank is nontrivial
    milnor_side = {
        place: -1 for place, value in milnor.data if _local_sign(value) == -1
    }
    if milnor_side != _hasse_defects(field, rep):
        raise IntegrityFailure(
            "local symbol data of the two fiber components disagree"
        )


def _make(field, degree: int, monomials: Dict[Monomial, int]) -> MWElem:
    clean: Dict[Monomial, int] = {}
    for (k, syms), c in monomials.items():
        if not c:
            continue
        if len(syms) - k != degree:
            raise DegreeOverflow("monomial degree does not match the element degree")
        clean[(k, syms)] = c
    if degree <= 2 and _has_classes(field):
        milnor = _milnor_coords(field, degree, clean)
        witt = _witt_component(field, clean)
        _check_fiber(field, degree, milnor, witt)
        return MWElem(field, degree, clean, milnor, witt)
    return MWElem(field, degree, clean)


def mw_zero(field, degree: int) -> MWElem:
    return _make(field, degree, {})


def mw_symbol(field, entries: Sequence) -> MWElem:
    """Generator monomial ``[a_1]...[a_n]`` in degree n <= 3."""
    elems = []
    for x in entries:
        e = field.elem(x)
        if not e:
            raise ZeroArgument("symbol entries must be nonzero")
        elems.append(e)
    if len(elems) > 3:
        raise DegreeOverflow("symbols have at most three entries")
    return _make(field, len(elems), {(0, tuple(elems)): 1})


def h_elem(field) -> MWElem:
    """The hyperbolic element ``h = 2 + eta [-1]`` in degree 0."""
    return _make(field, 0, {(0, ()): 2, (1, (field.elem(-1),)): 1})


def _require_same(x: MWElem, y: MWElem):
    if x.field is not y.field:
        raise MixedFields("elements live over different fields")
    if x.degree != y.degree:
        raise DegreeOverflow("elements have different degrees")


def _monomials(x: MWElem) -> Dict[Monomial, int]:
    """The monomials that arithmetic runs on.  A pair-backed element (a
    residue, from ``_pair_elem``) has none: it is only compared."""
    if x.monomials is None:
        raise UnsupportedDegree("arithmetic requires monomial-backed elements")
    return x.monomials


def mw_add(x: MWElem, y: MWElem) -> MWElem:
    _require_same(x, y)
    out = dict(_monomials(x))
    for mono, c in _monomials(y).items():
        out[mono] = out.get(mono, 0) + c
    return _make(x.field, x.degree, out)


def mw_neg(x: MWElem) -> MWElem:
    return _make(x.field, x.degree, {m: -c for m, c in _monomials(x).items()})


def mw_scale(x: MWElem, c: int) -> MWElem:
    return _make(x.field, x.degree, {m: c * v for m, v in _monomials(x).items()})


def mw_mul(x: MWElem, y: MWElem) -> MWElem:
    if x.field is not y.field:
        raise MixedFields("elements live over different fields")
    xs, ys = _monomials(x), _monomials(y)
    degree = x.degree + y.degree
    if degree > 3:
        raise DegreeOverflow("product degree exceeds 3")
    out: Dict[Monomial, int] = {}
    for (k1, s1), c1 in xs.items():
        for (k2, s2), c2 in ys.items():
            mono = (k1 + k2, s1 + s2)
            out[mono] = out.get(mono, 0) + c1 * c2
    return _make(x.field, degree, out)


def eta_mul(x: MWElem) -> MWElem:
    """Multiplication by eta: lowers the degree by one."""
    if x.degree == 0:
        raise DegreeOverflow("eta would leave the supported degree range")
    out: Dict[Monomial, int] = {}
    for (k, syms), c in _monomials(x).items():
        out[(k + 1, syms)] = out.get((k + 1, syms), 0) + c
    return _make(x.field, x.degree - 1, out)


def gw_scale(x: MWElem, u) -> MWElem:
    """Action of the rank-one class ``<u>``: ``x + eta [u] x``."""
    e = x.field.elem(u)
    if not e:
        raise ZeroArgument("the scaling unit must be nonzero")
    monomials = _monomials(x)
    out = dict(monomials)
    for (k, syms), c in monomials.items():
        mono = (k + 1, (e,) + syms)
        out[mono] = out.get(mono, 0) + c
    return _make(x.field, x.degree, out)


# -- pair-backed construction ------------------------------------------


def _pair_elem(field, degree: int, milnor: MilnorCoords, witt: GroupRingElem) -> MWElem:
    _check_fiber(field, degree, milnor, witt)
    return MWElem(field, degree, None, milnor, witt)


# -- equality -----------------------------------------------------------


def mw_equal(x: MWElem, y: MWElem) -> bool:
    """Componentwise equality on normalized pairs (degrees 0-2)."""
    if x.field is not y.field:
        raise MixedFields("elements live over different fields")
    if x.degree != y.degree:
        raise UnsupportedDegree("elements have different degrees")
    if x.degree == 3:
        raise UnsupportedDegree("no equality oracle in degree 3")
    if not _has_classes(x.field):
        raise UnsupportedField("no equality oracle over this field")
    xm, xw = x.pair()
    ym, yw = y.pair()
    return xm == ym and witt_equal(xw, yw)


def mw_is_zero(x: MWElem) -> bool:
    return mw_equal(x, mw_zero(x.field, x.degree))


# -- residue ------------------------------------------------------------


def mw_delta(x: MWElem, place) -> MWElem:
    """Residue map at a monic irreducible place of k(t), from degree 2
    to degree 1 over the residue field.  Both halves read each symbol
    entry's valuation and unit residue at the place: the tame symbol of
    each term [a][b] on the Milnor side, and on the Witt side the
    second residue of each term's Pfister form
    (``kmw.witt._symbol_residue``), so no form over k(t) is built."""
    field = x.field
    if not isinstance(field, RatFunField):
        raise UnsupportedField("residues require a rational function field")
    if x.degree != 2:
        raise UnsupportedDegree("the residue is computed from degree 2")
    if x.monomials is None:
        raise UnsupportedDegree("the residue consumes monomial-backed elements")
    place = _as_place(field, place)
    if place.kind != "poly":
        raise UnsupportedPlace("residues are taken at finite places")
    kappa = place.residue_field()
    acc = kappa.one
    witt_part = gr_zero(kappa)
    for (k, syms), c in x.monomials.items():
        if k == 0:
            a, b = syms
            acc = acc * tame_symbol(a, b, place) ** c
        witt_part = witt_part + c * _symbol_residue(syms, place)
    return _pair_elem(kappa, 1, MilnorCoords(kappa, 1, acc), witt_part)


# -- structure descriptors ---------------------------------------------


def mw_descriptor(field, n: int, prime_bound: int) -> GroupDescriptor:
    """Structure of the degree-n Milnor-Witt group of the rationals,
    truncated to symbols supported at primes up to the bound."""
    if not isinstance(field, RationalField):
        raise UnsupportedField("descriptors are computed over the rationals")
    if n not in (1, 2):
        raise UnsupportedDegree("descriptors exist in degrees 1 and 2")
    if not isinstance(prime_bound, int) or prime_bound < 3:
        raise BadBound("the prime bound must be an integer >= 3")
    primes = _primes_upto(prime_bound)
    odd_primes = [p for p in primes if p % 2]
    if n == 2:
        free = 1
        cyclic = [p - 1 for p in odd_primes]
        sequence = "natural split exact sequence"
    else:
        free = 1 + len(primes)
        cyclic = [2] * len(odd_primes)
        sequence = "split short exact sequences"
    return GroupDescriptor(
        label=f"K^MW_{n}(Q)",
        free_rank=free,
        cyclic_factors=cyclic,
        provenance=[
            Provenance(
                "mw_descriptor",
                {"field": "Q", "n": n, "bound": prime_bound, "sequence": sequence},
                {"free": free, "cyclic": cyclic},
            )
        ],
        trunc_bound=prime_bound,
    )


def k2_finite_vanishing(q: int) -> bool:
    """Exhaustively confirm that every degree-2 symbol over F_q is
    zero, the computational face of the vanishing of K^MW_2 there."""
    field = finite_field(q)
    zero = mw_zero(field, 2)
    units = list(field.units())
    for a in units:
        for b in units:
            if not mw_equal(mw_symbol(field, [a, b]), zero):
                return False
    return True


def k1_finite_order(q: int) -> int:
    """Order of the symbol on a generator of F_q^x in degree 1; equals
    q - 1, matching the cyclic structure of the degree-1 group."""
    field = finite_field(q)
    g = field.generator()
    x = mw_symbol(field, [g])
    acc = x
    order = 1
    zero = mw_zero(field, 1)
    while not mw_equal(acc, zero):
        acc = mw_add(acc, x)
        order += 1
        if order > q:
            raise IntegrityFailure("generator symbol order exceeded the group bound")
    return order


# -- bracket expressions ------------------------------------------------


def _tokenize_brackets(text: str) -> List:
    """Tokens of a bracket expression: ``("sym", text)`` for ``[text]``,
    ``"eta"``, and otherwise the tokens of element text."""
    tokens: List = []
    i = 0
    while i < len(text):
        if text[i] == "[":
            j = text.find("]", i + 1)
            if j < 0:
                raise BadText("unbalanced bracket in element expression")
            tokens.append(("sym", text[i + 1 : j]))
            i = j + 1
        elif text.startswith("eta", i):
            tokens.append("eta")
            i += 3
        else:
            tok, i = _next_token(text, i, "+-*^")
            if tok is not None:
                tokens.append(tok)
    return tokens


# One term over the token kinds (n an integer, e ``eta``, s a ``[..]``
# symbol): signs, then an optional integer, an optional eta or eta^k and
# the symbols, in that order, with a ``*`` allowed only between two parts.
_TERM = re.compile(r"([+-]*)(?:(n)(?:\*(?=[es]))?)?(?:(e)(?:\^(n))?(?:\*(?=s))?)?(s*)")


def parse_mw(field, text: str) -> MWElem:
    """Parse a bracket expression such as ``[2][3]`` or
    ``eta*[-1][2][t]`` into an element over the given field.  Terms are
    read in the order ``format_mw`` writes them."""
    tokens = _tokenize_brackets(text)
    if not tokens:
        raise BadText("empty element expression")
    kinds = "".join(
        "n" if isinstance(t, int) else "s" if isinstance(t, tuple) else "e" if t == "eta" else t
        for t in tokens
    )
    terms: List[Tuple[int, int, Tuple[FieldElem, ...]]] = []
    pos = 0
    while pos < len(kinds):
        m = _TERM.match(kinds, pos)
        if not any(m.group(2, 3, 5)):
            raise BadText("empty term in element expression")
        if m.end() < len(kinds) and kinds[m.end()] not in "+-":
            raise BadText("malformed element expression")
        c = (-1) ** m[1].count("-") * (tokens[m.start(2)] if m[2] else 1)
        k = tokens[m.start(4)] if m[4] else int(bool(m[3]))
        syms = tuple(parse_elem(field, tok[1]) for tok in tokens[m.start(5) : m.end(5)])
        if not all(syms):
            raise ZeroArgument("symbol entries must be nonzero")
        terms.append((c, k, syms))
        pos = m.end()

    degrees = {len(s) - kk for _, kk, s in terms}
    if len(degrees) > 1:
        raise DegreeOverflow("terms of an element must share one degree")
    degree = degrees.pop()
    if degree not in (0, 1, 2, 3):
        raise DegreeOverflow("degrees are restricted to 0..3")
    monomials: Dict[Monomial, int] = {}
    for c, kk, s in terms:
        mono = (kk, s)
        monomials[mono] = monomials.get(mono, 0) + c
    return _make(field, degree, monomials)


def format_mw(x: MWElem) -> str:
    """Render a monomial-backed element as a bracket expression."""
    if x.monomials is None:
        raise UnsupportedField("pair-backed elements have no bracket expression")
    if not x.monomials:
        return "0"
    keys = sorted(
        x.monomials, key=lambda mono: (mono[0], len(mono[1]), [repr(s) for s in mono[1]])
    )
    parts = []
    for k, syms in keys:
        c = x.monomials[(k, syms)]
        body = []
        if k == 1:
            body.append("eta")
        elif k > 1:
            body.append(f"eta^{k}")
        body.extend(f"[{s!r}]" for s in syms)
        if not body:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = mag + "*".join(body[:1]) + "".join(body[1:])
        if parts:
            parts.append("+" if c > 0 else "-")
        elif c < 0:
            parts.append("-")
        parts.append(term)
    return "".join(parts)
