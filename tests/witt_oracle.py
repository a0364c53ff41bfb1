"""Pairwise Witt decisions, kept as the oracle for the local-data path
of ``kmw.witt``: the Hasse product of a diagonal form as r(r-1)/2
Hilbert symbols of ``symbol_oracle`` (the library's own symbols read
the same local classes as ``kmw.witt``), and ``in_i_power(., 3)`` /
``witt_is_zero`` built on it.  Also ``diagonal``, the diagonal forms
the Witt tests are written in, and two oracles for the Witt half of
``kmw.milnor_witt.mw_delta``, which reads one valuation per symbol
entry: ``second_residue`` of a whole form over F_q(t), read off its
square-class keys, and ``element_residue``, which takes the valuation
of every product of entries, over F_q(t) and Q(t) alike."""

from itertools import combinations
from math import prod
from typing import Dict, Sequence

from symbol_oracle import hilbert

from kmw.errors import MixedFields, UnsupportedField
from kmw.fields import (
    FieldElem,
    FiniteField,
    RationalField,
    RatFunField,
    SquareClass,
    _has_classes,
    _local_class,
    support_places,
    valuation,
)
from kmw.witt import _signed_disc, signature
from kmw.group_ring import GroupRingElem, gr_unit, gr_zero


def diagonal(field, entries) -> GroupRingElem:
    """The form <a_1, ..., a_n>: the sum of the rank-one forms of the
    nonzero entries."""
    return sum((gr_unit(field, a) for a in entries), gr_zero(field))


def _rep_elems(rep) -> list:
    """The representative elements of a diagonal representative."""
    return [cls.rep() for cls in rep]


def _support_of_rep(field, elems: Sequence[FieldElem]):
    if not elems:
        return []
    return support_places(field, elems)


def _hasse_product(elems: Sequence[FieldElem], place) -> int:
    s = 1
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            s *= hilbert(elems[i], elems[j], place)
    return s


def _ehat_matches_hyperbolic(field, elems: Sequence[FieldElem], place) -> bool:
    # rank is even here; compare the Hasse product with that of the
    # hyperbolic form of the same rank.
    m = len(elems) // 2
    want = hilbert(field.elem(-1), field.elem(-1), place) if (m * (m - 1) // 2) % 2 else 1
    return _hasse_product(elems, place) == want


def oracle_in_i_cube(form) -> bool:
    """Membership in I^3 by pairwise Hasse comparisons at every place of
    the support."""
    field = form.field
    if not _has_classes(field):
        raise UnsupportedField("no Witt decision procedure for this field")
    rep = form.diag_rep()
    if len(rep) % 2:
        return False
    if not _signed_disc(field, rep).is_trivial():
        return False
    if isinstance(field, FiniteField):
        return True
    if isinstance(field, RationalField) and signature(form) % 8 != 0:
        return False
    elems = _rep_elems(rep)
    for place in _support_of_rep(field, elems):
        if not _ehat_matches_hyperbolic(field, elems, place):
            return False
    return True


def oracle_witt_is_zero(form) -> bool:
    if isinstance(form.field, RationalField) and signature(form) != 0:
        return False
    return oracle_in_i_cube(form)


def second_residue(form: GroupRingElem, place) -> GroupRingElem:
    """Second residue form at a finite place of F_q(t), read off the
    keys: a class of odd valuation ``<pi^(2m+1) u>`` contributes
    ``<u-bar>`` over the residue field, a class of even valuation
    nothing, so that ``<pi>`` maps to ``<1>``."""
    if not isinstance(form.field, RatFunField):
        raise UnsupportedField("second residues live over function fields")
    if place.field is not form.field:
        raise MixedFields("place does not belong to the form's field")
    kappa = place.residue_field()
    out: Dict[SquareClass, int] = {}
    for cls, c in form.coeffs.items():
        v, res = _local_class(cls, place)
        if v:
            rcls = SquareClass(kappa, (res, ()))
            out[rcls] = out.get(rcls, 0) + c
    return GroupRingElem(kappa, out)


def element_residue(x, place) -> GroupRingElem:
    """The Witt half of the residue of a monomial-backed K^MW element:
    each term c eta^k [a_1]...[a_m] expands as c sum_S (-1)^(m-|S|)
    <a_S>, and each a_S, multiplied out, contributes its unit residue
    when its valuation is odd."""
    kappa = place.residue_field()
    total = gr_zero(kappa)
    for (k, syms), c in x.monomials.items():
        m = len(syms)
        for size in range(m + 1):
            for subset in combinations(syms, size):
                v, u = valuation(prod(subset, start=x.field.one), place)
                if v % 2:
                    total = total + c * (-1) ** (m - size) * gr_unit(kappa, u)
    return total
