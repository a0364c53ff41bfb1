"""Pairwise Witt decisions, kept as the oracle for the local-data path
of ``kmw.witt``: the Hasse product of a diagonal form as r(r-1)/2
Hilbert symbols of ``symbol_oracle`` (the library's own symbols read
the same local classes as ``kmw.witt``), and ``in_i_power(., 3)`` /
``witt_is_zero`` built on it.  Also ``diagonal``, the diagonal forms
the Witt tests are written in."""

from typing import Sequence

from symbol_oracle import hilbert

from kmw.fields import FieldElem, FiniteField, RationalField, support_places
from kmw.witt import _check_decidable, _signed_disc, signature
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
    _check_decidable(field)
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
