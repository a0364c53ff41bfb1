"""The element path of the scissors presentations, kept as the
row-for-row oracle of ``kmw.scissors``.

The library builds every relation row, K1 row and lambda image by
index arithmetic on discrete logs, as sparse ``{column: value}`` rows.
Here the same rows come from elements, as dense lists: ``RPElem``
combinations are flattened coefficient by coefficient into the two
translates of each generator, the five-term relations are taken at
every ordered pair of units in turn, and P's rows are the plain
five-terms, coefficients replaced by their augmentations.  The
s-translate swaps the two halves of a dense row (``swap_halves``) and
the push to P adds them (``fold_halves``); the library's row
generators are read through ``smith_oracle.dense_rows``.  Lambda_2,
which the library carries only as the third column of the mixed map
Lambda, is rebuilt here as its own map.
"""

from __future__ import annotations

from smith_oracle import dense_rows

from kmw.exact_linear import AbGroupInfo, AbMap
from kmw.group_ring import gr_int, gr_unit
from kmw.scissors import (
    RPElem,
    RPTildeElem,
    refined_five_term,
    scissors_context,
)


def swap_halves(vec) -> list:
    """Flat coordinates multiplied by the nontrivial square class: the
    two translates trade places."""
    n = len(vec) // 2
    return list(vec[n:]) + list(vec[:n])


def fold_halves(vec) -> list:
    """Flat refined coordinates pushed to P: each coefficient is
    replaced by its augmentation, so the two translates add up."""
    n = len(vec) // 2
    return [a + b for a, b in zip(vec[:n], vec[n:])]


def pairs(ctx):
    """The ordered pairs x != y of units other than 1, x outer and both
    in ``ctx.units`` order: the order of ``ctx._five_term_rows()``."""
    one = ctx.field.one
    pool = [e for e in ctx.units if e != one]
    for x in pool:
        for y in pool:
            if x != y:
                yield x, y


def rp_vector(ctx, elem: RPElem, twist: int = 0) -> list:
    """Flat coordinates of a refined element, optionally multiplied
    through by the nontrivial square class."""
    vec = [0] * (2 * ctx.n_units)
    for coeff, arg in elem.terms:
        for cls, n in coeff.coeffs.items():
            vec[ctx.flat_index(cls.key[0], arg)] += n
    return swap_halves(vec) if twist % 2 else vec


def p_vector(ctx, elem: RPElem) -> list:
    """Coordinates of an element pushed to P (coefficients replaced by
    their augmentations)."""
    return fold_halves(rp_vector(ctx, elem))


def psi1_vector(ctx, x, twist: int = 0) -> list:
    """[x] + <-1>[1/x], flattened, optionally s-translated."""
    field = ctx.field
    elem = RPElem(field, [(gr_int(field, 1), x), (gr_unit(field, field.elem(-1)), field.one / x)])
    return rp_vector(ctx, elem, twist)


def plain_five_term(field, x, y) -> RPElem:
    """The refined five-term at (x, y) with every coefficient replaced by
    its augmentation, +-1."""
    terms = refined_five_term(field, x, y).terms
    return RPElem(field, [(gr_int(field, coeff.augmentation()), arg) for coeff, arg in terms])


def refined(elem: RPElem) -> bool:
    """Whether any coefficient involves a nontrivial square class."""
    return any(not cls.is_trivial() for coeff, _ in elem.terms for cls in coeff.coeffs)


def p_rows(ctx) -> list:
    """P's relation rows as dense lists: the normalization and the fold
    of each five-term row."""
    return dense_rows(ctx._p_row_iter(), ctx.n_units)


def rp_rows(ctx) -> list:
    """RP's relation rows as dense lists: the normalization and each
    five-term row, each followed by its s-translate."""
    return dense_rows(ctx._rp_row_iter(), 2 * ctx.n_units)


def k1_rows(ctx) -> list:
    """The K1 rows psi_1(x) and their s-translates as dense lists."""
    return dense_rows(ctx._k1_row_iter(), 2 * ctx.n_units)


def rp_presentation(q: int):
    """(flat generator labels, relation rows, group) of RP(F_q)."""
    ctx = scissors_context(q)
    return ctx.rp_labels(), rp_rows(ctx), ctx.rp_group()


def lambda2(ctx) -> AbMap:
    """lambda_2 : RP -> Z/2, on both translates of every generator."""
    _, bits = ctx._lambda_images()
    return AbMap(ctx.rp_group(), AbGroupInfo(["w"], [[2]]), [[bit] for bit in bits + bits])


def twist(a: RPTildeElem) -> RPTildeElem:
    """Action of the nontrivial square class: swap the translates."""
    return RPTildeElem(a.q, swap_halves(a.vector))
