"""Scissors-congruence groups of finite fields from finite presentations.

The refined group RP(k) carries coefficients in the group ring of the
square-class group; it is flattened to an abelian presentation with two
generators per unit (one per square class), the normalization [1] = 0,
and one five-term relation per ordered pair x != y of units distinct
from 1.  Each five-term is flattened once, to a sparse ``{column:
value}`` row of at most 5 entries; its s-translate moves column c to
(c + n) mod 2n, trading the two translates of each generator, and its
relation in the plain group P(k) (one generator per unit) is the fold,
column c to c mod n, the two translates added.

The rows of the presentations, the K1 rows and the images of the lambda
maps are index arithmetic on discrete logs: a unit is g^a, its square
class is a mod 2, and 1 - g^a is a Zech-table lookup in the field's
exp/log/Zech tables.  The relation rows are generated on demand and
streamed, sparse, into each group's Hermite reduction
(``AbGroupInfo._from_sparse``); no list of them is kept, and no row is
made dense unless the reduction samples it.
``refined_five_term`` and ``RPElem`` serve the specialization maps; the
element path that flattens them into rows is the row-for-row oracle of
the tests (``tests/scissors_oracle.py``).

Derived objects are kernels and cokernels computed with the integer
linear algebra layer, and nothing else: the Bloch-type kernels B, RB,
RP_1 of the lambda maps; the kernel and cokernel of RB -> B, read as
the kernel of RB -> P and the kernel of P / im RB -> P / B; the
quotient RP-tilde, presented by RP's Hermite basis with the K1 rows
adjoined; and RP_1 meeting the K1 submodule, the kernel of
RP_1 -> RP-tilde.  The specialization maps at a degree-one place of
k(t) land in pairs of RP-tilde elements.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from operator import index
from typing import List, Optional, Sequence, Tuple

from .errors import (
    DegenerateArguments,
    EvenQ,
    IntegrityFailure,
    MixedFields,
    NonUnitArgument,
    RelationNotKilled,
    TooSmallQ,
    UnsupportedPlace,
    ZeroArgument,
)
from .exact_linear import (
    AbGroupInfo,
    AbMap,
    IntMatrix,
    _sparse,
    fp_cokernel,
    fp_kernel,
    odd_part,
)
from .fields import (
    FieldElem,
    FiniteField,
    RatFunField,
    _as_place,
    _local_class,
    finite_field,
    valuation,
)
from .group_ring import GroupRingElem, gr_int, gr_unit


# -- formal refined elements --------------------------------------------


class RPElem:
    """Formal combination of generators [x] with group-ring
    coefficients; arguments are nonzero field elements."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms: Sequence[Tuple[GroupRingElem, FieldElem]]):
        clean: List[Tuple[GroupRingElem, FieldElem]] = []
        for coeff, arg in terms:
            if isinstance(coeff, int):
                coeff = gr_int(field, coeff)
            arg = field.elem(arg)
            if not arg:
                raise ZeroArgument("generator arguments must be nonzero")
            if coeff.field is not field:
                raise MixedFields("coefficient ring does not match the field")
            if coeff.is_zero():
                continue
            clean.append((coeff, arg))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", tuple(clean))

    def __setattr__(self, name, value):
        raise AttributeError("RPElem is immutable")

    def scale(self, coeff: GroupRingElem) -> "RPElem":
        """Left multiplication by a group-ring element."""
        if isinstance(coeff, int):
            coeff = gr_int(self.field, coeff)
        return RPElem(self.field, [(coeff * c, arg) for c, arg in self.terms])

    def __repr__(self):
        if not self.terms:
            return "RPElem(0)"
        bits = [f"({coeff!r})[{arg!r}]" for coeff, arg in self.terms]
        return "RPElem(" + " + ".join(bits) + ")"


def refined_five_term(field, x, y) -> RPElem:
    """The five-term relation at (x, y) with its square-class
    coefficients; defined whenever x, y avoid 0 and 1 and differ."""
    x = field.elem(x)
    y = field.elem(y)
    one = field.one
    if not x or not y or x == one or y == one:
        raise DegenerateArguments("five-term arguments must avoid 0 and 1")
    if x == y:
        raise DegenerateArguments("five-term arguments must be distinct")
    inv_x = one / x
    inv_y = one / y
    return RPElem(
        field,
        [
            (gr_int(field, 1), x),
            (gr_int(field, -1), y),
            (gr_unit(field, x), y / x),
            (-gr_unit(field, inv_x - one), (one - inv_x) / (one - inv_y)),
            (gr_unit(field, one - x), (one - x) / (one - y)),
        ],
    )


def five_term_admissible(field, x, y, place) -> bool:
    """Whether the five-term at (x, y) over k(t) reduces to a genuine
    five-term at the place: x and y are units whose reductions avoid
    0 and 1 and stay distinct."""
    place = _as_place(field, place)
    try:
        vx, rx = valuation(field.elem(x), place)
        vy, ry = valuation(field.elem(y), place)
    except ZeroArgument:
        return False
    if vx or vy:
        return False
    kappa = rx.field
    if rx == kappa.one or ry == kappa.one or rx == ry:
        return False
    return True


# -- presentations ------------------------------------------------------


def _check_q(q: int):
    if q % 2 == 0:
        raise EvenQ("the presentation needs an odd prime power")
    if q < 5:
        raise TooSmallQ("the field must have at least four elements")


def _s_translate(row: dict[int, int], n: int) -> dict[int, int]:
    """A flat refined ``{column: value}`` row multiplied by the nontrivial
    square class: the two translates of each generator trade places,
    column c going to (c + n) mod 2n."""
    n2 = 2 * n
    return {(c + n) % n2: x for c, x in row.items()}


class ScissorsContext:
    """All presentation data for one odd prime power, built once."""

    def __init__(self, q: int):
        _check_q(q)
        self.q = q
        self.field = finite_field(q)
        # the raws 1 .. q-1 in counting order: a unit's index is its raw - 1
        self.units = list(self.field.units())
        self.n_units = len(self.units)
        self._p_group: Optional[AbGroupInfo] = None
        self._rp_group: Optional[AbGroupInfo] = None
        self._maps = None
        self._derived = None
        self._rp_tilde: Optional[AbGroupInfo] = None

    @cached_property
    def _logs(self):
        """Discrete-log data of the units, from the field's exp/log/Zech
        tables: ``col[k]`` is the unit column of g^k for -2(q-1) <= k <
        2(q-1), so a difference of two logs needs no reduction;
        ``log[raw]`` is a unit's log; ``one_minus[k]`` = log(1 - g^k) =
        zech[k + h] with h = (q-1)/2 = log(-1), and -1 at k = 0, where
        1 - g^k = 0.  A unit's square class is its log mod 2."""
        exp, log, zech = self.field._tables
        n = self.n_units
        col = [r - 1 for r in exp]
        one_minus = [zech[(k + n // 2) % n] for k in range(n)]
        return col, log, one_minus

    def _five_term_rows(self):
        """The untwisted flat row of the refined five-term at each ordered
        pair x != y of units other than 1, as a ``{column: value}`` dict of
        at most 5 entries (a value is 0 where two terms cancel), x outer
        and both in ``units`` order, by index arithmetic on discrete logs:
        for x = g^a and y = g^b the terms are [x], -[y], <x>[g^(b-a)],
        -<x^-1 - 1>[(1 - x^-1)/(1 - y^-1)] and <1 - x>[(1 - x)/(1 - y)],
        with x^-1 - 1 = -(1 - x^-1)."""
        col, log, one_minus = self._logs
        n = self.n_units
        h = n // 2
        # (column of [x], log x, log(1 - x), log(1 - x^-1)) for x != 1, in
        # units order
        pool = []
        for e in self.units:
            a = log[e.val]
            if a:
                pool.append((col[a], a, one_minus[a], one_minus[-a]))
        for px, a, z, w in pool:
            cls_x = (a & 1) * n
            cls_inv = ((w + h) & 1) * n
            cls_one_minus = (z & 1) * n
            for py, b, z2, w2 in pool:
                if py == px:
                    continue
                row = {px: 1, py: -1}
                c = cls_x + col[b - a]
                row[c] = row.get(c, 0) + 1
                c = cls_inv + col[w - w2]
                row[c] = row.get(c, 0) - 1
                c = cls_one_minus + col[z - z2]
                row[c] = row.get(c, 0) + 1
                yield row

    # -- plain presentation --------------------------------------------

    def _p_row_iter(self):
        """The normalization [1] = 0 and the fold of each untwisted
        five-term row to P: each coefficient is replaced by its
        augmentation, so column c goes to c mod n and the two translates
        add up."""
        n = self.n_units
        yield {self.field.one.val - 1: 1}
        for row in self._five_term_rows():
            fold = {}
            for c, x in row.items():
                c %= n
                fold[c] = fold.get(c, 0) + x
            yield fold

    def p_group(self) -> AbGroupInfo:
        if self._p_group is None:
            labels = [f"[{e!r}]" for e in self.units]
            self._p_group = AbGroupInfo._from_sparse(labels, self._p_row_iter())
        return self._p_group

    # -- refined flat presentation -------------------------------------

    def flat_index(self, g: int, arg: FieldElem) -> int:
        return g * self.n_units + arg.val - 1

    def _rp_row_iter(self):
        """The normalization [1] = 0 and each untwisted five-term row,
        each followed by its s-translate."""
        n = self.n_units
        for v in chain([{self.flat_index(0, self.field.one): 1}], self._five_term_rows()):
            yield v
            yield _s_translate(v, n)

    def _rp_row_count(self) -> int:
        """The number of rows ``_rp_row_iter`` yields, without building
        them: the normalization and the five-term row of each pair of
        distinct units other than 1, each with its s-translate."""
        pool = self.n_units - 1
        return 2 * (1 + pool * (pool - 1))

    def rp_labels(self) -> List[str]:
        return [f"[{e!r}]" for e in self.units] + [f"s[{e!r}]" for e in self.units]

    def rp_group(self) -> AbGroupInfo:
        if self._rp_group is None:
            self._rp_group = AbGroupInfo._from_sparse(self.rp_labels(), self._rp_row_iter())
        return self._rp_group

    # -- lambda maps ----------------------------------------------------

    def _lambda_images(self):
        """For each unit a, in ``units`` order: the pair (on 1, on s) of
        <<a>><<1-a>> and the lambda_2 bit log(a) log(1-a) mod 2, both 0
        at a = 1.  Collected by class parity, <<a>><<1-a>> = <a(1-a)> -
        <a> - <1-a> + 1 vanishes unless a and 1 - a are both nonsquares,
        where it is 2 - 2s, and the bit is 1 exactly there."""
        _, log, one_minus = self._logs
        both = [log[x.val] & one_minus[log[x.val]] & 1 for x in self.units]
        return [(2 * b, -2 * b) for b in both], both

    def maps(self):
        """(lambda_1, Lambda, lambda on P, projection RP->P).  Lambda is
        (lambda_1, lambda_2) into Z[s] + Z/2, so it carries lambda_2's
        bit as its third column."""
        if self._maps is None:
            z2 = AbGroupInfo(["w"], [[2]])
            zz = AbGroupInfo(["c1", "cs"], [])
            mixed = AbGroupInfo(["c1", "cs", "w"], [[0, 0, 2]])
            rp = self.rp_group()
            p = self.p_group()
            pairs, bits = self._lambda_images()
            # s * (c1 + cs s) = cs + c1 s
            pairs += [(cs, c1) for c1, cs in pairs]
            bits += bits
            eye = IntMatrix.identity(self.n_units)
            lambda1 = AbMap(rp, zz, pairs)
            lam_mixed = AbMap(rp, mixed, [[c1, cs, bit] for (c1, cs), bit in zip(pairs, bits)])
            lambda_p = AbMap(p, z2, [[bit] for bit in bits[: self.n_units]])
            proj = AbMap(rp, p, eye.stack(eye))
            self._maps = (lambda1, lam_mixed, lambda_p, proj)
        return self._maps

    # -- K1 submodule ---------------------------------------------------

    def _k1_row_iter(self):
        """The flat row of psi_1(x) = [x] + <-1>[1/x] and its s-translate
        for every unit x, from discrete logs: [x] + <-1>[g^-a] for
        x = g^a, where <-1> has class (q-1)/2 mod 2."""
        col, log, _ = self._logs
        n = self.n_units
        cls_minus_one = ((n // 2) & 1) * n
        for x in self.units:
            a = log[x.val]
            v = {col[a]: 1}
            c = cls_minus_one + col[-a]
            v[c] = v.get(c, 0) + 1
            yield v
            yield _s_translate(v, n)

    def rp_tilde(self) -> AbGroupInfo:
        """RP modulo the K1 submodule: the K1 rows adjoined to RP's
        Hermite basis, which spans the same lattice as its relations."""
        if self._rp_tilde is None:
            basis = map(_sparse, self.rp_group().relation_basis.row_list())
            self._rp_tilde = AbGroupInfo._from_sparse(
                self.rp_labels(), chain(basis, self._k1_row_iter())
            )
        return self._rp_tilde

    # -- derived groups -------------------------------------------------

    def derived(self):
        """The derived groups, computed once; every call checks that
        RB -> B is an isomorphism."""
        if self._derived is None:
            lambda1, lam_mixed, lambda_p, proj = self.maps()
            p = self.p_group()
            rp = self.rp_group()
            b_grp, b_incl = fp_kernel(lambda_p)
            rb_grp, rb_incl = fp_kernel(lam_mixed)
            rp1_grp, rp1_incl = fp_kernel(lambda1)

            # B sits in P by an injective inclusion, so ker(RB -> B) =
            # ker(RB -> P), and B / im RB = ker(P / im RB -> P / B); that
            # quotient map exists exactly when im RB lies in B
            rb_to_p = AbMap(rb_grp, p, rb_incl.images @ proj.images)
            rblker_grp, _ = fp_kernel(rb_to_p)
            eye = IntMatrix.identity(p.ngens)
            try:
                quot = AbMap(fp_cokernel(rb_to_p), fp_cokernel(b_incl), eye)
            except RelationNotKilled:
                raise IntegrityFailure("image of RB escapes the Bloch kernel") from None
            coker_grp, _ = fp_kernel(quot)

            # RP1 meets the K1 submodule of RP in the kernel of RP1 -> RP-tilde
            meet, _ = fp_kernel(AbMap(rp1_grp, self.rp_tilde(), rp1_incl.images))
            exponent = meet.exponent()
            if exponent is None:
                raise IntegrityFailure("intersection with K1 has an infinite cycle")

            self._derived = {
                "P": p,
                "half_P": odd_part(p),
                "RP": rp,
                "B": b_grp,
                "RB": rb_grp,
                "RP1": rp1_grp,
                "half_RP1": odd_part(rp1_grp),
                "rblker": rblker_grp,
                "cokernel_RB_to_B": coker_grp,
                "RP_tilde": self.rp_tilde(),
                "k1_intersection_exponent": exponent,
            }
        if self._derived["rblker"].order() != 1:
            raise IntegrityFailure("comparison kernel RB -> B is not trivial")
        if self._derived["cokernel_RB_to_B"].order() != 1:
            raise IntegrityFailure("RB -> B fails to be onto")
        return self._derived


@lru_cache(maxsize=None)
def scissors_context(q: int) -> ScissorsContext:
    return ScissorsContext(q)


# -- public presentation operations ------------------------------------


def pb_group(q: int) -> AbGroupInfo:
    """P(F_q) from its finite presentation."""
    return scissors_context(q).p_group()


def pb_half(q: int) -> AbGroupInfo:
    """Odd part of P(F_q); the expected value is Z/(q+1)' where the
    prime denotes the odd part."""
    return odd_part(pb_group(q))


def derived_groups(q: int):
    return scissors_context(q).derived()


# -- specialization at a degree-one place ------------------------------


class RPTildeElem:
    """Element of RP-tilde(F_q) given by flat coordinates."""

    __slots__ = ("q", "vector")

    def __init__(self, q: int, vector: Sequence[int]):
        ctx = scissors_context(q)
        if len(vector) != 2 * ctx.n_units:
            raise ValueError("coordinate length mismatch")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "vector", tuple(map(index, vector)))

    def __setattr__(self, name, value):
        raise AttributeError("RPTildeElem is immutable")

    def is_zero(self) -> bool:
        return scissors_context(self.q).rp_tilde().is_zero(list(self.vector))

    def __eq__(self, other):
        if not isinstance(other, RPTildeElem):
            return NotImplemented
        if self.q != other.q:
            return False
        diff = [a - b for a, b in zip(self.vector, other.vector)]
        return scissors_context(self.q).rp_tilde().is_zero(diff)

    def __repr__(self):
        return f"RPTildeElem(q={self.q}, vector={self.vector})"


def _place_for_sv(field, place):
    place = _as_place(field, place)
    if place.kind != "poly" or place.data.degree() != 1:
        raise UnsupportedPlace("specialization needs a degree-one finite place")
    return place


def sv_apply(xi: RPElem, place) -> Tuple[RPTildeElem, RPTildeElem]:
    """Specialize a unit-argument combination over k(t) at a
    degree-one place, splitting by the t-parity of the coefficients."""
    field = xi.field
    if not isinstance(field, RatFunField) or not isinstance(field.base, FiniteField):
        raise UnsupportedPlace("specialization is defined over F_q(t)")
    place = _place_for_sv(field, place)
    q = field.base.order
    ctx = scissors_context(q)
    comps = [
        [0] * (2 * ctx.n_units),
        [0] * (2 * ctx.n_units),
    ]
    for coeff, arg in xi.terms:
        v, red = valuation(arg, place)
        if v != 0:
            raise NonUnitArgument("every generator argument must be a unit at the place")
        for cls, n in coeff.coeffs.items():
            w, g = _local_class(cls, place)
            comps[w][ctx.flat_index(g, red)] += n
    return RPTildeElem(q, comps[0]), RPTildeElem(q, comps[1])
