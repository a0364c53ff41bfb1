"""Virtual diagonal quadratic forms and Witt-group decision procedures.

A virtual form is a formal integer combination of rank-one diagonal
classes ``<a>`` indexed by square classes, i.e. an element of the
Grothendieck-Witt presentation with only the square-class relation
applied.  That is the group ring Z[k^x / (k^x)^2], so forms are
``kmw.group_ring.GroupRingElem`` values, built by that module's
constructors (``gr_unit`` for ``<a>``, ``gr_int`` and
``pfister_form``).  Witt-group questions
(``witt_is_zero``, ``witt_equal``, and ``in_i_power`` for the powers of
the fundamental ideal) are decided by complete invariant sets per field
kind, computed inside each decision rather than returned:

* finite fields: parity of the virtual rank and the signed discriminant;
* the rationals: parity, signed discriminant, real signature, and
  comparison of Hasse products with the hyperbolic form of the same rank
  at every place in the support;
* rational function fields over a finite field: parity, signed
  discriminant, and the same Hasse comparison at the support together
  with the place at infinity.

Each Hasse product is read off local data, one record per (form, place):
how many entries of a diagonal representative fall in each local square
class there (four at a tame place, eight at 2 over Q, two at the real
place), summed over pairs of classes.  That is O(r) per place rather
than r(r-1)/2 Hilbert symbols.  The local class of an entry is read off
its square-class key (bit, places of odd valuation), never off a
representative element: over Q from the sign and the product of the
primes, and over F_q(t) from the base bit and the places, where the
class at a place P is (P in the places, chi_P(base) plus the bits of
Q mod P over the other places Q), and at infinity (the degree parity,
the base bit).  The symbol of two local classes is
``kmw.fields._symbol_bit``, the same that ``kmw.fields.hilbert`` reads.
The support is read off the keys too.

Residues build no form over k(t): ``_symbol_residue`` reads the second
residue of a symbol's Pfister form off each entry's valuation and unit
residue at the place, the same record the tame symbol reads, and
``kmw.milnor_witt.mw_delta`` sums it over the terms of an element.

An independent brute-force route (`CountingTable`) classifies diagonal
forms over a finite field by their value-count fingerprints, one table
per q (``_counting_table``) shared by every check that reads it;
``witt_group_structure`` derives the Witt group of F_q from it alone,
its invariant factors from the Smith form of the Cayley table's
regular presentation (``kmw.exact_linear.AbGroupInfo``), as for every
other group here.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .errors import (
    MixedFields,
    UnsupportedDegree,
    UnsupportedField,
    ZeroEntry,
)
from .exact_linear import AbGroupInfo
from .fields import (
    FieldElem,
    FiniteField,
    Place,
    RationalField,
    SquareClass,
    _class_support,
    _has_classes,
    _local_class,
    _minus_one_class,
    _symbol_bit,
    _trivial_class,
    _valuation_cached,
    finite_field,
    square_class,
)
from .group_ring import GroupRingElem, pfister_form


# -- invariants ---------------------------------------------------------


def _signed_disc(field, rep: Sequence[SquareClass]) -> SquareClass:
    r = len(rep)
    disc = _trivial_class(field)
    for cls in rep:
        disc = disc * cls
    if (r * (r - 1) // 2) % 2:
        disc = disc * _minus_one_class(field)
    return disc


def signature(form: GroupRingElem) -> int:
    """Signature at the real place; defined over the rationals only."""
    if not isinstance(form.field, RationalField):
        raise UnsupportedField("signatures require the rational field")
    sig = 0
    for cls, c in form.coeffs.items():
        sig += -c if cls.key[0] else c  # the key's sign bit
    return sig


# -- local data ---------------------------------------------------------
#
# The Hilbert symbol at a place is bimultiplicative (Serre, *A Course in
# Arithmetic*, ch. III, §1), so it factors through the local square
# classes there: four at a tame place, eight at 2 over Q, two at the real
# place.  The Hasse product prod_{i<j} (a_i, a_j) of a diagonal form is
# then read off how many entries fall in each class, in O(r) per place;
# ``fields._local_class`` reads each entry's local class off its key, and
# ``fields._symbol_bit`` gives the symbol of two local classes.


def _local_hasse(rep: Sequence[SquareClass], place: Place) -> int:
    """prod_{i<j} (a_i, a_j) at the place for the diagonal form with the
    given entry classes, from its local data: the count of entries in
    each local square class."""
    counts: Counter = Counter()
    for cls, n in Counter(rep).items():
        counts[_local_class(cls, place)] += n
    classes = list(counts)
    bit = 0
    for i, x in enumerate(classes):
        n = counts[x]
        bit += n * (n - 1) // 2 * _symbol_bit(place, x, x)
        for y in classes[i + 1:]:
            bit += n * counts[y] * _symbol_bit(place, x, y)
    return -1 if bit % 2 else 1


def _hasse_defects(field, rep: Sequence[SquareClass]) -> Dict[Place, int]:
    """The places where the Hasse product of an even-rank diagonal form
    differs from that of the hyperbolic form of the same rank, each
    mapped to -1.  Off the support of the entries both products are 1."""
    if not rep:
        return {}
    m = len(rep) // 2
    # the hyperbolic form of rank 2m has Hasse product (-1, -1)^(m(m-1)/2)
    minus_ones = [_minus_one_class(field)] * 2 if (m * (m - 1) // 2) % 2 else []
    return {
        place: -1
        for place in _class_support(field, rep)
        if _local_hasse(rep, place) != _local_hasse(minus_ones, place)
    }


def witt_is_zero(form: GroupRingElem) -> bool:
    """Whether the form is hyperbolic (zero in the Witt group).

    The cube of the fundamental ideal vanishes over finite fields and
    over F_q(t); over the rationals the signature is injective on it."""
    if isinstance(form.field, RationalField) and signature(form) != 0:
        return False
    return in_i_power(form, 3)


def witt_equal(a: GroupRingElem, b: GroupRingElem) -> bool:
    return witt_is_zero(a - b)  # a - b raises MixedFields across fields


def in_i_power(form: GroupRingElem, n: int) -> bool:
    """Membership in the n-th power of the fundamental ideal, n in 1..3."""
    if n not in (1, 2, 3):
        raise UnsupportedDegree("fundamental-ideal filtration is decided for n in 1..3")
    if not _has_classes(form.field):
        raise UnsupportedField("no Witt decision procedure for this field")
    return _in_i_power(form, form.diag_rep(), n)


def _in_i_power(form: GroupRingElem, rep: Sequence[SquareClass], n: int) -> bool:
    """``in_i_power`` for a form with the diagonal representative rep."""
    field = form.field
    if len(rep) % 2:
        return False
    if n == 1:
        return True
    if not _signed_disc(field, rep).is_trivial():
        return False
    if n == 2:
        return True
    # n == 3: all Hasse comparisons trivial, plus signatures divisible
    # by 8 over the rationals.  Over finite fields the square of the
    # fundamental ideal is already zero, so nothing is left to check.
    if isinstance(field, FiniteField):
        return True
    if isinstance(field, RationalField) and signature(form) % 8 != 0:
        return False
    return not _hasse_defects(field, rep)


# -- residues -----------------------------------------------------------


def _symbol_residue(entries: Sequence[FieldElem], place: Place) -> GroupRingElem:
    """Second residue at a finite place of k(t) of the Pfister form of a
    symbol's entries, over the residue field.

    The form expands as ``<<a_1, ..., a_m>> = sum_S (-1)^(m-|S|) <a_S>``
    over the subsets S of the entries, with a_S their product.  Each
    entry is read once, as the valuation and unit residue ``(v_i, u_i)``
    that the tame symbol reads too; then a_S has valuation sum v_i and
    unit residue prod u_i over S, and ``<pi^v u>`` has second residue
    ``<u-bar>`` for odd v and 0 for even v (Milnor & Husemoller,
    *Symmetric bilinear forms*, ch. IV), so ``<pi>`` maps to ``<1>``.
    """
    kappa = place.residue_field()
    # (valuation, unit residue, size) of the product over each subset
    subsets = [(0, kappa.one, 0)]
    for a in entries:
        v, u = _valuation_cached(a, place)
        subsets += [(w + v, r * u, n + 1) for w, r, n in subsets]
    m = len(entries)
    out: Dict[SquareClass, int] = {}
    for w, r, n in subsets:
        if w % 2:
            cls = square_class(r)
            out[cls] = out.get(cls, 0) + (-1) ** (m - n)
    return GroupRingElem(kappa, out)


# -- brute-force route over finite fields -------------------------------


class CountingTable:
    """Value-count fingerprints of diagonal forms over a finite field.

    The fingerprint of a form is the vector counting, for each field
    element v, the number of argument tuples the form maps to v.  Over a
    finite field this is a complete isometry invariant for diagonal
    forms of a fixed rank, which makes it an oracle for Witt-group
    questions that never looks at discriminants or Hasse symbols.
    """

    def __init__(self, q: int):
        self.field = finite_field(q)
        self.q = q
        self.elems = list(self.field.elements())
        self.index = {e.val: i for i, e in enumerate(self.elems)}
        # q is small here; precompute the addition table once.
        self.add = [
            [self.index[(a + b).val] for b in self.elems] for a in self.elems
        ]
        self._unit_cache: Dict[object, Tuple[int, ...]] = {}

    def unit_counts(self, a) -> Tuple[int, ...]:
        """Fingerprint of the rank-one form ``<a>``."""
        a = self.field.elem(a)
        if not a:
            raise ZeroEntry("diagonal entries must be units")
        key = a.val
        cached = self._unit_cache.get(key)
        if cached is not None:
            return cached
        counts = [0] * self.q
        for x in self.elems:
            counts[self.index[(a * x * x).val]] += 1
        out = tuple(counts)
        self._unit_cache[key] = out
        return out

    def _conv(self, c1: Sequence[int], c2: Sequence[int]) -> Tuple[int, ...]:
        out = [0] * self.q
        add = self.add
        for i, a in enumerate(c1):
            if not a:
                continue
            row = add[i]
            for j, b in enumerate(c2):
                if b:
                    out[row[j]] += a * b
        return tuple(out)

    def rep_counts(self, entries: Sequence) -> Tuple[int, ...]:
        """Fingerprint of the diagonal form with the given entries."""
        counts = tuple(1 if i == self.index[self.field.zero.val] else 0 for i in range(self.q))
        for a in entries:
            counts = self._conv(counts, self.unit_counts(a))
        return counts

    def hyperbolic_counts(self, m: int) -> Tuple[int, ...]:
        return self.rep_counts([1, -1] * m)

    def rep_is_witt_zero(self, entries: Sequence) -> bool:
        if len(entries) % 2:
            return False
        return self.rep_counts(entries) == self.hyperbolic_counts(len(entries) // 2)

    def reps_witt_equal(self, e1: Sequence, e2: Sequence) -> bool:
        merged = list(e1) + [-self.field.elem(x) for x in e2]
        return self.rep_is_witt_zero(merged)

    def form_is_witt_zero(self, form: GroupRingElem) -> bool:
        if form.field is not self.field:
            raise MixedFields("form lives over a different field")
        return self.rep_is_witt_zero([cls.rep() for cls in form.diag_rep()])


@lru_cache(maxsize=8)
def _counting_table(q: int) -> CountingTable:
    """The table of F_q that the Witt checks and the suites share."""
    return CountingTable(q)


def _witt_class_reps(table: CountingTable) -> List[List[FieldElem]]:
    """Distinct Witt classes as short diagonal representatives, found by
    sifting all forms of rank at most two through the counting oracle."""
    field = table.field
    one = field.elem(1)
    s = field.nonsquare()
    candidates: List[List[FieldElem]] = [
        [],
        [one],
        [s],
        [one, one],
        [one, s],
        [s, s],
    ]
    classes: List[List[FieldElem]] = []
    for cand in candidates:
        if not any(table.reps_witt_equal(cand, known) for known in classes):
            classes.append(cand)
    return classes


def _class_index(table: CountingTable, classes, rep) -> int:
    for i, known in enumerate(classes):
        if table.reps_witt_equal(rep, known):
            return i
    raise UnsupportedField("rank-two representatives failed to cover the Witt group")


def witt_group_structure(q: int) -> dict:
    """Structure of the Witt group of F_q, derived from the counting
    oracle alone: class representatives, the addition (Cayley) table,
    element orders, and invariant factors, the latter from the Smith
    form of the Cayley table's regular presentation."""
    table = _counting_table(q)
    classes = _witt_class_reps(table)
    n = len(classes)
    cayley = [
        [_class_index(table, classes, classes[i] + classes[j]) for j in range(n)]
        for i in range(n)
    ]
    orders = []
    for i in range(n):
        k, acc = 1, i
        while acc != 0:
            acc = cayley[acc][i]
            k += 1
        orders.append(k)
    # the regular presentation: a generator e_i per class and e_i + e_j =
    # e_(i+j) for every pair of classes; the pair (0, 0) says e_0 = 0
    relations = []
    for i in range(n):
        for j in range(n):
            row = [0] * n
            row[i] += 1
            row[j] += 1
            row[cayley[i][j]] -= 1
            relations.append(row)
    factors = list(AbGroupInfo([f"e{i}" for i in range(n)], relations).invariant_factors)
    return {
        "q": q,
        "order": n,
        "class_reps": classes,
        "cayley": cayley,
        "element_orders": orders,
        "invariant_factors": factors,
    }


def i_square_is_zero(q: int) -> bool:
    """Check from the counting oracle that every product of two
    augmentation generators is hyperbolic over F_q."""
    table = _counting_table(q)
    field = table.field
    one = field.elem(1)
    s = field.nonsquare()
    for a in (one, s):
        for b in (one, s):
            form = pfister_form(field, [a, b])
            if not table.form_is_witt_zero(form):
                return False
    return True
