"""The integral group ring Z[k^x / (k^x)^2].

Elements are finite integer combinations of square classes; over a
finite field the group has order two, so the ring is Z[s]/(s^2 - 1) and
elements flatten to coefficient pairs.  The forms ⟪a⟫ = ⟨a⟩ - 1 satisfy
⟪ab⟫ = ⟪a⟫ + ⟪b⟫ + ⟪a⟫⟪b⟫, and products of two of them land in the
square of the augmentation ideal.

The same ring carries the Grothendieck-Witt side: an element is a
virtual diagonal form, its augmentation is the virtual rank, and
``kmw.witt`` decides the Witt classes of the forms built here.  Each
form has one constructor: ``gr_zero``, ``gr_int(F, n)`` (n copies of
⟨1⟩), ``gr_unit(F, a)`` (⟨a⟩) and ``pfister_form``; sums, negatives and
products are the ring operators.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Mapping

from .errors import MixedFields, ZeroEntry
from .fields import (
    Field,
    SquareClass,
    _minus_one_class,
    _trivial_class,
    square_class,
)


class GroupRingElem:
    """Z-linear combination of square classes of a fixed field; read
    as a virtual diagonal form, ``n<a>`` is n copies of ``<a>``."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Mapping[SquareClass, int]):
        clean = {}
        for cls, c in coeffs.items():
            if cls.field is not field:
                raise MixedFields("square class over a different field")
            c = index(c)
            if c:
                clean[cls] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElem is immutable")

    def _coerce(self, other) -> "GroupRingElem":
        if isinstance(other, GroupRingElem):
            if other.field is not self.field:
                raise MixedFields("group ring elements over different fields")
            return other
        if isinstance(other, int):
            return gr_int(self.field, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for cls, c in o.coeffs.items():
            out[cls] = out.get(cls, 0) + c
        return GroupRingElem(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return GroupRingElem(self.field, {cls: -c for cls, c in self.coeffs.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElem(
                self.field, {cls: c * other for cls, c in self.coeffs.items()}
            )
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out: dict[SquareClass, int] = {}
        for c1, a in self.coeffs.items():
            for c2, b in o.coeffs.items():
                key = c1 * c2
                out[key] = out.get(key, 0) + a * b
        return GroupRingElem(self.field, out)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = gr_int(self.field, other)
        return (
            isinstance(other, GroupRingElem)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        # n<1> equals the int n, so it hashes as n
        if not self.coeffs:
            return hash(0)
        if len(self.coeffs) == 1:
            (cls, c), = self.coeffs.items()
            if cls.is_trivial():
                return hash(c)
        return hash((id(self.field), frozenset(self.coeffs.items())))

    def augmentation(self) -> int:
        return sum(self.coeffs.values())

    def diag_rep(self) -> list[SquareClass]:
        """Diagonal representative of the same Witt class: negative
        multiples of ``<a>`` are replaced by copies of ``<-a>``."""
        minus_one = _minus_one_class(self.field)
        rep: list[SquareClass] = []
        for cls in sorted(self.coeffs, key=lambda s: s.sort_key):
            c = self.coeffs[cls]
            if c > 0:
                rep.extend([cls] * c)
            else:
                rep.extend([cls * minus_one] * (-c))
        return rep

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for cls in sorted(self.coeffs, key=lambda s: s.sort_key):
            c = self.coeffs[cls]
            tag = f"<{cls.rep()!r}>"
            if c == 1:
                parts.append(tag)
            elif c == -1:
                parts.append(f"-{tag}")
            else:
                parts.append(f"{c}*{tag}")
        return " + ".join(parts).replace("+ -", "- ")


def gr_zero(field: Field) -> GroupRingElem:
    return GroupRingElem(field, {})


def gr_int(field: Field, n: int) -> GroupRingElem:
    return GroupRingElem(field, {_trivial_class(field): n})


def _unit_class(field: Field, a) -> SquareClass:
    e = field.elem(a)
    if not e:
        raise ZeroEntry("form entries and Pfister slots must be units")
    return square_class(e)


def gr_unit(field: Field, a) -> GroupRingElem:
    """The basis element ⟨a⟩ for a nonzero field element a."""
    return GroupRingElem(field, {_unit_class(field, a): 1})


def pfister_form(field: Field, slots: Iterable) -> GroupRingElem:
    """The product of the forms ⟪a⟫ = ⟨a⟩ - 1 over the given nonzero
    slots: multiplicative in each slot against addition of slots."""
    coeffs = {_trivial_class(field): 1}
    for a in slots:
        cls = _unit_class(field, a)
        out: dict[SquareClass, int] = {}
        for c, n in coeffs.items():
            if n:  # a square slot cancels terms; skip them in later slots
                key = c * cls
                out[key] = out.get(key, 0) + n
                out[c] = out.get(c, 0) - n
        coeffs = out
    return GroupRingElem(field, coeffs)
