"""Structured descriptions of computed and cited group data.

A ``GroupDescriptor`` separates three kinds of content: an exactly
computed part (free rank and cyclic invariant factors), symbolic factors
quoted from the literature with their citation tags, and provenance
handles recording which library operation produced each computed part so
a verifier can re-execute them.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def _group_text(free_rank: int, cyclic: Iterable[int],
                symbolic: Iterable[str] = ()) -> str:
    """Text form of a group, such as ``Z^2 + Z/3 + V``: the free part, each
    cyclic factor above 1, then the named symbolic factors; ``0`` when
    there is none of these."""
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank:
        parts.append(f"Z^{free_rank}")
    parts.extend(f"Z/{c}" for c in cyclic if c > 1)
    parts.extend(symbolic)
    return " + ".join(parts) if parts else "0"


class SymbolicFactor:
    """A named group quoted rather than computed, with its citation and,
    when known, its order."""

    __slots__ = ("name", "cite", "order")

    def __init__(self, name: str, cite: str, order: Optional[int] = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "cite", cite)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("SymbolicFactor is immutable")

    def to_json(self) -> dict:
        out = {"name": self.name, "cite": self.cite}
        if self.order is not None:
            out["order"] = self.order
        return out

    def __repr__(self):
        return f"SymbolicFactor({self.name})"


class Provenance:
    """Recomputable record: running ``op`` with ``args`` must reproduce
    ``factors`` = {"free": int, "cyclic": [int, ...]}."""

    __slots__ = ("op", "args", "factors")

    def __init__(self, op: str, args: dict, factors: dict):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", dict(args))
        object.__setattr__(
            self,
            "factors",
            {"free": int(factors.get("free", 0)), "cyclic": [int(c) for c in factors.get("cyclic", [])]},
        )

    def __setattr__(self, name, value):
        raise AttributeError("Provenance is immutable")

    def to_json(self) -> dict:
        return {"op": self.op, "args": self.args, "factors": self.factors}

    def __repr__(self):
        return f"Provenance({self.op}, {self.args})"


class GroupDescriptor:
    """Description of an abelian group assembled from computed and cited
    pieces, with an optional truncation bound for reports that only see
    finitely many places."""

    __slots__ = (
        "label",
        "free_rank",
        "cyclic_factors",
        "symbolic_factors",
        "provenance",
        "trunc_bound",
    )

    def __init__(
        self,
        label: str,
        free_rank: int = 0,
        cyclic_factors: Sequence[int] = (),
        symbolic_factors: Sequence[SymbolicFactor] = (),
        provenance: Sequence[Provenance] = (),
        trunc_bound: Optional[int] = None,
    ):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "free_rank", int(free_rank))
        object.__setattr__(self, "cyclic_factors", tuple(int(c) for c in cyclic_factors))
        object.__setattr__(self, "symbolic_factors", tuple(symbolic_factors))
        object.__setattr__(self, "provenance", tuple(provenance))
        object.__setattr__(self, "trunc_bound", trunc_bound)

    def __setattr__(self, name, value):
        raise AttributeError("GroupDescriptor is immutable")

    def to_json(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "cyclic_factors": list(self.cyclic_factors),
            "symbolic": [s.to_json() for s in self.symbolic_factors],
            "bound": self.trunc_bound,
            "label": self.label,
            "provenance": [p.to_json() for p in self.provenance],
        }

    def describe(self) -> str:
        body = _group_text(
            self.free_rank, self.cyclic_factors, [s.name for s in self.symbolic_factors]
        )
        return f"{self.label}: {body}"

    def __repr__(self):
        return f"GroupDescriptor({self.describe()})"
