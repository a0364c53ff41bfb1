"""Exact integer linear algebra and finitely presented abelian groups.

Everything downstream reduces to this module: Smith/Hermite normal forms
over Z, lattice membership, and the presentation calculus (kernels,
images, cokernels of maps between finitely presented abelian groups).

A presentation is its Hermite basis.  ``AbGroupInfo`` streams its
relation rows, from any iterable, into their distinct rows up to sign,
and keeps the Hermite basis (no transform) of their lattice as
``relation_basis``, a rank x n matrix; no copy of the relation rows is
stored.  Rows come in through one of two doors, dense rows to the
constructor or ``{column: value}`` rows to ``AbGroupInfo._from_sparse``
(the five-term presentations of ``scissors``, at most 5 nonzeros a
row); either way they are deduplicated as sorted ``(column, value)``
tuples and take the same reduction.  That basis is unique and
generates the lattice (Cohen, GTM 138, section 2.4), so it may come
from any rows proved to span the lattice.  Up to 4n distinct rows are
reduced together.  A taller presentation reduces a sample (every k-th
row, k = rows // 2n, and every row with fewer than 5 nonzeros), made
dense for the kernel, certifies every other row, still sparse, by
membership against the sample's basis, and reduces once more with the
rows that fail; the basis is entry for entry that of all the rows
reduced together.
Everything reads the presentation through that basis: membership by
reduction of a ``{column: value}`` vector against its pivots, the
relation check of ``AbMap`` on its rows, and the invariant factors and
free rank from a transform-free Smith form of it, taken when one of
them is first read, so a group that is only stacked against takes none.
The kernel calculus stacks against ``relation_basis`` rather than the
tall, sparse relations, and reads each left kernel off unit columns
carried beside one reduction (``_snf_py._carry``; Cohen, GTM 138,
section 2.4), so no square transform is formed.  Kernels, cokernels and
``AbMap``'s relation check are the whole calculus: a solve, an
intersection or a containment is asked of them as a kernel or a
quotient map.

The kernels live in ``_snf_py``, in arbitrary precision: one Hermite
elimination, and the Smith form built from its reductions.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import index
from typing import Iterable, Optional, Sequence

from . import _snf_py
from .descriptor import _group_text
from .errors import BadBound, IntegrityFailure, RelationNotKilled


class IntMatrix:
    """Immutable integer matrix, stored flat row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        entries = tuple(map(index, entries))
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("matrix shape does not match entry count")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0]) if cols is None else cols
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        flat = [x for r in rows for x in r]
        return cls(len(rows), cols, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [int(i == j) for i in range(n) for j in range(n)])

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[tuple[int, ...]]:
        return [self.row(i) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        out = [0] * (self.rows * other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                x = self.entries[base + k]
                if x:
                    ob = k * other.cols
                    tb = i * other.cols
                    for j in range(other.cols):
                        out[tb + j] += x * other.entries[ob + j]
        return IntMatrix(self.rows, other.cols, out)

    def stack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("column counts differ")
        return IntMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + i] for i in range(min(self.rows, self.cols)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        if self.rows * self.cols <= 36:
            body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
            return f"IntMatrix({self.rows}x{self.cols}: {body})"
        return f"IntMatrix({self.rows}x{self.cols})"


def snf(
    m: IntMatrix, want_u: bool = True, want_v: bool = True
) -> tuple[IntMatrix, Optional[IntMatrix], Optional[IntMatrix]]:
    """Smith normal form: returns (D, U, V) with U*m*V = D, U and V
    unimodular, D diagonal with nonnegative entries in a divisibility
    chain.  A transform that is not asked for is None."""
    d, u, v = _snf_py.snf_kernel(m.entries, m.rows, m.cols, want_u, want_v)
    return (
        IntMatrix(m.rows, m.cols, d),
        IntMatrix(m.rows, m.rows, u) if want_u else None,
        IntMatrix(m.cols, m.cols, v) if want_v else None,
    )


def _sparse(row: Sequence[int]) -> dict[int, int]:
    # {column: value} of the nonzero entries, in column order
    return {c: x for c, x in enumerate(row) if x}


def _pivot_data(basis: IntMatrix) -> dict[int, tuple[dict[int, int], int]]:
    # {pivot column: (row as {column: value}, pivot value)} of a Hermite basis
    out = {}
    for row in map(_sparse, basis.row_list()):
        c = next(iter(row))
        out[c] = (row, row[c])
    return out


def _member(pivots, vec) -> bool:
    """Whether the sparse vector ``vec``, a ``{column: value}`` dict or
    its ``(column, value)`` pairs, lies in the lattice of a Hermite
    basis, read through its ``_pivot_data``.  Its leftmost nonzero entry
    must sit on a pivot and be a multiple of it; subtracting that
    multiple of the pivot row clears it and changes only columns to its
    right, and so on until nothing is left."""
    rem = dict(vec)
    while rem:
        c = min(rem)
        if c not in pivots:
            return False
        row, p = pivots[c]
        q, r = divmod(rem[c], p)
        if r:
            return False
        for k, y in row.items():
            x = rem.get(k, 0) - q * y
            if x:
                rem[k] = x
            else:
                del rem[k]
    return True


def _flat(rows: Sequence[Sequence[tuple[int, int]]], n: int) -> list[int]:
    # the row-major entries of sparse rows of width n, for the kernels
    flat = [0] * (len(rows) * n)
    for i, row in enumerate(rows):
        for c, x in row:
            flat[i * n + c] = x
    return flat


def _hermite_basis(rows: list[tuple[tuple[int, int], ...]], n: int):
    """(Hermite basis, its ``_pivot_data``) of the lattice of the
    distinct sparse ``rows`` of width ``n`` (``_distinct_rows``).

    Up to 4n rows are made dense and reduced together.  Of more, only a
    sample is made dense and reduced: every k-th row, k = rows // 2n,
    and every row with fewer than 5 nonzeros.  Every other row is then
    tested for membership against the basis, read off its sparse form;
    the sampled rows are in the lattice by construction.  The rows that
    fail are stacked under the basis and reduced once more.  That
    lattice holds the sample, the rows that passed and the rows that
    failed, and no more than the lattice of all the rows; its Hermite
    basis is unique (Cohen, GTM 138, Thm 2.4.3), so it is the basis of
    all the rows reduced together.  The incremental shape follows
    Micciancio & Warinschi (ISSAC 2001)."""
    if len(rows) <= 4 * n:
        sample, rest = rows, ()
    else:
        k = len(rows) // (2 * n)
        sample, rest = [], []
        for i, row in enumerate(rows):
            (sample if i % k == 0 or len(row) < 5 else rest).append(row)
    h, _, rank = _snf_py.hnf_kernel(_flat(sample, n), len(sample), n, False)
    basis = IntMatrix(rank, n, h[: rank * n])
    pivots = _pivot_data(basis)
    missing = [row for row in rest if not _member(pivots, row)]
    if not missing:
        return basis, pivots
    entries = list(basis.entries) + _flat(missing, n)
    h, _, rank = _snf_py.hnf_kernel(entries, rank + len(missing), n, False)
    basis = IntMatrix(rank, n, h[: rank * n])
    return basis, _pivot_data(basis)


def _distinct_rows(rows: Iterable[dict[int, int]], n: int) -> list[tuple[tuple[int, int], ...]]:
    """The nonzero rows of ``rows``, given as ``{column: value}``, each
    once up to sign, in order of first appearance.  Each is keyed by its
    sorted ``((column, value), ...)`` tuple without zero values, signed
    so that the leading value is positive, and returned as that key.
    They span the same row lattice as ``rows``.  Each row is read once,
    so any iterable will do; a column outside ``[0, n)`` raises."""
    out = {}
    for row in rows:
        items = sorted(row.items())
        if 0 in row.values():
            items = [e for e in items if e[1]]
        if not items:
            continue
        if items[0][0] < 0 or items[-1][0] >= n:
            raise ValueError("relation column outside the generators")
        if items[0][1] < 0:
            items = [(c, -x) for c, x in items]
        out[tuple(items)] = None
    return list(out)


def _dense_row(row: Sequence[int], n: int) -> dict[int, int]:
    # a dense relation row, width-checked and coerced, as {column: value}
    row = tuple(map(index, row))
    if len(row) != n:
        raise ValueError("relation width does not match generator count")
    return _sparse(row)


def _unit_rows(k: int, rows: int) -> list[list[int]]:
    # the first k unit vectors of Z^k, then zero rows, ``rows`` in all
    return [[int(i == j) for j in range(k)] for i in range(rows)]


class AbGroupInfo:
    """A finitely presented abelian group Z^n / (row lattice).

    The relation rows (any iterable of dense rows of width n, each
    entry an integer) are read once, to their Hermite basis
    ``relation_basis`` (rank x n, same row lattice), and not kept.
    ``_from_sparse`` takes ``{column: value}`` rows instead; both doors
    convert to sparse rows and share one reduction (``_reduce``).  Only
    the distinct nonzero rows, a row and its negation counting as one,
    are reduced (``_distinct_rows``): they span the same lattice, and
    the Hermite basis of a lattice is unique.  Above 4n of them, a
    sample is reduced, every other row is certified to lie in the
    lattice of its basis, and the rows that fail are reduced with it
    (``_hermite_basis``).
    Every reading comes from the basis: ``is_zero`` from reduction
    against its pivots, and ``invariant_factors`` and ``free_rank`` from
    its Smith form, taken without transforms on the first read of either
    and kept."""

    def __init__(self, labels: Sequence[str], relations: Iterable[Sequence[int]]):
        labels = tuple(str(s) for s in labels)
        n = len(labels)
        self._reduce(labels, (_dense_row(row, n) for row in relations))

    @classmethod
    def _from_sparse(
        cls, labels: Sequence[str], relations: Iterable[dict[int, int]]
    ) -> "AbGroupInfo":
        """The group presented by relation rows given as ``{column:
        value}``, each column in ``[0, n)``: the sparse door to the
        reduction that the constructor's dense rows also take."""
        g = cls.__new__(cls)
        g._reduce(tuple(str(s) for s in labels), relations)
        return g

    def _reduce(self, labels: tuple[str, ...], relations: Iterable[dict[int, int]]):
        # the one reduction path of both doors
        self.generator_labels = labels
        n = len(labels)
        self.relation_basis, self._pivots = _hermite_basis(_distinct_rows(relations, n), n)

    @cached_property
    def _smith(self) -> tuple[tuple[int, ...], int]:
        # (invariant factors, free rank) off the Smith form of the basis
        rank, n = self.relation_basis.rows, self.relation_basis.cols
        d_flat, _, _ = _snf_py.snf_kernel(self.relation_basis.entries, rank, n, False, False)
        diag = [d_flat[j * n + j] for j in range(min(rank, n))]
        free_rank = n - sum(1 for d in diag if d)
        if rank != n - free_rank:
            raise IntegrityFailure("normal forms disagree on rank")
        return tuple(d for d in diag if d >= 2), free_rank

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self._smith[0]

    @property
    def free_rank(self) -> int:
        return self._smith[1]

    @property
    def ngens(self) -> int:
        return len(self.generator_labels)

    def is_zero(self, vec: Sequence[int]) -> bool:
        vec = list(map(index, vec))
        if len(vec) != self.ngens:
            raise ValueError("vector length does not match generator count")
        return _member(self._pivots, _sparse(vec))

    def order(self) -> Optional[int]:
        """Group order; None when infinite."""
        if self.free_rank:
            return None
        return self.torsion_order()

    def torsion_order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def exponent(self) -> Optional[int]:
        if self.free_rank:
            return None
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def describe(self) -> str:
        return _group_text(self.free_rank, self.invariant_factors)

    def __repr__(self) -> str:
        return f"AbGroupInfo({self.describe()}, {self.ngens} gens)"


class AbMap:
    """Homomorphism between finitely presented abelian groups, given on
    generators; construction verifies that every source relation dies in
    the target, by checking the rows of the source's ``relation_basis``."""

    def __init__(self, source: AbGroupInfo, target: AbGroupInfo, images):
        if not isinstance(images, IntMatrix):
            images = IntMatrix.from_rows(images, cols=target.ngens)
        if images.rows != source.ngens or images.cols != target.ngens:
            raise ValueError("image matrix shape does not match source/target")
        self.source = source
        self.target = target
        self.images = images
        # a map kills a lattice iff it kills a basis of it; the first
        # basis row that survives names the failure
        for row in source.relation_basis.row_list():
            if not target.is_zero(self.apply(row)):
                raise RelationNotKilled(
                    f"source relation basis row {row} maps to a nonzero target element"
                )

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        vec = list(map(index, vec))
        if len(vec) != self.source.ngens:
            raise ValueError("vector length does not match source generators")
        out = [0] * self.target.ngens
        for i, x in enumerate(vec):
            if x:
                irow = self.images.row(i)
                for j in range(self.target.ngens):
                    out[j] += x * irow[j]
        return tuple(out)

    def __repr__(self) -> str:
        return f"AbMap({self.source.describe()} -> {self.target.describe()})"


def fp_kernel(f: AbMap) -> tuple[AbGroupInfo, AbMap]:
    """Kernel of ``f`` as a presented group plus its inclusion into the
    source.

    The kernel subgroup of Z^n is the projection of the left kernel of
    the stacked matrix [images; target relation basis], carried as
    [I_n; 0]; its own relations are the coefficient vectors landing in
    the source relation lattice."""
    n = f.source.ngens
    stack = f.images.row_list() + f.target.relation_basis.row_list()
    _, c, r = _snf_py._carry(stack, _unit_rows(n, len(stack)))
    gens = IntMatrix.from_rows([row for row in c[r:] if any(row)], cols=n)

    k = gens.rows
    stack = gens.row_list() + f.source.relation_basis.row_list()
    _, c, r = _snf_py._carry(stack, _unit_rows(k, len(stack)))
    labels = tuple(f"k{i}" for i in range(k))
    kern = AbGroupInfo(labels, c[r:])
    incl = AbMap(kern, f.source, gens)
    return kern, incl


def fp_cokernel(f: AbMap) -> AbGroupInfo:
    """Cokernel of ``f``: the target with the image rows adjoined as
    relations."""
    rels = chain(f.target.relation_basis.row_list(), f.images.row_list())
    return AbGroupInfo(f.target.generator_labels, rels)


def odd_part_int(n: int) -> int:
    """n with every factor 2 removed, for n >= 1."""
    n = index(n)
    if n < 1:
        raise BadBound("the odd part is taken of a positive integer")
    while n % 2 == 0:
        n //= 2
    return n


def odd_part(g: AbGroupInfo) -> AbGroupInfo:
    """The group modulo its 2-primary torsion: same free rank, each
    invariant factor replaced by its odd part."""
    odds = [d for d in map(odd_part_int, g.invariant_factors) if d > 1]
    labels = [f"g{i}" for i in range(len(odds))] + [f"f{i}" for i in range(g.free_rank)]
    rows = ([d if j == i else 0 for j in range(len(labels))] for i, d in enumerate(odds))
    return AbGroupInfo(labels, rows)
