"""The Smith-coordinate reading of a presentation, kept as the oracle for
the Hermite-pivot reading of ``kmw.exact_linear``.

Here a class is read through the column transform V of the Smith form of
``relation_basis`` (U * basis * V = D): a vector of generator exponents
v goes to y = v * V, whose entries at the zero diagonal places are its
free coordinates and whose entries at the places with d_j >= 2 are its
torsion coordinates mod d_j.  V is whatever transform ``snf`` returns;
a Smith transform is not unique, so the coordinates themselves are not
either, and only what every choice of V gives alike is compared with the
library: whether a class is zero.  ``element_order``, the order of a
class, is read off those coordinates; the library has no element orders
(the exponent of a group is read off its invariant factors).
``dense_rows`` makes the library's sparse rows dense for the oracles.
``all_rows_init`` is the ``AbMap`` constructor that checks every relation
row instead of a basis of the lattice.  A group keeps no copy of its
relation rows, so ``record_inputs`` wraps the reduction that both
``AbGroupInfo`` doors share to remember each group's rows
(``input_rows``).  ``install`` swaps the
all-rows check in for the library's, so that whole commands can be run
on either check.
"""

from math import gcd, lcm
from weakref import WeakKeyDictionary

from kmw.errors import RelationNotKilled
from kmw.exact_linear import AbGroupInfo, AbMap, IntMatrix, snf


class SmithReading:
    """Coordinates of the classes of ``g``, through the Smith column
    transform of its Hermite basis."""

    def __init__(self, g: AbGroupInfo):
        n = g.ngens
        d, _, v = snf(g.relation_basis, want_u=False)
        diag = list(d.diagonal()) + [0] * (n - min(d.rows, d.cols))
        self.ngens = n
        self.diag = tuple(diag)
        self.v_rows = tuple(v.row(i) for i in range(n))
        self.free_cols = tuple(j for j in range(n) if diag[j] == 0)
        self.tor_cols = tuple(j for j in range(n) if diag[j] >= 2)

    def coordinate_map(self, vec):
        """(free part, torsion part) of a vector of generator exponents."""
        vec = list(vec)
        if len(vec) != self.ngens:
            raise ValueError("vector length does not match generator count")
        n = self.ngens
        y = [0] * n
        for i, x in enumerate(vec):
            if x:
                vrow = self.v_rows[i]
                for j in range(n):
                    y[j] += x * vrow[j]
        free = tuple(y[j] for j in self.free_cols)
        tors = tuple(y[j] % self.diag[j] for j in self.tor_cols)
        return free, tors

    def element_order(self, vec):
        """Order of the class of ``vec``; None when infinite."""
        free, tors = self.coordinate_map(vec)
        if any(free):
            return None
        out = 1
        for j, y in zip(self.tor_cols, tors):
            if y:
                d = self.diag[j]
                out = lcm(out, d // gcd(d, y))
        return out


_readings = WeakKeyDictionary()


def smith_reading(g: AbGroupInfo) -> SmithReading:
    """The reading of ``g``, built once per group."""
    if g not in _readings:
        _readings[g] = SmithReading(g)
    return _readings[g]


def coordinate_map(g: AbGroupInfo, vec):
    return smith_reading(g).coordinate_map(vec)


def element_order(g: AbGroupInfo, vec):
    return smith_reading(g).element_order(vec)


_inputs = WeakKeyDictionary()


def dense_rows(rows, width: int) -> list:
    """Sparse rows, ``{column: value}`` dicts or ``(column, value)``
    pairs, as dense lists of ``width``."""
    out = []
    for row in rows:
        vec = [0] * width
        for c, x in dict(row).items():
            vec[c] += x
        out.append(vec)
    return out


def record_inputs(monkeypatch):
    """Wrap the reduction that both doors of ``AbGroupInfo`` (dense rows
    to the constructor, ``{column: value}`` rows to ``_from_sparse``)
    hand their rows to, so that each group built from then on remembers
    its relation rows, as a list of dense rows."""
    original = AbGroupInfo._reduce

    def reduce(self, labels, relations):
        relations = list(relations)
        original(self, labels, relations)
        _inputs[self] = dense_rows(relations, len(labels))

    monkeypatch.setattr(AbGroupInfo, "_reduce", reduce)


def input_rows(g: AbGroupInfo) -> list:
    """The relation rows ``g`` was built from, under ``record_inputs``."""
    return _inputs[g]


def all_rows_init(self, source, target, images, source_rows=None):
    """``AbMap.__init__`` checking each relation row of the source (by
    default its recorded rows), named by its index, instead of the
    source's basis."""
    if not isinstance(images, IntMatrix):
        images = IntMatrix.from_rows(images, cols=target.ngens)
    if images.rows != source.ngens or images.cols != target.ngens:
        raise ValueError("image matrix shape does not match source/target")
    self.source = source
    self.target = target
    self.images = images
    if source_rows is None:
        source_rows = input_rows(source)
    for i, row in enumerate(source_rows):
        if not target.is_zero(self.apply(row)):
            raise RelationNotKilled(
                f"source relation {i} maps to a nonzero target element"
            )


def install(monkeypatch, calls):
    """Swap the all-rows map check in for the library's, recording every
    group's rows for it; each oracle call appends its name to ``calls``."""

    def init(self, source, target, images):
        calls.append("AbMap")
        all_rows_init(self, source, target, images)

    record_inputs(monkeypatch)
    monkeypatch.setattr(AbMap, "__init__", init)
