"""The kernel calculus with square transforms, kept as the oracle for
``kmw.exact_linear``, which reads every transform as carried columns.
``left_kernel``, ``lattice_intersection`` and ``fp_kernel`` below are the
previous library functions, verbatim: each takes the full rows x rows
transform of a Hermite reduction, keeps the rows past the rank, and
multiplies them back by hand.  Both paths run the same row operations
in the same order, so their outputs must agree entry for entry.
"""

from kmw.exact_linear import AbGroupInfo, AbMap, IntMatrix, hnf


def left_kernel(m: IntMatrix) -> IntMatrix:
    """Basis (as rows) of {x in Z^rows : x*m = 0}; saturated since it
    comes from a unimodular transform."""
    _, u, r = hnf(m, want_u=True)
    rows = [u.row(i) for i in range(r, m.rows)]
    return IntMatrix.from_rows(rows, cols=m.rows)


def lattice_intersection(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Generators (rows) of rowspace(a) ∩ rowspace(b) in Z^n."""
    if a.cols != b.cols:
        raise ValueError("ambient ranks differ")
    stacked = a.stack(b)
    kern = left_kernel(stacked)
    rows = []
    for i in range(kern.rows):
        krow = kern.row(i)
        vec = [0] * a.cols
        for j in range(a.rows):
            c = krow[j]
            if c:
                arow = a.row(j)
                for k in range(a.cols):
                    vec[k] += c * arow[k]
        if any(vec):
            rows.append(vec)
    return IntMatrix.from_rows(rows, cols=a.cols)


def fp_kernel(f: AbMap) -> tuple[AbGroupInfo, AbMap]:
    """Kernel of ``f`` as a presented group plus its inclusion into the
    source.

    The kernel subgroup of Z^n is the projection of the left kernel of
    the stacked matrix [images; target relation basis]; its own relations
    are the coefficient vectors landing in the source relation lattice."""
    n = f.source.ngens
    kb = left_kernel(f.images.stack(f.target.relation_basis))
    gens = IntMatrix.from_rows([row[:n] for row in kb.row_list() if any(row[:n])], cols=n)

    k = gens.rows
    kb2 = left_kernel(gens.stack(f.source.relation_basis))
    labels = tuple(f"k{i}" for i in range(k))
    kern = AbGroupInfo(labels, (row[:k] for row in kb2.row_list()))
    incl = AbMap(kern, f.source, gens)
    return kern, incl
