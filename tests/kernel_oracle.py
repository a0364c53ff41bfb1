"""The kernel calculus with square transforms, kept as the oracle for
``kmw.exact_linear``, which reads every transform as carried columns.
``left_kernel``, ``lattice_intersection`` and ``fp_kernel`` below are the
previous library functions, verbatim: each takes the full rows x rows
transform of a Hermite reduction, keeps the rows past the rank, and
multiplies them back by hand.  Both paths run the same row operations
in the same order, so their outputs must agree entry for entry.  ``hnf``
is the previous public wrapper of ``_snf_py.hnf_kernel``, which returns
the square transform U; these functions and the kernel's tests call it.

``_left_solver`` (with the coefficient-returning ``_member`` and the
dense ``_pivot_data`` it reads) is also a previous library function,
verbatim.  ``solver_derived`` uses it and ``lattice_intersection`` to
rebuild the parts of ``ScissorsContext.derived`` that now come from
kernels and cokernels alone: the RB -> B map solved into B coordinates,
and the exponent of RP1 meeting K1 as an lcm of element orders, read
through ``smith_oracle.element_order``.

``distinct_rows`` is the previous dense deduplication, verbatim but for
its name; ``all_rows_basis`` reduces its rows all at once, the oracle of
the sampled, sparse reduction of ``AbGroupInfo``.
"""

from math import gcd
from operator import index
from typing import Callable, Optional, Sequence

import smith_oracle

from kmw import _snf_py, exact_linear
from kmw.errors import IntegrityFailure
from kmw.exact_linear import (
    AbGroupInfo,
    AbMap,
    IntMatrix,
    _unit_rows,
    fp_cokernel,
)
from kmw.exact_linear import fp_kernel as carried_fp_kernel


def hnf(m: IntMatrix, want_u: bool = True):
    """Row Hermite normal form: returns (H, U, rank) with U*m = H."""
    h, u, r = _snf_py.hnf_kernel(m.entries, m.rows, m.cols, want_u)
    return (
        IntMatrix(m.rows, m.cols, h),
        IntMatrix(m.rows, m.rows, u) if want_u else None,
        r,
    )


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


def distinct_rows(rows, n: int) -> list[tuple[int, ...]]:
    """The nonzero dense ``rows`` of width ``n``, each once up to sign, in
    order of first appearance and signed so that the leading entry is
    positive: the previous library deduplication, on dense rows."""
    out = {}
    for row in rows:
        row = tuple(map(index, row))
        if len(row) != n:
            raise ValueError("relation width does not match generator count")
        lead = next((x for x in row if x), 0)
        if lead < 0:
            row = tuple(-x for x in row)
        if lead:
            out[row] = None
    return list(out)


def all_rows_basis(rows, n: int) -> IntMatrix:
    """Hermite basis of the lattice of the dense ``rows`` (width ``n``):
    the distinct rows, all of them, in one reduction."""
    rows = distinct_rows(rows, n)
    h, _, rank = _snf_py.hnf_kernel([x for row in rows for x in row], len(rows), n, False)
    return IntMatrix(rank, n, h[: rank * n])


def install_all_rows(monkeypatch):
    """Build every group from now on on ``all_rows_basis``: both doors of
    ``AbGroupInfo`` hand ``_hermite_basis`` their distinct sparse rows,
    which are made dense here and reduced all at once."""

    def reduce_all(rows, n):
        basis = all_rows_basis(smith_oracle.dense_rows(rows, n), n)
        return basis, exact_linear._pivot_data(basis)

    monkeypatch.setattr(exact_linear, "_hermite_basis", reduce_all)


def _pivot_data(h_rows: list[tuple[int, ...]], rank: int):
    # (row, pivot column, pivot value) for each nonzero HNF row
    out = []
    for i in range(rank):
        row = h_rows[i]
        for c, x in enumerate(row):
            if x:
                out.append((row, c, x))
                break
    return out


def _member(pivots, vec: Sequence[int]) -> Optional[list[int]]:
    """Coefficients expressing vec over HNF basis rows, or None."""
    rem = list(vec)
    coeffs = []
    for row, c, p in pivots:
        x = rem[c]
        if x:
            q, r = divmod(x, p)
            if r:
                return None
            for k in range(c, len(rem)):
                rem[k] -= q * row[k]
            coeffs.append(q)
        else:
            coeffs.append(0)
    if any(rem):
        return None
    return coeffs


def _left_solver(m: IntMatrix) -> Callable[[Sequence[int]], Optional[tuple[int, ...]]]:
    """A solver for x*m = target against ``m``: the returned function
    gives some such x, or None if target is outside the row lattice of
    m.  One reduction, carrying the identity, serves every call."""
    h, u, r = _snf_py._carry(m.row_list(), _unit_rows(m.rows, m.rows))
    pivots = _pivot_data(h, r)

    def solve(target: Sequence[int]) -> Optional[tuple[int, ...]]:
        target = list(map(index, target))
        if len(target) != m.cols:
            raise ValueError("target length does not match column count")
        coeffs = _member(pivots, target)
        if coeffs is None:
            return None
        x = [0] * m.rows
        for c, urow in zip(coeffs, u):
            if c:
                for k in range(m.rows):
                    x[k] += c * urow[k]
        return tuple(x)

    return solve


def solver_derived(ctx) -> tuple[AbGroupInfo, AbGroupInfo, int]:
    """(rblker, cokernel_RB_to_B, k1_intersection_exponent) of ``ctx``
    as the previous ``ScissorsContext.derived`` computed them: each RB
    generator solved into B coordinates, then the kernel and cokernel
    of that map; and the lcm of the RP orders of the rows generating
    RP1 ∩ K1."""
    lambda1, lam_mixed, lambda_p, proj = ctx.maps()
    p = ctx.p_group()
    rp = ctx.rp_group()
    b_grp, b_incl = carried_fp_kernel(lambda_p)
    rb_grp, rb_incl = carried_fp_kernel(lam_mixed)
    _, rp1_incl = carried_fp_kernel(lambda1)

    solve = _left_solver(b_incl.images.stack(p.relation_basis))
    rb_to_b_images = []
    for i in range(rb_grp.ngens):
        sol = solve(proj.apply(rb_incl.images.row(i)))
        if sol is None:
            raise IntegrityFailure("image of RB escapes the Bloch kernel")
        rb_to_b_images.append(list(sol[: b_grp.ngens]))
    rb_to_b = AbMap(rb_grp, b_grp, rb_to_b_images)
    rblker, _ = carried_fp_kernel(rb_to_b)

    lat1 = rp1_incl.images.stack(rp.relation_basis)
    inter = lattice_intersection(lat1, ctx.rp_tilde().relation_basis)
    exponent = 1
    for i in range(inter.rows):
        order = smith_oracle.element_order(rp, inter.row(i))
        if order is None:
            raise IntegrityFailure("intersection with K1 has an infinite cycle")
        exponent = exponent * order // gcd(exponent, order)
    return rblker, fp_cokernel(rb_to_b), exponent
