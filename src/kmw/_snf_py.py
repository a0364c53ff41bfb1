"""Integer normal-form kernels (pure Python, arbitrary precision).

Matrices go in and come out as flat row-major lists of Python ints.
There is one elimination loop, ``hnf_kernel``; ``snf_kernel`` builds the
Smith form from its reductions of the matrix and of its transpose, plus
gcd/lcm steps on the diagonal.  The pivot rule is the first entry of
minimal absolute value, short-circuiting on +-1; row operations run in a
fixed order, so the output is a function of the input alone.

A transform is only ever carried: rows given to ``hnf_kernel`` may be
wider than the columns it reduces, and the trailing entries take every
row operation without holding a pivot.  ``_carry`` does this on row
lists for the Smith form and for the kernel calculus of
``exact_linear``.  Inside the kernel the rows are lists, so swaps
and negations move whole rows.  While column j is reduced, the pivot
row and every row below it are zero left of j, so each row operation
runs over entries j.. only; the skipped ones would only get zeros.
"""

from __future__ import annotations

from math import gcd


def _nearest_quo(a: int, b: int) -> int:
    # quotient rounded to nearest, |a - q*b| <= |b|/2 (ties toward floor)
    q = a // b
    r = a - q * b
    if 2 * abs(r) > abs(b):
        q += 1 if (r > 0) == (b > 0) else -1
    return q


def _carry(m, t):
    """Hermite-reduce the rows ``m``, pivoting in their own columns, with
    the rows of ``t`` carried beside them (paired in order; extra rows
    of ``t`` are left out).  Returns the rows of u*m and u*t and the
    rank, for the transform u.  The rows of u from ``rank`` on are a
    basis of the left kernel of ``m``; the carried rows there are that
    basis times ``t``."""
    k, n = len(m), len(m[0]) if m else 0
    h, _, rank = hnf_kernel([x for row, trow in zip(m, t) for x in (*row, *trow)], k, n, False)
    w = len(h) // k if k else n
    rows = [h[i * w : (i + 1) * w] for i in range(k)]
    return [row[:n] for row in rows], [row[n:] for row in rows], rank


def _combine(t, i, j, a, b, c, d):
    # rows i, j of t become a*t_i + b*t_j and c*t_i + d*t_j
    ti, tj = t[i], t[j]
    t[i] = [a * x + b * y for x, y in zip(ti, tj)]
    t[j] = [c * x + d * y for x, y in zip(ti, tj)]


def snf_kernel(a, rows, cols, want_u=True, want_v=True):
    """Smith normal form.  Returns (d, u, v) as flat lists (u, v possibly
    None) with u*a*v = d, d diagonal, nonnegative, each pivot dividing
    the next, and u, v unimodular.

    Hermite-reduce the columns, transpose the nonzero ones, and alternate
    until the matrix is diagonal (Kannan & Bachem, SIAM J. Comput. 8(4),
    1979; Cohen, GTM 138, section 2.4), with v transposed beside the
    transpose and u beside the matrix.  Columns go first, since a Hermite
    basis comes out of a row reduction unchanged.  Then each diagonal
    pair x, y with x not dividing y becomes gcd g and lcm: with
    s*x + t*y = g, the rows by [[s, t], [-y/g, x/g]], the columns by
    [[1, -t*y/g], [1, s*x/g]]."""
    m = [list(a[j::cols]) for j in range(cols)]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)] if want_u else None
    vt = [[int(i == j) for j in range(cols)] for i in range(cols)] if want_v else None
    # the rows of m are the leading rows of the transform beside them
    side, other = vt, u
    while True:
        m, moved, rank = _carry(m, [()] * len(m) if side is None else side)
        if side is not None:
            side[: len(moved)] = moved
        m = m[:rank]
        # row i is zero left of its pivot, which is at column i or later
        if all(not any(row[i + 1 :]) for i, row in enumerate(m)):
            break
        m = [list(c) for c in zip(*m)]
        side, other = other, side

    diag = [row[i] for i, row in enumerate(m)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            x, y = diag[i], diag[j]
            if y % x:
                g = gcd(x, y)
                s = pow(x // g, -1, y // g)
                t = (g - s * x) // y
                diag[i], diag[j] = g, x // g * y
                if u is not None:
                    _combine(u, i, j, s, t, -y // g, x // g)
                if vt is not None:
                    _combine(vt, i, j, 1, 1, -t * y // g, s * x // g)

    d = [0] * (rows * cols)
    for i, x in enumerate(diag):
        d[i * cols + i] = x
    if u is not None:
        u = [x for row in u for x in row]
    v = [x for col in zip(*vt) for x in col] if vt is not None else None
    return d, u, v


def hnf_kernel(a, rows, cols, want_u=True):
    """Row Hermite normal form of the first ``cols`` columns.  Returns
    (h, u, rank) with u*a = h, u unimodular, pivots positive with entries
    above them reduced into [0, pivot), and all zero rows at the bottom.
    Entries of ``a`` past ``cols`` in each row are carried: they take
    every row operation, hold no pivot and stay in ``h``.  ``want_u``
    carries the identity and splits it off as u."""
    w = len(a) // rows if rows else cols
    a = [list(a[i * w : (i + 1) * w]) for i in range(rows)]
    if want_u:
        for i, row in enumerate(a):
            row += [0] * rows
            row[w + i] = 1

    r = 0
    for j in range(cols):
        if r == rows:
            break
        # rows r.. are zero left of column j, so row operations start at j
        nz = [i for i in range(r, rows) if a[i][j]]
        if not nz:
            continue  # column has no pivot
        while True:
            # pivot: first entry of minimal |value| among the nonzero rows
            best_i = nz[0]
            best_abs = abs(a[best_i][j])
            if best_abs != 1:
                for i in nz:
                    ax = abs(a[i][j])
                    if ax < best_abs:
                        best_abs, best_i = ax, i
                        if ax == 1:
                            break
            # the rows left to reduce, in index order after the swap
            if nz[0] == r:
                others = nz[1:]
            else:
                others = [i for i in nz if i != best_i]
            if best_i != r:
                a[best_i], a[r] = a[r], a[best_i]
            tail = a[r][j:]
            p = tail[0]
            nz = [r]
            for i in others:
                ai = a[i]
                q = _nearest_quo(ai[j], p)
                ai[j:] = [x - q * y for x, y in zip(ai[j:], tail)]
                if ai[j]:
                    nz.append(i)
            if len(nz) == 1:
                break
        ar = a[r]
        if ar[j] < 0:
            ar[j:] = [-x for x in ar[j:]]
        tail = ar[j:]
        p = tail[0]
        for i in range(r):
            ai = a[i]
            q = ai[j] // p  # floor puts the entry in [0, p)
            if q:
                ai[j:] = [x - q * y for x, y in zip(ai[j:], tail)]
        r += 1
    if want_u:
        return [x for row in a for x in row[:w]], [x for row in a for x in row[w:]], r
    return [x for row in a for x in row], None, r
