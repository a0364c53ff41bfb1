"""Integer normal-form kernels (pure Python, arbitrary precision).

Matrices go in and come out as flat row-major lists of Python ints.
The pivot rule is the first entry of minimal absolute value,
short-circuiting on +-1; row and column operations run in a fixed
order, so the output is a function of the input alone.

``hnf_kernel`` holds the matrix and its transform as lists of rows
inside, so swaps and negations move whole rows.  While column j is
reduced, the pivot row and every row below it are zero left of j, so
every row operation (which adds a multiple of the pivot row) runs over
columns j.. of the matrix only; the transform rows stay full length.
The skipped columns would only have received zeros.
"""

from __future__ import annotations


def _nearest_quo(a: int, b: int) -> int:
    # quotient rounded to nearest, |a - q*b| <= |b|/2 (ties toward floor)
    q = a // b
    r = a - q * b
    if 2 * abs(r) > abs(b):
        q += 1 if (r > 0) == (b > 0) else -1
    return q


def _identity(n: int) -> list[int]:
    m = [0] * (n * n)
    for i in range(n):
        m[i * n + i] = 1
    return m


def snf_kernel(a, rows, cols, want_u=True, want_v=True):
    """Smith normal form.  Returns (d, u, v) as flat lists (u, v possibly
    None) with u*a*v = d, d diagonal, nonnegative, each pivot dividing
    the next, and u, v unimodular."""
    a = list(a)
    u = _identity(rows) if want_u else None
    v = _identity(cols) if want_v else None

    def swap_rows(i, j):
        for c in range(cols):
            a[i * cols + c], a[j * cols + c] = a[j * cols + c], a[i * cols + c]
        if u is not None:
            for c in range(rows):
                u[i * rows + c], u[j * rows + c] = u[j * rows + c], u[i * rows + c]

    def swap_cols(i, j):
        for r in range(rows):
            a[r * cols + i], a[r * cols + j] = a[r * cols + j], a[r * cols + i]
        if v is not None:
            for r in range(cols):
                v[r * cols + i], v[r * cols + j] = v[r * cols + j], v[r * cols + i]

    def add_row(i, j, c):
        # row_i += c * row_j
        for k in range(cols):
            a[i * cols + k] += c * a[j * cols + k]
        if u is not None:
            for k in range(rows):
                u[i * rows + k] += c * u[j * rows + k]

    def add_col(i, j, c):
        # col_i += c * col_j
        for r in range(rows):
            a[r * cols + i] += c * a[r * cols + j]
        if v is not None:
            for r in range(cols):
                v[r * cols + i] += c * v[r * cols + j]

    limit = min(rows, cols)
    t = 0
    while t < limit:
        # pivot: first entry of minimal |value| in the trailing block
        best_abs = 0
        best_i = best_j = -1
        for i in range(t, rows):
            base = i * cols
            for j in range(t, cols):
                x = a[base + j]
                if x:
                    ax = -x if x < 0 else x
                    if best_i < 0 or ax < best_abs:
                        best_abs, best_i, best_j = ax, i, j
                        if ax == 1:
                            break
            if best_abs == 1:
                break
        if best_i < 0:
            break  # trailing block is zero
        if best_i != t:
            swap_rows(best_i, t)
        if best_j != t:
            swap_cols(best_j, t)

        while True:
            p = a[t * cols + t]
            restart = False
            # clear column t below the pivot
            for i in range(t + 1, rows):
                x = a[i * cols + t]
                if x:
                    q = _nearest_quo(x, p)
                    if q:
                        add_row(i, t, -q)
                    if a[i * cols + t]:
                        swap_rows(i, t)  # strictly smaller pivot
                        restart = True
                        break
            if restart:
                continue
            # clear row t right of the pivot (column t below is zero, so
            # these column operations cannot refill it)
            for j in range(t + 1, cols):
                x = a[t * cols + j]
                if x:
                    q = _nearest_quo(x, p)
                    if q:
                        add_col(j, t, -q)
                    if a[t * cols + j]:
                        swap_cols(j, t)
                        restart = True
                        break
            if restart:
                continue
            # divisibility: pivot must divide every trailing entry
            p = a[t * cols + t]
            bad = False
            for i in range(t + 1, rows):
                base = i * cols
                for j in range(t + 1, cols):
                    if a[base + j] % p:
                        add_row(t, i, 1)  # pull the offending row up
                        bad = True
                        break
                if bad:
                    break
            if bad:
                continue
            break
        t += 1

    for i in range(limit):
        if a[i * cols + i] < 0:
            a[i * cols + i] = -a[i * cols + i]
            if u is not None:
                for k in range(rows):
                    u[i * rows + k] = -u[i * rows + k]
    return a, u, v


def hnf_kernel(a, rows, cols, want_u=True):
    """Row Hermite normal form.  Returns (h, u, rank) with u*a = h,
    u unimodular, pivots positive with entries above them reduced into
    [0, pivot), and all zero rows at the bottom."""
    a = [list(a[i * cols : (i + 1) * cols]) for i in range(rows)]
    u = None
    if want_u:
        u = [[0] * rows for _ in range(rows)]
        for i in range(rows):
            u[i][i] = 1

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
                if u is not None:
                    u[best_i], u[r] = u[r], u[best_i]
            tail = a[r][j:]
            p = tail[0]
            ur = u[r] if u is not None else None
            nz = [r]
            for i in others:
                ai = a[i]
                q = _nearest_quo(ai[j], p)
                ai[j:] = [x - q * y for x, y in zip(ai[j:], tail)]
                if ur is not None:
                    u[i] = [x - q * y for x, y in zip(u[i], ur)]
                if ai[j]:
                    nz.append(i)
            if len(nz) == 1:
                break
        ar = a[r]
        if ar[j] < 0:
            ar[j:] = [-x for x in ar[j:]]
            if u is not None:
                u[r] = [-x for x in u[r]]
        tail = ar[j:]
        p = tail[0]
        ur = u[r] if u is not None else None
        for i in range(r):
            ai = a[i]
            q = ai[j] // p  # floor puts the entry in [0, p)
            if q:
                ai[j:] = [x - q * y for x, y in zip(ai[j:], tail)]
                if ur is not None:
                    u[i] = [x - q * y for x, y in zip(u[i], ur)]
        r += 1
    h = [x for row in a for x in row]
    if u is not None:
        u = [x for row in u for x in row]
    return h, u, r
