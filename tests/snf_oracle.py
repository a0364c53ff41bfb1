"""The Smith normal form by direct elimination, kept as the oracle for
``kmw._snf_py.snf_kernel``, which builds the Smith form from alternating
Hermite reductions.  ``snf_kernel`` below is the previous kernel,
verbatim: its own pivot search (first entry of minimal absolute value
in the trailing block), row and column swaps and additions, and
divisibility pull-ups.  A Smith form is unique, so the diagonal of the
two kernels must agree entrywise; their transforms need not.
"""

from kmw._snf_py import _nearest_quo


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
