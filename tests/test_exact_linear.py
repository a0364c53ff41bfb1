"""Normal forms and presented abelian groups, checked against
independent oracles: determinantal divisors for invariant factors,
cofactor expansion for determinants, the elimination kernel of
``snf_oracle`` for Smith forms, and the Smith-coordinate reading of
``smith_oracle`` for membership and map checks."""

import copy
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import gcd

import kernel_oracle
import pytest
import smith_oracle
import snf_oracle
from kernel_oracle import hnf
from scissors_oracle import lambda2, rp_presentation
from snf_oracle import _identity
from hypothesis import given, settings
from hypothesis import strategies as st

from kmw import _snf_py
from kmw._snf_py import _nearest_quo
from kmw.descriptor import _group_text
from kmw.errors import IntegrityFailure, RelationNotKilled
from kmw.exact_linear import (
    AbGroupInfo,
    AbMap,
    IntMatrix,
    _distinct_rows,
    _unit_rows,
    fp_cokernel,
    fp_kernel,
    odd_part,
    odd_part_int,
    snf,
)
from kmw.scissors import ScissorsContext


def laplace_det(rows):
    """Cofactor-expansion determinant (oracle; exponential, tiny inputs)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            sign = -1 if j % 2 else 1
            total += sign * rows[0][j] * laplace_det(minor)
    return total


def invariant_factors_oracle(rows, ncols):
    """Invariant factors via gcds of k x k minors (determinantal
    divisors): d_1 ... d_k = gcd of all k x k minors."""
    nrows = len(rows)
    divisors = [1]
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, laplace_det(sub))
        if g == 0:
            break
        divisors.append(g)
    facs = []
    for i in range(1, len(divisors)):
        facs.append(divisors[i] // divisors[i - 1])
    return facs  # includes leading 1s


small_matrix = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


class TestSNF:
    def test_frozen_examples(self):
        d, _, _ = snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert d.diagonal() == (1, 6)
        d, _, _ = snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert d.diagonal() == (2, 4)
        d, _, _ = snf(IntMatrix.from_rows([[0, 0], [0, 0]]))
        assert d.diagonal() == (0, 0)

    @settings(max_examples=120, deadline=None)
    @given(small_matrix)
    def test_decomposition_properties(self, rows):
        m = IntMatrix.from_rows(rows)
        d, u, v = snf(m)
        assert u @ m @ v == d
        assert abs(laplace_det(u.row_list())) == 1
        assert abs(laplace_det(v.row_list())) == 1
        diag = d.diagonal()
        assert d.entries == tuple(
            diag[i] if i == j else 0 for i in range(d.rows) for j in range(d.cols)
        )
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a != 0 and b % a == 0
            # zeros only at the end
            if a == 0:
                assert b == 0

    @settings(max_examples=80, deadline=None)
    @given(small_matrix)
    def test_matches_determinantal_divisors(self, rows):
        m = IntMatrix.from_rows(rows)
        d, _, _ = snf(m)
        got = [x for x in d.diagonal() if x]
        assert got == invariant_factors_oracle(rows, m.cols)

    def test_degenerate_shapes(self):
        for r, c in [(0, 0), (0, 3), (3, 0)]:
            m = IntMatrix(r, c, [0] * (r * c))
            d, u, v = snf(m)
            assert (d.rows, d.cols) == (r, c)
            assert u @ m @ v == d

    def test_big_entries(self):
        # entries far above 64 bits
        x, y = 10**25, 2**70
        for rows in ([[x, x + 2], [3, 7]], [[y, 1], [1, y]]):
            m = IntMatrix.from_rows(rows)
            d, u, v = snf(m)
            assert u @ m @ v == d
            got = [z for z in d.diagonal() if z]
            assert got == invariant_factors_oracle(m.row_list(), 2)
            h, u, rank = hnf(m)
            assert u @ m == h
            assert rank == 2


class TestHNF:
    @settings(max_examples=100, deadline=None)
    @given(small_matrix)
    def test_row_lattice_preserved(self, rows):
        m = IntMatrix.from_rows(rows)
        h, u, rank = hnf(m)
        assert u @ m == h
        assert abs(laplace_det(u.row_list())) == 1
        # unimodular u means the row lattices coincide exactly

    @settings(max_examples=100, deadline=None)
    @given(small_matrix)
    def test_shape(self, rows):
        m = IntMatrix.from_rows(rows)
        h, _, rank = hnf(m)
        hr = h.row_list()
        pivots = []
        for i in range(rank):
            nz = [j for j, x in enumerate(hr[i]) if x]
            assert nz, "zero row counted in rank"
            c = nz[0]
            p = hr[i][c]
            assert p > 0
            pivots.append(c)
            for i2 in range(i):
                assert 0 <= hr[i2][c] < p
        assert pivots == sorted(pivots)
        assert len(set(pivots)) == len(pivots)
        for i in range(rank, m.rows):
            assert not any(hr[i])

    def test_rank_matches_rational_rank(self):
        rng = random.Random(7)
        from fractions import Fraction

        def frac_rank(rows):
            a = [[Fraction(x) for x in r] for r in rows]
            rank = 0
            for col in range(len(a[0]) if a else 0):
                piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
                if piv is None:
                    continue
                a[rank], a[piv] = a[piv], a[rank]
                for i in range(len(a)):
                    if i != rank and a[i][col]:
                        f = a[i][col] / a[rank][col]
                        a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
                rank += 1
            return rank

        for _ in range(40):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
            _, _, rank = hnf(IntMatrix.from_rows(rows))
            assert rank == frac_rank(rows)


class TestSolveAndKernels:
    # the solver is the oracle that pins ScissorsContext.derived's
    # RB -> B reading (test_scissors.TestDerivedAgainstSolver)
    def test_solve_left_roundtrip(self):
        rng = random.Random(11)
        for _ in range(60):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
            )
            coeffs = [rng.randint(-4, 4) for _ in range(r)]
            target = [
                sum(coeffs[i] * m.row(i)[j] for i in range(r)) for j in range(c)
            ]
            x = kernel_oracle._left_solver(m)(target)
            assert x is not None
            back = [sum(x[i] * m.row(i)[j] for i in range(r)) for j in range(c)]
            assert back == target

    def test_solve_left_unsolvable(self):
        m = IntMatrix.from_rows([[2, 0], [0, 2]])
        solve = kernel_oracle._left_solver(m)
        assert solve([1, 0]) is None
        assert solve([2, 2]) == (1, 1)

    def test_left_kernel(self):
        m = IntMatrix.from_rows([[1, 1], [1, 1], [2, 2]])
        _, carried, rank = _snf_py._carry(m.row_list(), _unit_rows(m.rows, m.rows))
        k = IntMatrix.from_rows(carried[rank:], cols=m.rows)
        assert k.rows == 2
        for i in range(k.rows):
            row = k.row(i)
            prod = [
                sum(row[a] * m.row(a)[j] for a in range(m.rows)) for j in range(m.cols)
            ]
            assert prod == [0, 0]

    def test_left_kernel_saturated(self):
        # kernel of [[2],[4]] is generated by (2,-1), a primitive vector
        m = IntMatrix.from_rows([[2], [4]])
        _, carried, rank = _snf_py._carry(m.row_list(), _unit_rows(m.rows, m.rows))
        k = IntMatrix.from_rows(carried[rank:], cols=m.rows)
        assert k.rows == 1
        assert gcd(*k.row(0)) == 1


class TestFpGroup:
    def test_known_groups(self):
        g = AbGroupInfo(["a", "b"], [[2, 0], [0, 3]])
        assert g.invariant_factors == (6,)
        assert g.free_rank == 0
        assert g.order() == 6
        g = AbGroupInfo(["a", "b"], [[2, 2]])
        assert g.invariant_factors == (2,)
        assert g.free_rank == 1
        assert g.order() is None
        g = AbGroupInfo(["a"], [])
        assert g.describe() == "Z"
        g = AbGroupInfo([], [])
        assert g.describe() == "0"
        g = AbGroupInfo(["a", "b"], [[1, 0], [0, 1]])
        assert g.describe() == "0"

    def test_describe_is_the_group_text(self):
        # the text of a group is written once, in descriptor._group_text
        g = AbGroupInfo(["a", "b", "c", "d", "e"], [[2, 0, 0, 0, 0], [0, 4, 6, 0, 0]])
        assert (g.free_rank, g.invariant_factors) == (3, (2, 2))
        assert g.describe() == _group_text(3, (2, 2)) == "Z^3 + Z/2 + Z/2"

    def test_coordinate_map_and_is_zero_agree(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 4)
            r = rng.randint(0, 5)
            rel = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(r)]
            g = AbGroupInfo([f"g{i}" for i in range(n)], rel)
            for _ in range(20):
                vec = [rng.randint(-10, 10) for _ in range(n)]
                free, tors = smith_oracle.coordinate_map(g, vec)
                assert g.is_zero(vec) == (not any(free) and not any(tors))
            # every relation row is zero
            for row in rel:
                assert g.is_zero(row)

    def test_smith_reading_sends_basis_rows_to_zero(self):
        # a Smith column transform is not unique, but any one of them
        # sends each row of the relation lattice to zero coordinates
        rng = random.Random(29)
        groups = [rp_presentation(q)[2] for q in (5, 7)]
        for _ in range(40):
            n = rng.randint(1, 5)
            rel = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(0, 6))]
            groups.append(AbGroupInfo([f"g{i}" for i in range(n)], rel))
        for g in groups:
            for row in g.relation_basis.row_list():
                free, tors = smith_oracle.coordinate_map(g, row)
                assert not any(free) and not any(tors)

    def test_coordinate_map_additive(self):
        g = AbGroupInfo(["a", "b", "c"], [[2, 0, 4], [0, 6, 0]])
        rng = random.Random(5)
        for _ in range(30):
            u = [rng.randint(-8, 8) for _ in range(3)]
            v = [rng.randint(-8, 8) for _ in range(3)]
            fu, tu = smith_oracle.coordinate_map(g, u)
            fv, tv = smith_oracle.coordinate_map(g, v)
            fs, ts = smith_oracle.coordinate_map(g, [a + b for a, b in zip(u, v)])
            assert fs == tuple(a + b for a, b in zip(fu, fv))
            assert all(
                (a + b - s) % d == 0
                for a, b, s, d in zip(tu, tv, ts, g.invariant_factors)
            )

    def test_order_equals_det_when_finite(self):
        rng = random.Random(31)
        found = 0
        while found < 25:
            n = rng.randint(1, 4)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            dd = laplace_det(rows)
            if dd == 0:
                continue
            found += 1
            g = AbGroupInfo([f"g{i}" for i in range(n)], rows)
            assert g.order() == abs(dd)

    def test_permutation_invariance(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(2, 4)
            r = rng.randint(1, 5)
            rel = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(r)]
            g = AbGroupInfo([f"g{i}" for i in range(n)], rel)
            perm = list(range(n))
            rng.shuffle(perm)
            rel2 = [[row[perm[j]] for j in range(n)] for row in rel]
            g2 = AbGroupInfo([f"g{perm[j]}" for j in range(n)], rel2)
            assert g.invariant_factors == g2.invariant_factors
            assert g.free_rank == g2.free_rank


class TestMaps:
    def test_mod_reduction(self):
        z4 = AbGroupInfo(["x"], [[4]])
        z2 = AbGroupInfo(["y"], [[2]])
        f = AbMap(z4, z2, [[1]])
        k, incl = fp_kernel(f)
        assert k.invariant_factors == (2,)
        assert k.free_rank == 0
        # the kernel generator includes to an element of order 2 killed by f
        vec = incl.apply([1])
        assert not z4.is_zero(vec)
        assert z2.is_zero(f.apply(vec))
        assert fp_cokernel(f).describe() == "0"

    def test_multiplication_by_two(self):
        z = AbGroupInfo(["x"], [])
        f = AbMap(z, z, [[2]])
        k, _ = fp_kernel(f)
        assert k.describe() == "0"
        assert fp_cokernel(f).describe() == "Z/2"

    def test_sum_map(self):
        z2f = AbGroupInfo(["x", "y"], [])
        z = AbGroupInfo(["z"], [])
        f = AbMap(z2f, z, [[1], [1]])
        k, incl = fp_kernel(f)
        assert k.describe() == "Z"
        vec = incl.apply([1])
        assert f.apply(vec) == (0,)

    def test_relation_not_killed(self):
        z2 = AbGroupInfo(["x"], [[2]])
        z = AbGroupInfo(["y"], [])
        with pytest.raises(RelationNotKilled):
            AbMap(z2, z, [[1]])

    def test_duplicated_relation_still_checked(self):
        # relation 2 (2x), the second distinct one, is not killed; it
        # recurs negated as relation 4, and it is the basis row (2, 0)
        src = AbGroupInfo(["x", "y"], [[0, 3], [0, -3], [2, 0], [0, 3], [-2, 0]])
        z3 = AbGroupInfo(["z"], [[3]])
        with pytest.raises(RelationNotKilled, match=r"basis row \(2, 0\) "):
            AbMap(src, z3, [[1], [1]])
        AbMap(src, z3, [[3], [1]])

    def test_each_basis_row_applied_once(self, monkeypatch):
        src = AbGroupInfo(["x", "y"], [[0, 3], [2, 0], [0, 3], [-2, 0], [0, -3]])
        z6 = AbGroupInfo(["z"], [[6]])
        applied = []
        real_apply = AbMap.apply

        def recording_apply(self, vec):
            applied.append(tuple(vec))
            return real_apply(self, vec)

        monkeypatch.setattr(AbMap, "apply", recording_apply)
        AbMap(src, z6, [[3], [2]])
        assert applied == src.relation_basis.row_list() == [(2, 0), (0, 3)]
        # on failure, the first basis row that survives names it, and no
        # other row is applied
        applied.clear()
        with pytest.raises(RelationNotKilled, match=r"basis row \(2, 0\) "):
            AbMap(src, z6, [[1], [2]])
        assert applied == [(2, 0)]

    def test_kernel_image_orders_multiply(self):
        rng = random.Random(59)
        checked = 0
        while checked < 20:
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            src_rel = [[rng.randint(1, 6) if i == j else 0 for j in range(n)] for i in range(n)]
            tgt_rel = [[rng.randint(1, 6) if i == j else 0 for j in range(m)] for i in range(m)]
            src = AbGroupInfo([f"s{i}" for i in range(n)], src_rel)
            tgt = AbGroupInfo([f"t{i}" for i in range(m)], tgt_rel)
            imgs = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
            try:
                f = AbMap(src, tgt, imgs)
            except RelationNotKilled:
                continue
            checked += 1
            k, _ = fp_kernel(f)
            ck = fp_cokernel(f)
            # |ker| |im| = |src| and |im| |coker| = |tgt|
            im_order, rem = divmod(src.order(), k.order())
            assert rem == 0
            assert im_order * ck.order() == tgt.order()

    def test_kernel_inclusion_exactness(self):
        # every kernel generator maps to zero; a non-kernel element does not
        z6 = AbGroupInfo(["x"], [[6]])
        z3 = AbGroupInfo(["y"], [[3]])
        f = AbMap(z6, z3, [[1]])
        k, incl = fp_kernel(f)
        assert k.describe() == "Z/2"
        for i in range(k.ngens):
            e = [0] * k.ngens
            e[i] = 1
            assert z3.is_zero(f.apply(incl.apply(e)))


class TestOddPartAndIntersection:
    def test_odd_part(self):
        g = AbGroupInfo(["a", "b"], [[12, 0], [0, 2]])
        o = odd_part(g)
        assert o.invariant_factors == (3,)
        assert o.free_rank == 0
        g = AbGroupInfo(["a", "b", "c"], [[6, 0, 0], [0, 2, 0]])
        o = odd_part(g)
        assert o.invariant_factors == (3,)
        assert o.free_rank == 1
        g = AbGroupInfo(["a"], [[8]])
        assert odd_part(g).describe() == "0"

    # the intersection is the oracle that pins ScissorsContext.derived's
    # K1 exponent (test_scissors.TestDerivedAgainstSolver)
    def test_lattice_intersection_lines(self):
        a = IntMatrix.from_rows([[2, 0]])
        b = IntMatrix.from_rows([[3, 0]])
        inter = kernel_oracle.lattice_intersection(a, b)
        h, _, rank = hnf(inter)
        assert rank == 1
        assert h.row(0) == (6, 0)

    def test_lattice_intersection_self(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 3)
            r = rng.randint(1, 3)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(r)]
            a = IntMatrix.from_rows(rows, cols=n)
            inter = kernel_oracle.lattice_intersection(a, a)
            ha = hnf(a, want_u=False)[0]
            hi = hnf(inter, want_u=False)[0]
            assert [r for r in ha.row_list() if any(r)] == [
                r for r in hi.row_list() if any(r)
            ]

    def test_lattice_intersection_membership(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(2, 4)
            a = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 3))],
                cols=n,
            )
            b = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 3))],
                cols=n,
            )
            inter = kernel_oracle.lattice_intersection(a, b)
            for i in range(inter.rows):
                v = inter.row(i)
                assert kernel_oracle._left_solver(a)(v) is not None
                assert kernel_oracle._left_solver(b)(v) is not None


class TestIntMatrix:
    def test_immutable(self):
        m = IntMatrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 3

    def test_stack_and_mul(self):
        a = IntMatrix.from_rows([[1, 2]])
        b = IntMatrix.from_rows([[3, 4]])
        s = a.stack(b)
        assert s.row_list() == [(1, 2), (3, 4)]
        p = s @ IntMatrix.identity(2)
        assert p == s


# -- one Hermite reduction per presentation --------------------------------
#
# AbGroupInfo reduces its relations once, to a Hermite basis, and reads
# invariants and membership from that basis; the kernel
# calculus stacks against it.  The SNF of the whole relation matrix,
# stacks of the whole relation matrix and the Smith-coordinate reading of
# smith_oracle are the oracles.  A group keeps no copy of its relation
# rows, so each oracle takes them from the test or, for groups the
# library builds, from smith_oracle.record_inputs.

SPARSE_ENTRIES = (0, 0, 0, 1, -1)

sparse_entry = st.sampled_from(SPARSE_ENTRIES)

tall_sparse = st.integers(1, 6).flatmap(
    lambda c: st.integers(c, 4 * c).flatmap(
        lambda r: st.lists(
            st.lists(sparse_entry, min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)

SMALL_RP_QS = (5, 7, 9, 11, 13)


def full_snf_invariants(rows, n):
    """(free rank, invariant factors) read off the SNF of the whole
    relation matrix, by the elimination kernel of ``snf_oracle``, so that
    the check does not run the Hermite reductions it checks."""
    flat = [x for r in rows for x in r]
    d, _, _ = snf_oracle.snf_kernel(flat, len(rows), n, False, False)
    diag = [d[j * n + j] for j in range(min(len(rows), n))]
    return n - sum(1 for x in diag if x), tuple(x for x in diag if x >= 2)


def invariants(g):
    return g.free_rank, g.invariant_factors


def with_full_stack(g, rows):
    """Copy of ``g`` whose kernel calculus stacks the full relation
    matrix ``rows`` instead of the Hermite basis."""
    h = copy.copy(g)
    h.relation_basis = IntMatrix.from_rows(rows, cols=g.ngens)
    return h


def assert_stack_independent(f, src_rows, tgt_rows):
    full = AbMap(
        with_full_stack(f.source, src_rows), with_full_stack(f.target, tgt_rows), f.images
    )
    assert invariants(fp_kernel(f)[0]) == invariants(fp_kernel(full)[0])
    assert invariants(fp_cokernel(f)) == invariants(fp_cokernel(full))


def assert_zero_test_agrees(g, rows, rng, trials=30):
    for _ in range(trials):
        vec = [0] * g.ngens
        for row in rows:
            c = rng.randint(-2, 2) if rng.random() < 0.3 else 0
            for j, x in enumerate(row):
                vec[j] += c * x
        if rng.random() < 0.5:
            vec[rng.randrange(g.ngens)] += rng.randint(-2, 2)
        free, tors = smith_oracle.coordinate_map(g, vec)
        assert g.is_zero(vec) == (not any(free) and not any(tors))


def random_sparse_rows(rng, nrows, ncols):
    return [[rng.choice(SPARSE_ENTRIES) for _ in range(ncols)] for _ in range(nrows)]


class TestHermiteBasis:
    @settings(max_examples=120, deadline=None)
    @given(tall_sparse, st.integers(0, 2**32 - 1))
    def test_tall_sparse_against_full_snf(self, rows, seed):
        n = len(rows[0])
        g = AbGroupInfo([f"g{i}" for i in range(n)], rows)
        assert invariants(g) == full_snf_invariants(rows, n)
        assert g.relation_basis.rows == n - g.free_rank
        assert g.relation_basis.cols == n
        assert_zero_test_agrees(g, rows, random.Random(seed))

    @settings(max_examples=60, deadline=None)
    @given(tall_sparse, st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_tall_sparse_maps_stack_independent(self, src_rows, m, seed):
        # target relations contain the images of the source relations,
        # so the map is well defined
        rng = random.Random(seed)
        n = len(src_rows[0])
        images = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
        killed = [
            [sum(row[i] * images[i][j] for i in range(n)) for j in range(m)]
            for row in src_rows
        ]
        tgt_rows = random_sparse_rows(rng, rng.randint(0, 2 * m), m) + killed
        src = AbGroupInfo([f"s{i}" for i in range(n)], src_rows)
        tgt = AbGroupInfo([f"t{j}" for j in range(m)], tgt_rows)
        assert_stack_independent(AbMap(src, tgt, images), src_rows, tgt_rows)

    @settings(max_examples=200, deadline=None)
    @given(tall_sparse, st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_basis_check_matches_all_rows_oracle(self, src_rows, m, seed):
        # the target relations are the images of every source relation
        # half of the time, else of a random proper subset of them
        rng = random.Random(seed)
        n = len(src_rows[0])
        images = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
        kept = src_rows
        if rng.random() < 0.5:
            kept = rng.sample(src_rows, rng.randint(0, len(src_rows) - 1))
        tgt_rows = [
            [sum(row[i] * images[i][j] for i in range(n)) for j in range(m)]
            for row in kept
        ]
        src = AbGroupInfo([f"s{i}" for i in range(n)], src_rows)
        tgt = AbGroupInfo([f"t{j}" for j in range(m)], tgt_rows)

        def outcome(init, *rows):
            try:
                init(AbMap.__new__(AbMap), src, tgt, images, *rows)
            except RelationNotKilled as exc:
                return str(exc)
            return None

        # both fail or neither does; the library names the first basis row
        # whose image survives
        survivors = [
            row for row in src.relation_basis.row_list()
            if not tgt.is_zero([sum(row[i] * images[i][j] for i in range(n)) for j in range(m)])
        ]
        got = outcome(AbMap.__init__)
        assert (got is None) == (outcome(smith_oracle.all_rows_init, src_rows) is None)
        if survivors:
            assert got == f"source relation basis row {survivors[0]} maps to a nonzero target element"
        else:
            assert got is None

    @pytest.mark.parametrize("q", SMALL_RP_QS)
    def test_rp_presentation_against_full_snf(self, q):
        labels, rows, _ = rp_presentation(q)
        g = AbGroupInfo(labels, rows)
        assert invariants(g) == full_snf_invariants(rows, len(labels))
        assert_zero_test_agrees(g, rows, random.Random(q))

    @pytest.mark.parametrize("q", SMALL_RP_QS)
    def test_scissors_maps_stack_independent(self, q, monkeypatch):
        # a fresh context, so that every group is built under the recorder
        smith_oracle.record_inputs(monkeypatch)
        ctx = ScissorsContext(q)
        for f in (*ctx.maps(), lambda2(ctx)):
            rows = smith_oracle.input_rows
            assert_stack_independent(f, rows(f.source), rows(f.target))

    def test_one_full_height_reduction(self, monkeypatch):
        # built before recording: rp_presentation also builds the cached
        # group of the presentation
        labels, rows, _ = rp_presentation(7)
        n = len(labels)
        calls = []
        hnf_kernel, snf_kernel = _snf_py.hnf_kernel, _snf_py.snf_kernel

        def record_hnf(entries, rows, cols, want_u=True):
            calls.append(("hnf", rows, cols, want_u))
            return hnf_kernel(entries, rows, cols, want_u)

        def record_snf(entries, rows, cols, want_u=True, want_v=True):
            calls.append(("snf", rows, cols, want_u, want_v))
            return snf_kernel(entries, rows, cols, want_u, want_v)

        monkeypatch.setattr(_snf_py, "hnf_kernel", record_hnf)
        monkeypatch.setattr(_snf_py, "snf_kernel", record_snf)
        # the Hermite reduction sees each nonzero relation row once, up to sign
        redundant = [[-x for x in rows[0]], list(rows[1]), [0] * n]
        g = AbGroupInfo(labels, list(rows) + redundant)
        # only the first reduction reads the relation rows, at full height,
        # and building the group takes no Smith form
        assert len(rows) > n
        assert calls == [("hnf", len(rows), n, False)]
        # the first read takes the Smith form once, on the rank x n basis,
        # and the Hermite reductions it runs itself are at most n rows tall
        rank = n - g.free_rank
        assert calls[1] == ("snf", rank, n, False, False)
        assert all(call[0] == "hnf" and call[1] <= n for call in calls[2:])


def record_kernel_calls(monkeypatch) -> list:
    """The name of each normal-form kernel call from now on, the Hermite
    reductions a Smith form runs itself included."""
    calls = []
    for name in ("hnf_kernel", "snf_kernel"):
        kernel = getattr(_snf_py, name)

        def record(*args, _kernel=kernel, _name=name):
            calls.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(_snf_py, name, record)
    return calls


class TestLazySmithForm:
    """A group takes the Smith form of its basis when ``invariant_factors``
    or ``free_rank`` is first read, once, and not before."""

    @pytest.mark.parametrize("first", ["invariant_factors", "free_rank"])
    def test_first_read_takes_it_once(self, monkeypatch, first):
        calls = record_kernel_calls(monkeypatch)
        g = AbGroupInfo(["a", "b", "c"], [[2, 4, 0], [0, 3, 6], [2, 1, -6]])
        assert calls == ["hnf_kernel"]
        getattr(g, first)
        assert calls.count("snf_kernel") == 1
        calls.clear()
        assert (g.invariant_factors, g.free_rank) == ((6,), 1)
        assert g.describe() == "Z + Z/6"
        assert calls == []

    def test_stacking_takes_none(self, monkeypatch):
        # membership, map checks, kernels and cokernels read the basis
        # only; the groups they build take no Smith form either
        calls = record_kernel_calls(monkeypatch)
        z4 = AbGroupInfo(["x"], [[4]])
        z2 = AbGroupInfo(["y"], [[2]])
        f = AbMap(z4, z2, [[1]])
        assert not z4.is_zero([1])
        kern, incl = fp_kernel(f)
        coker = fp_cokernel(f)
        AbMap(coker, coker, [[1]])
        assert "snf_kernel" not in calls
        assert (kern.invariant_factors, coker.invariant_factors) == ((2,), ())
        assert calls.count("snf_kernel") == 2

    @pytest.mark.parametrize("first", ["invariant_factors", "free_rank"])
    def test_rank_check_runs_on_every_smith_form(self, monkeypatch, first):
        # a Smith form that loses a diagonal entry disagrees with the
        # Hermite rank; the check fires on the read that takes it
        snf_kernel = _snf_py.snf_kernel

        def drop_one(entries, rows, cols, want_u, want_v):
            d, u, v = snf_kernel(entries, rows, cols, want_u, want_v)
            j = max(j for j in range(min(rows, cols)) if d[j * cols + j])
            d[j * cols + j] = 0
            return d, u, v

        g = AbGroupInfo(["a", "b"], [[2, 0], [0, 3]])
        monkeypatch.setattr(_snf_py, "snf_kernel", drop_one)
        for _ in range(2):
            with pytest.raises(IntegrityFailure, match="normal forms disagree on rank"):
                getattr(g, first)


# -- sampled reductions of tall presentations ------------------------------
#
# Above 4n distinct rows, AbGroupInfo reduces a sample (every k-th row,
# k = rows // 2n, and every row with fewer than 5 nonzeros), certifies
# every other row against the sample's basis, and reduces once more with
# the rows that fail.  kernel_oracle.all_rows_basis reduces every distinct row at
# once.  The presentations below put column ``g`` outside the sample's
# lattice: each sampled row has a zero there (step 0) or an even entry
# (step 2), and each other row has +-1 there and no zero anywhere, so it
# has n >= 5 nonzeros.  Some rows off the stride have at most 4 nonzeros,
# so they are sampled too.


def sample_short_rows(rng, n, count, g, step):
    """``count`` rows of width ``n``, distinct up to sign, whose sample
    spans a proper sublattice of theirs; ``count`` >= 4n, and row 1 is
    off the stride and not sampled."""
    k = count // (2 * n)
    rows, seen = [], set()
    while len(rows) < count:
        i = len(rows)
        if i % k == 0 or (i > 1 and rng.random() < 0.3):
            row = [rng.choice(SPARSE_ENTRIES) for _ in range(n)]
            row[g] = step * rng.randint(-1, 1)
            if i % k:
                keep = rng.sample(range(n), 4)
                row = [x if j in keep else 0 for j, x in enumerate(row)]
        else:
            row = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
            row[g] = rng.choice((-1, 1))
        key = min(tuple(row), tuple(-x for x in row))
        if any(row) and key not in seen:
            seen.add(key)
            rows.append(row)
    return rows


def sample_height(rows, n):
    """How many of the distinct ``rows`` the first reduction reads."""
    k = len(rows) // (2 * n)
    return sum(1 for i, row in enumerate(rows) if i % k == 0 or n - row.count(0) < 5)


sample_short = st.integers(5, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(4 * n + 1, 6 * n),
        st.integers(0, n - 1),
        st.sampled_from((0, 2)),
        st.integers(0, 2**32 - 1),
    )
)


def hnf_heights(mp) -> list:
    """The row count of each ``hnf_kernel`` call from now on."""
    heights = []
    hnf_kernel = _snf_py.hnf_kernel

    def record(*args):
        heights.append(args[1])
        return hnf_kernel(*args)

    mp.setattr(_snf_py, "hnf_kernel", record)
    return heights


def build_recording_heights(n, rows):
    with pytest.MonkeyPatch.context() as mp:
        heights = hnf_heights(mp)
        g = AbGroupInfo([f"g{i}" for i in range(n)], rows)
    return g, heights


class TestSampledReduction:
    @settings(max_examples=60, deadline=None)
    @given(sample_short)
    def test_repair_rounds_reach_the_all_rows_basis(self, case):
        n, count, g, step, seed = case
        rng = random.Random(seed)
        rows = sample_short_rows(rng, n, count, g, step)
        grp, heights = build_recording_heights(n, rows)
        # the sample, then at least one repair round
        assert len(heights) >= 2
        assert heights[0] == sample_height(rows, n) < count
        assert grp.relation_basis == kernel_oracle.all_rows_basis(rows, n)
        assert invariants(grp) == full_snf_invariants(rows, n)
        assert_zero_test_agrees(grp, rows, rng)

    @settings(max_examples=40, deadline=None)
    @given(sample_short)
    def test_duplicated_and_negated_rows_change_nothing(self, case):
        # each copy comes after its row, so the distinct rows, and with
        # them the sample, keep their order
        n, count, g, step, seed = case
        rng = random.Random(seed)
        rows = sample_short_rows(rng, n, count, g, step)
        noisy = list(rows)
        for _ in range(rng.randint(1, count)):
            i = rng.randrange(len(rows))
            row = rows[i] if rng.random() < 0.5 else [-x for x in rows[i]]
            at = rng.randint(noisy.index(rows[i]) + 1, len(noisy))
            noisy.insert(at, row)
        want, want_heights = build_recording_heights(n, rows)
        got, heights = build_recording_heights(n, noisy)
        assert heights == want_heights and len(heights) >= 2
        assert got.relation_basis == want.relation_basis
        assert got.relation_basis == kernel_oracle.all_rows_basis(noisy, n)

    @pytest.mark.parametrize("n", [5, 6, 8])
    @pytest.mark.parametrize("step", [0, 2])
    def test_threshold_is_4n_distinct_rows(self, n, step):
        rng = random.Random(n * 10 + step)
        # 4n rows are reduced together, in one call
        rows = sample_short_rows(rng, n, 4 * n, 0, step)
        g, heights = build_recording_heights(n, rows + [rows[-1]])
        assert heights == [4 * n]
        assert g.relation_basis == kernel_oracle.all_rows_basis(rows, n)
        # one row more, and only a sample is reduced first
        rows = sample_short_rows(rng, n, 4 * n + 1, 0, step)
        g, heights = build_recording_heights(n, rows)
        assert heights[0] == sample_height(rows, n) < 4 * n + 1
        assert len(heights) >= 2
        assert g.relation_basis == kernel_oracle.all_rows_basis(rows, n)


def noisy_copies(rng, rows, n):
    """``rows`` with duplicated rows, negated rows and zero rows mixed
    in; each copy comes after its row, so the distinct rows keep their
    order."""
    noisy = [list(row) for row in rows]
    for _ in range(rng.randint(1, len(rows))):
        i = rng.randrange(len(rows))
        row = list(rows[i]) if rng.random() < 0.5 else [-x for x in rows[i]]
        noisy.insert(rng.randint(noisy.index(rows[i]) + 1, len(noisy)), row)
    for _ in range(rng.randint(1, 3)):
        noisy.insert(rng.randint(0, len(noisy)), [0] * n)
    return noisy


def as_sparse(rng, row):
    """A dense row as ``{column: value}`` in a shuffled column order,
    sometimes with an explicit zero value."""
    cols = [c for c, x in enumerate(row) if x or rng.random() < 0.1]
    rng.shuffle(cols)
    return {c: row[c] for c in cols}


def one_witness_rows(rng, n, count, g, which):
    """``count`` > 4n rows of width ``n``, distinct up to sign, whose
    sample spans the rows with an even entry at ``g``: the unit rows e_j
    (j != g) and 2e_g have fewer than 5 nonzeros, so they are sampled
    wherever they stand.  Every row off the sample lies in that lattice
    but one, the ``which``-th of them (mod their number), whose entry at
    ``g`` is odd: the one row that certification has to find."""
    k = count // (2 * n)
    units = [[(2 if j == g else 1) * int(c == j) for c in range(n)] for j in range(n)]
    rng.shuffle(units)
    rows, seen, off = [], set(), []
    while len(rows) < count:
        i = len(rows)
        if units and (count - i <= len(units) or rng.random() < 0.2):
            row = units.pop()
        elif i % k == 0:
            row = [rng.choice(SPARSE_ENTRIES) for _ in range(n)]
            row[g] = 2 * rng.randint(-1, 1)
        else:
            row = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
            row[g] = rng.choice((-2, 2))
        key = min(tuple(row), tuple(-x for x in row))
        if any(row) and key not in seen:
            seen.add(key)
            if i % k and n - row.count(0) >= 5:
                off.append(i)
            rows.append(row)
    rows[off[which % len(off)]][g] //= 2
    return rows


class TestSparseRows:
    """Both doors of ``AbGroupInfo``, dense rows to the constructor and
    ``{column: value}`` rows to ``_from_sparse``, take one reduction:
    ``_distinct_rows`` keys each row by its sorted, sign-normalised
    ``(column, value)`` tuple, and the sampled reduction certifies the
    rows off the sample on those tuples.  The oracles are the dense
    deduplication and the all-rows reduction of ``kernel_oracle``."""

    @settings(max_examples=60, deadline=None)
    @given(sample_short)
    def test_both_doors_reach_the_all_rows_basis(self, case):
        n, count, g, step, seed = case
        rng = random.Random(seed)
        rows = sample_short_rows(rng, n, count, g, step)
        noisy = noisy_copies(rng, rows, n)
        sparse = [as_sparse(rng, row) for row in noisy]
        want = kernel_oracle.all_rows_basis(noisy, n)
        distinct = kernel_oracle.distinct_rows(noisy, n)
        assert len(distinct) == count > 4 * n
        assert [
            [dict(key).get(c, 0) for c in range(n)] for key in _distinct_rows(sparse, n)
        ] == [list(row) for row in distinct]
        labels = [f"g{i}" for i in range(n)]
        _, clean_heights = build_recording_heights(n, rows)
        for build in (
            lambda: AbGroupInfo(labels, noisy),
            lambda: AbGroupInfo._from_sparse(labels, sparse),
        ):
            with pytest.MonkeyPatch.context() as mp:
                heights = hnf_heights(mp)
                grp = build()
            # the sample, then a repair round, as for the rows without noise
            assert heights == clean_heights and len(heights) >= 2
            assert grp.relation_basis == want
            assert grp.generator_labels == tuple(labels)

    @settings(max_examples=60, deadline=None)
    @given(sample_short, st.integers(0, 2**20))
    def test_certification_reads_every_row_off_the_sample(self, case, which):
        # the sample spans a sublattice of index 2, and one row off it
        # lies outside: one repair round, of the basis and that row
        n, count, g, _, seed = case
        rng = random.Random(seed)
        rows = one_witness_rows(rng, n, count, g, which)
        noisy = noisy_copies(rng, rows, n)
        sparse = [as_sparse(rng, row) for row in noisy]
        want = kernel_oracle.all_rows_basis(noisy, n)
        assert want == IntMatrix.identity(n)
        labels = [f"g{i}" for i in range(n)]
        for build in (
            lambda: AbGroupInfo(labels, noisy),
            lambda: AbGroupInfo._from_sparse(labels, sparse),
        ):
            with pytest.MonkeyPatch.context() as mp:
                heights = hnf_heights(mp)
                grp = build()
            assert heights == [sample_height(rows, n), n + 1]
            assert grp.relation_basis == want

    @settings(max_examples=30, deadline=None)
    @given(tall_sparse, st.integers(0, 2**32 - 1))
    def test_short_presentations_through_both_doors(self, rows, seed):
        rng = random.Random(seed)
        n = len(rows[0])
        noisy = noisy_copies(rng, rows, n)
        labels = [f"g{i}" for i in range(n)]
        want = kernel_oracle.all_rows_basis(noisy, n)
        got = AbGroupInfo._from_sparse(labels, (as_sparse(rng, row) for row in noisy))
        assert got.relation_basis == AbGroupInfo(labels, noisy).relation_basis == want

    @pytest.mark.parametrize("bad", [{5: 1}, {-1: 1}, {0: 1, 7: 2}])
    def test_column_outside_the_generators_raises(self, bad):
        labels = [f"g{i}" for i in range(5)]
        with pytest.raises(ValueError, match="column outside"):
            AbGroupInfo._from_sparse(labels, [{0: 1}, bad])
        # a zero value names no column
        g = AbGroupInfo._from_sparse(labels, [{0: 2}, {c: 0 for c in bad}])
        assert g.relation_basis == IntMatrix(1, 5, [2, 0, 0, 0, 0])


class TestStreamedRelations:
    """A presentation reads its relation rows once, from any iterable,
    and keeps only their Hermite basis."""

    @settings(max_examples=60, deadline=None)
    @given(tall_sparse)
    def test_one_shot_generator_gives_the_list_built_group(self, rows):
        labels = [f"g{i}" for i in range(len(rows[0]))]
        want = AbGroupInfo(labels, rows)
        read = []

        def one_shot():
            for row in rows:
                read.append(row)
                yield row

        got = AbGroupInfo(labels, one_shot())
        assert read == rows
        assert got.generator_labels == want.generator_labels
        assert got.relation_basis == want.relation_basis
        assert (got.invariant_factors, got.free_rank) == (want.invariant_factors, want.free_rank)

    def test_a_long_stream_is_not_held(self):
        # 50,000 rows, two distinct: only the distinct rows are held, so
        # peak traced memory stays far below what the rows take as a list
        def stream():
            for i in range(50_000):
                yield [2, 0, 0] if i % 2 else [0, -3, 0]

        tracemalloc.start()
        try:
            g = AbGroupInfo(["a", "b", "c"], stream())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (g.invariant_factors, g.free_rank) == ((6,), 1)
        assert peak < 500_000

    def test_every_row_width_is_checked(self):
        with pytest.raises(ValueError, match="width"):
            AbGroupInfo(["a", "b"], iter([[2, 0], [0, 3], [1, 1, 0]]))
        with pytest.raises(ValueError, match="width"):
            AbGroupInfo(["a", "b"], [[2, 0], [0]])

    def test_entries_are_coerced_to_int(self):
        # anything with __index__ is an integer; floats and fractions are
        # not (see TestNoFloats)
        g = AbGroupInfo(["a", "b"], iter([(True, 0), (0, Index(6)), (False, Index(-3))]))
        assert g.relation_basis.row_list() == [(1, 0), (0, 3)]
        assert all(type(x) is int for x in g.relation_basis.entries)
        assert g.describe() == "Z/3"


class Index:
    """An integer-valued object that is not an int."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n


class TestNoFloats:
    """Every entry point of the lattice layer takes integers only: a
    float or a fraction raises TypeError instead of being truncated."""

    @pytest.mark.parametrize("x", [2.5, 2.0, Fraction(5, 2), Fraction(2)])
    def test_relation_entries(self, x):
        with pytest.raises(TypeError):
            AbGroupInfo(["a"], [[x]])
        with pytest.raises(TypeError):
            AbGroupInfo(["a"], iter([[x]]))

    @pytest.mark.parametrize("x", [2.7, 3.0, Fraction(1, 2)])
    def test_matrix_entries(self, x):
        with pytest.raises(TypeError):
            IntMatrix(1, 1, [x])
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[1, x]])

    @pytest.mark.parametrize("x", [0.5, 1.0, Fraction(1, 2)])
    def test_group_vectors(self, x):
        g = AbGroupInfo(["a"], [[4]])
        with pytest.raises(TypeError):
            g.is_zero([x])

    @pytest.mark.parametrize("x", [0.5, 1.0, Fraction(1, 2)])
    def test_map_vectors(self, x):
        g = AbGroupInfo(["a"], [[4]])
        f = AbMap(g, g, [[1]])
        with pytest.raises(TypeError):
            f.apply([x])

    @pytest.mark.parametrize("x", [6.0, 2.5, Fraction(6)])
    def test_odd_part_of_an_integer(self, x):
        with pytest.raises(TypeError):
            odd_part_int(x)

    def test_integers_still_pass(self):
        g = AbGroupInfo(["a"], [[4]])
        assert odd_part_int(Index(12)) == 3
        assert g.is_zero([True]) is False
        assert AbMap(g, g, [[3]]).apply([Index(2)]) == (6,)
        assert IntMatrix(1, 2, [True, Index(7)]).entries == (1, 7)


# -- row-list Hermite kernel, distinct relation rows -----------------------
#
# hnf_kernel holds rows as lists and starts each row operation at the
# pivot column; AbGroupInfo reduces only the distinct nonzero relation
# rows, up to sign.  The flat kernel below is the previous hnf_kernel,
# kept verbatim as the oracle: h, u and rank must agree entrywise.


def flat_hnf_kernel(a, rows, cols, want_u=True):
    """Row Hermite normal form.  Returns (h, u, rank) with u*a = h,
    u unimodular, pivots positive with entries above them reduced into
    [0, pivot), and all zero rows at the bottom."""
    a = list(a)
    u = _identity(rows) if want_u else None

    def swap_rows(i, j):
        for c in range(cols):
            a[i * cols + c], a[j * cols + c] = a[j * cols + c], a[i * cols + c]
        if u is not None:
            for c in range(rows):
                u[i * rows + c], u[j * rows + c] = u[j * rows + c], u[i * rows + c]

    def add_row(i, j, c):
        for k in range(cols):
            a[i * cols + k] += c * a[j * cols + k]
        if u is not None:
            for k in range(rows):
                u[i * rows + k] += c * u[j * rows + k]

    def neg_row(i):
        for k in range(cols):
            a[i * cols + k] = -a[i * cols + k]
        if u is not None:
            for k in range(rows):
                u[i * rows + k] = -u[i * rows + k]

    r = 0
    for j in range(cols):
        if r == rows:
            break
        while True:
            best_abs = 0
            best_i = -1
            for i in range(r, rows):
                x = a[i * cols + j]
                if x:
                    ax = -x if x < 0 else x
                    if best_i < 0 or ax < best_abs:
                        best_abs, best_i = ax, i
                        if ax == 1:
                            break
            if best_i < 0:
                break  # column has no pivot
            if best_i != r:
                swap_rows(best_i, r)
            p = a[r * cols + j]
            clean = True
            for i in range(r + 1, rows):
                x = a[i * cols + j]
                if x:
                    q = _nearest_quo(x, p)
                    add_row(i, r, -q)
                    if a[i * cols + j]:
                        clean = False
            if clean:
                break
        if best_i < 0:
            continue
        if a[r * cols + j] < 0:
            neg_row(r)
        p = a[r * cols + j]
        for i in range(r):
            q = a[i * cols + j] // p  # floor puts the entry in [0, p)
            if q:
                add_row(i, r, -q)
        r += 1
    return a, u, r


dense_matrix = st.integers(0, 7).flatmap(
    lambda r: st.integers(0, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-1000, 1000), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def assert_kernel_matches_flat(rows, ncols):
    flat = [x for r in rows for x in r]
    for want_u in (True, False):
        got = _snf_py.hnf_kernel(tuple(flat), len(rows), ncols, want_u)
        assert got == flat_hnf_kernel(flat, len(rows), ncols, want_u)


class TestRowListHNF:
    @settings(max_examples=150, deadline=None)
    @given(dense_matrix, st.integers(0, 6))
    def test_dense_matches_flat_kernel(self, rows, ncols):
        assert_kernel_matches_flat(rows, len(rows[0]) if rows else ncols)

    @settings(max_examples=150, deadline=None)
    @given(tall_sparse)
    def test_tall_sparse_matches_flat_kernel(self, rows):
        assert_kernel_matches_flat(rows, len(rows[0]))

    @pytest.mark.parametrize("q", (5, 9))
    def test_rp_presentation_matches_flat_kernel(self, q):
        labels, rows, _ = rp_presentation(q)
        assert_kernel_matches_flat(rows, len(labels))

    @settings(max_examples=100, deadline=None)
    @given(tall_sparse, st.integers(0, 2**32 - 1))
    def test_redundant_relations_change_nothing(self, rows, seed):
        rng = random.Random(seed)
        n = len(rows[0])
        extended = (
            rows
            + [[0] * n for _ in range(rng.randint(1, 3))]
            + [rng.choice(rows) for _ in range(rng.randint(1, 4))]
            + [[-x for x in rng.choice(rows)] for _ in range(rng.randint(1, 4))]
        )
        rng.shuffle(extended)
        labels = [f"g{i}" for i in range(n)]
        g = AbGroupInfo(labels, rows)
        for relations in (extended, IntMatrix.from_rows(extended).row_list(), iter(extended)):
            h = AbGroupInfo(labels, relations)
            assert h.relation_basis == g.relation_basis
            assert h.invariant_factors == g.invariant_factors
            assert h.free_rank == g.free_rank

    @settings(max_examples=100, deadline=None)
    @given(dense_matrix.filter(bool))
    def test_snf_without_transforms(self, rows):
        m = IntMatrix.from_rows(rows)
        d, u, v = snf(m, want_u=False, want_v=False)
        assert u is None and v is None
        assert d == snf(m)[0]


# -- Smith form from alternating Hermite reductions ------------------------
#
# snf_kernel Hermite-reduces the matrix and its transpose in turn until
# it is diagonal, then makes the diagonal a divisibility chain by gcd/lcm
# steps.  snf_oracle.snf_kernel is the previous elimination kernel.  A
# Smith form is unique, so the diagonals must agree entrywise; the
# transforms need not, and are checked against the contract instead.


def fraction_det(rows):
    """Determinant by Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def flat_matrix(nrows, ncols, entries):
    """(flat entries, rows, cols) with the shape drawn from ``nrows`` and
    ``ncols``."""
    return st.tuples(nrows, ncols).flatmap(
        lambda shape: st.tuples(
            st.lists(entries, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]),
            st.just(shape[0]),
            st.just(shape[1]),
        )
    )


def assert_snf_matches_oracle(flat, rows, cols):
    want, _, _ = snf_oracle.snf_kernel(flat, rows, cols, False, False)
    d, u, v = _snf_py.snf_kernel(tuple(flat), rows, cols)
    assert d == want
    m = IntMatrix(rows, cols, flat)
    um, vm = IntMatrix(rows, rows, u), IntMatrix(cols, cols, v)
    assert um @ m @ vm == IntMatrix(rows, cols, d)
    assert abs(fraction_det(um.row_list())) == 1
    assert abs(fraction_det(vm.row_list())) == 1
    for want_u, want_v in ((False, False), (True, False), (False, True)):
        got_d, got_u, got_v = _snf_py.snf_kernel(tuple(flat), rows, cols, want_u, want_v)
        assert got_d == d
        assert (got_u is None) != want_u and (got_v is None) != want_v


BIG_ENTRY = st.one_of(
    st.integers(-9, 9), st.integers(2**64, 2**80), st.integers(-(2**80), -(2**64))
)


class TestSmithFromHermite:
    @settings(max_examples=150, deadline=None)
    @given(flat_matrix(st.integers(0, 7), st.integers(0, 7), st.integers(-1000, 1000)))
    def test_dense_matches_oracle(self, matrix):
        assert_snf_matches_oracle(*matrix)

    @settings(max_examples=100, deadline=None)
    @given(flat_matrix(st.integers(6, 14), st.integers(1, 5), sparse_entry))
    def test_tall_matches_oracle(self, matrix):
        assert_snf_matches_oracle(*matrix)

    @settings(max_examples=100, deadline=None)
    @given(flat_matrix(st.integers(1, 5), st.integers(6, 14), st.integers(-20, 20)))
    def test_wide_matches_oracle(self, matrix):
        assert_snf_matches_oracle(*matrix)

    @settings(max_examples=40, deadline=None)
    @given(flat_matrix(st.integers(0, 6), st.integers(0, 6), st.just(0)))
    def test_zero_matches_oracle(self, matrix):
        assert_snf_matches_oracle(*matrix)

    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 1), (0, 5), (1, 0), (5, 0)])
    def test_empty_matches_oracle(self, rows, cols):
        assert_snf_matches_oracle([], rows, cols)

    @settings(max_examples=80, deadline=None)
    @given(flat_matrix(st.integers(0, 5), st.integers(0, 5), BIG_ENTRY))
    def test_big_entries_match_oracle(self, matrix):
        assert_snf_matches_oracle(*matrix)

    @pytest.mark.parametrize("rows, cols, bound", [(20, 20, 9), (24, 16, 30), (16, 16, 99)])
    def test_dense_random_corpus_matches_oracle(self, rows, cols, bound):
        # the shapes and entry bounds of the random matrices the
        # benchmark gives to `kmw snf`
        rng = random.Random(rows * 1000 + bound)
        for _ in range(4):
            flat = [rng.randint(-bound, bound) for _ in range(rows * cols)]
            assert_snf_matches_oracle(flat, rows, cols)

    def test_divisibility_steps(self):
        # diagonal inputs need no reduction, only gcd/lcm steps
        for diag in ((6, 4), (4, 6), (5, 3, 2), (12, 18, 8, 0)):
            n = len(diag)
            flat = [diag[i] if i == j else 0 for i in range(n) for j in range(n)]
            assert_snf_matches_oracle(flat, n, n)


# -- transforms as carried columns ------------------------------------------
#
# hnf_kernel reduces the leading columns of its rows and carries the rest
# through every row operation; the kernel calculus reads each transform
# that way.  kernel_oracle keeps the previous functions, which took the
# full square transform: both run the same row operations in the same
# order, so their outputs must agree entry for entry.

small_entry = st.integers(-6, 6)


def rows_of(width, max_size):
    return st.lists(st.lists(small_entry, min_size=width, max_size=width), max_size=max_size)


@st.composite
def stacks(draw):
    """(a, b) over one column count, from 0 up; b often repeats
    combinations of a's rows, so that [a; b] is rank-deficient."""
    cols = draw(st.integers(0, 5))
    a = draw(rows_of(cols, 5))
    b = draw(rows_of(cols, 4))
    for _ in range(draw(st.integers(0, 3)) if a else 0):
        c = draw(st.lists(st.integers(-3, 3), min_size=len(a), max_size=len(a)))
        b.append([sum(x * row[j] for x, row in zip(c, a)) for j in range(cols)])
    return IntMatrix.from_rows(a, cols=cols), IntMatrix.from_rows(b, cols=cols)


@st.composite
def ab_maps(draw):
    """A map of small presented groups: the target relations include the
    image of every source relation, so the map is well defined."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    source_rels = draw(rows_of(n, 4))
    images = draw(st.lists(st.lists(small_entry, min_size=m, max_size=m), min_size=n, max_size=n))
    target_rels = draw(rows_of(m, 3)) + [
        [sum(x * img[j] for x, img in zip(row, images)) for j in range(m)] for row in source_rels
    ]
    source = AbGroupInfo([f"s{i}" for i in range(n)], source_rels)
    target = AbGroupInfo([f"t{j}" for j in range(m)], target_rels)
    return AbMap(source, target, IntMatrix.from_rows(images, cols=m))


def assert_kernels_match_oracle(f):
    kern, incl = fp_kernel(f)
    want, want_incl = kernel_oracle.fp_kernel(f)
    assert kern.generator_labels == want.generator_labels
    assert kern.relation_basis == want.relation_basis
    assert invariants(kern) == invariants(want)
    assert incl.images == want_incl.images


class TestCarriedColumns:
    @settings(max_examples=150, deadline=None)
    @given(flat_matrix(st.integers(0, 6), st.integers(0, 6), st.integers(-50, 50)),
           st.integers(0, 4), st.randoms(use_true_random=False))
    def test_carried_part_is_the_transform_times_what_was_carried(self, matrix, width, rng):
        flat, rows, cols = matrix
        carried = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(rows)]
        wide = [x for i in range(rows) for x in flat[i * cols : (i + 1) * cols] + carried[i]]
        h, u, rank = _snf_py.hnf_kernel(flat, rows, cols, True)
        got, none, got_rank = _snf_py.hnf_kernel(wide, rows, cols, False)
        assert none is None and got_rank == rank
        w = cols + width
        assert [x for i in range(rows) for x in got[i * w : i * w + cols]] == h
        um = IntMatrix(rows, rows, u)
        want = um @ IntMatrix.from_rows(carried, cols=width)
        assert [got[i * w + cols : (i + 1) * w] for i in range(rows)] == [
            list(row) for row in want.row_list()
        ]
        # carrying the identity as well splits off the same transform
        wide_h, wide_u, _ = _snf_py.hnf_kernel(wide, rows, cols, True)
        assert (wide_h, wide_u) == (got, u)

    @settings(max_examples=150, deadline=None)
    @given(stacks())
    def test_left_kernel_matches_oracle(self, pair):
        m = pair[0].stack(pair[1])
        _, carried, rank = _snf_py._carry(m.row_list(), _unit_rows(m.rows, m.rows))
        assert [tuple(row) for row in carried[rank:]] == kernel_oracle.left_kernel(m).row_list()

    @settings(max_examples=150, deadline=None)
    @given(stacks())
    def test_lattice_intersection_matches_oracle(self, pair):
        # rowspace(a) ∩ rowspace(b) is the image of the kernel of the map
        # from the free group on a's rows to Z^n / rowspace(b), the
        # reading ScissorsContext.derived takes of RP1 meeting K1
        for a, b in (pair, pair[::-1]):
            free = AbGroupInfo([f"a{i}" for i in range(a.rows)], [])
            quotient = AbGroupInfo([f"x{j}" for j in range(a.cols)], b.row_list())
            _, incl = fp_kernel(AbMap(free, quotient, a))
            got = hnf(incl.images @ a, want_u=False)[0]
            want = hnf(kernel_oracle.lattice_intersection(a, b), want_u=False)[0]
            assert [r for r in got.row_list() if any(r)] == [r for r in want.row_list() if any(r)]

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 2)])
    def test_empty_and_zero_stacks(self, shape):
        a = IntMatrix(*shape, [0] * (shape[0] * shape[1]))
        b = IntMatrix(1, shape[1], [0] * shape[1])
        m = a.stack(b)
        _, carried, rank = _snf_py._carry(m.row_list(), _unit_rows(m.rows, m.rows))
        assert [tuple(row) for row in carried[rank:]] == kernel_oracle.left_kernel(m).row_list()

    @settings(max_examples=150, deadline=None)
    @given(ab_maps())
    def test_fp_kernel_matches_oracle(self, f):
        assert_kernels_match_oracle(f)

    @pytest.mark.parametrize("q", SMALL_RP_QS)
    def test_fp_kernel_matches_oracle_on_scissors_maps(self, q):
        ctx = ScissorsContext(q)
        for f in (*ctx.maps(), lambda2(ctx)):
            assert_kernels_match_oracle(f)

    def test_smith_form_reduces_columns_first(self, monkeypatch):
        # a Hermite basis is rank x n; a first row reduction would give
        # it back unchanged, so the first reduction is of its transpose
        labels, rows, _ = rp_presentation(7)
        for g in (AbGroupInfo(["a", "b", "c"], [[2, 4, 0], [0, 3, 6]]), AbGroupInfo(labels, rows)):
            basis = g.relation_basis
            calls = []
            hnf_kernel = _snf_py.hnf_kernel

            def record(entries, rows, cols, want_u=True):
                calls.append((rows, cols))
                return hnf_kernel(entries, rows, cols, want_u)

            monkeypatch.setattr(_snf_py, "hnf_kernel", record)
            d, _, _ = _snf_py.snf_kernel(basis.entries, basis.rows, basis.cols, False, False)
            monkeypatch.undo()
            assert calls[0] == (basis.cols, basis.rows)
            assert d == snf_oracle.snf_kernel(basis.entries, basis.rows, basis.cols, False, False)[0]
