"""Presentations of the scissors-congruence groups and their kernels."""

import random
import time

import kernel_oracle
import pytest
import scissors_oracle
import smith_oracle

from kmw import _snf_py
from kmw.errors import (
    BadBound,
    DegenerateArguments,
    EvenQ,
    IntegrityFailure,
    NonUnitArgument,
    RelationNotKilled,
    TooSmallQ,
    UnsupportedField,
    UnsupportedPlace,
    ZeroArgument,
)
from kmw.exact_linear import (
    AbGroupInfo,
    AbMap,
    IntMatrix,
    _distinct_rows,
    fp_kernel,
    odd_part,
    odd_part_int,
)
from kmw.fields import finite_field, function_field, function_place, rationals
from kmw.group_ring import gr_int, gr_unit, pfister_form
from kmw.scissors import (
    RPElem,
    RPTildeElem,
    ScissorsContext,
    derived_groups,
    five_term_admissible,
    pb_group,
    pb_half,
    refined_five_term,
    scissors_context,
    sv_apply,
)
from scissors_oracle import (
    fold_halves,
    k1_rows,
    lambda2,
    p_vector,
    p_rows,
    pairs,
    plain_five_term,
    psi1_vector,
    rp_presentation,
    rp_rows,
    rp_vector,
)

F5 = finite_field(5)
F7 = finite_field(7)
F9 = finite_field(9)
QQ = rationals()


def coeff_pair(x):
    """(coefficient on the trivial class, on the nonsquare class) of a
    group-ring element over a finite field."""
    pair = [0, 0]
    for cls, c in x.coeffs.items():
        pair[not cls.is_trivial()] = c
    return tuple(pair)


class TestPlainPresentation:
    def test_half_groups_pinned(self):
        assert pb_half(5).invariant_factors == (3,)
        assert pb_half(7).invariant_factors == ()
        assert pb_half(9).invariant_factors == (5,)

    def test_full_groups_small(self):
        # at desk scale the plain group is cyclic of order q + 1
        for q in (5, 7, 9, 11, 13):
            g = pb_group(q)
            assert g.free_rank == 0
            assert g.invariant_factors == (q + 1,)

    def test_half_matches_odd_part_of_q_plus_one(self):
        for q in (5, 7, 9, 11, 13, 17, 19, 23, 25):
            n = odd_part_int(q + 1)
            want = () if n == 1 else (n,)
            assert pb_half(q).invariant_factors == want

    def test_odd_part_int_needs_a_positive_integer(self):
        assert [odd_part_int(n) for n in (1, 6, 12, 7)] == [1, 3, 3, 7]
        with pytest.raises(BadBound):
            odd_part_int(-6)

    def test_even_and_tiny_q_rejected(self):
        with pytest.raises(EvenQ):
            pb_group(4)
        with pytest.raises(EvenQ):
            pb_group(8)
        with pytest.raises(TooSmallQ):
            pb_group(3)

    def test_five_term_degenerate_arguments(self):
        with pytest.raises(DegenerateArguments):
            refined_five_term(F5, 1, 2)
        with pytest.raises(DegenerateArguments):
            refined_five_term(F5, 2, 2)
        with pytest.raises(DegenerateArguments):
            refined_five_term(F5, 0, 2)

    def test_plain_five_term_dies_in_p(self):
        ctx = scissors_context(7)
        g = ctx.p_group()
        for x in ctx.units:
            for y in ctx.units:
                if x == y or x == F7.one or y == F7.one:
                    continue
                vec = p_vector(ctx, plain_five_term(F7, x, y))
                assert g.is_zero(vec)


class TestRefinedPresentation:
    def test_row_count(self):
        for q in (5, 7, 9):
            labels, rows, _ = rp_presentation(q)
            assert len(labels) == 2 * (q - 1)
            assert len(rows) == 2 * ((q - 2) * (q - 3) + 1)

    @pytest.mark.parametrize("q", (5, 7, 9, 11, 13, 17, 19))
    def test_row_count_without_rows(self, q):
        ctx = ScissorsContext(q)
        assert ctx._rp_row_count() == len(rp_rows(ctx))

    def test_refined_five_term_dies_in_rp(self):
        ctx = scissors_context(5)
        g = ctx.rp_group()
        for x in ctx.units:
            for y in ctx.units:
                if x == y or x == F5.one or y == F5.one:
                    continue
                rel = refined_five_term(F5, x, y)
                assert g.is_zero(rp_vector(ctx, rel, 0))
                assert g.is_zero(rp_vector(ctx, rel, 1))

    def test_refined_flag(self):
        assert scissors_oracle.refined(refined_five_term(F5, 2, 3))
        assert not scissors_oracle.refined(plain_five_term(F5, 2, 3))

    def test_rp_elem_algebra(self):
        b = RPElem(F5, [(gr_unit(F5, F5.elem(2)), 3)])
        ctx = scissors_context(5)
        scaled = b.scale(gr_unit(F5, F5.elem(2)))
        # <2><2> = <4> is trivial, so the coefficient lands untwisted
        assert rp_vector(ctx, scaled) == rp_vector(ctx, RPElem(F5, [(1, 3)]))

    def test_context_is_cached(self):
        assert scissors_context(5) is scissors_context(5)


class TestLambdaMaps:
    def test_lambda1_of_two_vanishes(self):
        ctx = scissors_context(5)
        l1 = ctx.maps()[0]
        v = rp_vector(ctx, RPElem(F5, [(1, 2)]))
        assert l1.target.is_zero(l1.apply(v))

    def test_lambda2_of_two_vanishes(self):
        ctx = scissors_context(5)
        l2 = lambda2(ctx)
        v = rp_vector(ctx, RPElem(F5, [(1, 2)]))
        assert l2.target.is_zero(l2.apply(v))

    def test_lambda2_hits_odd_index_pairs(self):
        ctx = scissors_context(5)
        l2 = lambda2(ctx)
        hits = [x for x in ctx.units
                if x != F5.one and not l2.target.is_zero(l2.apply(rp_vector(ctx, RPElem(F5, [(1, x)]))))]
        assert hits  # the map is onto Z/2

    def test_lambda1_matches_pfister_product(self):
        ctx = scissors_context(7)
        l1 = ctx.maps()[0]
        for x in ctx.units:
            if x == F7.one:
                continue
            v = rp_vector(ctx, RPElem(F7, [(1, x)]))
            w = pfister_form(F7, [x, F7.one - x])
            assert tuple(l1.apply(v)) == coeff_pair(w)

    def test_construction_verifies_relations(self):
        # five terms with unit image each cannot die mod 2
        ctx = scissors_context(5)
        z2 = AbGroupInfo(["w"], [[2]])
        bad = [[1]] * (2 * ctx.n_units)
        with pytest.raises(RelationNotKilled):
            AbMap(ctx.rp_group(), z2, bad)


class TestDerivedGroups:
    def test_comparison_kernel_trivial(self):
        for q in (5, 7, 9, 11, 13):
            d = derived_groups(q)
            assert d["rblker"].invariant_factors == ()
            assert d["rblker"].free_rank == 0
            assert d["cokernel_RB_to_B"].order() == 1

    def test_half_rp1_pinned(self):
        assert derived_groups(5)["half_RP1"].invariant_factors == (3,)
        assert derived_groups(7)["half_RP1"].invariant_factors == ()
        assert derived_groups(9)["half_RP1"].invariant_factors == (5,)

    def test_order_product_identity(self):
        for q in (5, 7, 9, 11, 13):
            d = derived_groups(q)
            lhs = d["half_RP1"].torsion_order()
            rhs = d["rblker"].torsion_order() * d["half_P"].torsion_order()
            assert d["half_RP1"].free_rank == 0
            assert lhs == rhs

    def test_bloch_kernels_match(self):
        # surjective with trivial kernel forces equal orders
        for q in (5, 7, 9):
            d = derived_groups(q)
            assert d["B"].torsion_order() == d["RB"].torsion_order()
            assert d["B"].free_rank == d["RB"].free_rank == 0

    def test_k1_intersection_exponent_divides_four(self):
        for q in (5, 7, 9):
            e = derived_groups(q)["k1_intersection_exponent"]
            assert 4 % e == 0

    def test_larger_q_within_bound(self):
        # q = 25 presents RP on 48 generators with 1014 relations
        start = time.monotonic()
        for q in (17, 19, 25):
            d = derived_groups(q)
            assert d["rblker"].free_rank == 0, f"q={q}"
            assert d["rblker"].invariant_factors == (), f"q={q}"
            assert d["cokernel_RB_to_B"].order() == 1, f"q={q}"
            lhs = d["half_RP1"].order()
            assert lhs == odd_part(d["rblker"]).order() * d["half_P"].order(), f"q={q}"
            assert lhs == odd_part_int(q + 1), f"q={q}"
            assert 4 % d["k1_intersection_exponent"] == 0, f"q={q}"
        assert time.monotonic() - start < 30.0


class TestSmithFormsTaken:
    def test_only_read_groups_take_one(self, monkeypatch):
        # with P, RP and RP-tilde built and read, maps() and derived() take
        # four Smith forms per q (RP1 for its odd part, the two RB -> B
        # checks and the K1 exponent), and reading every entry four more
        # (half_P, B, RB and half_RP1); the cokernels stacked against
        # take none
        contexts = [ScissorsContext(q) for q in (5, 7, 9, 11, 13)]
        for ctx in contexts:
            for g in (ctx.p_group(), ctx.rp_group(), ctx.rp_tilde()):
                g.describe()
        snf_kernel = _snf_py.snf_kernel
        calls = []

        def record(*args):
            calls.append(args[1:3])
            return snf_kernel(*args)

        monkeypatch.setattr(_snf_py, "snf_kernel", record)
        entries = [ctx.derived() for ctx in contexts]
        assert len(calls) == 20
        for d in entries:
            for g in d.values():
                if isinstance(g, AbGroupInfo):
                    g.describe()
        assert len(calls) == 40


class TestDerivedAgainstSolver:
    """rblker, the cokernel of RB -> B and the K1 exponent, read from
    kernels and cokernels alone, against the solve-into-B and
    intersection reading of ``kernel_oracle.solver_derived``."""

    @pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 17, 19, 23, 25])
    def test_same_groups_and_exponent(self, q):
        ctx = scissors_context(q)
        d = ctx.derived()
        rblker, coker, exponent = kernel_oracle.solver_derived(ctx)
        for got, want in ((d["rblker"], rblker), (d["cokernel_RB_to_B"], coker)):
            assert got.invariant_factors == want.invariant_factors
            assert got.free_rank == want.free_rank
            assert got.generator_labels == want.generator_labels
            assert got.relation_basis == want.relation_basis
        assert d["k1_intersection_exponent"] == exponent

    @pytest.mark.parametrize("q", [5, 7, 9])
    def test_image_outside_bloch_kernel_raises(self, q):
        # the identity on P in place of lambda makes B = 0, which the
        # nonzero image of RB escapes
        ctx = ScissorsContext(q)
        p = ctx.p_group()
        lambda1, lam_mixed, _, proj = ctx.maps()
        ctx._maps = (lambda1, lam_mixed, AbMap(p, p, IntMatrix.identity(p.ngens)), proj)
        with pytest.raises(IntegrityFailure, match="image of RB escapes the Bloch kernel"):
            ctx.derived()


ODD_QS_TO_49 = (5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49)


def group_reading(g: AbGroupInfo):
    return g.generator_labels, g.relation_basis, g.invariant_factors, g.free_rank


def derived_reading(ctx: ScissorsContext):
    """RP, RP-tilde and every derived entry of a fresh context."""
    derived = {
        name: group_reading(g) if isinstance(g, AbGroupInfo) else g
        for name, g in ctx.derived().items()
    }
    return group_reading(ctx.rp_group()), group_reading(ctx.rp_tilde()), derived


class TestSampledReduction:
    """Presentations with more than 4n distinct rows reduce a sample and
    certify every other row against its basis; ``kernel_oracle.all_rows_basis``
    reduces every distinct row at once.  A Hermite basis is unique, so
    the two agree entry for entry."""

    def test_p_groups_match_all_rows(self, monkeypatch):
        got = {q: group_reading(ScissorsContext(q).p_group()) for q in ODD_QS_TO_49}
        kernel_oracle.install_all_rows(monkeypatch)
        want = {q: group_reading(ScissorsContext(q).p_group()) for q in ODD_QS_TO_49}
        assert got == want

    def test_rp_and_derived_groups_match_all_rows(self, monkeypatch):
        qs = [q for q in ODD_QS_TO_49 if q <= 25]
        got = {q: derived_reading(ScissorsContext(q)) for q in qs}
        kernel_oracle.install_all_rows(monkeypatch)
        want = {q: derived_reading(ScissorsContext(q)) for q in qs}
        assert got == want

    def test_rp25_reaches_the_sampled_path(self):
        # as P(49) does (below), so both comparisons above run it
        ctx = ScissorsContext(25)
        n = len(ctx.rp_labels())
        assert len(_distinct_rows(ctx._rp_row_iter(), n)) > 4 * n

    def test_p49_reduces_no_stack_as_tall_as_its_rows(self, monkeypatch):
        smith_oracle.record_inputs(monkeypatch)
        hnf_kernel = _snf_py.hnf_kernel
        heights = []

        def record(*args):
            heights.append(args[1])
            return hnf_kernel(*args)

        monkeypatch.setattr(_snf_py, "hnf_kernel", record)
        p = ScissorsContext(49).p_group()
        distinct = len(kernel_oracle.distinct_rows(smith_oracle.input_rows(p), p.ngens))
        assert distinct > 4 * p.ngens
        assert heights and max(heights) < distinct


class TestOneRowPerFact:
    """P rows are folds of the untwisted RP rows, twisted rows are
    half-swaps, and RP-tilde stacks the K1 rows on RP's Hermite basis;
    the per-element paths these replaced are the oracles.  The library
    emits sparse rows, which are made dense (``smith_oracle.dense_rows``)
    and compared row for row."""

    @staticmethod
    def _plain_oracle(ctx, elem):
        vec = [0] * ctx.n_units
        for coeff, arg in elem.terms:
            vec[ctx.units.index(arg)] += coeff.augmentation()
        return vec

    @staticmethod
    def _twisted_oracle(ctx, elem):
        vec = [0] * (2 * ctx.n_units)
        for coeff, arg in elem.terms:
            for cls, n in coeff.coeffs.items():
                vec[ctx.flat_index((cls.key[0] + 1) % 2, arg)] += n
        return vec

    @pytest.mark.parametrize("q", [5, 9, 13, 25, 27])
    def test_p_rows_are_plain_five_terms(self, q):
        # P's rows are the folds of the untwisted rows of rp_rows(), in
        # pairs() order, and P is the group they present
        ctx = scissors_context(q)
        rows = p_rows(ctx)
        assert rows == [fold_halves(v) for v in rp_rows(ctx)[::2]]
        order = list(pairs(ctx))
        assert len(rows) == len(order) + 1
        assert rows[0] == p_vector(ctx, RPElem(ctx.field, [(1, 1)]))
        for (x, y), row in zip(order, rows[1:]):
            plain = plain_five_term(ctx.field, x, y)
            want = self._plain_oracle(ctx, plain)
            assert p_vector(ctx, plain) == want
            assert row == want
        p = ctx.p_group()
        assert AbGroupInfo(p.generator_labels, rows).relation_basis == p.relation_basis

    @pytest.mark.parametrize("q", [5, 9, 13, 25, 27])
    def test_twisted_rows_are_translates(self, q):
        ctx = scissors_context(q)
        field = ctx.field
        rows = rp_rows(ctx)
        order = list(pairs(ctx))
        assert len(rows) == 2 * (len(order) + 1)
        assert rows[1] == self._twisted_oracle(ctx, RPElem(field, [(1, 1)]))
        for i, (x, y) in enumerate(order):
            rel = refined_five_term(field, x, y)
            want = self._twisted_oracle(ctx, rel)
            assert rp_vector(ctx, rel, 1) == want
            assert rows[2 * i + 2] == rp_vector(ctx, rel, 0)
            assert rows[2 * i + 3] == want
        k1 = k1_rows(ctx)
        for i, x in enumerate(ctx.units):
            psi = RPElem(field, [(1, x), (gr_unit(field, field.elem(-1)), field.one / x)])
            want = self._twisted_oracle(ctx, psi)
            assert psi1_vector(ctx, x, 1) == want
            assert k1[2 * i] == psi1_vector(ctx, x, 0) == rp_vector(ctx, psi)
            assert k1[2 * i + 1] == want

    # every odd q <= 49; log(-1) = (q-1)/2 is odd for q = 3 mod 4 (7, 11,
    # 19, 23, 27, 31, 43, 47), where a wrong Zech offset can still pass at
    # q = 5, 9, 25
    ODD_Q = [5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49]

    @pytest.mark.parametrize("q", ODD_Q)
    def test_log_rows_match_element_path(self, q):
        ctx = ScissorsContext(q)
        field = ctx.field
        sparse = list(ctx._five_term_rows())
        assert max(map(len, sparse)) <= 5
        rows = smith_oracle.dense_rows(sparse, 2 * ctx.n_units)
        order = list(pairs(ctx))
        assert len(rows) == len(order)
        for (x, y), row in zip(order, rows):
            assert row == rp_vector(ctx, refined_five_term(field, x, y))
        k1 = k1_rows(ctx)
        assert len(k1) == 2 * ctx.n_units
        for i, x in enumerate(ctx.units):
            assert k1[2 * i] == psi1_vector(ctx, x)
            assert k1[2 * i + 1] == psi1_vector(ctx, x, 1)

    @pytest.mark.parametrize("q", ODD_Q)
    def test_lambda_images_match_pfister_products(self, q):
        ctx = ScissorsContext(q)
        field, one = ctx.field, ctx.field.one
        log = field._tables[1]
        pairs, bits = ctx._lambda_images()
        assert len(pairs) == len(bits) == ctx.n_units
        for a, pair, bit in zip(ctx.units, pairs, bits):
            if a == one:
                assert (pair, bit) == ((0, 0), 0)
            else:
                assert pair == coeff_pair(pfister_form(field, [a, one - a]))
                assert bit == log[a.val] * log[(one - a).val] % 2

    @pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
    def test_maps_take_the_lambda_images(self, q):
        ctx = scissors_context(q)
        pairs, bits = ctx._lambda_images()
        twisted = [(cs, c1) for c1, cs in pairs]
        lambda1, lam_mixed, lambda_p, _ = ctx.maps()
        assert lambda1.images.row_list() == pairs + twisted
        assert lambda2(ctx).images.row_list() == [(b,) for b in bits + bits]
        assert lam_mixed.images.row_list() == [
            (c1, cs, b) for (c1, cs), b in zip(pairs + twisted, bits + bits)
        ]
        assert lambda_p.images.row_list() == [(b,) for b in bits]

    @pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 17, 19, 23, 25])
    def test_rp_tilde_matches_full_stack(self, q):
        ctx = scissors_context(q)
        full = AbGroupInfo(ctx.rp_labels(), rp_rows(ctx) + k1_rows(ctx))
        got = ctx.rp_tilde()
        assert got.relation_basis == full.relation_basis
        assert got.invariant_factors == full.invariant_factors
        assert got.free_rank == full.free_rank

    def test_strict_checks_run_on_cached_groups(self, monkeypatch):
        # the RB -> B checks run on the first call and on every cached one;
        # B / im RB is the kernel of the identity map P / im RB -> P / B,
        # here made Z/3
        def kernel(f):
            if f.source.generator_labels == f.target.generator_labels:
                assert f.images == IntMatrix.identity(f.source.ngens)
                return AbGroupInfo(["g"], [[3]]), None
            return fp_kernel(f)

        monkeypatch.setattr("kmw.scissors.fp_kernel", kernel)
        ctx = ScissorsContext(5)
        with pytest.raises(IntegrityFailure, match="onto"):
            ctx.derived()
        assert ctx._derived["cokernel_RB_to_B"].order() == 3
        with pytest.raises(IntegrityFailure, match="onto"):
            ctx.derived()

    def test_groups_and_context_keep_no_relation_rows(self):
        # a presentation is its Hermite basis: neither the groups nor the
        # context hold a row list or matrix taller than the basis rank
        p = pb_group(25)
        ctx = scissors_context(25)
        rp = ctx.rp_group()

        def heights(obj):
            for name, value in vars(obj).items():
                if isinstance(value, IntMatrix):
                    yield name, value.rows
                elif isinstance(value, (list, tuple)) and value and all(
                    isinstance(r, (list, tuple)) for r in value
                ):
                    yield name, len(value)

        rank = {g: g.relation_basis.rows for g in (p, rp)}
        assert rank[p] > 0 and rank[rp] > 0
        for obj, bound in ((p, rank[p]), (rp, rank[rp]), (ctx, max(rank.values()))):
            for name, height in heights(obj):
                assert height <= bound, (obj, name, height)


def r_element(field, x) -> RPElem:
    """(<-1> + 1)[x] + <<1-x>> psi_1(x): a kernel element of lambda_1."""
    one = field.one
    x = field.elem(x)
    if not x or x == one:
        raise DegenerateArguments("the construction needs x outside {0, 1}")
    minus_one = gr_unit(field, field.elem(-1))
    head = RPElem(field, [(gr_int(field, 1) + minus_one, x)])
    psi = RPElem(field, [(gr_int(field, 1), x), (minus_one, one / x)])
    return RPElem(field, head.terms + psi.scale(pfister_form(field, [one - x])).terms)


class TestRElement:
    def test_kernel_membership_exhaustive(self):
        for q in (5, 7, 9):
            ctx = scissors_context(q)
            l1, l2 = ctx.maps()[0], lambda2(ctx)
            for x in ctx.units:
                if x == ctx.field.one:
                    continue
                v = rp_vector(ctx, r_element(ctx.field, x))
                assert l1.target.is_zero(l1.apply(v))
                assert l2.target.is_zero(l2.apply(v))

    def test_degenerate_arguments(self):
        with pytest.raises(DegenerateArguments):
            r_element(F5, 1)
        with pytest.raises(DegenerateArguments):
            r_element(F5, 0)


def rp_tilde_gen(q: int, a, twist: int = 0) -> RPTildeElem:
    """The generator [a], or its s-translate, of RP-tilde(F_q)."""
    ctx = scissors_context(q)
    vec = [0] * (2 * ctx.n_units)
    vec[ctx.flat_index(twist % 2, ctx.field.elem(a))] = 1
    return RPTildeElem(q, vec)


class TestSpecialization:
    K5 = function_field(F5)
    K7 = function_field(F7)

    def test_residue_of_t_twisted_generator(self):
        t = self.K5.t
        xi = RPElem(self.K5, [(gr_unit(self.K5, t), self.K5.elem(3))])
        assert sv_apply(xi, t)[1] == rp_tilde_gen(5, 3)

    def test_residue_of_constant_generator(self):
        t = self.K5.t
        for u in (2, 3, 4):
            assert sv_apply(RPElem(self.K5, [(1, self.K5.elem(u))]), t)[1].is_zero()

    def test_unit_part_of_constant(self):
        t = self.K5.t
        m0, m1 = sv_apply(RPElem(self.K5, [(1, self.K5.elem(3))]), t)
        assert m0 == rp_tilde_gen(5, 3)
        assert m1.is_zero()

    def test_even_t_power_keeps_component(self):
        t = self.K5.t
        coeff = gr_unit(self.K5, t * t * self.K5.elem(3))
        m0, m1 = sv_apply(RPElem(self.K5, [(coeff, self.K5.elem(2))]), t)
        assert m1.is_zero()
        # 3 is a nonsquare in F_5, so the residue acts by the twist
        assert m0 == rp_tilde_gen(5, 2, twist=1)

    def test_lifted_rp1_generators_project(self):
        # constants specialize to themselves in the plain component and
        # to zero in the residue component; the t-twist swaps that
        for q in (5, 7):
            ctx = scissors_context(q)
            K = function_field(ctx.field)
            t = K.t
            rp1, rp1_incl = fp_kernel(ctx.maps()[0])
            s_const = ctx.field.nonsquare()
            for i in range(rp1.ngens):
                vec = rp1_incl.images.row(i)
                terms = []
                for j, n in enumerate(vec):
                    if not n:
                        continue
                    g, idx = divmod(j, ctx.n_units)
                    coeff = gr_int(K, n)
                    if g:
                        coeff = coeff * gr_unit(K, K.elem(s_const))
                    terms.append((coeff, K.elem(ctx.units[idx])))
                lifted = RPElem(K, terms)
                assert sv_apply(lifted, t)[1].is_zero()
                twisted = lifted.scale(gr_unit(K, t))
                assert sv_apply(twisted, t)[1] == RPTildeElem(q, vec)

    def test_kills_admissible_five_terms(self):
        rng = random.Random(23)
        checked = 0
        for q in (5, 7, 9):
            ctx = scissors_context(q)
            K = function_field(ctx.field)
            t = K.t
            consts = [K.elem(c) for c in ctx.units]
            trials = 0
            while trials < 40:
                a = consts[rng.randrange(len(consts))] + t * consts[rng.randrange(len(consts))]
                b = consts[rng.randrange(len(consts))] + t * consts[rng.randrange(len(consts))]
                try:
                    if not five_term_admissible(K, a, b, t):
                        continue
                    rel = refined_five_term(K, a, b)
                except (DegenerateArguments, ZeroArgument):
                    continue
                finally:
                    trials += 1
                m0, m1 = sv_apply(rel, t)
                assert m0.is_zero() and m1.is_zero()
                checked += 1
        assert checked >= 60

    def test_kills_five_terms_at_shifted_place(self):
        K = self.K7
        t = K.t
        pl = function_place(K, t - K.elem(2))
        x = t + K.elem(1)
        y = t * t + K.elem(1)
        assert five_term_admissible(K, x, y, pl)
        m0, m1 = sv_apply(refined_five_term(K, x, y), pl)
        assert m0.is_zero() and m1.is_zero()

    def test_non_unit_argument(self):
        t = self.K5.t
        with pytest.raises(NonUnitArgument):
            sv_apply(RPElem(self.K5, [(1, t)]), t)
        with pytest.raises(NonUnitArgument):
            sv_apply(RPElem(self.K5, [(1, self.K5.one / t)]), t)

    def test_reduction_one_is_allowed(self):
        t = self.K5.t
        xi = RPElem(self.K5, [(1, t + self.K5.elem(1))])
        m0, m1 = sv_apply(xi, t)
        # [1] is the normalized generator, hence zero
        assert m0.is_zero() and m1.is_zero()

    def test_unsupported_places(self):
        t = self.K5.t
        xi = RPElem(self.K5, [(1, self.K5.elem(2))])
        with pytest.raises(UnsupportedPlace):
            sv_apply(xi, "inf")
        with pytest.raises(UnsupportedPlace):
            sv_apply(xi, t * t + self.K5.elem(2))

    def test_rationals_unsupported(self):
        # specialization is defined over F_q(t) alone; over Q(t) the
        # coefficient ring Z[Q(t)^x / squares] has no square classes
        with pytest.raises(UnsupportedPlace):
            sv_apply(RPElem(QQ, [(1, QQ.elem(2))]), 3)
        Kq = function_field(QQ)
        with pytest.raises(UnsupportedField):
            RPElem(Kq, [(1, Kq.elem(2))])

    @pytest.mark.parametrize("x", [0.5, 1.0])
    def test_tilde_elem_rejects_floats(self, x):
        # truncation would store zeros and report a nonzero vector as zero
        with pytest.raises(TypeError):
            RPTildeElem(5, [x] * 8)

    def test_tilde_elem_algebra(self):
        a = rp_tilde_gen(5, 2)
        z = RPTildeElem(5, [0] * len(a.vector))
        assert z.is_zero()
        assert scissors_oracle.twist(scissors_oracle.twist(a)) == a
        assert scissors_oracle.twist(a) == rp_tilde_gen(5, 2, twist=1)
