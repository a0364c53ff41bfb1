"""Group-ring arithmetic over square-class groups."""

import random
from fractions import Fraction

import pytest

import kmw.fields as fl
import kmw.group_ring as gr
from kmw.errors import MixedFields, ZeroArgument


class TestBasics:
    def test_pfister_of_square_vanishes(self):
        F5 = fl.finite_field(5)
        assert gr.pfister_form(F5, [4]).is_zero()  # 4 is a square mod 5
        assert not gr.pfister_form(F5, [2]).is_zero()

    def test_pfister_square_identity(self):
        F7 = fl.finite_field(7)
        x = gr.pfister_form(F7, [3]) * gr.pfister_form(F7, [3])
        expected = gr.gr_int(F7, 2) - gr.gr_unit(F7, 3) * 2
        assert x == expected  # ⟪3⟫^2 = 2 - 2⟨3⟩

    def test_zero_argument(self):
        F5 = fl.finite_field(5)
        with pytest.raises(ZeroArgument):
            gr.gr_unit(F5, 0)
        with pytest.raises(ZeroArgument):
            gr.pfister_form(F5, [1, 0])

    def test_mixed_fields(self):
        a = gr.gr_unit(fl.finite_field(5), 2)
        b = gr.gr_unit(fl.finite_field(7), 2)
        with pytest.raises(MixedFields):
            a + b
        with pytest.raises(MixedFields):
            a * b

    def test_hash_agrees_with_int_equality(self):
        Q = fl.rationals()
        three = gr.gr_int(Q, 3)
        assert three == 3
        assert 3 in {three}
        assert three in {3}
        assert gr.gr_zero(Q) in {0}
        assert 0 in {gr.gr_int(Q, 0)}
        # equal elements hash equally, whichever way they were built
        x = gr.gr_unit(Q, 2) + gr.gr_unit(Q, 8)
        assert x == 2 * gr.gr_unit(Q, 2)
        assert hash(x) == hash(2 * gr.gr_unit(Q, 2))

    @pytest.mark.parametrize("c", [2.5, 1.0, Fraction(5, 2)])
    def test_coefficients_are_integers(self, c):
        # a float or fraction coefficient raises instead of truncating
        F5 = fl.finite_field(5)
        with pytest.raises(TypeError):
            gr.gr_int(F5, c)
        with pytest.raises(TypeError):
            gr.GroupRingElem(F5, {fl.square_class(F5.elem(2)): c})


class TestIdentities:
    def test_augmentation_multiplicative(self):
        rng = random.Random(19)
        Q = fl.rationals()
        for _ in range(30):
            def rand_elem():
                out = gr.gr_zero(Q)
                for _ in range(rng.randint(1, 4)):
                    a = Fraction(rng.randint(-20, 20) or 1, rng.randint(1, 10))
                    out = out + gr.gr_unit(Q, a) * rng.randint(-3, 3)
                return out

            x, y = rand_elem(), rand_elem()
            assert (x * y).augmentation() == x.augmentation() * y.augmentation()

    def test_mul_add_pfister_identity_exhaustive(self):
        # ⟪ab⟫ = ⟪a⟫ + ⟪b⟫ + ⟪a⟫⟪b⟫ for all units, q <= 27
        for q in (5, 7, 9, 11, 13, 25, 27):
            F = fl.finite_field(q)
            units = list(F.units())
            for a in units:
                for b in units:
                    lhs = gr.pfister_form(F, [a * b])
                    rhs = (
                        gr.pfister_form(F, [a])
                        + gr.pfister_form(F, [b])
                        + gr.pfister_form(F, [a]) * gr.pfister_form(F, [b])
                    )
                    assert lhs == rhs

    def test_steinberg_product_in_aug_square(self):
        # ⟪a⟫⟪1-a⟫ always lies in the square of the augmentation ideal:
        # zero augmentation and trivial product of the odd-coefficient
        # classes
        def in_aug_square(x):
            prod = fl._trivial_class(x.field)
            for cls, c in x.coeffs.items():
                if c % 2:
                    prod = prod * cls
            return x.augmentation() == 0 and prod.is_trivial()

        for q in (5, 7, 9):
            F = fl.finite_field(q)
            for a in F.units():
                if a == F.one:
                    continue
                assert in_aug_square(gr.pfister_form(F, [a, F.one - a]))
        Q = fl.rationals()
        rng = random.Random(3)
        for _ in range(20):
            a = Fraction(rng.randint(-30, 30) or 2, rng.randint(1, 20))
            if a in (0, 1):
                continue
            assert in_aug_square(gr.pfister_form(Q, [a, 1 - a]))

    def test_commutative_associative_sampled(self):
        rng = random.Random(8)
        F9 = fl.finite_field(9)
        els = []
        units = list(F9.units())
        for _ in range(6):
            out = gr.gr_zero(F9)
            for _ in range(rng.randint(1, 3)):
                out = out + gr.gr_unit(F9, rng.choice(units)) * rng.randint(-2, 2)
            els.append(out)
        for x in els:
            for y in els:
                assert x * y == y * x
                assert x + y == y + x
        for x, y, z in zip(els, els[1:], els[2:]):
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
