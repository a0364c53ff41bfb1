"""Field towers, polynomial factorization, square classes, places, and
the symbol calculus, checked against brute-force oracles where one
exists (squares mod p for Legendre, congruence solvability for the
2-adic Hilbert symbol, the product formula globally)."""

import functools
import itertools
import random
import unicodedata
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kmw.fields as fl
from kmw.errors import (
    BadText,
    InfinitePlace,
    KmwError,
    MixedFields,
    NonIrreducibleModulus,
    UnsupportedField,
    ZeroArgument,
    ZeroInversion,
)
from kmw.milnor_witt import eta_mul, format_mw, mw_add, mw_scale, mw_symbol, mw_zero, parse_mw

from fields_oracle import power_tables, rabin_is_irreducible


class TestFiniteFields:
    def test_prime_field_axioms_exhaustive(self):
        F7 = fl.finite_field(7)
        els = list(F7.elements())
        assert len(els) == 7
        for a in els:
            for b in els:
                assert (a + b) - b == a
                assert a * b == b * a
                if b:
                    assert (a * b) / b == a
        assert F7.elem(3) * F7.elem(5) == F7.one

    def test_extension_moduli_are_canonical(self):
        assert fl.finite_field(9).modulus.coeffs == (1, 0, 1)  # x^2 + 1
        assert fl.finite_field(25).modulus.coeffs == (2, 0, 1)  # x^2 + 2
        assert fl.finite_field(49).modulus.coeffs == (1, 0, 1)  # x^2 + 1
        assert fl.finite_field(27).modulus.coeffs == (1, 2, 0, 1)  # x^3 + 2x + 1

    def test_extension_arithmetic(self):
        F9 = fl.finite_field(9)
        x = fl.parse_elem(F9, "(0, 1)")
        assert x * x == F9.elem(-1)  # modulus x^2 + 1
        els = list(F9.elements())
        assert len(els) == 9
        assert len(set(e.val for e in els)) == 9
        # multiplicative group has order 8
        for e in els:
            if e:
                assert e**8 == F9.one

    def test_extension_elem_rejects_extra_coefficients(self):
        F9 = fl.finite_field(9)
        assert fl.parse_elem(F9, "(1, 2)").val == 1 + 2 * 3
        with pytest.raises(ValueError):
            fl.parse_elem(F9, "(1, 2, 1)")
        F3t = fl.function_field(fl.finite_field(3))
        place = fl.function_place(F3t, [1, 0, 1])  # t^2 + 1
        kappa = place.residue_field()
        assert kappa.order == 9
        assert fl.parse_elem(kappa, "(0, 1)") ** 2 == kappa.elem(-1)
        with pytest.raises(ValueError):
            fl.parse_elem(kappa, "(0, 1, 0)")

    def test_tower_field(self):
        F9 = fl.finite_field(9)
        # x^2 - (generator) is irreducible over F_9 iff generator is a nonsquare
        ns = F9.nonsquare()
        mod = fl.Poly.from_elems(F9, [-ns, 0, 1])
        F81 = fl.extension_field(F9, mod)
        assert F81.order == 81
        y = fl.FieldElem(F81, F9.order)  # the root x: raw 0 + 1 * 9
        assert y * y == F81.elem(ns)

    def test_generator_and_dlog(self):
        for q in (5, 7, 9, 27):
            F = fl.finite_field(q)
            g = F.generator()
            seen = set()
            acc = F.one
            for _ in range(q - 1):
                seen.add(acc.val)
                acc = acc * g
            assert len(seen) == q - 1
            log = F._tables[1]
            for k in (0, 1, 2, q - 2):
                assert log[(g**k).val] == k % (q - 1)

    def test_square_counts(self):
        for q in (5, 7, 9, 25):
            F = fl.finite_field(q)
            squares = {(e * e).val for e in F.units()}
            assert len(squares) == (q - 1) // 2
            for e in F.units():
                assert fl.square_class(e).is_trivial() == (e.val in squares)
            assert not fl.square_class(F.nonsquare()).is_trivial()

    def test_errors(self):
        F5 = fl.finite_field(5)
        with pytest.raises(ZeroInversion):
            F5.zero.inv()
        with pytest.raises(ZeroArgument):
            fl.square_class(F5.zero)
        F3 = fl.finite_field(3)
        with pytest.raises(NonIrreducibleModulus):
            fl.extension_field(F3, fl.Poly.from_elems(F3, [2, 0, 1]))  # t^2+2 = (t-1)(t+1)
        with pytest.raises(ValueError):
            fl.finite_field(8)
        with pytest.raises(ValueError):
            fl.finite_field(12)
        with pytest.raises(MixedFields):
            F5.elem(1) + fl.finite_field(7).elem(1)

    def test_field_make(self):
        assert fl.field_make("F49").order == 49
        assert fl.field_make("Q") is fl.rationals()
        ft = fl.field_make("F7t")
        assert isinstance(ft, fl.RatFunField) and ft.base.order == 7
        assert isinstance(fl.field_make("Qt").base, fl.RationalField)
        with pytest.raises(ValueError):
            fl.field_make("F10")


class TestPolynomials:
    def test_divmod_property(self):
        rng = random.Random(2)
        F7 = fl.finite_field(7)
        for _ in range(60):
            a = fl.Poly.from_elems(F7, [rng.randrange(7) for _ in range(rng.randint(1, 7))])
            b = fl.Poly.from_elems(F7, [rng.randrange(7) for _ in range(rng.randint(1, 5))])
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree() < b.degree()

    def test_gcd(self):
        F5 = fl.finite_field(5)
        t = fl.Poly.x(F5)
        f = (t + 1) * (t + 2) * (t + 2)
        g = (t + 2) * (t + 3)
        d = f.gcd(g)
        assert d == t + 2

    def test_irreducibility(self):
        F3 = fl.finite_field(3)
        assert fl.poly_is_irreducible(fl.Poly.from_elems(F3, [1, 0, 1]))  # t^2+1
        assert not fl.poly_is_irreducible(fl.Poly.from_elems(F3, [2, 0, 1]))  # t^2+2
        F5 = fl.finite_field(5)
        # counts: number of monic irreducible quadratics over F_q is q(q-1)/2
        count = 0
        for a in range(5):
            for b in range(5):
                if fl.poly_is_irreducible(fl.Poly.from_elems(F5, [b, a, 1])):
                    count += 1
        assert count == 10

    @pytest.mark.parametrize("q, top", ((3, 6), (5, 4), (7, 3), (9, 3), (25, 2), (27, 2)))
    def test_irreducibility_matches_rabin(self, q, top):
        # every monic polynomial of degree 1 to top: 4,496 over the six fields
        F = fl.finite_field(q)
        for d in range(1, top + 1):
            for low in itertools.product(range(q), repeat=d):
                f = fl.Poly(F, low + (1,))
                assert fl.poly_is_irreducible(f) == rabin_is_irreducible(f), f

    def test_squarefree_decomposition(self):
        F5 = fl.finite_field(5)
        t = fl.Poly.x(F5)
        f = (t + 1) ** 2 * (t + 2) * (t**2 + 2)
        parts = fl.squarefree_decomposition(f)
        rebuilt = fl.Poly.constant(F5, 1)
        for g, m in parts:
            for _ in range(m):
                rebuilt = rebuilt * g
        assert rebuilt == f.monic()
        # p-th powers are handled
        f = (t + 1) ** 5
        parts = fl.squarefree_decomposition(f)
        assert parts == [(t + 1, 5)]

    def test_factor_poly(self):
        F5 = fl.finite_field(5)
        t = fl.Poly.x(F5)
        f = t**2 - 1
        facs = fl.factor_poly(f)
        assert facs == [(t + 1, 1), (t + 4, 1)]
        # deterministic across calls
        assert fl.factor_poly(f) == facs

    def test_factor_poly_random_reconstruction(self):
        rng = random.Random(9)
        for q in (5, 9):
            F = fl.finite_field(q)
            els = list(F.elements())
            for _ in range(25):
                deg = rng.randint(1, 6)
                coeffs = [rng.choice(els) for _ in range(deg)] + [F.one]
                f = fl.Poly.from_elems(F, coeffs)
                facs = fl.factor_poly(f)
                rebuilt = fl.Poly.constant(F, 1)
                total = 0
                for g, m in facs:
                    assert g.is_monic()
                    assert fl.poly_is_irreducible(g)
                    total += m * g.degree()
                    for _ in range(m):
                        rebuilt = rebuilt * g
                assert total == f.degree()
                assert rebuilt == f.monic()

    def test_factor_zero_raises(self):
        F5 = fl.finite_field(5)
        with pytest.raises(fl.ZeroPolynomial if hasattr(fl, "ZeroPolynomial") else Exception):
            fl.factor_poly(fl.Poly(F5, []))


class TestRatFun:
    def test_arithmetic_and_parse(self):
        F5t = fl.function_field(fl.finite_field(5))
        f = fl.parse_elem(F5t, "(t+2)/t")
        g = fl.parse_elem(F5t, "t") * f
        assert g == fl.parse_elem(F5t, "t+2")
        assert fl.parse_elem(F5t, "1/t") * F5t.t == F5t.elem(1)
        assert fl.parse_elem(F5t, "(t^2+1)/(t+3)") == fl.parse_elem(F5t, "t^2+1") / fl.parse_elem(F5t, "t+3")

    def test_parse_coordinate_tuples(self):
        # extension constants as their _flat_key digits over the prime field
        for q in (9, 25, 27):
            F = fl.finite_field(q)
            Ft = fl.function_field(F)
            for raw in range(q):
                text = str(fl._flat_key(F, raw))
                assert fl.parse_elem(F, text) == fl.FieldElem(F, raw)
                assert fl.parse_elem(Ft, text) == Ft.elem(fl.FieldElem(F, raw))
        F9t = fl.function_field(fl.finite_field(9))
        x = F9t.elem(fl.parse_elem(F9t.base, "(0, 1)"))
        assert fl.parse_elem(F9t, "((1, 0)*t+(0, 1))/(t^2+(2, 2))") == (F9t.t + x) / (F9t.t**2 + 2 + 2 * x)
        F5t = fl.function_field(fl.finite_field(5))
        for field, text in ((F9t, "(1, 3)"), (F9t, "(1, 0, 0)"), (F9t, "(1, t)"),
                            (F9t, "(1, 2"), (F9t, "1, 2"), (F5t, "(1, 2)")):
            with pytest.raises(ValueError):
                fl.parse_elem(field, text)

    def test_normalization(self):
        F5 = fl.finite_field(5)
        F5t = fl.function_field(F5)
        # 2t/2 reduces with monic denominator
        e = F5t.elem((fl.Poly.from_elems(F5, [0, 2]), fl.Poly.from_elems(F5, [2])))
        num, den = e.val
        assert den.degree() == 0 and den.is_monic()
        assert e == F5t.t

    def test_valuation_examples(self):
        F5 = fl.finite_field(5)
        F5t = fl.function_field(F5)
        f = fl.parse_elem(F5t, "(t+2)/t")
        at = lambda p: fl.function_place(F5t, p)
        v, r = fl.valuation(f, fl.Poly.from_elems(F5, [-1, 1]))  # t - 1
        assert v == 0 and r == F5.elem(3)
        v, r = fl.valuation(f, fl.Poly.from_elems(F5, [0, 1]))  # t
        assert v == -1 and r == F5.elem(2)
        v, r = fl.valuation(f, "inf")
        assert v == 0 and r == F5.one
        v, r = fl.valuation(fl.parse_elem(F5t, "t^3+t"), "inf")
        assert v == -3 and r == F5.one
        with pytest.raises(ZeroArgument):
            fl.valuation(F5t.elem(0), "inf")

    def test_residue_in_extension_field(self):
        F3 = fl.finite_field(3)
        F3t = fl.function_field(F3)
        pi = fl.Poly.from_elems(F3, [1, 0, 1])  # t^2 + 1, irreducible
        v, r = fl.valuation(F3t.t, pi)
        assert v == 0
        kappa = r.field
        assert kappa.order == 9
        # the residue of t is the generator image x, whose square is -1
        assert r * r == kappa.elem(-1)

    def test_qt_restricted(self):
        Qt = fl.function_field(fl.rationals())
        f = fl.parse_elem(Qt, "(t+2)/t")
        v, r = fl.valuation(f, fl.Poly.from_elems(fl.rationals(), [0, 1]))
        assert v == -1 and r == fl.rationals().elem(2)
        from kmw.errors import UnsupportedPlace

        with pytest.raises(UnsupportedPlace):
            fl.function_place(Qt, fl.Poly.from_elems(fl.rationals(), [1, 0, 1]))


def support_places_oracle(field, elems):
    """support_places over F_q(t) with every factor passed through
    function_place, which re-tests it for irreducibility and makes it
    monic."""
    polys = {}
    for x in elems:
        for part in x.val:
            if part.degree() >= 1:
                for irr, _ in fl.factor_poly(part.monic()):
                    polys[fl._poly_key(irr)] = irr
    out = [fl.function_place(field, "inf")]
    out.extend(fl.function_place(field, polys[k]) for k in sorted(polys))
    return out


def nonzero_coeffs(q, max_size):
    # indices into F_q.elements(), whose first element is 0; the leading
    # coefficient varies, so numerators are not monic
    return st.lists(st.integers(0, q - 1), min_size=1, max_size=max_size).filter(any)


# (q, [(numerator, denominator), ...]) for one to three elements of F_q(t)
ratfun_draws = st.sampled_from([5, 9]).flatmap(
    lambda q: st.tuples(
        st.just(q),
        st.lists(st.tuples(nonzero_coeffs(q, 6), nonzero_coeffs(q, 4)), min_size=1, max_size=3),
    )
)


class TestSupportPlaces:
    @settings(max_examples=60, deadline=None)
    @given(ratfun_draws)
    def test_matches_function_place_oracle(self, draw):
        q, pairs = draw
        F = fl.finite_field(q)
        K = fl.function_field(F)
        els = list(F.elements())
        poly = lambda idx: fl.Poly.from_elems(F, [els[i] for i in idx])
        elems = [K.elem((poly(num), poly(den))) for num, den in pairs]
        got = fl.support_places(K, elems)
        assert got == support_places_oracle(K, elems)
        assert all(p.data.is_monic() for p in got[1:])


class TestSquareClasses:
    def test_rational_examples(self):
        Q = fl.rationals()
        c = fl.square_class(Q.elem(-18))
        assert c.key == (1, (2,)) and c.sort_key == (1, 2)
        assert c.rep() == Q.elem(-2)
        assert fl.square_class(Q.elem(Fraction(4, 9))).is_trivial()
        assert fl.square_class(Q.elem(Fraction(-3, 4))).key == (1, (3,))

    def test_multiplicative_sampled(self):
        rng = random.Random(33)
        Q = fl.rationals()
        for _ in range(50):
            a = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 30))
            b = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 30))
            ca, cb = fl.square_class(Q.elem(a)), fl.square_class(Q.elem(b))
            assert fl.square_class(Q.elem(a * b)) == ca * cb

    def test_multiplicative_exhaustive_finite(self):
        for q in (5, 7, 9, 27):
            F = fl.finite_field(q)
            for a in F.units():
                for b in F.units():
                    assert fl.square_class(a * b) == fl.square_class(a) * fl.square_class(b)

    def test_ratfun_classes(self):
        F5 = fl.finite_field(5)
        F5t = fl.function_field(F5)
        t = F5t.t
        assert fl.square_class(t * t).is_trivial()
        c = fl.square_class(t**3)
        bit, places = c.key
        assert bit == 0 and places == ((0, 1),)  # class of t: the one place t
        assert c.sort_key == (0, (0, 1)) and c.rep() == t
        c2 = fl.square_class(F5t.elem(2) * t)
        assert c2.key[0] == 1  # 2 is a nonsquare mod 5
        assert (c * c).is_trivial()
        # the class sees through squares in numerator and denominator
        assert fl.square_class(fl.parse_elem(F5t, "t^3/(t+1)^2")) == c

    def test_ratfun_class_multiplicative_sampled(self):
        rng = random.Random(71)
        F5 = fl.finite_field(5)
        F5t = fl.function_field(F5)
        els = []
        while len(els) < 12:
            num = fl.Poly.from_elems(F5, [rng.randrange(5) for _ in range(rng.randint(1, 4))])
            den = fl.Poly.from_elems(F5, [rng.randrange(5) for _ in range(rng.randint(1, 3))])
            if num.is_zero() or den.is_zero():
                continue
            els.append(F5t.elem((num, den)))
        for a in els:
            for b in els:
                assert fl.square_class(a * b) == fl.square_class(a) * fl.square_class(b)

    def test_qt_classes(self):
        # Q(t) has no square classes: its residues read valuations
        Qt = fl.function_field(fl.rationals())
        for text in ("(t^2+1)*4/9", "t^2", "0-2*t", "1"):
            with pytest.raises(UnsupportedField):
                fl.square_class(fl.parse_elem(Qt, text))


    def test_place_parity(self):
        # the parity of a class at a place is the first coordinate of its
        # local class
        F5 = fl.finite_field(5)
        F5t = fl.function_field(F5)
        t_place = fl.function_place(F5t, fl.Poly.x(F5))
        inf = fl.function_place(F5t, "inf")
        c = fl.square_class(fl.parse_elem(F5t, "2*t"))
        assert fl._local_class(c, t_place)[0] == 1
        assert fl._local_class(c, inf)[0] == 1
        assert fl._local_class(fl.square_class(fl.parse_elem(F5t, "t^2")), t_place)[0] == 0


class TestLegendreHilbert:
    def test_legendre_matches_square_table(self):
        # for a unit a at an odd prime p, (a, p)_p is the Legendre symbol
        for p in (3, 5, 7, 11, 13):
            squares = {(x * x) % p for x in range(1, p)}
            for a in range(1, p):
                assert fl.hilbert(a, p, p) == (1 if a in squares else -1)
                assert fl.hilbert(a + p, p, p) == fl.hilbert(a, p, p)

    def test_hilbert_real(self):
        assert fl.hilbert(-1, -1, "real") == -1
        assert fl.hilbert(-1, 2, "real") == 1
        assert fl.hilbert(3, 5, "real") == 1

    def test_hilbert_two_adic_against_solvability(self):
        # (a,b)_2 = 1 iff z^2 = a x^2 + b y^2 has a primitive 2-adic
        # solution; for squarefree a, b solvability mod 2^8 decides it
        def oracle(a, b):
            M = 256
            sq = {}
            for z in range(M):
                sq.setdefault(z * z % M, []).append(z)
            for x in range(M):
                for y in range(M):
                    t = (a * x * x + b * y * y) % M
                    if t not in sq:
                        continue
                    if x % 2 or y % 2:
                        return 1
                    if any(z % 2 for z in sq[t]):
                        return 1
            return -1

        vals = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, 15, -30]
        for a in vals:
            for b in vals:
                assert fl.hilbert(a, b, 2) == oracle(a, b), (a, b)

    def test_hilbert_known_values(self):
        assert fl.hilbert(-1, -1, 2) == -1
        assert fl.hilbert(2, 3, 3) == -1
        assert fl.hilbert(5, 7, 5) == -1
        assert fl.hilbert(Fraction(1, 2), 3, 2) == fl.hilbert(2, 3, 2)

    def test_hilbert_bimultiplicative(self):
        rng = random.Random(13)
        places = ["real", 2, 3, 5, 7]
        for _ in range(40):
            a = Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 20))
            a2 = Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 20))
            b = Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 20))
            v = rng.choice(places)
            assert fl.hilbert(a * a2, b, v) == fl.hilbert(a, b, v) * fl.hilbert(a2, b, v)

    def test_product_formula_rationals(self):
        rng = random.Random(77)
        Q = fl.rationals()
        for _ in range(100):
            a = Fraction(rng.randint(-1000, 1000) or 1, rng.randint(1, 1000))
            b = Fraction(rng.randint(-1000, 1000) or 1, rng.randint(1, 1000))
            prod = 1
            for v in fl.support_places(Q, [Q.elem(a), Q.elem(b)]):
                prod *= fl.hilbert(a, b, v)
            assert prod == 1

    def test_product_formula_function_field(self):
        rng = random.Random(123)
        F5 = fl.finite_field(5)
        F5t = fl.function_field(F5)
        for _ in range(25):
            def rand_elem():
                while True:
                    num = fl.Poly.from_elems(F5, [rng.randrange(5) for _ in range(rng.randint(1, 4))])
                    den = fl.Poly.from_elems(F5, [rng.randrange(5) for _ in range(rng.randint(1, 3))])
                    if not num.is_zero() and not den.is_zero():
                        return F5t.elem((num, den))

            a, b = rand_elem(), rand_elem()
            prod = 1
            for v in fl.support_places(F5t, [a, b]):
                prod *= fl.hilbert(a, b, v)
            assert prod == 1


class TestTameSymbol:
    def test_pinned_values(self):
        # v(5)=1, v(7)=0 at p=5: the symbol is 7^{-1} = 3; swapping the
        # arguments gives 7 mod 5 = 2
        assert fl.tame_symbol(5, 7, 5) == fl.finite_field(5).elem(3)
        assert fl.tame_symbol(7, 5, 5) == fl.finite_field(5).elem(2)
        F5t = fl.function_field(fl.finite_field(5))
        t = F5t.t
        got = fl.tame_symbol(t, F5t.elem(3), fl.function_place(F5t, fl.Poly.x(F5t.base)))
        assert got == fl.finite_field(5).elem(2)  # 3^{-1} = 2

    def test_units_give_one(self):
        assert fl.tame_symbol(3, 7, 5) == fl.finite_field(5).one
        F5t = fl.function_field(fl.finite_field(5))
        got = fl.tame_symbol(
            fl.parse_elem(F5t, "t+1"), fl.parse_elem(F5t, "t+2"), fl.function_place(F5t, fl.Poly.x(F5t.base))
        )
        assert got == fl.finite_field(5).one

    def test_bimultiplicative(self):
        rng = random.Random(5)
        for _ in range(30):
            p = rng.choice([3, 5, 7])
            a = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            a2 = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            b = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            lhs = fl.tame_symbol(a * a2, b, p)
            rhs = fl.tame_symbol(a, b, p) * fl.tame_symbol(a2, b, p)
            assert lhs == rhs

    def test_steinberg(self):
        # {a, 1-a} is a symbol relation: its Hilbert symbol is trivial at
        # every place
        rng = random.Random(55)
        count = 0
        while count < 30:
            a = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
            if a in (0, 1):
                continue
            count += 1
            Q = fl.rationals()
            for v in fl.support_places(Q, [Q.elem(a), Q.elem(1 - a)]):
                assert fl.hilbert(a, 1 - a, v) == 1

    def test_errors(self):
        with pytest.raises(InfinitePlace):
            fl.tame_symbol(2, 3, "real")
        with pytest.raises(ZeroArgument):
            fl.tame_symbol(0, 3, 5)

    def test_tame_at_two(self):
        # the residue field at 2 is trivial on squares of units; the
        # symbol still exists and lands in F_2
        got = fl.tame_symbol(2, 3, 2)
        assert got.field.order == 2
        assert got == got.field.one


# ---------------------------------------------------------------------------
# differential oracle: F_q as a tower of coefficient tuples


def _tw_trim(field, c):
    z = field._zero_raw()
    while c and c[-1] == z:
        c.pop()
    return c


def _tw_add(field, a, b):
    n = max(len(a), len(b))
    z = field._zero_raw()
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else z
        y = b[i] if i < len(b) else z
        out.append(field._add(x, y))
    return _tw_trim(field, out)


def _tw_neg(field, a):
    return [field._neg(x) for x in a]


def _tw_mul(field, a, b):
    if not a or not b:
        return []
    z = field._zero_raw()
    out = [z] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == z:
            continue
        for j, y in enumerate(b):
            out[i + j] = field._add(out[i + j], field._mul(x, y))
    return _tw_trim(field, out)


def _tw_divmod(field, a, b):
    a = list(a)
    z = field._zero_raw()
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [], _tw_trim(field, a)
    inv_lc = field._inv(b[-1])
    q = [z] * (da - db + 1)
    for i in range(da - db, -1, -1):
        c = field._mul(a[i + db], inv_lc)
        if c != z:
            q[i] = c
            for j in range(db + 1):
                a[i + j] = field._add(a[i + j], field._neg(field._mul(c, b[j])))
    return _tw_trim(field, q), _tw_trim(field, a)


def _tw_invmod(field, a, m):
    r0, r1 = list(m), _tw_divmod(field, a, m)[1]
    s0, s1 = [], [field._one_raw()]
    while r1:
        q, r = _tw_divmod(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _tw_add(field, s0, _tw_neg(field, _tw_mul(field, q, s1)))
    inv_lc = field._inv(r0[0])
    return _tw_trim(field, [field._mul(x, inv_lc) for x in s0])


class Tower:
    """The field of a kmw ``FiniteField`` rebuilt as a tower over F_p on
    the same moduli: raw values are ints in [0, p) at the bottom and
    fixed-length coefficient tuples over the base at each extension
    step, and every operation recurses through the levels.  Independent
    of kmw's int encoding except through ``lift``, whose counting order
    ``test_counting_order`` pins to the tower's own enumeration."""

    def __init__(self, field):
        self.p = field.p
        self.order = field.order
        self.base = None if field.base is None else tower(field.base)
        if self.base is not None:
            self.modulus = [self.base.lift(c) for c in field.modulus.coeffs]
            self.d = len(self.modulus) - 1
        self._dlog = None

    def _zero_raw(self):
        if self.base is None:
            return 0
        return (self.base._zero_raw(),) * self.d

    def _one_raw(self):
        if self.base is None:
            return 1
        return (self.base._one_raw(),) + (self.base._zero_raw(),) * (self.d - 1)

    def _pad(self, coeffs):
        z = self.base._zero_raw()
        return tuple(coeffs[i] if i < len(coeffs) else z for i in range(self.d))

    def _add(self, a, b):
        if self.base is None:
            return (a + b) % self.p
        return tuple(self.base._add(x, y) for x, y in zip(a, b))

    def _neg(self, a):
        if self.base is None:
            return (-a) % self.p
        return tuple(self.base._neg(x) for x in a)

    def _mul(self, a, b):
        if self.base is None:
            return (a * b) % self.p
        prod = _tw_mul(self.base, list(a), list(b))
        return self._pad(_tw_divmod(self.base, prod, self.modulus)[1])

    def _inv(self, a):
        if self.base is None:
            return pow(a, -1, self.p)
        return self._pad(_tw_invmod(self.base, list(a), self.modulus))

    def _pow(self, a, e):
        out = self._one_raw()
        while e:
            if e & 1:
                out = self._mul(out, a)
            a = self._mul(a, a)
            e >>= 1
        return out

    def elements(self):
        """All raw values, constant coefficient varying fastest."""
        if self.base is None:
            yield from range(self.p)
        else:
            for tup in itertools.product(list(self.base.elements()), repeat=self.d):
                yield tuple(reversed(tup))

    def lift(self, raw: int):
        """The tower value of the element with index ``raw``."""
        if self.base is None:
            return raw
        b = self.base.order
        return tuple(self.base.lift(raw // b**i % b) for i in range(self.d))

    def flat(self, a) -> tuple:
        if self.base is None:
            return (a,)
        return tuple(x for c in a for x in self.base.flat(c))

    def is_square(self, a) -> bool:
        return self._pow(a, (self.order - 1) // 2) == self._one_raw()

    def generator(self):
        target = self.order - 1
        primes = [r for r, _ in fl.factor_int(target)]
        for e in itertools.islice(self.elements(), 1, None):
            if all(self._pow(e, target // r) != self._one_raw() for r in primes):
                return e

    def dlog(self, a) -> int:
        if self._dlog is None:
            g, acc, self._dlog = self.generator(), self._one_raw(), {}
            for i in range(self.order - 1):
                self._dlog[acc] = i
                acc = self._mul(acc, g)
        return self._dlog[a]


@functools.lru_cache(maxsize=None)
def tower(field) -> Tower:
    return Tower(field)


def assert_unary_ops_agree(F, T, a, with_dlog=True):
    ta = T.lift(a)
    assert T.lift(F._neg(a)) == T._neg(ta)
    assert fl._flat_key(F, a) == T.flat(ta)
    x = fl.FieldElem(F, a)
    assert repr(x) == str(fl._flat_key(F, a))
    assert fl.parse_elem(F, repr(x)) == x
    if a:
        assert T.lift(F._inv(a)) == T._inv(ta)
        assert F.is_square_raw(a) == T.is_square(ta)
        if with_dlog:
            assert F._tables[1][a] == T.dlog(ta)


def assert_binary_ops_agree(F, T, a, b):
    ta, tb = T.lift(a), T.lift(b)
    assert T.lift(F._add(a, b)) == T._add(ta, tb)
    assert T.lift(F._mul(a, b)) == T._mul(ta, tb)


SMALL_Q = (9, 25, 27, 49, 81, 121, 125)
SAMPLED = ("F6561", "F9[x]/(x^2-s)", "residue F6561^2")


@functools.lru_cache(maxsize=None)
def sampled_fields() -> dict:
    """Fields too large for exhaustive checks: F6561 (tabled, degree 8
    over F3), an extension of F9 by a degree-2 modulus (polynomials over
    a tabled base), and the degree-2 residue field of F6561(t) at
    t^2 - s, s the first nonsquare (6561^2 elements, polynomial
    arithmetic over the tabled F6561)."""
    F9, F6561 = fl.finite_field(9), fl.finite_field(6561)
    pi9 = fl.Poly.from_elems(F9, [-F9.nonsquare(), 0, 1])
    pi6561 = fl.Poly.from_elems(F6561, [-F6561.nonsquare(), 0, 1])
    residue = fl.function_place(fl.function_field(F6561), pi6561).residue_field()
    return dict(zip(SAMPLED, (F6561, fl.extension_field(F9, pi9), residue)))


class TestTowerOracle:
    @pytest.mark.parametrize("q", SMALL_Q)
    def test_counting_order(self, q):
        F, T = fl.finite_field(q), tower(fl.finite_field(q))
        assert list(T.elements()) == [T.lift(a) for a in range(q)]
        assert [e.val for e in F.elements()] == list(range(q))
        assert T.lift(F.generator().val) == T.generator()
        assert T.lift(F.nonsquare().val) == next(
            e for e in itertools.islice(T.elements(), 1, None) if not T.is_square(e)
        )

    @pytest.mark.parametrize("q", SMALL_Q)
    def test_exhaustive(self, q):
        F, T = fl.finite_field(q), tower(fl.finite_field(q))
        for a in range(q):
            assert_unary_ops_agree(F, T, a)
            for b in range(q):
                assert_binary_ops_agree(F, T, a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SAMPLED), st.data())
    def test_sampled_pairs(self, name, data):
        F = sampled_fields()[name]
        T = tower(F)
        a = data.draw(st.integers(0, F.order - 1))
        b = data.draw(st.integers(0, F.order - 1))
        # the log table of a field above 2^16 elements is too large to build here
        assert_unary_ops_agree(F, T, a, with_dlog=F.order <= 1 << 16)
        assert_binary_ops_agree(F, T, a, b)

    def test_sampled_field_kinds(self):
        fields = sampled_fields()
        residue, nested = fields["residue F6561^2"], fields["F9[x]/(x^2-s)"]
        assert residue.order == 6561**2 and residue.base is fields["F6561"]
        assert nested.base is fl.finite_field(9)
        # the tower's own generator search over 6561^2 elements is too
        # slow for a unit test (about 25 s on a 2-vCPU VM)
        for F in (fields["F6561"], nested):
            assert tower(F).lift(F.generator().val) == tower(F).generator()
        # so its generator is checked to have full order q - 1 in the
        # tower's arithmetic, which is independent of kmw's
        T, q = tower(residue), residue.order
        g = T.lift(residue.generator().val)
        for r, _ in fl.factor_int(q - 1):
            assert T._pow(g, (q - 1) // r) != T._one_raw()


class TestTableChoice:
    """Only the fields of ``finite_field(q)`` up to 2^16 elements build
    tables; residue fields and nested extensions compute by polynomials."""

    @staticmethod
    def cubic_residue_field():
        # x^3 + x + 4 over F5: irreducible, and not the first irreducible
        # cubic x^3 + x + 1 that finite_field(125) is made with
        F5 = fl.finite_field(5)
        pi = fl.Poly.from_elems(F5, [4, 1, 0, 1])
        assert fl.poly_is_irreducible(pi) and pi != fl.finite_field(125).modulus
        return fl.function_place(fl.function_field(F5), pi).residue_field()

    @pytest.mark.parametrize("q", (9, 27, 125, 6561, 50653))
    def test_finite_field_is_tabled(self, q):
        assert isinstance(fl.finite_field(q), fl._TabledExtension)

    def test_residue_field_is_not_tabled(self):
        kappa = self.cubic_residue_field()
        assert type(kappa) is fl._PolyExtension and kappa.order == 125
        vars(kappa).pop("_tables", None)  # the field is cached across tests
        T = tower(kappa)
        for a in range(125):
            assert_unary_ops_agree(kappa, T, a, with_dlog=False)
            for b in range(0, 125, 7):
                assert_binary_ops_agree(kappa, T, a, b)
        assert "_tables" not in vars(kappa)
        # built when asked for, as the powers of the generator
        log = kappa._tables[1]
        assert all(log[a] == T.dlog(T.lift(a)) for a in range(1, 125))

    def test_canonical_residue_field_is_the_tabled_field(self):
        F3t = fl.function_field(fl.finite_field(3))
        place = fl.function_place(F3t, fl.finite_field(9).modulus)
        assert place.residue_field() is fl.finite_field(9)

    def test_nested_extension_is_not_tabled(self):
        assert type(sampled_fields()["F9[x]/(x^2-s)"]) is fl._PolyExtension

    def test_untabled_dlog_finds_the_generator_once(self, monkeypatch):
        kappa = self.cubic_residue_field()
        vars(kappa).pop("_generator", None)
        vars(kappa).pop("_tables", None)
        calls = []
        first = fl.FiniteField._first_generator
        monkeypatch.setattr(fl.FiniteField, "_first_generator",
                            lambda self, pow_raw: calls.append(self) or first(self, pow_raw))
        g = kappa.generator()
        assert tower(kappa).lift(g.val) == tower(kappa).generator()
        log = kappa._tables[1]
        for k in (0, 1, 5, 123):
            assert log[(g**k).val] == k
        assert calls == [kappa]

    @pytest.mark.parametrize("q", (27, 125, 243, 2187, 6561, 50653))
    def test_tables_follow_polynomial_arithmetic(self, q):
        # odd degrees cut the digit sums into three chunks, even into two
        F = fl.finite_field(q)
        exp, log, zech = F._tables
        g = F._generator
        assert len(exp) == 2 * (q - 1) and exp[: q - 1] == exp[q - 1:]
        assert sorted(exp[: q - 1]) == list(range(1, q))
        for n in range(q - 2):
            assert exp[n + 1] == F._poly_mul(exp[n], g)
        for n, a in enumerate(exp[: q - 1]):
            assert log[a] == n
            b = F._plus_one(a)
            assert zech[n] == (log[b] if b else -1)

    def test_untabled_field_tables_follow_polynomial_powers(self):
        # a _PolyExtension builds _tables only when asked for (the
        # scissors presentation of finite_field(q) above 2^16 elements
        # would); they must come from polynomial powers of its generator
        F5 = fl.finite_field(5)
        pi = fl.Poly.from_elems(F5, [1, 0, 1, 1])  # t^3 + t^2 + 1
        kappa = fl.extension_field(F5, pi)
        assert type(kappa) is fl._PolyExtension and kappa.order == 125
        T = tower(kappa)
        exp, log, zech = kappa._tables
        g = kappa._generator
        assert T.lift(g) == T.generator()
        assert len(exp) == 2 * 124 and len(log) == 125 and len(zech) == 124
        acc = 1
        for n in range(124):
            assert exp[n] == exp[n + 124] == acc
            assert log[acc] == n
            b = kappa._add(acc, 1)
            assert zech[n] == (log[b] if b else -1)
            acc = kappa._poly_mul(acc, g)
        assert acc == 1


def last_irreducible(p: int, d: int) -> fl.Poly:
    """The last monic irreducible of degree d over F_p in the order that
    ``finite_field`` scans, so never the modulus of ``finite_field(p^d)``."""
    F = fl.finite_field(p)
    for low in itertools.product(range(p - 1, -1, -1), repeat=d):
        f = fl.Poly(F, low[::-1] + (1,))
        if fl.poly_is_irreducible(f):
            return f


@pytest.mark.parametrize("build", (
    lambda: sampled_fields()["F9[x]/(x^2-s)"],
    TestTableChoice.cubic_residue_field,
    lambda: fl.extension_field(fl.finite_field(3), last_irreducible(3, 5)),
    lambda: fl.extension_field(fl.finite_field(5), last_irreducible(5, 4)),
), ids=("F9[x]/(x^2-s)", "cubic residue", "F243", "F625"))
def test_untabled_tables_match_polynomial_powers(build):
    # nested and non-canonical extensions build the digit-lookup tables of
    # the tabled fields; they must list the same polynomial powers
    F = build()
    assert type(F) is fl._PolyExtension
    assert F._tables == power_tables(F)


def power_scan_generator(F) -> int:
    """The generator search as it was before the nonsquare test went to
    reciprocity: every prime r | q - 1, the r = 2 included, by a
    polynomial power a^((q-1)/r)."""
    target = F.order - 1
    primes = [r for r, _ in fl.factor_int(target)]
    for a in range(F.base.order, F.order):
        if all(F._poly_pow(a, target // r) != 1 for r in primes):
            return a


#: the prime powers 9 <= q <= 6561 of degree at least 2
EXTENSION_Q = tuple(q for q in range(9, 6562, 2)
                    if len(f := fl.factor_int(q)) == 1 and f[0][1] >= 2)


@pytest.mark.parametrize("q", EXTENSION_Q)
def test_generator_search_matches_power_scan(q):
    F = fl.finite_field(q)
    g = power_scan_generator(F)
    assert F._generator == g
    # the tables are the polynomial powers of that generator
    exp, log, _ = F._tables
    acc = 1
    for n in range(q - 1):
        assert exp[n] == acc and log[acc] == n
        acc = F._poly_mul(acc, g)


# -- printed form -----------------------------------------------------------
#
# repr of every element is the one printed form, and parse_elem reads it
# back: extension constants as their _flat_key digit tuples, polynomials
# in t highest degree first.

PRINTED = ("Q", "F5", "F9", "F25", "F9[x]/(x^2-s)", "cubic residue F125",
           "F5(t)", "F9(t)", "Q(t)")


@functools.lru_cache(maxsize=None)
def printed_fields() -> dict:
    Q, F5, F9 = fl.rationals(), fl.finite_field(5), fl.finite_field(9)
    nested = fl.extension_field(F9, fl.Poly.from_elems(F9, [-F9.nonsquare(), 0, 1]))
    return dict(zip(PRINTED, (
        Q, F5, F9, fl.finite_field(25), nested, TestTableChoice.cubic_residue_field(),
        fl.function_field(F5), fl.function_field(F9), fl.function_field(Q),
    )))


def draw_constant(data, field):
    if isinstance(field, fl.RationalField):
        return field.elem(Fraction(data.draw(st.integers(-40, 40)),
                                   data.draw(st.integers(1, 40))))
    return fl.FieldElem(field, data.draw(st.integers(0, field.order - 1)))


def draw_poly(data, base, max_size):
    size = data.draw(st.integers(0, max_size))
    return fl.Poly.from_elems(base, [draw_constant(data, base) for _ in range(size)])


def draw_elem(data, field):
    if not isinstance(field, fl.RatFunField):
        return draw_constant(data, field)
    den = draw_poly(data, field.base, 3)
    if den.is_zero():
        den = fl.Poly.constant(field.base, 1)
    return field.elem((draw_poly(data, field.base, 4), den))


class TestPrintedForm:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PRINTED), st.data())
    def test_parse_reads_repr_back(self, name, data):
        F = printed_fields()[name]
        x = draw_elem(data, F)
        assert fl.parse_elem(F, repr(x)) == x

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(("Q", "F9", "F25", "F5(t)", "F9(t)", "Q(t)")), st.data())
    def test_parse_mw_reads_format_mw_back(self, name, data):
        # sums of c * eta^k [a_1]...[a_m] of one degree m - k
        F = printed_fields()[name]
        degree = data.draw(st.integers(0, 2))
        x = mw_zero(F, degree)
        for _ in range(data.draw(st.integers(1, 3))):
            k = data.draw(st.integers(0, 1))
            term = mw_symbol(F, [draw_elem(data, F) or F.one for _ in range(degree + k)])
            x = mw_add(x, mw_scale(eta_mul(term) if k else term, data.draw(st.integers(-3, 3))))
        # monomials, since Q(t) has no equality oracle
        assert parse_mw(F, format_mw(x)).monomials == x.monomials

    def test_examples(self):
        fields = printed_fields()
        F9t = fields["F9(t)"]
        x = F9t.elem(fl.parse_elem(F9t.base, "(0, 1)"))
        assert repr((1 + 2 * x) * F9t.t + x) == "(1, 2)*t+(0, 1)"
        # 2 + x over F9, x the adjoined root: raw 2 + 1 * 9
        assert repr(fl.FieldElem(fields["F9[x]/(x^2-s)"], 11)) == "(2, 0, 1, 0)"
        Qt = fields["Q(t)"]
        assert repr((Qt.t**2 - Qt.elem(Fraction(1, 2)) * Qt.t - 3) / (Qt.t + 1)) == (
            "(t^2-1/2*t-3)/(t+1)")
        assert repr(fields["F5"].elem(3)) == "3" and repr(fields["Q"].elem(-2)) == "-2"


# -- text grammars ----------------------------------------------------------
#
# Every integer kmw reads from text is ASCII digits.  int() and str.isdigit
# also take the digits of other scripts, so each text below is valid input
# with some ASCII digits swapped for another script's digits of the same
# value; such text was read as the number it spells.


def other_script_digits(data, text):
    zero = data.draw(st.characters(categories=("Nd",), exclude_characters="0123456789"))
    zero = ord(zero) - unicodedata.digit(zero)
    spots = [i for i, c in enumerate(text) if c.isascii() and c.isdigit()]
    swap = data.draw(st.sets(st.sampled_from(spots), min_size=1))
    return "".join(chr(zero + int(c)) if i in swap else c for i, c in enumerate(text))


# every ASCII or Unicode whitespace character that str.strip removes
WHITESPACE = st.sampled_from([c for c in map(chr, range(0x3001)) if c.isspace()])


class TestTextGrammar:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["F5", "F7t", "F9", "F25t", "F49", "F121"]), st.data())
    def test_field_make_rejects_other_script_digits(self, spec, data):
        text = other_script_digits(data, spec)
        with pytest.raises(BadText):
            fl.field_make(text)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["Q", "Qt", "F5", "F7t", "F9"]),
           st.lists(WHITESPACE, max_size=2), st.lists(WHITESPACE, max_size=2))
    def test_field_make_rejects_stray_whitespace(self, spec, before, after):
        assume(before or after)
        with pytest.raises(BadText):
            fl.field_make("".join(before) + spec + "".join(after))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([("F5", "3"), ("Q", "3/4"), ("Q", "-12"), ("F5(t)", "t^2+4*t"),
                            ("F9", "(1, 2)"), ("Q(t)", "(t+1)/(2*t-7)")]), st.data())
    def test_parse_elem_rejects_other_script_digits(self, case, data):
        name, text = case
        with pytest.raises(BadText):
            fl.parse_elem(printed_fields()[name], other_script_digits(data, text))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([("Q", "2*[3]"), ("Q", "eta^2[2][3]"), ("Q", "[1/2][-5]"),
                            ("F5(t)", "[t+1][2]-3*[t]")]), st.data())
    def test_parse_mw_rejects_other_script_digits(self, case, data):
        name, text = case
        # a coefficient, an exponent and a symbol entry alike
        with pytest.raises(BadText):
            parse_mw(printed_fields()[name], other_script_digits(data, text))

    @pytest.mark.parametrize("read", [
        lambda: fl.parse_elem(fl.rationals(), "2*t"),
        lambda: fl.field_make("G5"),
        lambda: parse_mw(fl.rationals(), "[\u0663]"),
        lambda: parse_mw(fl.rationals(), "[2"),
        lambda: fl.finite_field(15),
        lambda: fl.finite_field(8),
    ])
    def test_readers_raise_library_errors(self, read):
        # a KmwError, as every error on bad input to the public API is,
        # and still the ValueError these readers raised before
        with pytest.raises(KmwError) as info:
            read()
        assert isinstance(info.value, BadText) and isinstance(info.value, ValueError)

    @pytest.mark.parametrize("text", ["0.5", "1e3", "1_000", " 3/4 ", "3/4", "\u0663/\u0664"])
    def test_rationals_take_no_text(self, text):
        # text is read by parse_elem alone, not by Fraction's grammar
        with pytest.raises(TypeError):
            fl.rationals().elem(text)


# -- square and multiply ---------------------------------------------------
#
# A power x^e, e >= 1, costs one squaring per bit of e below the top and
# one product per set bit below it: no product by one and no squaring
# after the top bit.  The values are checked against repeated products.

POW_EXPONENTS = (1, 2, 8, 13)


def pow_products(e):
    return (e.bit_length() - 1) + (bin(e).count("1") - 1)


def count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def repeated(mul, x, e):
    out = x
    for _ in range(e - 1):
        out = mul(out, x)
    return out


class TestSquareAndMultiply:
    @pytest.mark.parametrize("e", POW_EXPONENTS)
    @pytest.mark.parametrize("spec, text", [("F7", "3"), ("F3t", "(t^2+1)/(t+2)")])
    def test_field_element_power(self, monkeypatch, spec, text, e):
        x = fl.parse_elem(fl.field_make(spec), text)
        want = repeated(lambda a, b: a * b, x, e)
        calls = count_calls(monkeypatch, fl.FieldElem, "__mul__")
        assert x**e == want
        assert len(calls) == pow_products(e)

    @pytest.mark.parametrize("e", POW_EXPONENTS)
    def test_polynomial_power(self, monkeypatch, e):
        F5 = fl.finite_field(5)
        f = fl.Poly.from_elems(F5, [2, 1, 3])
        want = repeated(lambda a, b: a * b, f, e)
        calls = count_calls(monkeypatch, fl.Poly, "__mul__")
        assert f**e == want
        assert len(calls) == pow_products(e)

    @pytest.mark.parametrize("e", POW_EXPONENTS)
    def test_pow_mod(self, monkeypatch, e):
        F3 = fl.finite_field(3)
        f = fl.Poly.from_elems(F3, [1, 2, 0, 1])
        m = fl.Poly.from_elems(F3, [2, 0, 1, 1, 1])
        want = repeated(lambda a, b: a * b, f, e) % m
        calls = count_calls(monkeypatch, fl, "_pl_mul")
        assert f.pow_mod(e, m) == want
        assert len(calls) == pow_products(e)

    @pytest.mark.parametrize("e", POW_EXPONENTS)
    def test_extension_polynomial_power(self, monkeypatch, e):
        # x^2 + x + 2 is irreducible over F3 but not the canonical modulus
        # of F9, so this field computes by polynomials
        F3 = fl.finite_field(3)
        K = fl.extension_field(F3, fl.Poly.from_elems(F3, [2, 1, 1]))
        assert type(K) is fl._PolyExtension
        a = 5
        want = repeated(K._poly_mul, a, e)
        calls = count_calls(monkeypatch, fl._PolyExtension, "_poly_mul")
        assert K._poly_pow(a, e) == want
        assert len(calls) == pow_products(e)

    def test_zeroth_and_negative_powers(self):
        F3t = fl.field_make("F3t")
        x = fl.parse_elem(F3t, "(t^2+1)/(t+2)")
        assert x**0 == F3t.one
        assert x**-3 == (x**3).inv()
        f = fl.Poly.from_elems(fl.finite_field(5), [2, 1, 3])
        assert f**0 == fl.Poly.constant(f.field, 1)
        assert f.pow_mod(0, f) == fl.Poly.constant(f.field, 1)


class TestPrimes:
    def test_primes_upto_is_one_rule_with_factor_int(self):
        # the primes up to every bound are the n that factor as n^1
        for bound in range(501):
            want = [n for n in range(2, bound + 1) if fl.factor_int(n) == ((n, 1),)]
            assert fl._primes_upto(bound) == want
