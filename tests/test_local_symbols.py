"""The Hilbert symbol, tame symbol and valuation of ``kmw.fields``, read
off local square classes and one valuation, against the element-level
symbols of ``symbol_oracle``; the symbols' argument handling; and whole
commands run on either set of symbols."""

import os
import random
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest
import symbol_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

import kmw
from kmw.cli import main
from kmw.errors import MixedFields, UnsupportedField
from kmw.fields import (
    Poly,
    _local_class,
    _rational_local,
    finite_field,
    function_field,
    function_place,
    hilbert,
    rational_place,
    rationals,
    square_class,
    support_places,
    tame_symbol,
    valuation,
)

Q = rationals()
FQT = {q: function_field(finite_field(q)) for q in (3, 5, 9, 25)}

#: odd primes checked whether or not they divide the arguments
EXTRA_PRIMES = (3, 5, 7, 11)


def _q_places(a, b) -> list:
    """The support of a and b over Q, plus the odd primes of
    ``EXTRA_PRIMES``, where both are units unless they divide them."""
    places = support_places(Q, [a, b])
    extra = [rational_place(p) for p in EXTRA_PRIMES]
    return places + [pl for pl in extra if pl not in places]


def _fqt_places(field, a, b) -> list:
    """The support of a and b over F_q(t), plus t - 1 and t^2 - n for a
    nonsquare n of the base, where both may be units."""
    t, n = field.t, field.elem(field.base.nonsquare())
    extra = [function_place(field, t - 1), function_place(field, t * t - n)]
    places = support_places(field, [a, b])
    return places + [pl for pl in extra if pl not in places]


def _fqt_elem(field, factors, den):
    """A nonzero element: a product of polynomials with the given base
    raws (low degree first), over another."""
    base = field.base

    def poly(raws):
        p = Poly(base, [r % base.order for r in raws])
        return p if not p.is_zero() else Poly.constant(base, 1)

    num = Poly.constant(base, 1)
    for raws in factors:
        num = num * poly(raws)
    return field.elem((num, poly(den)))


def _place_kind(place) -> str:
    if place.kind == "prime":
        return "2" if place.data == 2 else "odd"
    if place.kind == "poly":
        return "degree 1" if place.degree() == 1 else "degree >= 2"
    return place.kind


def _check_q(a, b, places=None) -> set:
    """Every symbol and valuation of the pair (a, b) over Q against the
    oracle, at ``places`` or else at ``_q_places``; returns the (kind of
    place, Hilbert sign) pairs seen."""
    a, b = Q.elem(a), Q.elem(b)
    seen = set()
    for place in _q_places(a, b) if places is None else places:
        h = hilbert(a, b, place)
        assert h == symbol_oracle.hilbert(a, b, place), (a, b, place)
        seen.add((_place_kind(place), h))
        if place.kind == "real":
            continue
        got = tame_symbol(a, b, place)
        assert got == symbol_oracle.tame_symbol(a, b, place), (a, b, place)
        p, kappa = place.data, place.residue_field()
        for x in (a, b):
            v, u = symbol_oracle.rational_valuation(x.val, p)
            want = (v, kappa.elem(symbol_oracle._frac_mod(u, p)))
            assert valuation(x, place) == want, (x, place)
    return seen


def _check_fqt(field, a, b) -> set:
    """Hilbert and tame symbols of (a, b) over F_q(t) against the oracle;
    returns the (kind of place, Hilbert sign) pairs seen."""
    seen = set()
    for place in _fqt_places(field, a, b):
        h = hilbert(a, b, place)
        assert h == symbol_oracle.hilbert(a, b, place), (a, b, place)
        got = tame_symbol(a, b, place)
        assert got == symbol_oracle.tame_symbol(a, b, place), (a, b, place)
        seen.add((_place_kind(place), h))
    return seen


nonzero = st.integers(-3000, 3000).filter(bool)
fractions = st.tuples(nonzero, st.integers(1, 3000))
raws = st.lists(st.integers(0, 24), min_size=1, max_size=4)
fqt_draws = st.tuples(st.lists(raws, min_size=0, max_size=3), raws)


class TestAgainstElementLevelSymbols:
    @settings(max_examples=150, deadline=None)
    @given(fractions, fractions)
    def test_rationals(self, a, b):
        _check_q(a[0] / Q.elem(a[1]), b[0] / Q.elem(b[1]))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(FQT)), fqt_draws, fqt_draws)
    def test_function_fields(self, q, da, db):
        field = FQT[q]
        _check_fqt(field, _fqt_elem(field, *da), _fqt_elem(field, *db))

    @settings(max_examples=100, deadline=None)
    @given(fractions, st.sampled_from((2, 3, 5, 7, 11, 13)))
    def test_local_class_of_a_rational_is_that_of_its_class(self, a, p):
        # the class's key and the element itself give one local class
        x = a[0] / Q.elem(a[1])
        for place in (rational_place(p), rational_place("real")):
            assert _local_class(square_class(x), place) == _rational_local(x.val, place)

    def test_seeded_corpus_over_q_reaches_both_signs(self):
        rng = random.Random(15)
        seen = set()
        for _ in range(300):
            a = rng.choice([-1, 1]) * rng.randint(1, 400) * rng.choice([1, 2, 4, 8])
            b = rng.choice([-1, 1]) * rng.randint(1, 400)
            seen |= _check_q(Q.elem(a) / rng.randint(1, 30), Q.elem(b))
        for kind in ("real", "2", "odd"):
            assert {(kind, 1), (kind, -1)} <= seen, kind

    @pytest.mark.parametrize("q", sorted(FQT))
    def test_seeded_corpus_over_fqt_reaches_both_signs(self, q):
        field = FQT[q]
        rng = random.Random(q)

        def draw():
            return _fqt_elem(
                field,
                [[rng.randrange(q) for _ in range(rng.randint(1, 4))]
                 for _ in range(rng.randint(0, 3))],
                [rng.randrange(q) for _ in range(rng.randint(1, 3))],
            )

        seen = set()
        for _ in range(60):
            seen |= _check_fqt(field, draw(), draw())
        for kind in ("inf", "degree 1", "degree >= 2"):
            assert {(kind, 1), (kind, -1)} <= seen, (q, kind)


#: primes near 10^9, so that products of two are semiprimes near 10^18
LARGE_PRIMES = (998244353, 999999937, 1000000007, 1000000009)


class TestLargeRationalArguments:
    """Over Q the Hilbert symbol reads one valuation per argument and
    factors nothing, so semiprimes near 10^18 cost no more than small
    arguments."""

    def test_semiprimes_against_element_level_symbols(self):
        rng = random.Random(16)
        places = [rational_place(p) for p in ("real", 2, *EXTRA_PRIMES, *LARGE_PRIMES)]
        seen = set()
        for _ in range(60):
            a = rng.choice([-1, 1]) * rng.choice([1, 2, 3, 8]) * prod(rng.sample(LARGE_PRIMES, 2))
            b = rng.choice([-1, 1]) * rng.randint(1, 60) * rng.choice(LARGE_PRIMES)
            den = rng.choice([1, 2, 5, rng.choice(LARGE_PRIMES)])
            seen |= _check_q(Q.elem(a) / den, Q.elem(b), places)
        for kind in ("real", "2", "odd"):
            assert {(kind, 1), (kind, -1)} <= seen, kind

    def test_hilbert_on_a_semiprime_returns(self):
        # run apart, so that a symbol that factors its arguments fails this
        # test by its timeout instead of stalling the suite
        script = (
            "from kmw.fields import hilbert\n"
            "print(hilbert(1000000007 * 998244353, 5, 3),"
            " hilbert(-2 * 999999937 * 1000000009, 998244353 * 3, 2))\n"
        )
        src = str(Path(kmw.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        want = (
            symbol_oracle.hilbert(1000000007 * 998244353, 5, 3),
            symbol_oracle.hilbert(-2 * 999999937 * 1000000009, 998244353 * 3, 2),
        )
        assert result.stdout == f"{want[0]} {want[1]}\n"


class TestArgumentHandling:
    """Foreign elements and places raise instead of being read as
    rationals."""

    def test_hilbert_over_a_prime_field(self):
        F5 = finite_field(5)
        with pytest.raises(UnsupportedField):
            hilbert(F5.elem(2), F5.elem(3), 3)

    def test_hilbert_over_an_extension_field(self):
        F9 = finite_field(9)
        with pytest.raises(UnsupportedField):
            hilbert(F9.generator(), F9.generator(), 2)

    def test_hilbert_with_arguments_over_two_fields(self):
        with pytest.raises(MixedFields):
            hilbert(Q.elem(2), finite_field(7).elem(3), 3)

    def test_tame_symbol_with_arguments_over_two_fields(self):
        with pytest.raises(MixedFields):
            tame_symbol(Q.elem(2), finite_field(7).elem(3), 3)

    def test_rationals_at_a_place_of_another_field(self):
        F5t = FQT[5]
        t_place = function_place(F5t, Poly.x(F5t.base))
        with pytest.raises(MixedFields):
            hilbert(Q.elem(2), Q.elem(3), t_place)
        with pytest.raises(MixedFields):
            tame_symbol(Q.elem(2), Q.elem(3), t_place)


class TestCommandsAgainstElementLevelSymbols:
    """The same stdout and exit code with the library's symbols as with
    those of ``symbol_oracle`` bound everywhere the library binds its
    own."""

    def test_bindings_are_every_binding(self):
        found = {
            (module.__name__, name)
            for module in list(sys.modules.values())
            if getattr(module, "__name__", "").startswith("kmw.")
            for name, symbol in (("hilbert", hilbert), ("tame_symbol", tame_symbol))
            if getattr(module, name, None) is symbol
        }
        assert found == {(m.__name__, n) for m, n in symbol_oracle.BINDINGS}

    @pytest.mark.parametrize("argv, reaches", [
        ("verify hilbert-product --json", {"hilbert"}),
        ("verify mw-relations --field Q --json", {"hilbert", "tame_symbol"}),
        ("verify mw-relations --field F9t --samples 30 --seed 5 --json", {"tame_symbol"}),
        ("verify delta-t --field Q --json", {"hilbert", "tame_symbol"}),
    ])
    def test_stdout_is_byte_identical(self, capsys, monkeypatch, argv, reaches):
        monkeypatch.delenv("KMW_THREADS", raising=False)
        argv = argv.split()
        new = main(argv), capsys.readouterr().out
        calls = []
        symbol_oracle.install(monkeypatch, calls)
        old = main(argv), capsys.readouterr().out
        assert new == old
        assert new[0] == 0
        assert set(calls) == reaches
