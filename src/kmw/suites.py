"""Seeded verification suites shared by the CLI and the acceptance run.

Each runner draws its instances from a seeded generator, checks the
identity under exact equality, and returns the list of failure
witnesses (empty on success) together with the number of instances
checked.  Witnesses are short strings; the smallest one is what the
CLI prints on failure.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

from .errors import DegenerateArguments, ZeroArgument
from .fields import (
    FieldElem,
    FiniteField,
    Poly,
    RationalField,
    RatFunField,
    finite_field,
    function_field,
    hilbert,
    rationals,
    support_places,
    valuation,
)
from .exact_linear import fp_kernel
from .group_ring import gr_int, gr_unit
from .milnor_witt import (
    eta_mul,
    gw_scale,
    h_elem,
    mw_add,
    mw_delta,
    mw_equal,
    mw_is_zero,
    mw_mul,
    mw_symbol,
)
from .scissors import (
    derived_groups,
    five_term_admissible,
    refined_five_term,
    scissors_context,
    sv_apply,
    RPElem,
    RPTildeElem,
)
from .witt import (
    _counting_table,
    i_square_is_zero,
    pfister_form,
    witt_group_structure,
    witt_is_zero,
)


def smallest_witness(witnesses: List[str]) -> str:
    """The shortest (then lexicographically first) failure witness."""
    return min(witnesses, key=lambda w: (len(w), w))


# -- element samplers ---------------------------------------------------


def random_rational(rng: random.Random, height: int = 1000) -> Fraction:
    num = 0
    while not num:
        num = rng.randint(-height, height)
    return Fraction(num, rng.randint(1, height))


def random_poly(rng: random.Random, base: FiniteField, max_deg: int,
                unit_at_zero: bool = False) -> Poly:
    # raw values are indices in counting order, so draw the index
    q = base.order
    while True:
        deg = rng.randint(0, max_deg)
        coeffs = [rng.randrange(q) for _ in range(deg + 1)]
        if unit_at_zero and not coeffs[0]:
            continue
        p = Poly(base, coeffs)
        if not p.is_zero():
            return p


def random_ratfun(rng: random.Random, field: RatFunField, max_deg: int = 3,
                  unit_at_zero: bool = False):
    num = random_poly(rng, field.base, max_deg, unit_at_zero)
    den = random_poly(rng, field.base, max_deg, unit_at_zero)
    return field.elem((num, den))


def _random_elem(rng: random.Random, field, height: int = 1000, max_deg: int = 3):
    if isinstance(field, RationalField):
        return field.elem(random_rational(rng, height))
    if isinstance(field, RatFunField):
        return random_ratfun(rng, field, max_deg)
    if isinstance(field, FiniteField):
        return FieldElem(field, 1 + rng.randrange(field.order - 1))
    raise TypeError(f"no sampler for {field}")


# -- Milnor-Witt relation suite ----------------------------------------


def run_mw_relations(field, samples: int, seed: int) -> Tuple[int, List[str]]:
    """Defining relations and the hyperbolic identity on seeded pairs."""
    rng = random.Random(seed)
    failures: List[str] = []
    one = field.one
    checked = 0
    for _ in range(samples):
        a = _random_elem(rng, field)
        b = _random_elem(rng, field)
        checked += 1
        lhs = mw_symbol(field, [a * b])
        rhs = mw_add(
            mw_add(mw_symbol(field, [a]), mw_symbol(field, [b])),
            eta_mul(mw_symbol(field, [a, b])),
        )
        if not mw_equal(lhs, rhs):
            failures.append(f"(a) a={a!r} b={b!r}")
        if a != one and (one - a):
            if not mw_is_zero(mw_symbol(field, [a, one - a])):
                failures.append(f"(b) a={a!r}")
        if not mw_is_zero(eta_mul(mw_mul(h_elem(field), mw_symbol(field, [a])))):
            failures.append(f"(d) a={a!r}")
        hyp = mw_mul(h_elem(field), mw_symbol(field, [a, b]))
        if not mw_equal(hyp, mw_symbol(field, [a * a, b])):
            failures.append(f"h[a][b] a={a!r} b={b!r}")
    return checked, failures


# -- residue suite ------------------------------------------------------


def run_residues(base_field, samples: int, seed: int) -> Tuple[int, List[str]]:
    """Residues of symbols at the place t over base(t)."""
    rng = random.Random(seed)
    field = function_field(base_field)
    t = field.t
    failures: List[str] = []
    checked = 0
    for _ in range(samples):
        if isinstance(base_field, RationalField):
            # units at t: nonzero constant coefficient on both sides
            au = field.elem(random_rational(rng, 50))
            bu = field.elem(random_rational(rng, 50))
            a = au + t * field.elem(rng.randint(0, 5))
            b = bu + t * field.elem(rng.randint(0, 5))
        else:
            a = random_ratfun(rng, field, 2, unit_at_zero=True)
            b = random_ratfun(rng, field, 2, unit_at_zero=True)
        checked += 1
        kappa = base_field
        _, ra = valuation(a, t)
        _, rb = valuation(b, t)
        d1 = mw_delta(mw_mul(mw_symbol(field, [a]), mw_symbol(field, [t])), t)
        if not mw_equal(d1, mw_symbol(kappa, [ra])):
            failures.append(f"delta([a][t]) a={a!r}")
        d2 = mw_delta(mw_symbol(field, [a, b]), t)
        if not mw_is_zero(d2):
            failures.append(f"delta([a][b]) a={a!r} b={b!r}")
        d3 = mw_delta(gw_scale(mw_symbol(field, [a, b]), t), t)
        if not mw_equal(d3, eta_mul(mw_symbol(kappa, [ra, rb]))):
            failures.append(f"delta(<t>[a][b]) a={a!r} b={b!r}")
        d4 = mw_delta(mw_symbol(field, [a * a, t]), t)
        if not mw_equal(d4, mw_symbol(kappa, [ra * ra])):
            failures.append(f"delta([a^2][t]) a={a!r}")
    return checked, failures


# -- specialization suite ----------------------------------------------


def run_sv(q: int, samples: int, seed: int) -> Tuple[int, List[str]]:
    """S_v kills admissible five-terms; residue projection identities
    on every kernel generator."""
    rng = random.Random(seed)
    ctx = scissors_context(q)
    field = function_field(ctx.field)
    t = field.t
    failures: List[str] = []
    checked = 0
    attempts = 0
    while checked < samples and attempts < 100 * samples:
        attempts += 1
        c = [rng.randrange(q) for _ in range(4)]  # raw values of F_q
        x = field.elem(Poly(ctx.field, [c[0], c[1]]))
        y = field.elem(Poly(ctx.field, [c[2], c[3]]))
        try:
            if not five_term_admissible(field, x, y, t):
                continue
            rel = refined_five_term(field, x, y)
        except (DegenerateArguments, ZeroArgument):
            continue
        m0, m1 = sv_apply(rel, t)
        checked += 1
        if not (m0.is_zero() and m1.is_zero()):
            failures.append(f"five-term x={x!r} y={y!r}")

    rp1, rp1_incl = fp_kernel(ctx.maps()[0])
    s_const = ctx.field.nonsquare()
    for i in range(rp1.ngens):
        vec = rp1_incl.images.row(i)
        terms = []
        for j, n in enumerate(vec):
            if not n:
                continue
            g, idx = divmod(j, ctx.n_units)
            coeff = gr_int(field, n)
            if g:
                coeff = coeff * gr_unit(field, field.elem(s_const))
            terms.append((coeff, field.elem(ctx.units[idx])))
        lifted = RPElem(field, terms)
        if not sv_apply(lifted, t)[1].is_zero():
            failures.append(f"delta(iota(gen {i})) != 0")
        twisted = lifted.scale(gr_unit(field, t))
        if sv_apply(twisted, t)[1] != RPTildeElem(q, vec):
            failures.append(f"delta(<t>iota(gen {i})) mismatch")
    return checked, failures


# -- Witt structure suite ----------------------------------------------


def run_witt(q: int, samples: int, seed: int) -> Tuple[int, List[str]]:
    """Group structure, vanishing of I^2, and I^3 => zero sampling over
    the field and its rational function field."""
    rng = random.Random(seed)
    failures: List[str] = []
    base = finite_field(q)
    want = [4] if q % 4 == 3 else [2, 2]
    got = witt_group_structure(q)["invariant_factors"]
    if got != want:
        failures.append(f"W(F_{q}) factors {got}")
    if not i_square_is_zero(q):
        failures.append(f"I^2(F_{q}) != 0")
    checked = 2
    # a 3-fold Pfister form lies in I^3, which is zero over F_q, where the
    # counting oracle decides it too, and over F_q(t)
    table = _counting_table(q)
    K = function_field(base)
    units = [e for e in base.elements() if e]
    for _ in range(samples):
        slots_f = [units[rng.randrange(len(units))] for _ in range(3)]
        form = pfister_form(base, slots_f)
        checked += 1
        if not (witt_is_zero(form) and table.form_is_witt_zero(form)):
            failures.append(f"I^3(F_{q}) slots={slots_f!r}")
        slots_k = []
        while len(slots_k) < 3:
            cand = random_ratfun(rng, K, 2)
            if cand:
                slots_k.append(cand)
        form_k = pfister_form(K, slots_k)
        checked += 1
        if not witt_is_zero(form_k):
            failures.append(f"I^3(F_{q}(t)) slots={slots_k!r}")
    return checked, failures


# -- Hilbert reciprocity suite -----------------------------------------


def run_hilbert(samples: int, seed: int) -> Tuple[int, List[str]]:
    """Product of Hilbert symbols over all relevant places is 1."""
    rng = random.Random(seed)
    field = rationals()
    failures: List[str] = []
    checked = 0
    for _ in range(samples):
        a = field.elem(random_rational(rng, 999))
        b = field.elem(random_rational(rng, 999))
        checked += 1
        prod = 1
        for place in support_places(field, [a, b]):
            prod *= hilbert(a, b, place)
        if prod != 1:
            failures.append(f"a={a!r} b={b!r}")
    return checked, failures
