"""Assembled descriptions of SL_2 homology over Laurent rings.

Each report is a ``GroupDescriptor`` mixing exactly computed factors
(free rank, cyclic invariant factors) with symbolic factors quoted from
the literature.  Computed parts carry provenance handles naming the
library operation that produced them; ``verify_descriptor`` re-executes
every handle and compares.

The homology decompositions assembled here require an infinite base
field, so finite-field reports are tagged as formal functor evaluations
rather than homology claims.
"""

from __future__ import annotations

from typing import Optional

from .descriptor import GroupDescriptor, Provenance, SymbolicFactor
from .errors import BadBound, MissingBound, UnsupportedDegree, UnsupportedField
from .exact_linear import odd_part_int
from .fields import FiniteField, RationalField, _primes_upto, rationals
from .group_ring import pfister_form
from .milnor_witt import k1_finite_order, k2_finite_vanishing, mw_descriptor
from .scissors import derived_groups
from .witt import i_square_is_zero, in_i_power, signature

FORMAL_TAG = "formal functor evaluation"


def _group_factors(g) -> dict:
    return {"free": g.free_rank, "cyclic": list(g.invariant_factors)}


def h2_laurent_report(field, prime_bound: Optional[int] = None) -> GroupDescriptor:
    """Degree-2 homology of SL_2 of the Laurent ring over the field,
    truncated at a prime bound when the field is Q; over F_q a bound is
    invalid input."""
    if isinstance(field, RationalField):
        if prime_bound is None:
            raise MissingBound("the rational report needs a prime bound")
        primes = _primes_upto(prime_bound)
        odd_primes = [p for p in primes if p % 2]
        cyclic = []
        for p in odd_primes:
            cyclic.extend([p - 1, 2])
        mw2 = mw_descriptor(field, 2, prime_bound)
        mw1 = mw_descriptor(field, 1, prime_bound)
        return GroupDescriptor(
            label="H_2(SL_2(Q[t,1/t]))",
            free_rank=1 + len(primes),
            cyclic_factors=cyclic,
            provenance=tuple(mw2.provenance) + tuple(mw1.provenance),
            trunc_bound=prime_bound,
        )
    if isinstance(field, FiniteField):
        if prime_bound is not None:
            raise BadBound("a prime bound applies over Q only")
        q = field.order
        return GroupDescriptor(
            label=f"H_2(SL_2(F_{q}[t,1/t])) [{FORMAL_TAG}]",
            free_rank=0,
            cyclic_factors=[q - 1],
            provenance=[
                Provenance("k2mw_finite_vanishing", {"q": q}, {"free": 0, "cyclic": []}),
                Provenance("i_square_zero", {"q": q}, {"free": 0, "cyclic": []}),
                Provenance("k1mw_finite", {"q": q}, {"free": 0, "cyclic": [q - 1]}),
            ],
        )
    raise UnsupportedField("reports cover the rationals and finite fields")


def h3_laurent_report(field, prime_bound: Optional[int] = None) -> GroupDescriptor:
    """Degree-3 homology with 2 inverted: base-field part plus the
    refined scissors kernel; over Q the kernel part is known only
    through per-prime lower bounds."""
    if isinstance(field, FiniteField):
        if prime_bound is not None:
            raise BadBound("a prime bound applies over Q only")
        q = field.order
        d = derived_groups(q)
        half = d["half_RP1"]
        return GroupDescriptor(
            label=f"1/2 H_3(SL_2(F_{q}[t,1/t])) [{FORMAL_TAG}]",
            free_rank=half.free_rank,
            cyclic_factors=half.invariant_factors,
            symbolic_factors=[
                SymbolicFactor(
                    f"1/2 H_3(SL_2(F_{q}))",
                    cite="inert base-field summand of the decomposition",
                )
            ],
            provenance=[
                Provenance("half_rp1", {"q": q}, _group_factors(half)),
                Provenance("rblker", {"q": q}, _group_factors(d["rblker"])),
            ],
        )
    if isinstance(field, RationalField):
        if prime_bound is None:
            raise MissingBound("the rational report needs a prime bound")
        if not isinstance(prime_bound, int) or prime_bound < 2:
            raise BadBound("the prime bound must be an integer >= 2")
        primes = _primes_upto(prime_bound)
        cyclic = []
        provenance = []
        for p in primes:
            v = odd_part_int(p + 1)
            cyclic.append(v)
            provenance.append(
                Provenance("odd_part_of_integer", {"n": p + 1}, {"free": 0, "cyclic": [v]})
            )
        return GroupDescriptor(
            label="1/2 H_3(SL_2(Q[t,1/t])) [residue torsion is a lower bound]",
            free_rank=0,
            cyclic_factors=cyclic,
            symbolic_factors=[
                SymbolicFactor(
                    "1/2 K_3^ind(Q)",
                    cite="indecomposable K_3 of Q is cyclic of order 24",
                    order=3,
                ),
                SymbolicFactor(
                    "torsion of 1/2 P(Q)",
                    cite="the rational scissors group is Z/6 plus a free part",
                    order=3,
                ),
                SymbolicFactor(
                    "V",
                    cite="free abelian of countably infinite rank",
                ),
            ],
            provenance=provenance,
            trunc_bound=prime_bound,
        )
    raise UnsupportedField("reports cover the rationals and finite fields")


def stabilization_report(field, degree: int) -> GroupDescriptor:
    """Kernel of the stabilization map in the given homology degree;
    in degree 3 the (symbolic) cokernel summands are carried alongside."""
    if degree not in (2, 3):
        raise UnsupportedDegree("stabilization is described in degrees 2 and 3")
    if isinstance(field, FiniteField):
        q = field.order
        if degree == 2:
            # I^3 + I^2 both vanish, so the kernel is exactly zero
            return GroupDescriptor(
                label=f"stabilization kernel, degree 2, F_{q} [{FORMAL_TAG}]",
                provenance=[
                    Provenance("i_square_zero", {"q": q}, {"free": 0, "cyclic": []})
                ],
            )
        d = derived_groups(q)
        half = d["half_RP1"]
        return GroupDescriptor(
            label=f"stabilization kernel, degree 3, F_{q} [{FORMAL_TAG}; cokernel vanishes]",
            free_rank=half.free_rank,
            cyclic_factors=half.invariant_factors,
            provenance=[
                Provenance("rblker", {"q": q}, _group_factors(d["rblker"])),
                Provenance("half_rp1", {"q": q}, _group_factors(half)),
                Provenance("k2mw_finite_vanishing", {"q": q}, {"free": 0, "cyclic": []}),
            ],
        )
    if isinstance(field, RationalField):
        if degree == 2:
            return GroupDescriptor(
                label="stabilization kernel, degree 2, Q",
                free_rank=1,
                symbolic_factors=[
                    SymbolicFactor(
                        "I^2(Q)",
                        cite="square of the fundamental ideal, not finitely generated",
                    )
                ],
                provenance=[
                    Provenance("i3_rationals_signature", {}, {"free": 1, "cyclic": []})
                ],
            )
        return GroupDescriptor(
            label="stabilization, degree 3, Q",
            symbolic_factors=[
                SymbolicFactor(
                    "1/2 rblker(Q)",
                    cite="surjects onto the residue scissors groups; injectivity open",
                ),
                SymbolicFactor(
                    "1/2 RP_1(Q)",
                    cite="refined kernel over an infinite field",
                ),
                SymbolicFactor(
                    "cokernel 1/2 K_3^M(Q)",
                    cite="Milnor K_3 summand of the stabilization cokernel",
                ),
                SymbolicFactor(
                    "cokernel 1/2 K_2^M(Q)",
                    cite="Milnor K_2 summand of the stabilization cokernel",
                ),
            ],
        )
    raise UnsupportedField("reports cover the rationals and finite fields")


# -- provenance re-execution -------------------------------------------


def _factors_match(p: Provenance, free: int, cyclic) -> bool:
    return p.factors["free"] == int(free) and p.factors["cyclic"] == [int(c) for c in cyclic]


def _verify_provenance(p: Provenance) -> bool:
    op, args = p.op, p.args
    if op == "half_rp1":
        g = derived_groups(args["q"])["half_RP1"]
        return _factors_match(p, g.free_rank, g.invariant_factors)
    if op == "rblker":
        g = derived_groups(args["q"])["rblker"]
        return _factors_match(p, g.free_rank, g.invariant_factors)
    if op == "mw_descriptor":
        d = mw_descriptor(rationals(), args["n"], args["bound"])
        return _factors_match(p, d.free_rank, d.cyclic_factors)
    if op == "k2mw_finite_vanishing":
        return k2_finite_vanishing(args["q"]) and _factors_match(p, 0, [])
    if op == "k1mw_finite":
        return _factors_match(p, 0, [k1_finite_order(args["q"])])
    if op == "i_square_zero":
        return i_square_is_zero(args["q"]) and _factors_match(p, 0, [])
    if op == "i3_rationals_signature":
        field = rationals()
        gen = pfister_form(field, [field.elem(-1)] * 3)
        return in_i_power(gen, 3) and signature(gen) == -8 and _factors_match(p, 1, [])
    if op == "odd_part_of_integer":
        return _factors_match(p, 0, [odd_part_int(args["n"])])
    return False


def verify_descriptor(desc: GroupDescriptor) -> bool:
    """Re-execute every provenance handle of a descriptor and compare
    against the recorded factors."""
    return all(_verify_provenance(p) for p in desc.provenance)
