"""Rabin's irreducibility test and the polynomial-power log tables, kept
as the oracles for the paths of ``kmw.fields`` that replaced them.

``rabin_is_irreducible`` decides irreducibility over F_Q by Frobenius
composition: x^(Q^d) = x mod f, and x^(Q^(d/r)) - x coprime to f for
every prime r | d (Rabin 1980).  ``kmw.fields.poly_is_irreducible`` reads
the distinct-degree factorization instead (Ben-Or's test).

``power_tables`` lists the generator's powers by one polynomial product
each, where ``kmw.fields`` builds them by F_p-linear lookups on base-p
digits, and derives the log and Zech tables from them in the same way.
"""

from kmw.fields import Poly, factor_int


def rabin_is_irreducible(f: Poly) -> bool:
    field = f.field
    d = f.degree()
    if d < 1:
        return False
    if d == 1:
        return True
    if f.coeffs[0] == field._zero_raw:
        return False  # divisible by x
    q = field.order
    x = Poly.x(field)
    frob = x.pow_mod(q**d, f)
    if frob != x % f:
        return False
    for r, _ in factor_int(d):
        g = x.pow_mod(q ** (d // r), f) - x
        if f.gcd(g).degree() != 0:
            return False
    return True


def power_tables(F) -> tuple[list, list, list]:
    """(exp, log, zech) of an extension, as ``FiniteField._tables``
    defines them, from polynomial powers of its generator."""
    g = F._generator
    powers = [1]
    for _ in range(F.order - 2):
        powers.append(F._poly_mul(powers[-1], g))
    log = [0] * F.order
    for n, a in enumerate(powers):
        log[a] = n
    zech = [log[b] if b else -1 for b in map(F._plus_one, powers)]
    return powers + powers, log, zech
