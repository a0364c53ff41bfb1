"""Exception types raised by the library.

Every error the public API raises on bad input derives from ``KmwError``,
so callers (and the command-line tool) can distinguish domain errors from
genuine bugs.
"""


class KmwError(Exception):
    """Base class for all library-level errors."""


class BadText(KmwError, ValueError):
    """Text the library's readers do not accept: a field spec, element
    or bracket text, or a field order that is not an odd prime power.
    Also a ``ValueError``, so that callers catching that still do."""


# --- field arithmetic ---------------------------------------------------


class ZeroInversion(KmwError):
    """Attempted to invert (or divide by) zero in a field."""


class NonIrreducibleModulus(KmwError):
    """A polynomial offered as an extension modulus factors over its base."""


class ZeroArgument(KmwError):
    """An operation that needs nonzero input (square classes, symbols,
    valuations, Pfister slots) received zero."""


class ZeroPolynomial(KmwError):
    """Polynomial factorization of the zero polynomial is undefined."""


class InfinitePlace(KmwError):
    """A tame symbol was requested at a place with no residue reduction."""


# --- forms and symbols --------------------------------------------------


class MixedFields(KmwError):
    """Two operands live over different field handles."""


class ZeroEntry(ZeroArgument):
    """A diagonal form constructor received a zero diagonal entry, or a
    Pfister constructor a zero slot."""


class UnsupportedField(KmwError):
    """The requested invariant is not computable over this base field."""


class UnsupportedDegree(KmwError):
    """The requested operation has no complete decision procedure in this
    degree."""


class UnsupportedPlace(KmwError):
    """A residue map was requested at a place the element does not admit."""


class DegreeOverflow(KmwError):
    """A product would land in a symbol length the library does not carry."""


class BadBound(KmwError):
    """A prime bound must be an integer >= 2."""


class MissingBound(KmwError):
    """Reports over the rationals need an explicit prime bound."""


# --- presentations ------------------------------------------------------


class EvenQ(KmwError):
    """Scissors-congruence presentations require odd q."""


class TooSmallQ(KmwError):
    """The five-term presentation needs at least four field elements."""


class RelationNotKilled(KmwError):
    """A homomorphism candidate fails to annihilate a defining relation."""


class DegenerateArguments(KmwError):
    """The refined five-term relation needs x != y with both outside {0, 1}."""


class NonUnitArgument(KmwError):
    """A specialization at t was applied to a class whose argument is not
    a unit with unit co-argument at t."""


class IntegrityFailure(KmwError):
    """A structural identity the library guarantees failed to verify."""
