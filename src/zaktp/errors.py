"""Exception hierarchy for the zaktp library.

Every domain error raised by the library derives from :class:`ZakTPError`,
so callers (and the CLI) can distinguish invalid-input conditions from bugs.
"""


class ZakTPError(Exception):
    """Base class for all domain errors raised by zaktp."""


class EmptyInput(ZakTPError):
    """An empty weight sequence was supplied."""


class ZeroWeight(ZakTPError):
    """A weight is zero or indistinguishable from zero at the coalescing tolerance."""


class IllConditioned(ZakTPError):
    """A coefficient solve failed its residual check (weights too close without coalescing)."""


class StripViolation(ZakTPError):
    """A complex frequency lies outside the strip of convergence |tau| < a0/(2*pi)."""


class PoleHit(ZakTPError):
    """A prefactor denominator of the Zak factorization is numerically zero."""


class NoZero(ZakTPError):
    """No sign change of Z(., 1/2) was found (e.g. type-1 windows are positive there)."""


class MultipleZeros(ZakTPError):
    """More than one zero bracket per period survived; surfaced, never hidden."""


class NotUnitMonotone(ZakTPError):
    """No offset makes the sampled slice monotone on consecutive unit intervals."""


class SigmaTooLarge(ZakTPError):
    """The weight exponent sigma must stay strictly below a0."""


class Indivisible(ZakTPError):
    """The discrete lattice parameter M must divide the period K."""
