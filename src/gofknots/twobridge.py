"""Exact arithmetic on two-bridge fractions b(alpha, beta).

A two-bridge link is determined by its Schubert fraction alpha/beta with
gcd(alpha, beta) = 1.  Unoriented links are insensitive to inverting beta
mod alpha, and taking mirrors negates beta; orienting the link refines both
relations to work mod 2*alpha, where the odd representative of beta is the
meaningful one.  Everything here is integer arithmetic, no floats anywhere.

Conventions: alpha = 0 is the two-component unlink b(0,1), alpha = 1 the
unknot b(1,1), and a negative alpha input is read as the mirror (|alpha|,
-beta).  The canonical representative of an unoriented link is the fraction
(alpha, beta) with beta the minimum of {+-beta^{+-1} mod alpha} in
[1, alpha-1].
"""

from __future__ import annotations

import math
from typing import NamedTuple


class InvalidFractionError(ValueError):
    """alpha, beta do not describe a two-bridge link (gcd rule violated)."""


class OddFormRequiredError(ValueError):
    """An oriented operation was given an even beta (no odd normal form)."""


class DegenerateContinuedFractionError(ValueError):
    """A continued fraction evaluation hit a zero denominator."""


class _FractionFields(NamedTuple):
    alpha: int
    beta: int


class Fraction(_FractionFields):
    """A validated (not necessarily canonical) two-bridge fraction."""

    __slots__ = ()

    def __new__(cls, alpha: int, beta: int) -> "Fraction":
        self = tuple.__new__(cls, (alpha, beta))
        self.__post_init__()
        return self

    def __post_init__(self):
        _check(self.alpha, self.beta)

    @classmethod
    def _make(cls, iterable) -> "Fraction":
        # the NamedTuple _make, and _replace through it, would skip the check
        return cls(*iterable)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.alpha, self.beta)

    def canonical(self) -> "Fraction":
        return canonical(self.alpha, self.beta)


def _check(alpha: int, beta: int) -> None:
    if alpha < 0:
        raise InvalidFractionError(f"alpha must be non-negative, got {alpha}")
    # gcd(0, x) = |x|, so alpha = 0 forces beta = +-1
    if math.gcd(alpha, abs(beta)) != 1:
        raise InvalidFractionError(f"gcd({alpha}, {beta}) != 1: not a two-bridge fraction")


def _trusted(alpha: int, beta: int) -> Fraction:
    """A Fraction whose gcd the caller has already checked; skips __post_init__.

    Builds the tuple that Fraction.__new__ builds, without the check, so the
    result compares, hashes and orders like Fraction(alpha, beta) and still
    refuses assignment.
    """
    return tuple.__new__(Fraction, (alpha, beta))


def _as_fraction(f) -> Fraction:
    if isinstance(f, Fraction):
        return f
    a, b = f
    return Fraction(a, b)


def canonical(alpha: int, beta: int) -> Fraction:
    """Canonical unoriented mirror-identified form of b(alpha, beta).

    Negative alpha is treated as the mirror (|alpha|, -beta).  For alpha >= 2
    the result has beta equal to the minimum of {+-beta^{+-1} mod alpha};
    alpha in {0, 1} collapses to (0, 1) and (1, 1).  Idempotent.
    """
    if alpha < 0:
        alpha, beta = -alpha, -beta
    if alpha == 0:
        if abs(beta) != 1:
            raise InvalidFractionError(f"(0, {beta}) is invalid: beta must be +-1")
        return _trusted(0, 1)
    if alpha == 1:
        return _trusted(1, 1)
    b = beta % alpha
    try:
        inv = pow(b, -1, alpha)  # raises exactly when gcd(alpha, b) != 1
    except ValueError:
        raise InvalidFractionError(f"gcd({alpha}, {beta}) != 1: not a two-bridge fraction") from None
    return _trusted(alpha, min(b, inv, alpha - b, alpha - inv))


def orbit(alpha: int, beta: int, oriented: bool = False, mirror: bool = True) -> frozenset[int]:
    """Equivalence orbit of beta: mod alpha unoriented, mod 2*alpha oriented.

    Inversion is always applied; negation only when ``mirror`` is set.
    Oriented orbits require odd beta (the odd Schubert normal form is the
    only one the mod-2*alpha relation is defined for).
    """
    _check(alpha, beta)
    if oriented and beta % 2 == 0:
        raise OddFormRequiredError(f"oriented orbit needs odd beta, got ({alpha}, {beta})")
    if alpha == 0:
        return frozenset({1})
    m = 2 * alpha if oriented else alpha
    b = beta % m
    inv = pow(b, -1, m)
    members = {b, inv}
    if mirror:
        members.update({(-b) % m, (-inv) % m})
    return frozenset(members)


def equivalent(f1, f2, oriented: bool = False, mirror: bool = True) -> bool:
    """Whether two fractions name the same link under the selected relation."""
    f1, f2 = _as_fraction(f1), _as_fraction(f2)
    if oriented and (f1.beta % 2 == 0 or f2.beta % 2 == 0):
        raise OddFormRequiredError("oriented comparison needs both betas odd")
    if f1.alpha != f2.alpha:
        return False
    if f1.alpha == 0:
        return True
    m = 2 * f1.alpha if oriented else f1.alpha
    return (f2.beta % m) in orbit(f1.alpha, f1.beta, oriented, mirror)


class OrientationClass(NamedTuple):
    """An orientation class of b(alpha, beta): odd representatives mod 2*alpha.

    ``reps`` is closed under x -> x^{-1} and x -> -x mod 2*alpha, so it has at
    most four members.  alpha = 0 uses the degenerate singleton {1}.
    """

    alpha: int
    reps: frozenset[int]


def orientation_classes(f) -> tuple[OrientationClass, ...]:
    """Orientation classes of the canonical fraction, mirror-identified.

    Each class is the oriented orbit of an odd form of beta.  Knots (alpha
    odd) and the degenerate alpha in {0, 1} have one class.  A
    two-component link (alpha even >= 2) has candidate generators beta and
    beta + alpha mod 2*alpha; one class is returned when their orbits agree,
    otherwise two.
    """
    f = _as_fraction(f).canonical()
    odd = f.beta if f.beta % 2 == 1 else f.beta + f.alpha
    first = OrientationClass(f.alpha, orbit(f.alpha, odd, oriented=True))
    if f.alpha % 2 == 1 or f.alpha == 0:
        return (first,)
    # the class of beta + alpha is the first shifted by alpha: for alpha even
    # and b odd, (b + alpha)(b^-1 + alpha) = 1 and -(b + alpha) = -b + alpha
    # mod 2*alpha
    m = 2 * f.alpha
    second = OrientationClass(f.alpha, frozenset([(x + f.alpha) % m for x in first.reps]))
    if first.reps == second.reps:
        return (first,)
    return (first, second)


def cf_to_fraction(digits) -> tuple[tuple[int, int], Fraction]:
    """Evaluate Conway digits d1 + 1/(d2 + 1/(... + 1/dk)).

    Returns the raw (possibly negative, unnormalized) pair together with the
    canonical fraction.  Digits must be nonzero; a partial evaluation of 0 in
    denominator position is rejected.
    """
    digits = tuple(digits)
    if not digits or any(d == 0 for d in digits):
        raise DegenerateContinuedFractionError(f"digits must be nonzero, got {digits}")
    num, den = digits[-1], 1
    for d in reversed(digits[:-1]):
        if num == 0:
            raise DegenerateContinuedFractionError(
                f"partial evaluation of {digits} divides by zero"
            )
        num, den = d * num + den, num
    return (num, den), canonical(num, den)

