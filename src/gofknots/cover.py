"""Double branched cover arithmetic for closed 3-braids.

The reduced Burau representation specialised at -1 sends the 3-strand braid
group onto SL2(Z):

    sigma_1 -> [[1, 1], [0, 1]]      sigma_2 -> [[1, 0], [-1, 1]]

Both defining relations hold and the full twist (sigma_1 sigma_2)^3 maps to
-I, which pins the convention.  For a braid word w with image M, the number
|det(M - I)| is the determinant of the closure of w, hence the alpha of the
two-bridge link the closure realises; the Smith normal form of M - I gives
the first homology of the double cover of the 3-sphere branched over that
closure.

Powers have closed forms, sigma_1^k -> [[1, k], [0, 1]] and
sigma_2^k -> [[1, 0], [-k, 1]], so a word given as syllables (generator,
exponent) maps in one step per syllable, whatever its length in letters.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, NamedTuple


class InvalidSlopeError(ValueError):
    """Slope numerator and denominator are not coprime."""


class Matrix2(NamedTuple):
    a: int
    b: int
    c: int
    d: int

    def mul(self, other: "Matrix2") -> "Matrix2":
        e, f, g, h = other
        return Matrix2(
            self.a * e + self.b * g,
            self.a * f + self.b * h,
            self.c * e + self.d * g,
            self.c * f + self.d * h,
        )

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> int:
        return self.a + self.d


IDENTITY = Matrix2(1, 0, 0, 1)

BURAU_GEN = {
    1: Matrix2(1, 1, 0, 1),
    -1: Matrix2(1, -1, 0, 1),
    2: Matrix2(1, 0, -1, 1),
    -2: Matrix2(1, 0, 1, 1),
}


def burau_matrix(word: Iterable[int]) -> Matrix2:
    """Image of a braid word under reduced Burau at -1 (multiplicative)."""
    a, b, c, d = 1, 0, 0, 1
    for k in word:
        try:
            e, f, g, h = BURAU_GEN[k]
        except (KeyError, TypeError):
            raise ValueError(f"invalid braid letter {k!r}") from None
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return Matrix2(a, b, c, d)


def burau_syllables(syllables: Iterable[tuple[int, int]]) -> Matrix2:
    """burau_matrix of the word spelled by (generator, exponent) syllables.

    Multiplies the closed-form powers in word order; zero exponents and
    neighbouring syllables of one generator are allowed.
    """
    a, b, c, d = 1, 0, 0, 1
    for gen, k in syllables:
        if gen == 1:
            b, d = a * k + b, c * k + d
        elif gen == 2:
            a, c = a - b * k, c - d * k
        else:
            raise ValueError(f"invalid braid generator {gen!r}")
    return Matrix2(a, b, c, d)


def closure_determinant(word: Iterable[int]) -> int:
    """|det(M - I)|: the determinant of the closure of the braid."""
    m = burau_matrix(word)
    return abs((m.a - 1) * (m.d - 1) - m.b * m.c)


class HomologyClass(NamedTuple):
    """Invariant factors (d1, d2) with d1 | d2; 0 encodes an infinite factor."""

    invariant_factors: tuple[int, int]


def _smith_2x2(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    # determinantal divisors: d1 = gcd of entries, d1*d2 = |det|
    g = gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d)))
    det = abs(a * d - b * c)
    if g == 0:
        return (0, 0)
    if det == 0:
        return (g, 0)
    return (g, det // g)


def dbc_homology(word: Iterable[int]) -> HomologyClass:
    """First homology of the double cover branched over the closure."""
    m = burau_matrix(word)
    return HomologyClass(_smith_2x2(m.a - 1, m.b, m.c, m.d - 1))


class SlopeSpec(NamedTuple):
    """A lifted surgery slope: p/q upstairs, possibly two parallel curves."""

    numerator: int
    denominator: int
    curve_count: int


def lift_slope(p: int, q: int) -> SlopeSpec:
    """Lift a slope p/q on the braid axis to the cover.

    The lifted solid torus double covers the axis neighbourhood, so slopes
    double: odd q lifts to one curve of slope 2p/q, even q to two parallel
    curves of slope p/(q/2).
    """
    if q <= 0:
        raise InvalidSlopeError(f"denominator must be positive, got {q}")
    if gcd(abs(p), q) != 1:
        raise InvalidSlopeError(f"slope {p}/{q} is not reduced")
    if q % 2 == 1:
        return SlopeSpec(2 * p, q, 1)
    return SlopeSpec(p, q // 2, 2)
