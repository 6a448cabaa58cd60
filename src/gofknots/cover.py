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


class Matrix2(NamedTuple):
    a: int
    b: int
    c: int
    d: int

    @property
    def trace(self) -> int:
        return self.a + self.d


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


def _smith_2x2(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    # determinantal divisors: d1 = gcd of entries, d1*d2 = |det|
    g = gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d)))
    det = abs(a * d - b * c)
    if g == 0:
        return (0, 0)
    if det == 0:
        return (g, 0)
    return (g, det // g)


def dbc_homology(word: Iterable[int]) -> tuple[int, int]:
    """First homology of the double cover branched over the closure, as its
    invariant factors (d1, d2) with d1 | d2; 0 encodes an infinite factor."""
    m = burau_matrix(word)
    return _smith_2x2(m.a - 1, m.b, m.c, m.d - 1)
