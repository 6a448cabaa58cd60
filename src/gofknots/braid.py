"""The 3-strand braid group as a computational object.

Words are tuples of letters from {+1, -1, +2, -2}, where +-k stands for the
standard generator sigma_k or its inverse.  Every element has a unique left
weighted Garside normal form Delta^d s_1 ... s_l: Delta = sigma_1 sigma_2
sigma_1 is the half twist, and the s_i are the six permutation braids
{e, sigma_1, sigma_2, sigma_1 sigma_2, sigma_2 sigma_1, Delta} restricted to
exclude e and Delta, with each adjacent pair (s, t) left weighted (no
generator can move from the front of t to the end of s keeping both simple).
Normal forms solve the word problem.

Conjugacy is decided by Murasugi's classification of closed 3-braids: reduced
Burau at -1 maps B3 onto SL2(Z) with kernel <Delta^4>, and Delta^4 has
exponent sum 12, so two braids are conjugate exactly when their exponent sums
agree and their Burau images are conjugate in SL2(Z).  The SL2(Z) class is
read off the fixed-point quadratic form of the image.

The six simples biject with the symmetric group S3, so all structural tables
(products, maximal transferable prefixes, the Delta-conjugation flip) are
computed here by brute force over S3 and asserted once at import.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterable

from .cover import burau_matrix

Word = tuple[int, ...]

LETTERS = (1, -1, 2, -2)

HALF_TWIST: Word = (1, 2, 1)           # Delta
FULL_TWIST: Word = (1, 2, 1, 1, 2, 1)  # Delta^2 = (sigma_1 sigma_2)^3, central


class BraidParseError(ValueError):
    """Input text is not a word in the braid grammar."""


# ---------------------------------------------------------------------------
# simples and their tables (indices 0..5)
# ---------------------------------------------------------------------------

E, S1, S2, S12, S21, DELTA = range(6)

SIMPLE_WORDS: dict[int, Word] = {
    E: (),
    S1: (1,),
    S2: (2,),
    S12: (1, 2),
    S21: (2, 1),
    DELTA: (1, 2, 1),
}

_GEN_PERM = {1: (1, 0, 2), 2: (0, 2, 1)}


def _compose(a, b):
    # strand starting at i ends at b[a[i]]: apply a, then b
    return (b[a[0]], b[a[1]], b[a[2]])


def _perm_inv(p):
    q = [0, 0, 0]
    for i, x in enumerate(p):
        q[x] = i
    return tuple(q)


def _inversions(p):
    return sum(1 for i, j in itertools.combinations(range(3), 2) if p[i] > p[j])


def _perm_of_word(word):
    p = (0, 1, 2)
    for k in word:
        p = _compose(p, _GEN_PERM[abs(k)])
    return p


_SIMPLE_PERM = {s: _perm_of_word(w) for s, w in SIMPLE_WORDS.items()}
_PERM_SIMPLE = {p: s for s, p in _SIMPLE_PERM.items()}
_LEN = {s: len(w) for s, w in SIMPLE_WORDS.items()}

# tau is conjugation by Delta; it swaps sigma_1 <-> sigma_2 and has order 2
_TAU = (E, S2, S1, S21, S12, DELTA)

# left complements: Delta = comp(s) * s, i.e. comp(s) = Delta * s^-1, so
# s^-1 = Delta^-1 * comp(s)
_LEFT_COMP = {}
for _s, _p in _SIMPLE_PERM.items():
    _c = _PERM_SIMPLE[_compose(_SIMPLE_PERM[DELTA], _perm_inv(_p))]
    assert _LEN[_c] + _LEN[_s] == 3
    assert _compose(_SIMPLE_PERM[_c], _p) == _SIMPLE_PERM[DELTA]
    _LEFT_COMP[_s] = _c

_NEG_LETTER = {1: _LEFT_COMP[S1], 2: _LEFT_COMP[S2]}


def _build_renorm():
    """For each pair (x, y), transfer the maximal simple prefix of y onto x.

    The transferable prefixes of y that keep x * u simple are closed under
    join, so there is a unique maximal one; the pair is left weighted exactly
    when that maximum is trivial, i.e. when the transfer leaves x unchanged.
    """
    renorm = [[None] * 6 for _ in range(6)]
    for x, y in itertools.product(range(6), range(6)):
        candidates = []
        for u in range(6):
            quot = _compose(_perm_inv(_SIMPLE_PERM[u]), _SIMPLE_PERM[y])
            if _inversions(quot) != _LEN[y] - _LEN[u]:
                continue  # u is not a prefix of y
            prod = _compose(_SIMPLE_PERM[x], _SIMPLE_PERM[u])
            if _inversions(prod) != _LEN[x] + _LEN[u]:
                continue  # x * u is not simple
            candidates.append((u, _PERM_SIMPLE[prod], _PERM_SIMPLE[quot]))
        top = max(_LEN[u] for u, _, _ in candidates)
        best = [c for c in candidates if _LEN[c[0]] == top]
        assert len(best) == 1, f"maximal transfer not unique for pair ({x}, {y})"
        u, xu, quot = best[0]
        renorm[x][y] = (xu, quot)
    return tuple(map(tuple, renorm))


_RENORM = _build_renorm()

# tau commutes with renormalisation (needed for moving Delta powers around)
for _x, _y in itertools.product(range(6), range(6)):
    _a, _b = _RENORM[_x][_y]
    assert _RENORM[_TAU[_x]][_TAU[_y]] == (_TAU[_a], _TAU[_b])


# ---------------------------------------------------------------------------
# word-level operations
# ---------------------------------------------------------------------------

def check_word(word: Iterable[int]) -> Word:
    w = tuple(word)
    for k in w:
        if k not in (1, -1, 2, -2):
            raise BraidParseError(f"invalid braid letter {k!r}")
    return w


_LETTER_RE = re.compile(r"-?\d+")


def parse_word(text: str) -> Word:
    """Parse the braid grammar: integers in {+-1, +-2} separated by one or
    more spaces or a single comma, with no trailing separators."""
    if text == "":
        return ()
    letters = []
    i, n = 0, len(text)
    while True:
        m = _LETTER_RE.match(text, i)
        if m is None:
            raise BraidParseError(f"expected a braid letter at position {i} in {text!r}")
        if m.group() not in ("1", "-1", "2", "-2"):
            raise BraidParseError(f"invalid letter {m.group()!r} at position {i}")
        letters.append(int(m.group()))
        i = m.end()
        if i == n:
            return tuple(letters)
        if text[i] == ",":
            i += 1
        elif text[i] == " ":
            while i < n and text[i] == " ":
                i += 1
        else:
            raise BraidParseError(f"invalid separator {text[i]!r} at position {i}")
        if i == n:
            raise BraidParseError(f"trailing separator at end of {text!r}")


def format_word(word: Word) -> str:
    return " ".join(str(k) for k in word)


def exponent_sum(word: Word) -> int:
    return sum(1 if k > 0 else -1 for k in word)


def mirror(word: Word) -> Word:
    return tuple(-k for k in word)


def reverse(word: Word) -> Word:
    return tuple(reversed(word))


def invert(word: Word) -> Word:
    return tuple(-k for k in reversed(word))


def concat(w1: Word, w2: Word) -> Word:
    return tuple(w1) + tuple(w2)


def conjugate_by(word: Word, u: Word) -> Word:
    """u * word * u^-1."""
    return tuple(u) + tuple(word) + invert(u)


def surgery_twist(word: Word, n: int) -> Word:
    """Append 2n full twists, left handed for n > 0 and right handed for n < 0.

    This is the braid-level effect of a 1/n surgery on the lifted braid axis;
    the exponent sum changes by -12n.
    """
    if n >= 0:
        return tuple(word) + (-2, -1) * (6 * n)
    return tuple(word) + (1, 2) * (-6 * n)


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalForm:
    """Left weighted form Delta^delta_power * factors, factors in {S1,S2,S12,S21}."""

    delta_power: int
    factors: tuple[int, ...]

    @property
    def exponent_sum(self) -> int:
        return 3 * self.delta_power + sum(_LEN[f] for f in self.factors)

    def factor_words(self) -> tuple[Word, ...]:
        return tuple(SIMPLE_WORDS[f] for f in self.factors)

    def to_word(self) -> Word:
        delta = HALF_TWIST if self.delta_power >= 0 else invert(HALF_TWIST)
        out: list[int] = []
        for _ in range(abs(self.delta_power)):
            out.extend(delta)
        for f in self.factors:
            out.extend(SIMPLE_WORDS[f])
        return tuple(out)

    def tau(self) -> "NormalForm":
        """Conjugate by Delta: swap sigma_1 <-> sigma_2 in every factor."""
        return NormalForm(self.delta_power, tuple(_TAU[f] for f in self.factors))


def _strip(factors: list[int]) -> tuple[int, tuple[int, ...]]:
    lo, hi = 0, len(factors)
    while lo < hi and factors[lo] == DELTA:
        lo += 1
    while lo < hi and factors[hi - 1] == E:
        hi -= 1
    return lo, tuple(factors[lo:hi])


def _normalize_factors(factors: list[int]) -> tuple[int, tuple[int, ...]]:
    """Left weight an arbitrary factor sequence by local transfers.

    Each transfer strictly moves letter weight to the left, so iterating to a
    fixpoint terminates; at the fixpoint Deltas sit at the front and trivial
    factors at the back, where _strip removes them.
    """
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            na, nb = _RENORM[a][b]
            if na != a:
                factors[i], factors[i + 1] = na, nb
                changed = True
    return _strip(factors)


def normal_form(word: Word) -> NormalForm:
    """The unique left weighted normal form of a word."""
    factors: list[int] = []
    shifts: list[int] = []
    for k in check_word(word):
        if k > 0:
            factors.append(S1 if k == 1 else S2)
            shifts.append(0)
        else:
            factors.append(_NEG_LETTER[-k])
            shifts.append(-1)
    # every Delta^-1 moves to the front, twisting the factors it passes
    suffix = 0
    for j in range(len(factors) - 1, -1, -1):
        if suffix % 2:
            factors[j] = _TAU[factors[j]]
        suffix += shifts[j]
    carry, normalized = _normalize_factors(factors)
    return NormalForm(sum(shifts) + carry, normalized)


def is_equal(w1: Word, w2: Word) -> bool:
    """Word problem: equal in the group iff the normal forms coincide."""
    return normal_form(w1) == normal_form(w2)


# ---------------------------------------------------------------------------
# conjugacy via the SL2(Z) class of the Burau image
# ---------------------------------------------------------------------------

def _rho(form: tuple[int, int, int], disc: int, root: int) -> tuple[int, int, int]:
    """Gauss reduction step (a, b, c) -> (c, b', (b'^2 - disc) / 4c), where
    b' = -b mod 2|c| lies in (-|c|, |c|] if |c| > sqrt(disc), and in
    (sqrt(disc) - 2|c|, sqrt(disc)) otherwise."""
    _, b, c = form
    top = max(abs(c), root)
    b2 = top - (top + b) % (2 * abs(c))
    return (c, b2, (b2 * b2 - disc) // (4 * c))


def _least_in_cycle(form: tuple[int, int, int]) -> tuple[int, int, int]:
    """The least form of the reduction cycle of an indefinite form whose
    discriminant is not a square; properly equivalent forms share the cycle."""
    a, b, c = form
    disc = b * b - 4 * a * c
    root = isqrt(disc)
    while not (0 < b <= root and root - b < 2 * abs(a) <= root + b):
        a, b, c = form = _rho(form, disc, root)
    least = start = form
    form = _rho(start, disc, root)
    while form != start:
        least = min(least, form)
        form = _rho(form, disc, root)
    return least


def conjugacy_class(word: Word) -> tuple:
    """A complete conjugacy invariant: (exponent sum, trace, form class).

    Conjugating the Burau image M = [[a, b], [c, d]] by U in SL2(Z) moves its
    fixed-point form (c, d - a, -b), of discriminant trace^2 - 4, by the
    proper equivalence U^-1, and the trace and the form give M back, so the
    SL2(Z) class of M is its trace with the proper class of the form:

      * |trace| = 2: every form is k (p x + q y)^2, classified by the signed
        content k; M = +-I gives the zero form;
      * |trace| < 2: the form is definite of discriminant -3 or -4, which
        have one proper class of each sign, so the sign is the class;
      * |trace| >= 3: trace^2 - 4 is not a square; the least form in the
        reduction cycle, which carries the content.
    """
    word = check_word(word)
    m = burau_matrix(word)
    trace = m.trace
    form = (m.c, m.d - m.a, -m.b)
    if abs(trace) == 2:
        content = gcd(gcd(form[0], form[1]), form[2])
        form_class = content if (form[0] or form[2]) >= 0 else -content
    elif abs(trace) < 2:
        form_class = 1 if form[0] > 0 else -1
    else:
        form_class = _least_in_cycle(form)
    return (exponent_sum(word), trace, form_class)


def is_conjugate(w1: Word, w2: Word) -> bool:
    """Conjugacy decision: the two conjugacy_class invariants coincide."""
    return conjugacy_class(w1) == conjugacy_class(w2)
