"""The 3-strand braid group as a computational object.

Words are tuples of letters from {+1, -1, +2, -2}, where +-k stands for the
standard generator sigma_k or its inverse.  Every element has a unique left
weighted Garside normal form Delta^d s_1 ... s_l: Delta = sigma_1 sigma_2
sigma_1 is the half twist, and the s_i are the six permutation braids
{e, sigma_1, sigma_2, sigma_1 sigma_2, sigma_2 sigma_1, Delta} restricted to
exclude e and Delta, with each adjacent pair (s, t) left weighted (no
generator can move from the front of t to the end of s keeping both simple).
Normal forms solve the word problem.

B3 modulo its centre <Delta^2> is PSL2(Z) = Z/2 * Z/3, so every element is
Delta^d P with P a positive word containing no three letters `a b a` in a
row.  The normal form is computed from that in one pass over the letters,
with a stack and no tables; in this form the simples s_i are the alternating
runs of P, and a pair is left weighted exactly when the last letter of s is
the first letter of t.

A word can also be given as syllables, pairs (generator, exponent) standing
for sigma_g^e: the witness braids sigma_1^alpha sigma_2^+-1 have two
syllables for alpha + 1 letters.

Conjugacy is decided by Murasugi's classification of closed 3-braids: reduced
Burau at -1 maps B3 onto SL2(Z) with kernel <Delta^4>, and Delta^4 has
exponent sum 12, so two braids are conjugate exactly when their exponent sums
agree and their Burau images are conjugate in SL2(Z).  The SL2(Z) class is
read off the fixed-point quadratic form of the image, so the conjugacy class
of a syllable word costs one step per syllable.
"""

from __future__ import annotations

import itertools
import re
from math import gcd, isqrt
from typing import Iterable, NamedTuple

from .cover import Matrix2, burau_matrix, burau_syllables

Word = tuple[int, ...]
Syllable = tuple[int, int]  # (generator 1 or 2, exponent): sigma_g^e
Syllables = tuple[Syllable, ...]

LETTERS = (1, -1, 2, -2)

HALF_TWIST: Word = (1, 2, 1)           # Delta
FULL_TWIST: Word = (1, 2, 1, 1, 2, 1)  # Delta^2 = (sigma_1 sigma_2)^3, central


class BraidParseError(ValueError):
    """Input text is not a word in the braid grammar."""


# ---------------------------------------------------------------------------
# simples (indices 0..5)
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
_SIMPLE_OF = {w: s for s, w in SIMPLE_WORDS.items()}

# tau is conjugation by Delta; it swaps sigma_1 <-> sigma_2 and has order 2
_TAU = (E, S2, S1, S21, S12, DELTA)


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
    return " ".join(map(str, word))


class _Letters:
    """The letters of a syllable word, with their number as len()."""

    __slots__ = ("syllables",)

    def __init__(self, syllables: Iterable[Syllable]):
        self.syllables = tuple(syllables)

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def __iter__(self):
        return itertools.chain.from_iterable(itertools.repeat(g if e > 0 else -g, abs(e)) for g, e in self.syllables)


def expand(syllables: Iterable[Syllable]) -> Word:
    """The letters of a syllable word: (g, e) is |e| copies of sign(e) * g.

    tuple() takes its size from len(_Letters), so the word is allocated once
    at its final size.  A tuple grown from an iterator of unknown length is
    reallocated a quarter larger at a time; each step can copy the whole word
    and leave a freed block behind, and the peak memory of spelling out an
    O(alpha)-letter witness then depends on the allocator's earlier state.
    """
    return tuple(_Letters(syllables))


def format_syllables(syllables: Iterable[Syllable]) -> str:
    """format_word(expand(syllables)), built by repeating each letter's text."""
    return "".join([f"{g if e > 0 else -g} " * abs(e) for g, e in syllables])[:-1]


def exponent_sum(word: Word) -> int:
    return sum(1 if k > 0 else -1 for k in word)


def mirror(word: Word) -> Word:
    return tuple(-k for k in word)


def reverse(word: Word) -> Word:
    return tuple(reversed(word))


def invert(word: Word) -> Word:
    return tuple(-k for k in reversed(word))


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

class NormalForm(NamedTuple):
    """Left weighted form Delta^delta_power * factors, factors in {S1,S2,S12,S21}."""

    delta_power: int
    factors: tuple[int, ...]

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


def normal_form(word: Word) -> NormalForm:
    """The unique left weighted normal form of a word, in one pass.

    Every braid is Delta^d P for a unique d and a unique positive word P with
    no three letters `a b a` (a != b) in a row: no braid relation applies to
    such a word, so it is the only positive word of its element, and Delta
    does not divide it.  The letters go onto a stack that holds P:
    sigma_a^-1 = Delta^-1 sigma_a sigma_b, and a letter that completes `a b a`
    on top of the stack pops the two below it as one Delta.  Each Delta^+-1
    moves to the front, applying tau to the letters it passes; the stack is
    read through tau^flip, one parity bit, instead of being rewritten.  The
    simples of P are its alternating runs, cut between equal neighbours.
    """
    delta = flip = 0
    stack: list[int] = []
    for k in check_word(word):
        if k > 0:
            letters: Word = (k,)
        else:
            delta -= 1
            flip ^= 1
            letters = (-k, 3 + k)
        for g in letters:
            if flip:  # the stack holds tau^flip of the letters of P
                g = 3 - g
            if len(stack) > 1 and stack[-2] == g != stack[-1]:
                del stack[-2:]
                delta += 1
                flip ^= 1
            else:
                stack.append(g)
    factors: list[int] = []
    for i, g in enumerate(stack):
        if i and g != stack[i - 1]:
            factors[-1] = _SIMPLE_OF[stack[i - 1], g]
        else:
            factors.append(_SIMPLE_OF[(g,)])
    if flip:
        factors = [_TAU[f] for f in factors]
    return NormalForm(delta, tuple(factors))


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
    """A complete conjugacy invariant: (exponent sum, trace, form class)."""
    word = check_word(word)
    return _class_key(exponent_sum(word), burau_matrix(word))


def syllable_class(syllables: Syllables) -> tuple:
    """conjugacy_class of the word the syllables spell, from closed forms."""
    return _class_key(sum(e for _, e in syllables), burau_syllables(syllables))


def _class_key(exp_sum: int, m: Matrix2) -> tuple:
    """The conjugacy invariant of a braid with this exponent sum and Burau image m.

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
    trace = m.trace
    form = (m.c, m.d - m.a, -m.b)
    if abs(trace) == 2:
        content = gcd(gcd(form[0], form[1]), form[2])
        form_class = content if (form[0] or form[2]) >= 0 else -content
    elif abs(trace) < 2:
        form_class = 1 if form[0] > 0 else -1
    else:
        form_class = _least_in_cycle(form)
    return (exp_sum, trace, form_class)


def is_conjugate(w1: Word, w2: Word) -> bool:
    """Conjugacy decision: the two conjugacy_class invariants coincide."""
    return conjugacy_class(w1) == conjugacy_class(w2)
