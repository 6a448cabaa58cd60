"""Counting braid axes of two-bridge links and GOF-knots in lens spaces.

A genus-one fibered knot in a lens space is the lift of a braid axis of a
closed 3-braid whose closure is the two-bridge branch link, so counting
GOF-knots in L(alpha, beta) is counting equivalence classes of 3-braid
representatives of b(alpha, beta).  The decision tree:

  * alpha = 0 (two-component unlink): one axis, witness sigma_2.
  * alpha = 1 (unknot): two axes, sigma_1 sigma_2 and sigma_1 sigma_2^-1.
  * beta = +-1 mod alpha (torus links): two axes, sigma_1^alpha sigma_2 and
    sigma_1^alpha sigma_2^-1, except alpha = 4 which picks up a third from
    the other orientation of b(4,1).
  * otherwise: one axis iff some odd member beta* of the mirror orbit solves
    a Murasugi braid-index-3 family,

        family one:  alpha = 2pq + p + q      beta* = 2q + 1
        family two:  alpha = 2pq + p + q + 1  beta* = 2q + 1

    with p, q >= 1, witnessed by the flype-type braids
    sigma_1^p sigma_2^2 sigma_1^q sigma_2^-1 (family one) and
    sigma_1^p sigma_2^2 sigma_1^-(q+1) sigma_2^-1 (family two).

No fraction ever yields more than three axes.  Closures of arbitrary words
are identified by computing the determinant |det(M - I)| and comparing the
conjugacy invariant of the word and of its mirror (exponent sum and SL2(Z)
class of the Burau image) with that of every witness with that determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Optional

from . import braid, cover, twobridge
from .braid import Word
from .twobridge import Fraction

FAMILY_ONE = "one"
FAMILY_TWO = "two"

TORUS_POSITIVE = "torus-positive"
TORUS_NEGATIVE = "torus-negative"
FLYPE_FAMILY = "flype-family"

# b(17,5) satisfies the braid-index-3 family condition, e.g. with
# (p, q) = (2, 3) at orbit member 7, so one GOF-knot is reported even though
# a contrary no-GOF-knot claim for L(17,5) circulates in the literature.
L17_5_NOTE = (
    "b(17,5): the braid-index-3 family condition holds ((p,q)=(2,3) at 7, "
    "(3,2) at 5), so the count is 1; a contrary claim that L(17,5) contains "
    "no GOF-knots appears in the literature and is not reproduced here."
)


@dataclass(frozen=True)
class FamilyParams:
    family: str  # FAMILY_ONE or FAMILY_TWO
    p: int
    q: int

    @property
    def alpha(self) -> int:
        base = 2 * self.p * self.q + self.p + self.q
        return base if self.family == FAMILY_ONE else base + 1

    @property
    def beta_star(self) -> int:
        return 2 * self.q + 1


@dataclass(frozen=True)
class Witness:
    word: Word
    kind: str  # TORUS_POSITIVE, TORUS_NEGATIVE or FLYPE_FAMILY
    family: Optional[FamilyParams] = None

    @property
    def label(self) -> str:
        if self.kind != FLYPE_FAMILY:
            return self.kind
        fp = self.family
        return f"{FLYPE_FAMILY}({fp.family},p={fp.p},q={fp.q})"


@dataclass(frozen=True)
class AxisReport:
    fraction: Fraction
    witnesses: tuple[Witness, ...]
    notes: tuple[str, ...] = ()

    @property
    def count(self) -> int:
        return len(self.witnesses)

    @property
    def family(self) -> Optional[FamilyParams]:
        for w in self.witnesses:
            if w.family is not None:
                return w.family
        return None


@dataclass(frozen=True)
class ClosureId:
    fraction: Fraction
    mirrored: bool
    matched_witness: Word


def family_membership(alpha: int, beta_star: int) -> Optional[FamilyParams]:
    """Solve alpha = 2pq + p + q (+1) with beta_star = 2q + 1, p, q >= 1."""
    if beta_star % 2 == 0:
        raise twobridge.OddFormRequiredError(
            f"family membership needs odd beta, got {beta_star}"
        )
    q = (beta_star - 1) // 2
    if q < 1:
        return None
    for family, shift in ((FAMILY_ONE, 0), (FAMILY_TWO, 1)):
        p, rem = divmod(alpha - q - shift, beta_star)
        if rem == 0 and p >= 1:
            return FamilyParams(family, p, q)
    return None


def family_witness(params: FamilyParams) -> Word:
    """The closed 3-braid representing the family link, determinant alpha."""
    q_block = params.q if params.family == FAMILY_ONE else -(params.q + 1)
    return _sig1(params.p) + (2, 2) + _sig1(q_block) + (-2,)


def flype_partner(params: FamilyParams) -> Word:
    """The flype mate of the witness: the sigma_2 blocks exchanged.

    An involution of the link swaps the two axes, so the partner never counts
    as a separate axis class, but it can be a distinct conjugacy class and is
    needed when recognising arbitrary representatives.
    """
    q_block = params.q if params.family == FAMILY_ONE else -(params.q + 1)
    return _sig1(params.p) + (-2,) + _sig1(q_block) + (2, 2)


def _sig1(k: int) -> Word:
    return (1,) * k if k >= 0 else (-1,) * (-k)


def _torus_pair(alpha: int) -> tuple[Witness, Witness]:
    return (
        Witness(_sig1(alpha) + (2,), TORUS_POSITIVE),
        Witness(_sig1(alpha) + (-2,), TORUS_NEGATIVE),
    )


def family_hits(alpha: int, orbit: frozenset[int]) -> list[FamilyParams]:
    """Family solutions over the odd orbit members, preferred hit first.

    All hits describe the same axis class, so the order only picks the
    printed witness: solutions with odd q come first (for odd alpha the two
    mates (p,q) and (q,p) split one odd, one even), then by orbit member.
    """
    hits = []
    for beta_star in sorted(b for b in orbit if b % 2 == 1):
        params = family_membership(alpha, beta_star)
        if params is not None:
            hits.append(params)
    hits.sort(key=lambda fp: (fp.q % 2 == 0, fp.beta_star))
    return hits


def _notes_for(f: Fraction) -> tuple[str, ...]:
    if (f.alpha, f.beta) == (17, 5):
        return (L17_5_NOTE,)
    return ()


def axis_classes(alpha: int, beta: int) -> AxisReport:
    """Classify the braid axes of b(alpha, beta) with explicit witnesses."""
    f = twobridge.canonical(alpha, beta)
    notes = _notes_for(f)
    if f.alpha == 0:
        return AxisReport(f, (Witness((2,), TORUS_POSITIVE),), notes)
    if f.alpha == 1:
        return AxisReport(f, (Witness((1, 2), TORUS_POSITIVE), Witness((1, -2), TORUS_NEGATIVE)), notes)
    if f.beta == 1:
        witnesses = _torus_pair(f.alpha)
        if f.alpha == 4:
            # the reversed orientation of b(4,1) is the Conway (1,2,1) link
            # and contributes its own axis; no other fraction does this
            extra = FamilyParams(FAMILY_ONE, 1, 1)
            witnesses = witnesses + (Witness(family_witness(extra), FLYPE_FAMILY, extra),)
        return AxisReport(f, witnesses, notes)
    hits = family_hits(f.alpha, twobridge.orbit(f.alpha, f.beta))
    if hits:
        chosen = hits[0]
        return AxisReport(f, (Witness(family_witness(chosen), FLYPE_FAMILY, chosen),), notes)
    return AxisReport(f, (), notes)


def gof_count(alpha: int, beta: int) -> AxisReport:
    """Number of GOF-knots in L(alpha, beta), with witness branch braids.

    Identical to axis_classes on the canonical fraction: the lens space is
    the double branched cover and the knots are the lifted axes.
    """
    return axis_classes(alpha, beta)


def canonical_fractions(alpha: int) -> Iterator[Fraction]:
    """Canonical fractions with the given alpha, in increasing beta order."""
    if alpha == 0:
        yield Fraction(0, 1)
        return
    if alpha == 1:
        yield Fraction(1, 1)
        return
    for beta in range(1, alpha // 2 + 1):
        if gcd(beta, alpha) != 1:
            continue
        f = twobridge.canonical(alpha, beta)
        if f.beta == beta:
            yield f


def identification_candidates(f: Fraction) -> Iterator[Witness]:
    """Every 3-braid representative of b(f), one per conjugacy class.

    Torus fractions contribute the two torus braids (plus the family braid
    and its flype partner for alpha = 4); family fractions contribute the
    witness and partner of every family hit over the orbit.
    """
    if f.alpha == 0 or f.alpha == 1:
        yield from axis_classes(f.alpha, f.beta).witnesses
        return
    if f.beta == 1:
        yield from _torus_pair(f.alpha)
        if f.alpha == 4:
            extra = FamilyParams(FAMILY_ONE, 1, 1)
            yield Witness(family_witness(extra), FLYPE_FAMILY, extra)
            yield Witness(flype_partner(extra), FLYPE_FAMILY, extra)
        return
    for params in family_hits(f.alpha, twobridge.orbit(f.alpha, f.beta)):
        yield Witness(family_witness(params), FLYPE_FAMILY, params)
        yield Witness(flype_partner(params), FLYPE_FAMILY, params)


def identify_closure(word: Word) -> Optional[ClosureId]:
    """Recognise the closure of a word as a two-bridge link, up to mirror.

    Computes alpha = |det(M - I)| and walks every witness of every canonical
    fraction with that determinant, returning the first one whose conjugacy
    class (braid.conjugacy_class) is that of the word or of its mirror.  None
    means the closure is not realised by any witness (it need not be
    two-bridge at all).
    """
    word = braid.check_word(word)
    alpha = cover.closure_determinant(word)
    targets = (
        (False, braid.conjugacy_class(word)),
        (True, braid.conjugacy_class(braid.mirror(word))),
    )
    for f in canonical_fractions(alpha):
        for witness in identification_candidates(f):
            key = braid.conjugacy_class(witness.word)
            for mirrored, target in targets:
                if key == target:
                    return ClosureId(f, mirrored, witness.word)
    return None
