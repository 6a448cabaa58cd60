"""Counting braid axes of two-bridge links and GOF-knots in lens spaces.

A genus-one fibered knot in a lens space is the lift of a braid axis of a
closed 3-braid whose closure is the two-bridge branch link, so counting
GOF-knots in L(alpha, beta) is counting equivalence classes of 3-braid
representatives of b(alpha, beta).  The decision tree:

  * alpha = 0 (two-component unlink): one axis, witness sigma_2.
  * beta = +-1 mod alpha (torus links, and the unknot at alpha = 1): two
    axes, sigma_1^alpha sigma_2 and sigma_1^alpha sigma_2^-1.
  * plus, at every alpha > 0, one axis iff some odd member beta* of the
    mirror orbit solves a Murasugi braid-index-3 family,

        family one:  alpha = 2pq + p + q      beta* = 2q + 1
        family two:  alpha = 2pq + p + q + 1  beta* = 2q + 1

    with p, q >= 1, witnessed by the flype-type braids
    sigma_1^p sigma_2^2 sigma_1^q sigma_2^-1 (family one) and
    sigma_1^p sigma_2^2 sigma_1^-(q+1) sigma_2^-1 (family two).

The rules meet only at (4,1) (see _report), the one fraction with three
axes.  _report(f) walks the tree from the canonical fraction alone, so
every caller gets the same answer.
Witnesses are held as syllables, ((1, alpha), (2, 1)) for sigma_1^alpha
sigma_2, so a report costs the same at every alpha; Witness.word spells the
letters out on each access.

The census lists every canonical fraction up to a bound one alpha at a time
(census_by_alpha).  The canonical betas of alpha come from a sieve over
1..alpha // 2.  Only the axis betas of alpha (_axis_betas: 1 and the
canonical betas of the odd divisors of 2*alpha +- 1) reach _report: by the
tree above every other fraction has count 0.

The closure of a word is identified by its conjugacy invariant and its
mirror's (exponent sum e and SL2(Z) class of the Burau image M), which give
its determinant alpha = |det(M - I)| = |2 - trace M|.  A family witness has
e = p + q + 1 and trace 2 - alpha (family one) or e = p - q and trace
2 + alpha (family two), so (p, q) is solved from e with no factoring.  The
word is compared with the 3-braids of (alpha, 1) and of that fraction only,
whose invariants come from their syllables (braid.syllable_class).
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Iterator, NamedTuple, Optional

from . import braid, twobridge
from .braid import Syllables, Word
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


class FamilyParams(NamedTuple):
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


class Witness(NamedTuple):
    # nonzero exponents and neighbours of distinct generators, so that equal
    # braid words give equal witnesses
    syllables: Syllables
    kind: str  # TORUS_POSITIVE, TORUS_NEGATIVE or FLYPE_FAMILY
    family: Optional[FamilyParams] = None

    @property
    def word(self) -> Word:
        """The braid as letters, built anew on each access: a torus witness
        has alpha + 1 of them, so none is kept."""
        return braid.expand(self.syllables)

    @property
    def label(self) -> str:
        if self.kind != FLYPE_FAMILY:
            return self.kind
        fp = self.family
        return f"{FLYPE_FAMILY}({fp.family},p={fp.p},q={fp.q})"


class AxisReport(NamedTuple):
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


class ClosureId(NamedTuple):
    fraction: Fraction
    mirrored: bool
    matched_syllables: Syllables

    @property
    def matched_witness(self) -> Word:
        """The matched witness as letters, built anew on each access."""
        return braid.expand(self.matched_syllables)


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


def family_witness(params: FamilyParams) -> Syllables:
    """The closed 3-braid representing the family link, determinant alpha:
    sigma_1^p sigma_2^2 sigma_1^e sigma_2^-1, e = q or -(q + 1), as syllables."""
    e = params.q if params.family == FAMILY_ONE else -(params.q + 1)
    return ((1, params.p), (2, 2), (1, e), (2, -1))


def flype_partner(params: FamilyParams) -> Syllables:
    """The flype mate of the witness: sigma_1^p sigma_2^-1 sigma_1^e sigma_2^2.

    It is the witness read backwards and rotated to start at sigma_1^p, so
    it is conjugate to braid.reverse of the witness.  _report never lists
    it, but it can be a conjugacy class of its own and is needed when
    recognising arbitrary representatives.
    """
    w = family_witness(params)
    return w[:1] + w[:0:-1]


def family_hits(alpha: int, orbit: Iterable[int]) -> list[FamilyParams]:
    """Family solutions over the odd orbit members, preferred hit first.

    Family one, alpha = 2pq + p + q, is 2*alpha + 1 = (2p + 1)(2q + 1), and
    family two is 2*alpha - 1 = (2p + 1)(2q + 1).  So an odd member
    d = 2q + 1 >= 3 is a hit exactly when it divides 2*alpha + 1, or else
    2*alpha - 1, with a cofactor 2p + 1 >= 3: the equations that
    family_membership solves, read off one division each.  The cofactor
    needs no check: for an orbit member d < alpha it is odd and at least
    (2*alpha - 1) / d > 1, so at least 3.  Numbers d >= alpha are no orbit
    members and are skipped (d = 2*alpha +- 1 would give p = 0).
    All hits describe the same axis class, so the order only picks the
    printed witness: solutions with odd q come first (for odd alpha the two
    mates (p,q) and (q,p) split one odd, one even), then by orbit member,
    a key unique per hit, so the order of orbit decides nothing.
    """
    one, two = 2 * alpha + 1, 2 * alpha - 1
    hits = []
    for d in orbit:
        if d % 2 == 0 or not 3 <= d < alpha:
            continue
        if one % d == 0:
            hits.append(FamilyParams(FAMILY_ONE, (one // d - 1) // 2, (d - 1) // 2))
        elif two % d == 0:
            hits.append(FamilyParams(FAMILY_TWO, (two // d - 1) // 2, (d - 1) // 2))
    hits.sort(key=lambda fp: (fp.q % 2 == 0, fp.beta_star))
    return hits


def _orbit(f: Fraction) -> set[int]:
    """The orbit of the canonical fraction f from one pow; empty at alpha 0, 1.

    A set: in a tuple, beta^-1 = +-beta (as at (8,3)) would repeat a hit.
    """
    if f.alpha < 2:
        return set()
    inv = pow(f.beta, -1, f.alpha)
    return {f.beta, inv, f.alpha - f.beta, f.alpha - inv}


def _torus(f: Fraction) -> tuple[Witness, ...]:
    """The torus witnesses of the canonical fraction f: sigma_2 at alpha 0,
    sigma_1^alpha sigma_2^+-1 at beta 1 (the unknot at alpha 1), else none."""
    if f.alpha == 0:
        return (Witness(((2, 1),), TORUS_POSITIVE),)
    if f.beta != 1:
        return ()
    return (Witness(((1, f.alpha), (2, 1)), TORUS_POSITIVE), Witness(((1, f.alpha), (2, -1)), TORUS_NEGATIVE))


def _report(f: Fraction) -> AxisReport:
    """The report of the canonical fraction f, decided from f alone: its
    torus witnesses, plus the first family hit of the orbit.

    The orbit of (alpha, 1) is {1, alpha - 1}.  alpha - 1 divides
    2*alpha + 1 = 2(alpha - 1) + 3 only if it divides 3, and never
    2*alpha - 1 = 2(alpha - 1) + 1, so (4,1) is the one torus fraction with
    a hit: family one, (p, q) = (1, 1), b(4,1) reoriented as Conway (1,2,1).
    """
    witnesses = _torus(f)
    for params in family_hits(f.alpha, _orbit(f))[:1]:
        witnesses += (Witness(family_witness(params), FLYPE_FAMILY, params),)
    return AxisReport(f, witnesses, (L17_5_NOTE,) if f.pair == (17, 5) else ())


def axis_classes(alpha: int, beta: int) -> AxisReport:
    """Classify the braid axes of b(alpha, beta) with explicit witnesses."""
    return _report(twobridge.canonical(alpha, beta))


def gof_count(alpha: int, beta: int) -> AxisReport:
    """Number of GOF-knots in L(alpha, beta), with witness branch braids.

    Identical to axis_classes on the canonical fraction: the lens space is
    the double branched cover and the knots are the lifted axes.
    """
    return axis_classes(alpha, beta)


def canonical_fractions(alpha: int) -> Iterator[Fraction]:
    """Canonical fractions with the given alpha, in increasing beta order."""
    for beta in _canonical_betas(alpha):
        yield twobridge._trusted(alpha, beta)


def _canonical_betas(alpha: int) -> Iterator[int]:
    """The canonical betas of alpha, in increasing order, as plain ints.

    alpha 0 and 1 have the one beta 1.  Otherwise first every slot of
    1..alpha // 2 that is a multiple of a prime factor of alpha (found by
    trial division) is marked, so the unmarked slots are the units and no
    gcd is taken.  The orbit of a unit meets 1..alpha // 2 in beta and its
    partner min(beta^-1, alpha - beta^-1), and the partner map is an
    involution there.  Scanning upwards, the smaller of the two is
    reached first and marks the larger, so every unmarked slot the scan
    reaches is an orbit minimum.
    """
    if alpha in (0, 1):
        yield 1
        return
    half = alpha // 2
    marks = bytearray(half + 1)
    marks[0] = 1
    n, p = alpha, 2
    while p * p <= n:
        if n % p == 0:
            marks[p::p] = b"\x01" * (half // p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:  # the prime factor above sqrt(alpha), if any: alpha // 2 at alpha = 2n
        marks[n::n] = b"\x01" * (half // n)
    find = marks.find
    beta = find(0)
    while beta != -1:
        inv = pow(beta, -1, alpha)
        marks[min(inv, alpha - inv)] = 1
        yield beta
        beta = find(0, beta + 1)


def _axis_betas(alpha: int) -> set[int]:
    """The only canonical betas of alpha with a 3-braid: 1 and the family
    keys, the canonical betas of the family members of alpha.  The census
    reads it; identify_closure solves for its key instead.

    d = 2q + 1 is a member when it divides n = 2*alpha + 1 or 2*alpha - 1
    with a cofactor e = 2p + 1 >= 3 (see family_hits).  Both are below alpha,
    and d * e = n = +-1 mod alpha makes e = +-d^-1, so {d, e, alpha - d,
    alpha - e} is the whole orbit of d and its least element the key.
    """
    keys = {1}
    if alpha < 2:  # 2*alpha +- 1 < 9 is no product of two factors >= 3
        return keys
    for n in (2 * alpha + 1, 2 * alpha - 1):
        for d in range(3, isqrt(n) + 1, 2):
            if n % d == 0:
                e = n // d
                keys.add(min(d, e, alpha - d, alpha - e))
    return keys


def census_by_alpha(max_alpha: int) -> Iterator[tuple[int, Iterable[int], dict[int, AxisReport]]]:
    """(alpha, betas, reports) for every alpha <= max_alpha, in increasing alpha.

    betas is a generator of the canonical betas of alpha in increasing
    order.  reports maps only the betas that can have a 3-braid,
    _axis_betas(alpha), to their report, which is axis_classes(alpha, beta).
    By the decision tree every other beta has count 0 and no note (the
    (17,5) note sits on the axis beta 5), so its report would be
    AxisReport(Fraction(alpha, beta), ()).
    """
    for alpha in range(0, max_alpha + 1):
        reports = {beta: _report(twobridge._trusted(alpha, beta)) for beta in _axis_betas(alpha)}
        yield alpha, _canonical_betas(alpha), reports


def _candidates(f: Fraction) -> Iterator[Syllables]:
    """Every 3-braid representative of b(f), one syllable word per conjugacy class.

    The torus witnesses of f, then the witness and flype partner of every
    family hit of the orbit of f, each of which can be a class of its own.
    None repeats: a partner's second syllable is (2, -1), a witness's
    (2, 2), and (p, e) fix the params.
    """
    for w in _torus(f):
        yield w.syllables
    for params in family_hits(f.alpha, _orbit(f)):
        yield family_witness(params)
        yield flype_partner(params)


def identify_closure(word: Word) -> Optional[ClosureId]:
    """Recognise the closure of a word as a two-bridge link, up to mirror.

    The word's conjugacy class holds alpha = |det(M - I)| = |2 - trace M|
    and the exponent sum e.  A family-one (trace < 2, sign 1) or family-two
    (sign -1) class has n = 2*alpha + sign = (2p + 1)(2q + 1) and
    (2p + 1) + sign*(2q + 1) = 2e, so for s = +-e (a mirror flips e)
    v = sign*(s - isqrt(s^2 - sign*n)) is 2q + 1 or 2p + 1 when it divides n.
    Walks (alpha, 1) and the fractions of those v in increasing beta, and
    returns the first of their _candidates whose class
    (braid.syllable_class) is that of the word or of its mirror.  None
    means no witness realises the closure (it need not be two-bridge).
    """
    word = braid.check_word(word)
    key = braid.conjugacy_class(word)
    e, trace = key[:2]
    alpha = abs(2 - trace)  # det(M - I) = 2 - trace M in SL2(Z)
    targets = ((False, key), (True, braid.conjugacy_class(braid.mirror(word))))
    sign = 1 if trace < 2 else -1
    n = 2 * alpha + sign
    fractions = {twobridge.canonical(alpha, 1)}
    for s in (e, -e):
        if s * s >= sign * n:
            v = sign * (s - isqrt(s * s - sign * n))
            if v >= 3 and n % v == 0 and n // v >= 3:
                fractions.add(twobridge.canonical(alpha, v))
    for f in sorted(fractions):
        for candidate in _candidates(f):
            key = braid.syllable_class(candidate)
            for mirrored, target in targets:
                if key == target:
                    return ClosureId(f, mirrored, candidate)
    return None
