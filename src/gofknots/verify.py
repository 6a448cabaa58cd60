"""Exhaustive desk-scale oracles cross-validating the whole pipeline.

Each suite re-derives one of the structural facts behind the axis counts by
brute force over a parameter range and returns a list of violations; an
empty list is a pass.  Violations carry the offending parameters and both
values so a failure can be re-checked by hand.

The two census-scale suites, counts and orientation, take the braid-index-3
families from one generator, _family_solutions, which runs forward over
(p, q) and shares no code with classify's family search.  Counts reads the
library's rows as plain ints (census_by_alpha), and its canonical round trip
builds one Fraction per row; orientation reads the orientation classes of
only the fractions that an admitting representative, 1 or a family member,
names.  Both hold the family set of their bound, so run_suites refuses a
bound above MAX_CENSUS_ALPHA for them.

run_suites reads one table, _SUITES: each suite's name, how it runs under
an optional bound, and whether --suite all passes --max on to it.
"""

from __future__ import annotations

import random
from math import gcd
from typing import Iterator, NamedTuple

from . import braid, classify, cover, twobridge

DEFAULT_SEED = 59318

# largest bound run_suites gives the census-scale suites, which hold the
# family set of their bound in memory: 487 565 pairs at 10^5, 6.0 M at 10^6
MAX_CENSUS_ALPHA = 100_000


class VerifyBounds(NamedTuple):
    """Default parameter ranges; chosen to finish in well under a minute."""

    counts_alpha: int = 5000
    orientation_alpha: int = 2000
    identity_pq: int = 100
    witness_pq: int = 50
    witness_torus: int = 50
    seed: int = DEFAULT_SEED


class Violation(NamedTuple):
    suite: str
    params: dict
    expected: object
    actual: object

    def as_json(self) -> dict:
        """The record as plain JSON values; a value type (such as a
        FamilyParams) becomes a dict of its fields."""
        plain = lambda value: value._asdict() if hasattr(value, "_asdict") else value
        return {
            "suite": self.suite,
            "params": self.params,
            "expected": plain(self.expected),
            "actual": plain(self.actual),
        }


def _phi(n: int) -> int:
    """Euler's totient of n >= 1, from a trial-division factorisation."""
    phi, p = n, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            phi -= phi // p
        p += 1
    if n > 1:
        phi -= phi // n
    return phi


def _family_solutions(max_alpha: int) -> Iterator[tuple[int, int]]:
    """(alpha, beta*) for Murasugi's braid-index-3 families with alpha <= max_alpha.

    Generated forward from (p, q): for p, q >= 1, alpha = 2pq + p + q (+1)
    = p(2q + 1) + q (+1) with beta* = 2q + 1 < alpha.  These are exactly the
    pairs where classify.family_membership(alpha, beta*) has a solution, found
    here without it.
    """
    for shift in (0, 1):
        for q in range(1, max_alpha // 3 + 1):
            b = 2 * q + 1
            # p = 1, 2, ...: each step of p adds b to alpha
            for alpha in range(3 * q + 1 + shift, max_alpha + 1, b):
                yield alpha, b


def _family_fractions(max_alpha: int) -> set[tuple[int, int]]:
    """The family fractions with alpha <= max_alpha, as canonical (alpha, beta) pairs.

    (2p + 1)(2q + 1) = 2*alpha +- 1 makes each beta* of _family_solutions a
    unit, stored at its orbit minimum, the least of +-beta*^{+-1} mod alpha.
    """
    fractions = set()
    for alpha, b in _family_solutions(max_alpha):
        inv = pow(b, -1, alpha)
        fractions.add((alpha, min(b, inv, alpha - b, alpha - inv)))
    return fractions


def verify_counts(max_alpha: int = 5000) -> list[Violation]:
    """Check classify.census_by_alpha(max_alpha) against a separate oracle.

    The oracle is the forward family set (_family_fractions) with the torus
    rule.  Every fraction must have count <= 3, count 3 exactly at (4,1),
    count 2 exactly on the torus locus (beta = 1 or alpha = 1, alpha not in
    {0, 4}), and, off that locus with alpha >= 2, count 1 exactly when it is
    a family fraction; no torus fraction but (4,1) may be one.  A beta with
    no report is a count-0 row, so the rules run on the reported betas and
    on beta 1 of each alpha, and every family fraction left without a report
    at the end is a violation; every other row has count 0 and is right
    without a lookup.  Each report's fraction must be its key.

    The rows must also be every canonical fraction, each once.  The alphas
    come once each from 0 to the bound, the betas of one alpha strictly
    increasing, each beta the least member of its orbit +-beta^{+-1} mod
    alpha, and the orbit sizes of one alpha sum to phi(alpha): the orbits
    are classes, so distinct least members make them disjoint, and together
    they cover the units.  twobridge.canonical of each row's largest member
    must give the row back, so one Fraction is built per row, count-0 rows
    included; the betas come as plain ints, and no rows or orbits are held.
    """
    violations: list[Violation] = []
    family = _family_fractions(max_alpha)
    canonical = twobridge.canonical

    def fail(where: dict, expected: object, actual: object) -> None:
        violations.append(Violation("counts", where, expected, actual))

    next_alpha = 0
    for alpha, betas, reports in classify.census_by_alpha(max_alpha):
        if alpha != next_alpha:
            fail({"alpha": alpha}, f"alpha {next_alpha} next, each of 0..{max_alpha} once", alpha)
        next_alpha = alpha + 1

        # the orbit {b, inv, alpha - b, alpha - inv} is closed under
        # negation, so its largest member is alpha minus its least; it has
        # one member at alpha <= 2, two when inv = +-b, else four
        last = covered = 0
        for beta in betas:
            if beta <= last:
                fail({"alpha": alpha, "beta": beta}, "betas strictly increasing", last)
                continue
            last = beta
            if alpha < 2:  # the one fraction (alpha, 1), an orbit of one
                if beta != 1:
                    fail({"alpha": alpha, "beta": beta}, "beta is the least member of its orbit", 1)
                size = top = 1
            else:
                try:
                    inv = pow(beta, -1, alpha)
                except ValueError:
                    fail({"alpha": alpha, "beta": beta}, "gcd(alpha, beta) == 1", gcd(alpha, beta))
                    continue
                if not beta <= inv <= alpha - beta:
                    least = min(beta, inv, alpha - beta, alpha - inv)
                    fail({"alpha": alpha, "beta": beta}, "beta is the least member of its orbit", least)
                size = 1 if alpha == 2 else 2 if inv == beta or inv == alpha - beta else 4
                top = alpha - beta
            covered += size
            got = canonical(alpha, top).pair
            if got != (alpha, beta):
                fail({"alpha": alpha, "beta": beta, "member": top}, (alpha, beta), got)
        want = _phi(alpha) if alpha else 1  # (0, 1) alone at alpha 0
        if covered != want:
            fail({"alpha": alpha}, f"row orbits cover all {want} units", covered)

        for beta in sorted(reports.keys() | {1}):
            where = {"alpha": alpha, "beta": beta}
            report = reports.get(beta)
            if report is None:
                count, params = 0, None
            else:
                count, params = report.count, report.family
                if report.fraction.pair != (alpha, beta):
                    fail(where, "the report's fraction is its key", report.fraction.pair)
            if count > 3:
                fail(where, "count <= 3", count)
            if (count == 3) != (alpha == 4 and beta == 1):
                fail(where, "count == 3 exactly at (4,1)", count)
            torus = (beta == 1 or alpha == 1) and alpha not in (0, 4)
            if torus != (count == 2):
                fail(where, f"count == 2 iff torus locus ({torus})", count)
            if alpha >= 2:
                listed = (alpha, beta) in family
                family.discard((alpha, beta))
                if beta == 1 and listed and alpha != 4:
                    fail(where, "no family fraction on the torus locus", (alpha, beta))
                if beta != 1 and listed != (count == 1):
                    fail(where, f"count == 1 iff a family fraction ({listed})", params)
    if next_alpha != max(max_alpha + 1, 0):
        fail({"alpha": next_alpha}, f"alphas up to {max_alpha}", next_alpha - 1)
    for alpha, beta in sorted(family):  # family fractions with no report: count 0
        fail({"alpha": alpha, "beta": beta}, "count == 1 iff a family fraction (True)", None)
    return violations


def verify_orientation_uniqueness(max_alpha: int = 2000) -> list[Violation]:
    """At most one orientation of a two-component fraction is a closed 3-braid.

    Covers every fraction of even alpha up to the bound; the single allowed
    exception is (4,1).  A class of twobridge.orientation_classes admits a
    3-braid when one of its representatives r below alpha is 1 or a family
    member: (alpha, r) is a pair of _family_solutions.  The reps are
    mirror-closed, so those below alpha cover the class.

    A fraction other than (4,1) breaks a rule only when a class admits, and
    the admitting rep r of that class reduces mod alpha into the fraction's
    orbit, so the fraction is twobridge.canonical(alpha, r).  The suite
    therefore visits the canonical fractions of the admitting reps of each
    alpha, in increasing beta; every other fraction reads 0 and passes.
    1 admits at every alpha, so (4,1) is always visited.  Also confirms the
    two coincidences where both orientations fall into one class: (8,3) and
    (10,3).
    """
    violations = []
    # the reps r < alpha that admit, by even alpha: 1 and the family members;
    # every member is below alpha, so a rep r >= alpha never meets them
    admit: dict[int, list[int]] = {}
    for alpha, b in _family_solutions(max_alpha):
        if alpha % 2 == 0:
            admit.setdefault(alpha, [1]).append(b)
    for alpha in range(2, max_alpha + 1, 2):
        admits = admit.pop(alpha, (1,))
        for f in sorted({twobridge.canonical(alpha, r) for r in admits}):
            classes = twobridge.orientation_classes(f)
            admitting = sum(1 for c in classes if not c.reps.isdisjoint(admits))
            where = {"alpha": f.alpha, "beta": f.beta}
            if f.pair == (4, 1):
                if admitting != 2:
                    violations.append(
                        Violation("orientation", where, "both orientations of (4,1) admit", admitting)
                    )
            elif admitting > 1:
                violations.append(
                    Violation("orientation", where, "at most one admitting orientation", admitting)
                )
    for alpha, beta in ((8, 3), (10, 3)):
        if alpha <= max_alpha:
            n = len(twobridge.orientation_classes(twobridge.Fraction(alpha, beta)))
            if n != 1:
                violations.append(
                    Violation("orientation", {"alpha": alpha, "beta": beta}, "one orientation class", n)
                )
    return violations


def verify_inverse_identity(max_pq: int = 100) -> list[Violation]:
    """(2p+1)(2q+1) is 1 mod 2(2pq+p+q) and -1 mod 2(2pq+p+q+1).

    The suite reads no library code, so no library fault can make either of
    its violations fire: it checks the identity family_hits divides by.
    """
    violations = []
    for p in range(1, max_pq + 1):
        for q in range(1, max_pq + 1):
            prod = (2 * p + 1) * (2 * q + 1)
            alpha_one = 2 * p * q + p + q
            alpha_two = alpha_one + 1
            if prod % (2 * alpha_one) != 1:
                violations.append(
                    Violation("identity", {"p": p, "q": q, "family": "one"}, 1, prod % (2 * alpha_one))
                )
            if (prod + 1) % (2 * alpha_two) != 0:
                violations.append(
                    Violation("identity", {"p": p, "q": q, "family": "two"}, -1, prod % (2 * alpha_two))
                )
    return violations


def _random_word(rng: random.Random, max_len: int) -> braid.Word:
    return tuple(rng.choice(braid.LETTERS) for _ in range(rng.randint(0, max_len)))


def verify_burau_witnesses(
    max_pq: int = 50,
    max_torus: int | None = None,
    twist_trials: int = 50,
    seed: int = DEFAULT_SEED,
) -> list[Violation]:
    """Witness determinants match the predicted alpha, with zero tolerance.

    Covers both families (witness and flype partner) over the p, q grid and
    the torus braids up to max_torus, then checks that inserting central
    full-twist powers never moves the determinant.
    """
    violations = []
    for family in (classify.FAMILY_ONE, classify.FAMILY_TWO):
        for p in range(1, max_pq + 1):
            for q in range(1, max_pq + 1):
                params = classify.FamilyParams(family, p, q)
                for sylls in (classify.family_witness(params), classify.flype_partner(params)):
                    # letter by letter, apart from the closed forms classify uses
                    det = cover.closure_determinant(braid.expand(sylls))
                    if det != params.alpha:
                        violations.append(
                            Violation("burau", {"family": family, "p": p, "q": q}, params.alpha, det)
                        )
    for k in range(0, (max_torus if max_torus is not None else max_pq) + 1):
        for tail in ((2,), (-2,)):
            word = (1,) * k + tail
            det = cover.closure_determinant(word)
            if det != k:
                violations.append(Violation("burau", {"torus_k": k, "tail": tail[0]}, k, det))
    rng = random.Random(seed)
    for trial in range(twist_trials):
        word = _random_word(rng, 30)
        n = rng.randint(-2, 2)
        base = cover.closure_determinant(word)
        twisted = cover.closure_determinant(braid.surgery_twist(word, -n))
        if twisted != base:
            violations.append(
                Violation("burau", {"trial": trial, "word": list(word), "n": n}, base, twisted)
            )
    return violations


def verify_conjugacy_suite(
    soundness_trials: int = 200, seed: int = DEFAULT_SEED
) -> list[Violation]:
    """Conjugacy engine spot checks.

    The +1 surgery computation on sigma_1^5 sigma_2 must land in the mirror
    class; the torus pairs sigma_1^k sigma_2 vs sigma_1^k sigma_2^-1 must
    separate (their exponent sums certify it); random true conjugates must be
    recognised.
    """
    violations = []
    surgered = braid.surgery_twist((1, 1, 1, 1, 1, 2), 1)
    target = (-1, -1, -1, -1, -1, -2)
    if not braid.is_conjugate(surgered, target):
        violations.append(
            Violation("conjugacy", {"pair": "+1 surgery on sigma_1^5 sigma_2"}, True, False)
        )
    for k in range(2, 11):
        pos = (1,) * k + (2,)
        neg = (1,) * k + (-2,)
        if braid.exponent_sum(pos) == braid.exponent_sum(neg):
            violations.append(
                Violation("conjugacy", {"torus_k": k}, "exponent sums differ", "equal")
            )
        if braid.is_conjugate(pos, neg):
            violations.append(Violation("conjugacy", {"torus_k": k}, False, True))
    rng = random.Random(seed)
    for trial in range(soundness_trials):
        w = _random_word(rng, 20)
        u = _random_word(rng, 20)
        if not braid.is_conjugate(w, braid.conjugate_by(w, u)):
            violations.append(
                Violation(
                    "conjugacy",
                    {"trial": trial, "word": list(w), "conjugator": list(u)},
                    True,
                    False,
                )
            )
    return violations


# Each suite by name: how it runs, run(bound, bounds) with bound None for
# its defaults, and where --max reaches it: "all" under --suite all too (the
# census-scale suites), "alone" only when selected by name, None never (it
# takes no bound).  The entries look their suite up at call time, so a suite
# replaced on the module is the one that runs.
_SUITES = {
    "counts": (lambda n, d: verify_counts(d.counts_alpha if n is None else n), "all"),
    "orientation": (
        lambda n, d: verify_orientation_uniqueness(d.orientation_alpha if n is None else n),
        "all",
    ),
    "identity": (lambda n, d: verify_inverse_identity(d.identity_pq if n is None else n), "alone"),
    "burau": (
        lambda n, d: verify_burau_witnesses(
            d.witness_pq if n is None else n,
            max_torus=d.witness_torus if n is None else n,
            seed=d.seed,
        ),
        "alone",
    ),
    "conjugacy": (lambda n, d: verify_conjugacy_suite(seed=d.seed), None),
}
SUITES = tuple(_SUITES)


def run_suites(
    suite: str = "all", max_bound: int | None = None, bounds: VerifyBounds = VerifyBounds()
) -> list[Violation]:
    """Run one suite or all of them, optionally overriding the primary bound.

    For a single suite ``max_bound`` replaces that suite's bound (both burau
    bounds for "burau"); a bound given to conjugacy, which takes none, is a
    ValueError.  For "all" it replaces only the alpha bounds of the census
    suites, counts and orientation: the (p, q)-grid suites keep their
    defaults, since burau grows as the cube of its bound.  None keeps every
    default; 0 is a bound like any other.  A bound above MAX_CENSUS_ALPHA
    that reaches counts or orientation is a ValueError too.
    """
    if suite != "all":
        if suite not in _SUITES:
            raise ValueError(f"unknown verify suite {suite!r}")
        if max_bound is not None and _SUITES[suite][1] is None:
            raise ValueError(f"the {suite} suite takes no bound, got {max_bound}")
    names = SUITES if suite == "all" else (suite,)
    if max_bound is not None and max_bound > MAX_CENSUS_ALPHA and any(_SUITES[n][1] == "all" for n in names):
        raise ValueError(f"the counts and orientation suites take a bound up to {MAX_CENSUS_ALPHA}, got {max_bound}")
    violations: list[Violation] = []
    for name in names:
        run, reach = _SUITES[name]
        violations += run(max_bound if reach == "all" or name == suite else None, bounds)
    return violations
