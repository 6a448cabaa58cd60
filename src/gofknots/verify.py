"""Exhaustive desk-scale oracles cross-validating the whole pipeline.

Each suite re-derives one of the structural facts behind the axis counts by
brute force over a parameter range and returns a list of violations; an
empty list is a pass.  Violations carry the offending parameters and both
values so a failure can be re-checked by hand.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, is_dataclass
from math import gcd

from . import braid, classify, cover, twobridge

DEFAULT_SEED = 59318


@dataclass(frozen=True)
class VerifyBounds:
    """Default parameter ranges; chosen to finish in well under a minute."""

    counts_alpha: int = 5000
    orientation_alpha: int = 2000
    identity_pq: int = 100
    witness_pq: int = 50
    witness_torus: int = 50
    seed: int = DEFAULT_SEED


@dataclass(frozen=True)
class Violation:
    suite: str
    params: dict
    expected: object
    actual: object

    def as_json(self) -> dict:
        """The record as plain JSON values; a dataclass value becomes a dict."""
        plain = lambda value: asdict(value) if is_dataclass(value) else value
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


def _family_fractions(max_alpha: int) -> set[tuple[int, int]]:
    """Murasugi's braid-index-3 families with alpha <= max_alpha, generated forward.

    For p, q >= 1, alpha = 2pq + p + q (+1) = p(2q + 1) + q (+1) with
    beta* = 2q + 1 < alpha, and (2p + 1)(2q + 1) = 2*alpha +- 1 makes beta* a
    unit.  Each solution is stored at its orbit minimum, the least of
    +-beta*^{+-1} mod alpha.
    """
    fractions = set()
    for shift in (0, 1):
        for q in range(1, max_alpha // 3 + 1):
            b = 2 * q + 1
            # p = 1, 2, ...: each step of p adds b to alpha
            for alpha in range(3 * q + 1 + shift, max_alpha + 1, b):
                inv = pow(b, -1, alpha)
                fractions.add((alpha, min(b, inv, alpha - b, alpha - inv)))
    return fractions


def verify_counts(max_alpha: int = 5000) -> list[Violation]:
    """Check every row of classify.census(max_alpha) against a separate oracle.

    The oracle is the forward family set (_family_fractions) with the
    torus rule.  Each row must have count <= 3, count 3 exactly at (4,1),
    count 2 exactly on the torus locus (beta = 1 or alpha = 1, alpha not in
    {0, 4}), and, off that locus with alpha >= 2, count 1 exactly when the
    fraction is a family fraction; no torus fraction but (4,1) may be one.

    The rows must also be every canonical fraction, each once.  They come
    in increasing (alpha, beta) order, each beta is the least member of its
    orbit +-beta^{+-1} mod alpha, and the orbit sizes of one alpha sum to
    phi(alpha): the orbits are classes, so distinct least members make them
    disjoint, and together they cover the units.  twobridge.canonical of
    each row's largest member must give the row back.  Each alpha is closed
    when the census moves past it, so no rows or orbits are held.
    """
    violations: list[Violation] = []
    family = _family_fractions(max_alpha)
    # the alpha being read, its last beta and the size of its orbits so far
    open_alpha = last_beta = covered = 0

    def fail(where: dict, expected: object, actual: object) -> None:
        violations.append(Violation("counts", where, expected, actual))

    def close() -> None:
        nonlocal open_alpha, last_beta, covered
        want = _phi(open_alpha) if open_alpha else 1  # (0, 1) alone at alpha 0
        if covered != want:
            fail({"alpha": open_alpha}, f"row orbits cover all {want} units", covered)
        open_alpha, last_beta, covered = open_alpha + 1, 0, 0

    for row in classify.census(max_alpha):
        alpha, beta = row.fraction.alpha, row.fraction.beta
        where = {"alpha": alpha, "beta": beta}
        if not (open_alpha, last_beta) < (alpha, beta) or alpha > max_alpha:
            fail(where, f"rows in (alpha, beta) order with alpha <= {max_alpha}", (open_alpha, last_beta))
            continue
        while open_alpha < alpha:
            close()
        last_beta = beta

        count = row.count
        if count > 3:
            fail(where, "count <= 3", count)
        if (count == 3) != (alpha == 4 and beta == 1):
            fail(where, "count == 3 exactly at (4,1)", count)
        torus = (beta == 1 or alpha == 1) and alpha not in (0, 4)
        if torus != (count == 2):
            fail(where, f"count == 2 iff torus locus ({torus})", count)
        if alpha >= 2:
            listed = (alpha, beta) in family
            if beta == 1 and listed and alpha != 4:
                fail(where, "no family fraction on the torus locus", (alpha, beta))
            if beta != 1 and listed != (count == 1):
                fail(where, f"count == 1 iff a family fraction ({listed})", row.family)

        # the orbit {b, inv, alpha - b, alpha - inv} is closed under
        # negation, so its largest member is alpha minus its least; it has
        # one member at alpha <= 2, two when inv = +-b, else four
        if alpha < 2:
            least = top = size = 1
        elif gcd(alpha, beta) != 1:
            fail(where, "gcd(alpha, beta) == 1", gcd(alpha, beta))
            continue
        else:
            b = beta % alpha
            inv = pow(b, -1, alpha)
            least = min(b, inv, alpha - b, alpha - inv)
            top = alpha - least
            size = 1 if alpha == 2 else 2 if inv == b or inv == alpha - b else 4
        if least != beta:
            fail(where, "beta is the least member of its orbit", least)
        covered += size
        got = twobridge.canonical(alpha, top)
        if got.pair != (alpha, beta):
            fail({**where, "member": top}, (alpha, beta), got.pair)
    while open_alpha <= max_alpha:
        close()
    return violations


def _class_admits_3braid(alpha: int, cls: twobridge.OrientationClass) -> bool:
    # reps are mirror-closed, so members below alpha cover the class
    for r in sorted(cls.reps):
        if r >= alpha:
            continue
        if r == 1 or classify.family_membership(alpha, r) is not None:
            return True
    return False


def verify_orientation_uniqueness(max_alpha: int = 2000) -> list[Violation]:
    """At most one orientation of a two-component fraction is a closed 3-braid.

    Exhausts even alpha up to the bound; the single allowed exception is
    (4,1).  Also confirms the two coincidences where both orientations fall
    into one class: (8,3) and (10,3).
    """
    violations = []
    for alpha in range(2, max_alpha + 1, 2):
        for f in classify.canonical_fractions(alpha):
            classes = twobridge.orientation_classes(f)
            admitting = sum(1 for c in classes if _class_admits_3braid(alpha, c))
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
    """(2p+1)(2q+1) is 1 mod 2(2pq+p+q) and -1 mod 2(2pq+p+q+1)."""
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


SUITES = ("counts", "orientation", "identity", "burau", "conjugacy")


def run_suites(
    suite: str = "all", max_bound: int | None = None, bounds: VerifyBounds = VerifyBounds()
) -> list[Violation]:
    """Run one suite or all of them, optionally overriding the primary bound.

    For a single suite ``max_bound`` replaces that suite's bound (both burau
    bounds for "burau").  For "all" it replaces only the alpha bounds of the
    census suites, counts and orientation: the (p, q)-grid suites keep their
    defaults, since burau grows as the cube of its bound.  None keeps every
    default; 0 is a bound like any other.
    """
    selected = SUITES if suite == "all" else (suite,)
    grid_bound = None if suite == "all" else max_bound

    def pick(override: int | None, default: int) -> int:
        return default if override is None else override

    violations: list[Violation] = []
    for name in selected:
        if name == "counts":
            violations += verify_counts(pick(max_bound, bounds.counts_alpha))
        elif name == "orientation":
            violations += verify_orientation_uniqueness(pick(max_bound, bounds.orientation_alpha))
        elif name == "identity":
            violations += verify_inverse_identity(pick(grid_bound, bounds.identity_pq))
        elif name == "burau":
            violations += verify_burau_witnesses(
                pick(grid_bound, bounds.witness_pq),
                max_torus=pick(grid_bound, bounds.witness_torus),
                seed=bounds.seed,
            )
        elif name == "conjugacy":
            violations += verify_conjugacy_suite(seed=bounds.seed)
        else:
            raise ValueError(f"unknown verify suite {name!r}")
    return violations
