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


def verify_counts(max_alpha: int = 5000) -> list[Violation]:
    """Census of axis counts for every canonical fraction with alpha <= bound.

    Checks that counts stay in {0,1,2,3}, that three axes happen only at
    (4,1), that two axes happen exactly on the beta = +-1 torus locus with
    alpha not in {0,4}, that the family scan never collides with that locus
    except at alpha = 4, and that whole orbits canonicalise consistently.
    """
    violations = []
    triple_sites = []

    def check(alpha: int, beta: int, members) -> None:
        report = classify.axis_classes(alpha, beta)
        count = report.count
        where = {"alpha": alpha, "beta": beta}
        if count > 3:
            violations.append(Violation("counts", where, "count <= 3", count))
        if count == 3:
            triple_sites.append((alpha, beta))
        expect_two = (beta == 1 or alpha == 1) and alpha not in (0, 4)
        if expect_two != (count == 2):
            violations.append(
                Violation("counts", where, f"count == 2 iff torus locus ({expect_two})", count)
            )
        if alpha >= 2 and beta == 1:
            hits = classify.family_hits(alpha, twobridge.orbit(alpha, beta))
            if hits and alpha != 4:
                violations.append(
                    Violation("counts", where, "no family hit on the torus locus", hits[0])
                )
        if alpha >= 2 and beta != 1 and (count == 1) != (report.family is not None):
            violations.append(
                Violation("counts", where, "count == 1 iff a family hit exists", count)
            )
        for member in members:
            got = twobridge.canonical(alpha, member)
            if got.pair != (alpha, beta):
                violations.append(
                    Violation(
                        "counts",
                        {"alpha": alpha, "beta": beta, "member": member},
                        (alpha, beta),
                        got.pair,
                    )
                )

    if max_alpha >= 0:
        check(0, 1, (1,))
    if max_alpha >= 1:
        check(1, 1, (1,))
    for alpha in range(2, max_alpha + 1):
        for beta in range(1, alpha // 2 + 1):
            if gcd(beta, alpha) != 1:
                continue
            inv = pow(beta, -1, alpha)
            members = (beta, inv, alpha - beta, alpha - inv)
            if min(members) < beta:
                continue  # not the canonical orbit representative
            check(alpha, beta, members)
    if max_alpha >= 4 and triple_sites != [(4, 1)]:
        violations.append(
            Violation("counts", {"max_alpha": max_alpha}, "triple count exactly at (4,1)", triple_sites)
        )
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
