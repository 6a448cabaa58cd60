"""The four workloads: seeded inputs, the call into gofknots, and the checks.

A workload builds one round of operations from the seed.  The benchmark
times each ``run`` call, reduces its output to a small ``digest`` outside the
timers (so big results are dropped before the next call, as a caller would
drop them), and hands round 1's digests of the calls that returned to
``check`` once timing is over; later rounds must repeat round 1's digests
exactly.

Sizes are stratified: the seed moves each input inside a fixed bin, so the
work per round, and with it run_s and the peak memory, stays nearly the same
from seed to seed while the inputs themselves differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
from math import gcd

import checks

LETTERS = (1, -1, 2, -2)


def _random_word(rng: random.Random, length: int) -> tuple[int, ...]:
    return tuple(rng.choice(LETTERS) for _ in range(length))


def _reduced_word(rng: random.Random, length: int) -> tuple[int, ...]:
    """A random freely reduced word: no letter is followed by its inverse.

    Unreduced conjugators often cancel down to a word that commutes with the
    braid, and then is_conjugate answers from the normal form at once; such
    inputs would make the work per round depend on the seed.
    """
    word = [rng.choice(LETTERS)]
    while len(word) < length:
        word.append(rng.choice([k for k in LETTERS if k != -word[-1]]))
    return tuple(word)


def _invert(word):
    return tuple(-k for k in reversed(word))


def _stratified(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n integers, the i-th drawn uniformly from the i-th of n equal bins of [lo, hi]."""
    width = (hi - lo) / n
    return [rng.randint(int(lo + i * width), int(lo + (i + 1) * width) - 1) for i in range(n)]


def _family_word(family: str, p: int, q: int) -> tuple[int, ...]:
    e = q if family == "one" else -(q + 1)
    return (1,) * p + (2, 2) + ((1,) * e if e > 0 else (-1,) * -e) + (-2,)


class Census:
    """`gofknots enumerate --max N --format tsv > FILE` through cli.run.

    stdout goes to a file under the benchmark's output directory, as a user's
    redirect would send it, so the benchmark holds none of the text and adds
    no Python call per write.  Each round's file is hashed after the call;
    the check reads the file the last round left, which must hash as round
    1's output did.
    """

    name = "census"

    def __init__(self, gofknots, out_stem):
        self.cli = gofknots.cli
        self.tsv = out_stem.with_name(out_stem.name + ".tsv")
        self.rows = 0
        self.bytes_out = 0

    def make_ops(self, rng):
        return [rng.randint(605, 615)]

    def run(self, n):
        with open(self.tsv, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            return self.cli.run(["enumerate", "--max", str(n), "--format", "tsv"])

    def digest(self, n, code):
        sha, size, rows = hashlib.sha256(), 0, 0
        with open(self.tsv, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 16), b""):
                sha.update(chunk)
                size += len(chunk)
                rows += chunk.count(b"\n")
        self.rows += rows
        self.bytes_out += size
        return (code, size, sha.hexdigest())

    def check(self, ops, digests):
        problems = []
        for n, (code, _, sha) in zip(ops, digests):
            if code != 0:
                problems.append(f"enumerate --max {n} exited with {code}")
            data = self.tsv.read_bytes()
            if hashlib.sha256(data).hexdigest() != sha:
                problems.append(f"{self.tsv.name} no longer holds round 1's output")
            problems += checks.census_problems(n, data.decode())
        return problems


class LensQuery:
    """Single classify.gof_count(alpha, beta) queries with alpha up to 10^6."""

    name = "lens_query"
    MAX_ALPHA = 10**6

    def __init__(self, gofknots, out_stem):
        self.classify = gofknots.classify

    def make_ops(self, rng):
        ops = []
        for _ in range(1000):  # random fractions, mostly count 0
            alpha = rng.randint(2, self.MAX_ALPHA)
            beta = rng.randrange(1, alpha)
            while gcd(alpha, beta) != 1:
                beta = rng.randrange(1, alpha)
            ops.append(("random", alpha, beta))
        for i, target in enumerate(_stratified(rng, 1000, self.MAX_ALPHA, 64)):
            q = 1 + i % 4  # small q: long sigma_1^p blocks, O(alpha) letters
            family = rng.choice(("one", "two"))
            shift = 1 if family == "two" else 0
            p = max(1, (target - q - shift) // (2 * q + 1))
            alpha = 2 * p * q + p + q + shift
            beta = rng.choice(sorted(checks.mirror_orbit(alpha, 2 * q + 1)))
            ops.append(("family", alpha, beta))
        # the largest query is fixed, so that it alone sets the peak memory
        for alpha in _stratified(rng, 5, self.MAX_ALPHA, 31) + [self.MAX_ALPHA]:
            ops.append(("torus", alpha, rng.choice((1, -1))))
        # increasing alpha: in a seeded order the allocator's heap state, and
        # with it the peak memory, would differ from seed to seed by 10%
        ops.sort(key=lambda op: op[1])
        return ops

    def run(self, op):
        _, alpha, beta = op
        return self.classify.gof_count(alpha, beta)

    def digest(self, op, report):
        return (report.count, tuple(tuple(checks.syllables(w.word)) for w in report.witnesses))

    def check(self, ops, digests):
        problems = []
        for (kind, alpha, beta), (count, witnesses) in zip(ops, digests):
            found = checks.witness_problems(alpha, beta, count, [list(s) for s in witnesses])
            problems += [f"{kind}: {p}" for p in found]
        return problems


class Identify:
    """classify.identify_closure on built conjugates and random short words."""

    name = "identify"

    def __init__(self, gofknots, out_stem):
        self.classify = gofknots.classify

    def make_ops(self, rng):
        ops = []
        for i in range(16):  # conjugates of family witnesses, half mirrored
            family = rng.choice(("one", "two"))
            p, q = 2 + 3 * (i % 4), 2 + 3 * (i // 4)  # a fixed 4 x 4 grid
            alpha = 2 * p * q + p + q + (family == "two")
            u = _reduced_word(rng, 8)
            word = u + _family_word(family, p, q) + _invert(u)
            if i % 2:
                word = tuple(-k for k in word)
            ops.append(("family", word, (alpha, 2 * q + 1)))
        # torus sigma_1^k sigma_2^+-1 on a fixed ladder of k, each k with both
        # signs: the cost grows as k^2, and sigma_2^-1 costs 10-20% more than
        # sigma_2, so a seeded k or sign would move run_s from seed to seed
        for k in range(10, 101, 12):
            for last in (2, -2):
                u = _reduced_word(rng, 8)
                word = u + (1,) * k + (last,) + _invert(u)
                ops.append(("torus", word, (k, 1)))
        for i in range(64):  # random words; misses scan every candidate
            ops.append(("random", _random_word(rng, 12 + i // 8), None))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        return self.classify.identify_closure(op[1])

    def digest(self, op, result):
        if result is None:
            return None
        return (result.fraction.alpha, result.fraction.beta, result.mirrored, tuple(result.matched_witness))

    def check(self, ops, digests):
        problems = []
        for (kind, word, expected), answer in zip(ops, digests):
            problems += checks.identify_problems(kind, word, expected, answer)
        return problems


class Verify:
    """verify.run_suites("all") at bounds small enough to run in about a second."""

    name = "verify"

    def __init__(self, gofknots, out_stem):
        self.verify = gofknots.verify

    def make_ops(self, rng):
        return [
            self.verify.VerifyBounds(
                counts_alpha=500,
                orientation_alpha=500,
                identity_pq=60,
                witness_pq=20,
                witness_torus=20,
                seed=rng.randrange(2**31),
            )
        ]

    def run(self, bounds):
        return self.verify.run_suites("all", bounds=bounds)

    def digest(self, bounds, violations):
        return tuple(repr(v) for v in violations)

    def check(self, ops, digests):
        return [f"verify reported {v}" for violations in digests for v in violations[:10]]


WORKLOADS = {w.name: w for w in (Census, LensQuery, Identify, Verify)}
