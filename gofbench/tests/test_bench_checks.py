"""The benchmark's checks are right on small inputs and reject wrong outputs.

Run from the root of the repository:

    python3 -m pytest gofbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import time
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "gofbench"))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gofknots import classify, cli  # noqa: E402


def brute_force_count(alpha: int, beta: int) -> int:
    """The count straight from the family definitions, searching p and q."""
    alpha, beta = checks.canonical_pair(alpha, beta)
    if alpha == 0:
        return 1
    if (alpha, beta) == (4, 1):
        return 3
    if beta == 1:
        return 2
    orbit = {b % alpha for b in (beta, -beta, pow(beta, -1, alpha), -pow(beta, -1, alpha))}
    for p in range(1, alpha + 1):
        for q in range(1, alpha + 1):
            for shift in (0, 1):
                if 2 * p * q + p + q + shift == alpha and 2 * q + 1 in orbit:
                    return 1
    return 0


def letter_burau(word):
    gens = {1: (1, 1, 0, 1), -1: (1, -1, 0, 1), 2: (1, 0, -1, 1), -2: (1, 0, 1, 1)}
    a, b, c, d = 1, 0, 0, 1
    for k in word:
        e, f, g, h = gens[k]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return (a, b, c, d)


def census_tsv(n: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["enumerate", "--max", str(n), "--format", "tsv"]) == 0
    return out.getvalue()


def report_of(alpha, beta):
    report = classify.gof_count(alpha, beta)
    return report.count, [checks.syllables(w.word) for w in report.witnesses]


# --- the independent computations agree with brute force -------------------


def test_divisor_rule_matches_brute_force():
    for alpha, beta in checks.canonical_fractions_upto(120):
        assert checks.expected_count(alpha, beta) == brute_force_count(alpha, beta), (alpha, beta)


def test_divisor_rule_matches_the_program_on_small_fractions():
    for alpha, beta in checks.canonical_fractions_upto(80):
        assert checks.expected_count(alpha, beta) == classify.gof_count(alpha, beta).count


@pytest.mark.parametrize("pair,count", [((0, 1), 1), ((1, 1), 2), ((4, 1), 3), ((4, 3), 3), ((7, 6), 2), ((17, 5), 1), ((19, 3), 1), ((9, 2), 0)])
def test_divisor_rule_values(pair, count):
    assert checks.expected_count(*pair) == count


def test_canonical_fractions_upto_matches_the_program():
    got = checks.canonical_fractions_upto(60)
    want = [f.pair for a in range(61) for f in classify.canonical_fractions(a)]
    assert got == want


def test_syllable_burau_matches_letter_products():
    rng = random.Random(7)
    for _ in range(300):
        word = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 40)))
        sylls = checks.syllables(word)
        assert tuple(g * (1 if e > 0 else -1) for g, e in sylls for _ in range(abs(e))) == word
        assert checks.burau(sylls) == letter_burau(word)
        a, b, c, d = letter_burau(word)
        assert checks.closure_det(sylls) == abs((a - 1) * (d - 1) - b * c)
        assert checks.exponent_sum(sylls) == sum(1 if k > 0 else -1 for k in word)


@pytest.mark.parametrize("word", [(3,), (1, 0), (2, -3, 1)])
def test_syllables_reject_bad_letters(word):
    with pytest.raises((ValueError, OverflowError)):
        checks.syllables(word)


# --- each check rejects a corrupted output ----------------------------------


@pytest.mark.parametrize("pair", [(0, 1), (1, 1), (4, 1), (19, 3), (17, 5), (25, 1), (82, 11), (9, 2)])
def test_true_reports_pass(pair):
    count, witnesses = report_of(*pair)
    assert checks.witness_problems(*pair, count, witnesses) == []


@pytest.mark.parametrize("pair", [(19, 3), (25, 1), (9, 2), (4, 1)])
def test_flipped_count_is_rejected(pair):
    count, witnesses = report_of(*pair)
    flipped = 1 - count if count <= 1 else count - 1
    assert checks.witness_problems(*pair, flipped, witnesses[:flipped])


def _two_family_fractions_with_one_alpha():
    for alpha in range(5, 200):
        hits = [f.pair for f in classify.canonical_fractions(alpha) if f.beta != 1 and classify.gof_count(*f.pair).count == 1]
        if len(hits) >= 2:
            return hits[:2]
    raise AssertionError("no alpha with two family fractions below 200")


def test_witness_with_the_wrong_beta_is_rejected():
    # the determinant alone cannot tell these two witnesses apart
    first, second = _two_family_fractions_with_one_alpha()
    _, wrong = report_of(*second)
    assert checks.closure_det(wrong[0]) == first[0]
    assert checks.witness_problems(*first, 1, wrong)


def test_torus_witness_for_a_family_fraction_is_rejected():
    _, torus = report_of(19, 1)
    assert checks.witness_problems(19, 3, 1, torus[:1])


def test_witness_with_the_wrong_determinant_is_rejected():
    assert checks.witness_problems(25, 1, 2, [[(1, 24), (2, 1)], [(1, 25), (2, -1)]])


def test_census_rows_pass_and_corruptions_fail():
    tsv = census_tsv(40)
    assert checks.census_problems(40, tsv) == []
    rows = tsv.splitlines(keepends=True)
    dropped = "".join(rows[:10] + rows[11:])
    swapped = "".join(rows[:10] + [rows[11], rows[10]] + rows[12:])
    doubled = "".join(rows[:10] + [rows[10]] + rows[10:])
    recounted = tsv.replace("19\t3\t1\t", "19\t3\t0\t")
    assert recounted != tsv
    for bad in (dropped, swapped, doubled, recounted):
        assert checks.census_problems(40, bad)
    assert checks.census_problems(41, tsv)  # the alpha = 41 rows are missing


def test_identify_answers_pass_and_wrong_fractions_fail():
    witness = (1,) * 6 + (2, 2, 1, -2)  # family one, p = 6, q = 1: b(19, 3)
    word = (2, 1) + witness + (-1, -2)
    result = classify.identify_closure(word)
    answer = (result.fraction.alpha, result.fraction.beta, result.mirrored, tuple(result.matched_witness))
    assert checks.identify_problems("family", word, (19, 3), answer) == []
    assert checks.identify_problems("family", word, (19, 7), answer)
    wrong = (19, 7, answer[2], answer[3])
    assert checks.identify_problems("family", word, (19, 3), wrong)
    assert checks.identify_problems("random", word, None, (23, 3, False, answer[3]))
    assert checks.identify_problems("random", word, None, (19, 3, False, (1,) * 19 + (2,)))
    assert checks.identify_problems("family", word, (19, 3), None)


def test_unrecognised_random_word_is_accepted():
    assert checks.identify_problems("random", (1, 2, 1, 2), None, None) == []


def test_canonical_pair_is_the_orbit_minimum():
    for alpha in range(2, 40):
        for beta in range(1, alpha):
            if gcd(alpha, beta) == 1:
                orbit = checks.mirror_orbit(alpha, beta)
                assert checks.canonical_pair(alpha, beta) == (alpha, min(orbit))


# --- a call that raises is counted and fails the run ------------------------


class _Raises:
    def __getattr__(self, name):
        def call(*args, **kwargs):
            raise RuntimeError("boom")

        return call


@pytest.mark.parametrize("kind", ["census", "verify"])
def test_a_workload_whose_only_call_raises_reports_cleanly(kind, tmp_path):
    program = SimpleNamespace(cli=_Raises(), verify=_Raises(), classify=_Raises())
    workload = workloads.WORKLOADS[kind](program, tmp_path / kind)
    ops = [610] if kind == "census" else [None]
    rounds = run.run_rounds(workload, ops, 0.0)
    assert (rounds.count, rounds.attempted, rounds.failed) == (1, 1, 1)
    problems = run.check_rounds(workload, ops, rounds)
    assert any("raised RuntimeError: boom" in p for p in problems)
    assert "no operation returned, so no output was checked" in problems


def test_calls_that_raise_fail_the_run_and_the_rest_are_still_checked(tmp_path):
    class Flaky:
        def gof_count(self, alpha, beta):
            if alpha == 17:
                raise RuntimeError("boom")
            return classify.gof_count(alpha, beta)

    workload = workloads.LensQuery(SimpleNamespace(classify=Flaky()), tmp_path / "lens")
    ops = [("family", 19, 3), ("random", 17, 5), ("random", 9, 2)]
    rounds = run.run_rounds(workload, ops, 0.0)
    assert rounds.failed == 1
    assert run.check_rounds(workload, ops, rounds) == ["('random', 17, 5) raised RuntimeError: boom"]


def test_a_later_round_that_differs_from_round_1_fails_the_run(tmp_path):
    calls = []

    class Drifting:
        def gof_count(self, alpha, beta):
            calls.append(alpha)
            if len(calls) == 1:
                return classify.gof_count(19, 3)
            time.sleep(0.1)
            return classify.gof_count(19, 7)

    workload = workloads.LensQuery(SimpleNamespace(classify=Drifting()), tmp_path / "lens")
    ops = [("family", 19, 3)]
    rounds = run.run_rounds(workload, ops, 0.15)
    assert rounds.count >= 2
    assert rounds.mismatched == rounds.count - 1
    assert run.check_rounds(workload, ops, rounds) == [f"{rounds.mismatched} outputs of later rounds differ from round 1"]


def test_run_s_is_the_median_round_at_the_reference_speed():
    rounds = run.Rounds(times=[0.3, 0.1, 0.2], probes=[2 * run.REFERENCE_S] * 4)
    assert run.run_seconds(rounds) == pytest.approx(0.1)
