import json
from math import gcd

import pytest

from gofknots import braid, classify, cli, cover, twobridge, verify


class TestSuitesPassAtReducedBounds:
    def test_counts(self):
        assert verify.verify_counts(300) == []

    def test_orientation(self):
        assert verify.verify_orientation_uniqueness(200) == []

    def test_identity(self):
        assert verify.verify_inverse_identity(20) == []

    def test_burau(self):
        assert verify.verify_burau_witnesses(12) == []

    def test_conjugacy(self):
        assert verify.verify_conjugacy_suite(soundness_trials=50) == []


class TestViolationRecords:
    def test_json_shape(self):
        v = verify.Violation("counts", {"alpha": 9, "beta": 2}, 1, 0)
        assert v.as_json() == {
            "suite": "counts",
            "params": {"alpha": 9, "beta": 2},
            "expected": 1,
            "actual": 0,
        }

    def test_caught_family_hit_prints_as_json(self, monkeypatch, capsys):
        # a fault the counts oracle catches carries a FamilyParams as actual:
        # 3 divides 2*11 - 1 but lies in the orbit of (11,3), not of (11,2)
        real_keys, real_orbit = classify._axis_betas, classify._orbit

        def extra_key(alpha):
            keys = real_keys(alpha)
            if alpha == 11:
                keys.add(2)
            return keys

        def extra_member(f):
            members = real_orbit(f)
            if f.pair == (11, 2):
                members.add(3)
            return members

        monkeypatch.setattr(classify, "_axis_betas", extra_key)
        monkeypatch.setattr(classify, "_orbit", extra_member)
        assert cli.run(["verify", "--suite", "counts", "--max", "12"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc == [{
            "suite": "counts",
            "params": {"alpha": 11, "beta": 2},
            "expected": "count == 1 iff a family fraction (False)",
            "actual": {"family": classify.FAMILY_TWO, "p": 3, "q": 1},
        }]

    def test_default_bounds(self):
        bounds = verify.VerifyBounds()
        assert bounds.counts_alpha == 5000
        assert bounds.orientation_alpha == 2000
        assert bounds.identity_pq == 100
        assert bounds.witness_pq == 50


@pytest.fixture
def calls(monkeypatch):
    """Replace every suite by a stub; maps each suite called to its (args, kwargs)."""
    seen = {}

    def recorder(name):
        def record(*args, **kwargs):
            seen[name] = (args, kwargs)
            return []
        return record

    for name in ("verify_counts", "verify_orientation_uniqueness", "verify_inverse_identity",
                 "verify_burau_witnesses", "verify_conjugacy_suite"):
        monkeypatch.setattr(verify, name, recorder(name))
    return seen


class TestRunSuites:
    def test_single_suite_with_override(self):
        assert verify.run_suites("identity", 10) == []

    def test_all_suites_small(self):
        # override keeps the counts census small enough for a unit test
        assert verify.run_suites("all", 30) == []

    def test_all_applies_max_to_the_census_suites_only(self, calls):
        defaults = verify.VerifyBounds()
        assert verify.run_suites("all", 60) == []
        assert calls["verify_counts"][0] == (60,)
        assert calls["verify_orientation_uniqueness"][0] == (60,)
        assert calls["verify_inverse_identity"][0] == (defaults.identity_pq,)
        args, kwargs = calls["verify_burau_witnesses"]
        assert args == (defaults.witness_pq,)
        assert kwargs["max_torus"] == defaults.witness_torus

        calls.clear()
        assert verify.run_suites("burau", 7) == []
        args, kwargs = calls["verify_burau_witnesses"]
        assert args == (7,) and kwargs["max_torus"] == 7

    @pytest.mark.parametrize("suite", ["all", "counts", "burau"])
    def test_max_zero_is_a_bound(self, calls, suite):
        defaults = verify.VerifyBounds()
        assert verify.run_suites(suite, 0) == []
        if suite in ("all", "counts"):
            assert calls["verify_counts"][0] == (0,)
        if suite == "all":
            assert calls["verify_orientation_uniqueness"][0] == (0,)
            args, kwargs = calls["verify_burau_witnesses"]
            assert args == (defaults.witness_pq,) and kwargs["max_torus"] == defaults.witness_torus
        if suite == "burau":
            args, kwargs = calls["verify_burau_witnesses"]
            assert args == (0,) and kwargs["max_torus"] == 0
            assert "verify_counts" not in calls

    def test_every_suite_is_a_cli_choice_and_runs(self, calls):
        parser = cli._build_parser()
        for name in verify.SUITES:
            assert parser.parse_args(["verify", "--suite", name]).suite == name
            calls.clear()
            bound = None if name == "conjugacy" else 0
            assert verify.run_suites(name, bound) == []
            [(args, kwargs)] = calls.values()
            assert args[:1] == (() if bound is None else (0,)), name

    def test_a_bound_to_the_suite_without_one_is_refused(self, calls):
        with pytest.raises(ValueError, match="takes no bound"):
            verify.run_suites("conjugacy", 3)
        assert calls == {}
        # under --suite all it runs with its seed and nothing else
        bounds = verify.VerifyBounds(seed=7)
        assert verify.run_suites("all", 3, bounds) == []
        assert calls["verify_conjugacy_suite"] == ((), {"seed": 7})
        assert calls["verify_burau_witnesses"][1]["seed"] == 7

    @pytest.mark.parametrize("suite", ["all", "counts", "orientation"])
    def test_a_census_bound_above_the_limit_is_refused(self, calls, suite):
        limit = verify.MAX_CENSUS_ALPHA
        with pytest.raises(ValueError, match=f"up to {limit}, got {limit + 1}"):
            verify.run_suites(suite, limit + 1)
        assert calls == {}
        assert verify.run_suites(suite, limit) == []
        assert calls["verify_counts" if suite != "orientation" else "verify_orientation_uniqueness"][0] == (limit,)

    def test_the_census_limit_leaves_the_grid_suites_alone(self, calls):
        bound = verify.MAX_CENSUS_ALPHA + 1
        assert verify.run_suites("identity", bound) == []
        assert verify.run_suites("burau", bound) == []
        assert calls["verify_inverse_identity"][0] == (bound,)
        assert calls["verify_burau_witnesses"][0] == (bound,)

    def test_max_zero_suites_pass(self):
        assert verify.run_suites("counts", 0) == []
        assert verify.run_suites("burau", 0) == []

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            verify.run_suites("nonsense")


class TestDeterminism:
    def test_randomized_suites_are_seeded(self):
        a = verify.verify_burau_witnesses(5, twist_trials=10)
        b = verify.verify_burau_witnesses(5, twist_trials=10)
        assert a == b


class TestCountsOracle:
    def test_small_bounds_pass(self):
        # the last alpha is closed after the census ends; (4,1) is the triple
        for n in range(-1, 13):
            assert verify.verify_counts(n) == [], n

    def test_family_set_equals_orbit_scan(self, monkeypatch):
        # the oracle is built without the library's family code
        with monkeypatch.context() as m:
            for module, name in ((classify, "family_hits"), (classify, "_axis_betas"),
                                 (classify, "_orbit"), (classify, "family_membership"),
                                 (classify, "_canonical_betas"), (twobridge, "orbit")):
                m.setattr(module, name, None)
            forward = verify._family_fractions(300)
            raw = set(verify._family_solutions(300))
        scanned = {
            f.pair
            for alpha in range(2, 301)
            for f in classify.canonical_fractions(alpha)
            if any(d % 2 == 1 and classify.family_membership(alpha, d)
                   for d in twobridge.orbit(alpha, f.beta))
        }
        assert forward == scanned
        # the raw (alpha, beta*) pairs are the definition, solved one at a time
        defined = {
            (alpha, d)
            for alpha in range(4, 301)
            for d in range(3, alpha, 2)
            if classify.family_membership(alpha, d) is not None
        }
        assert raw == defined

    def test_reads_no_library_family_code_outside_the_census(self, monkeypatch):
        # census_by_alpha itself needs _axis_betas, _orbit, family_hits and the sieve
        monkeypatch.setattr(classify, "family_membership", None)
        monkeypatch.setattr(twobridge, "orbit", None)
        assert verify.verify_counts(200) == []

    def test_phi_counts_coprime_residues(self):
        for n in range(1, 501):
            assert verify._phi(n) == sum(1 for r in range(n) if gcd(r, n) == 1), n


class TestCountsMutations:
    """Library faults that verify_counts must report."""

    def test_cofactor_bound(self, monkeypatch):
        # 2p + 1 > 3 in place of >= 3 loses the hit (two, 1, 1) of (5,2).
        # A bound d in place of 3d changes nothing: a member d < alpha
        # dividing 2*alpha +- 1 already has a cofactor >= 3.
        real = classify.family_hits
        monkeypatch.setattr(
            classify, "family_hits", lambda alpha, orbit: [fp for fp in real(alpha, orbit) if fp.p > 1]
        )
        assert verify.verify_counts(200) != []

    def test_dropped_family(self, monkeypatch):
        real = classify.family_hits
        monkeypatch.setattr(
            classify,
            "family_hits",
            lambda alpha, orbit: [fp for fp in real(alpha, orbit) if fp.family != classify.FAMILY_TWO],
        )
        assert verify.verify_counts(200) != []

    @pytest.mark.parametrize("fault", ["no third axis at (4,1)", "torus report at (7,2)"])
    def test_torus_rule(self, monkeypatch, fault):
        real = classify._report

        def report(f):
            if fault.startswith("no third") and f.pair == (4, 1):
                return classify.AxisReport(f, real(f).witnesses[:2])
            if fault.startswith("torus") and f.pair == (7, 2):
                return classify.AxisReport(f, real(twobridge.Fraction(7, 1)).witnesses)
            return real(f)

        monkeypatch.setattr(classify, "_report", report)
        assert verify.verify_counts(200) != []

    @pytest.mark.parametrize("pair", [(6, 1), (4, 1)])
    def test_torus_third_axis_from_family_hits(self, monkeypatch, pair):
        # the third axis of (4,1) is its family hit: a hit added at (6,1),
        # or the one at (4,1) removed, must be caught there and only there
        real = classify.family_hits

        def hits(alpha, orbit):
            found = real(alpha, orbit)
            if (alpha, min(orbit, default=None)) == pair:
                return [] if found else [classify.FamilyParams(classify.FAMILY_ONE, 1, 1)]
            return found

        monkeypatch.setattr(classify, "family_hits", hits)
        violations = verify.verify_counts(200)
        assert violations != []
        assert {(v.params["alpha"], v.params.get("beta")) for v in violations} == {pair}

    @pytest.mark.parametrize("fault", ["non-minimal", "duplicate", "missing"])
    def test_canonical_fractions(self, monkeypatch, fault):
        # the census reads the canonical fractions as the betas of
        # _canonical_betas, so the faults go into that stream at (7,2)
        real = classify._canonical_betas

        def betas(alpha):
            for beta in real(alpha):
                if (alpha, beta) != (7, 2):
                    yield beta
                elif fault == "non-minimal":
                    yield 3
                elif fault == "duplicate":
                    yield from (beta, beta)

        monkeypatch.setattr(classify, "_canonical_betas", betas)
        assert verify.verify_counts(200) != []

    def test_dropped_member_key(self, monkeypatch):
        # (11,3) is the family fraction of 3 | 2*11 - 1; its report goes
        real = classify._axis_betas

        def keys(alpha):
            found = real(alpha)
            if alpha == 11:
                found.remove(3)
            return found

        monkeypatch.setattr(classify, "_axis_betas", keys)
        assert verify.verify_counts(200) != []

    def test_report_fraction_differs_from_key(self, monkeypatch):
        real = classify._report

        def report(f):
            if f.pair == (11, 3):
                return classify.AxisReport(twobridge.Fraction(11, 4), real(f).witnesses)
            return real(f)

        monkeypatch.setattr(classify, "_report", report)
        assert verify.verify_counts(200) != []

    @pytest.mark.parametrize("fault", ["skipped alpha", "repeated alpha", "no report at (9,1)"])
    def test_census_by_alpha_stream(self, monkeypatch, fault):
        real = classify.census_by_alpha

        def census_by_alpha(max_alpha):
            for alpha, betas, reports in real(max_alpha):
                if alpha == 9 and fault == "skipped alpha":
                    continue
                if alpha == 9 and fault == "no report at (9,1)":
                    del reports[1]
                yield alpha, betas, reports
                if alpha == 9 and fault == "repeated alpha":
                    *_, again = real(9)  # alpha 9 with betas not yet read
                    yield again

        monkeypatch.setattr(classify, "census_by_alpha", census_by_alpha)
        assert verify.verify_counts(200) != []

    def test_beta_other_than_1_at_alpha_below_2(self, monkeypatch):
        real = classify._canonical_betas
        monkeypatch.setattr(classify, "_canonical_betas", lambda alpha: iter((2,)) if alpha == 1 else real(alpha))
        violations = verify.verify_counts(20)
        assert ("counts", {"alpha": 1, "beta": 2}, "beta is the least member of its orbit", 1) in violations

    def test_non_unit_beta(self, monkeypatch):
        # 3 divides 9: the stream 1, 2 of alpha 9 gains a beta with no inverse
        real = classify._canonical_betas
        monkeypatch.setattr(
            classify, "_canonical_betas", lambda alpha: iter((1, 2, 3)) if alpha == 9 else real(alpha)
        )
        violations = verify.verify_counts(20)
        assert violations == [("counts", {"alpha": 9, "beta": 3}, "gcd(alpha, beta) == 1", 3)]

    def test_count_above_3(self, monkeypatch):
        real = classify._report

        def report(f):
            found = real(f)
            if f.pair == (4, 1):
                return found._replace(witnesses=found.witnesses + found.witnesses[:1])
            return found

        monkeypatch.setattr(classify, "_report", report)
        violations = verify.verify_counts(20)
        assert ("counts", {"alpha": 4, "beta": 1}, "count <= 3", 4) in violations

    def test_family_fraction_on_the_torus_locus(self, monkeypatch):
        # the oracle gains (7, 6), whose orbit minimum is 1: the library's
        # torus row (7,1) then meets a family fraction
        real = verify._family_solutions

        def solutions(max_alpha):
            yield from real(max_alpha)
            yield 7, 6

        monkeypatch.setattr(verify, "_family_solutions", solutions)
        violations = verify.verify_counts(20)
        assert violations == [("counts", {"alpha": 7, "beta": 1}, "no family fraction on the torus locus", (7, 1))]

    def test_alphas_ending_early(self, monkeypatch):
        real = classify.census_by_alpha
        monkeypatch.setattr(
            classify, "census_by_alpha", lambda max_alpha: (row for row in real(max_alpha) if row[0] <= 15)
        )
        violations = verify.verify_counts(20)
        assert ("counts", {"alpha": 16}, "alphas up to 20", 15) in violations


class TestBurauMutations:
    """Faults that verify_burau_witnesses must report."""

    def test_family_witness(self, monkeypatch):
        # the witness, and the flype partner read off it, gain a letter
        real = classify.family_witness
        bad = classify.FamilyParams(classify.FAMILY_ONE, 2, 3)

        def witness(params):
            found = real(params)
            return ((1, params.p + 1),) + found[1:] if params == bad else found

        monkeypatch.setattr(classify, "family_witness", witness)
        violations = verify.verify_burau_witnesses(4, max_torus=0, twist_trials=0)
        assert [(v.suite, v.params, v.expected) for v in violations] == [
            ("burau", {"family": "one", "p": 2, "q": 3}, 17)
        ] * 2
        assert all(v.actual != 17 for v in violations)

    def test_torus(self, monkeypatch):
        real = cover.closure_determinant
        monkeypatch.setattr(
            cover, "closure_determinant", lambda word: 6 if tuple(word) == (1,) * 5 + (2,) else real(word)
        )
        violations = verify.verify_burau_witnesses(0, max_torus=8, twist_trials=0)
        assert violations == [("burau", {"torus_k": 5, "tail": 2}, 5, 6)]

    def test_twist(self, monkeypatch):
        # the "twisted" word is a torus braid whose determinant is one more
        monkeypatch.setattr(
            braid, "surgery_twist", lambda word, n: (1,) * (cover.closure_determinant(word) + 1) + (2,)
        )
        violations = verify.verify_burau_witnesses(0, max_torus=0, twist_trials=5)
        assert [v.params["trial"] for v in violations] == list(range(5))
        assert all(v.actual == v.expected + 1 for v in violations)


class TestConjugacyMutations:
    """Faults that verify_conjugacy_suite must report."""

    def test_surgery_lands_outside_the_mirror_class(self, monkeypatch):
        real = braid.is_conjugate
        target = (-1, -1, -1, -1, -1, -2)
        monkeypatch.setattr(braid, "is_conjugate", lambda w1, w2: w2 != target and real(w1, w2))
        violations = verify.verify_conjugacy_suite(soundness_trials=0)
        assert violations == [("conjugacy", {"pair": "+1 surgery on sigma_1^5 sigma_2"}, True, False)]

    def test_torus_exponent_sums(self, monkeypatch):
        monkeypatch.setattr(braid, "exponent_sum", lambda word: 0)
        violations = verify.verify_conjugacy_suite(soundness_trials=0)
        assert violations == [
            ("conjugacy", {"torus_k": k}, "exponent sums differ", "equal") for k in range(2, 11)
        ]

    def test_torus_pairs_conjugate(self, monkeypatch):
        monkeypatch.setattr(braid, "is_conjugate", lambda w1, w2: True)
        violations = verify.verify_conjugacy_suite(soundness_trials=3)
        assert violations == [("conjugacy", {"torus_k": k}, False, True) for k in range(2, 11)]

    def test_soundness(self, monkeypatch):
        # the "conjugate" gains a letter, so its exponent sum differs
        monkeypatch.setattr(braid, "conjugate_by", lambda word, u: tuple(word) + (1,))
        violations = verify.verify_conjugacy_suite(soundness_trials=4)
        assert [v.params["trial"] for v in violations] == list(range(4))
        assert all(v.expected is True and v.actual is False for v in violations)


class TestOrientationMutations:
    """Library faults that verify_orientation_uniqueness must report."""

    @pytest.mark.parametrize("fault", ["first class only", "first class twice"])
    def test_orientation_classes(self, monkeypatch, fault):
        real = twobridge.orientation_classes

        def classes(f):
            first = real(f)[0]
            return (first,) if fault == "first class only" else (first, first)

        monkeypatch.setattr(twobridge, "orientation_classes", classes)
        assert verify.verify_orientation_uniqueness(200) != []

    def test_fault_away_from_4_1(self, monkeypatch):
        # (16, 3) carries the family member 3 (p=5, q=1); the suite must
        # visit it, not only beta 1 of each alpha
        real = twobridge.orientation_classes

        def classes(f):
            found = real(f)
            return (found[0], found[0]) if f.pair == (16, 3) else found

        monkeypatch.setattr(twobridge, "orientation_classes", classes)
        violations = verify.verify_orientation_uniqueness(200)
        assert [v.params for v in violations] == [{"alpha": 16, "beta": 3}]

    def test_built_without_the_library_family_code(self, monkeypatch):
        names = ("family_membership", "family_hits", "_axis_betas", "_orbit",
                 "canonical_fractions", "_canonical_betas")
        for name in names:
            monkeypatch.setattr(classify, name, None)
        assert verify.verify_orientation_uniqueness(200) == []
