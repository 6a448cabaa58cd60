import json
from math import gcd

import pytest

from gofknots import classify, cli, twobridge, verify


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
        real_keys, real_orbit = classify._family_keys, classify._orbit

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

        monkeypatch.setattr(classify, "_family_keys", extra_key)
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
            for module, name in ((classify, "family_hits"), (classify, "_family_keys"),
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
        # census_by_alpha itself needs _family_keys, _orbit, family_hits and the sieve
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
        real = classify._family_keys

        def keys(alpha):
            found = real(alpha)
            if alpha == 11:
                found.remove(3)
            return found

        monkeypatch.setattr(classify, "_family_keys", keys)
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
        names = ("family_membership", "family_hits", "_family_keys", "_orbit",
                 "canonical_fractions", "_canonical_betas")
        for name in names:
            monkeypatch.setattr(classify, name, None)
        assert verify.verify_orientation_uniqueness(200) == []
