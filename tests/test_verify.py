import json

import pytest

from gofknots import classify, cli, verify


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
        # a fault the counts oracle catches carries a FamilyParams as actual
        real = classify.family_hits

        def hit_at_six(alpha, orbit):
            hits = real(alpha, orbit)
            return hits or ([classify.FamilyParams(classify.FAMILY_ONE, 1, 1)] if alpha == 6 else [])

        monkeypatch.setattr(classify, "family_hits", hit_at_six)
        assert cli.run(["verify", "--suite", "counts", "--max", "10"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc == [{
            "suite": "counts",
            "params": {"alpha": 6, "beta": 1},
            "expected": "no family hit on the torus locus",
            "actual": {"family": classify.FAMILY_ONE, "p": 1, "q": 1},
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
