import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gofknots import classify
from gofknots import twobridge as tb


def coprime_pairs(max_alpha):
    return (
        st.integers(min_value=2, max_value=max_alpha)
        .flatmap(lambda a: st.tuples(st.just(a), st.integers(min_value=1, max_value=a - 1)))
        .filter(lambda p: math.gcd(p[0], p[1]) == 1)
    )


class TestCanonical:
    def test_examples(self):
        assert tb.canonical(19, 16).pair == (19, 3)
        assert tb.canonical(4, 3).pair == (4, 1)
        assert tb.canonical(8, 5).pair == (8, 3)

    def test_special_forms(self):
        assert tb.canonical(0, 1).pair == (0, 1)
        assert tb.canonical(0, -1).pair == (0, 1)
        assert tb.canonical(1, 7).pair == (1, 1)

    def test_negative_alpha_is_mirror(self):
        assert tb.canonical(-4, 3) == tb.canonical(4, -3)
        assert tb.canonical(-19, 3).pair == (19, 3)

    def test_invalid(self):
        with pytest.raises(tb.InvalidFractionError):
            tb.canonical(4, 2)
        with pytest.raises(tb.InvalidFractionError):
            tb.canonical(0, 2)
        with pytest.raises(tb.InvalidFractionError):
            tb.Fraction(-3, 1)

    @given(coprime_pairs(1000))
    def test_idempotent(self, pair):
        alpha, beta = pair
        once = tb.canonical(alpha, beta)
        assert tb.canonical(once.alpha, once.beta) == once

    @given(coprime_pairs(500), st.booleans())
    def test_canonical_in_own_orbit_and_minimal(self, pair, _):
        alpha, beta = pair
        f = tb.canonical(alpha, beta)
        orb = tb.orbit(alpha, beta)
        assert f.beta == min(orb)
        assert f.beta in orb


class TestOrbit:
    def test_examples(self):
        assert tb.orbit(19, 3) == frozenset({3, 13, 16, 6})
        assert tb.orbit(8, 3, oriented=True) == frozenset({3, 11, 13, 5})
        assert tb.orbit(0, 1) == frozenset({1})

    def test_oriented_requires_odd(self):
        with pytest.raises(tb.OddFormRequiredError):
            tb.orbit(19, 2, oriented=True)

    @given(coprime_pairs(400), st.booleans(), st.booleans())
    def test_orbit_size_at_most_four(self, pair, oriented, mirror):
        alpha, beta = pair
        if oriented and beta % 2 == 0:
            beta += alpha
            if beta % 2 == 0:
                return
        orb = tb.orbit(alpha, beta, oriented=oriented, mirror=mirror)
        assert 1 <= len(orb) <= 4
        for member in orb:
            assert math.gcd(member, alpha) == 1

    @given(coprime_pairs(300))
    def test_orbit_members_are_mutually_equivalent(self, pair):
        alpha, beta = pair
        for member in tb.orbit(alpha, beta):
            assert tb.equivalent((alpha, beta), (alpha, member))


class TestEquivalent:
    def test_examples(self):
        assert tb.equivalent((10, 3), (10, 7), oriented=True, mirror=False)
        assert not tb.equivalent((4, 1), (4, 3), oriented=True, mirror=True)
        assert tb.equivalent((3, 1), (3, 2))

    def test_alpha_mismatch(self):
        assert not tb.equivalent((5, 2), (7, 2))

    def test_unlink_and_unknot(self):
        assert tb.equivalent((0, 1), (0, -1))
        assert tb.equivalent((1, 1), (1, 5))

    def test_exhaustive_matches_canonical_keys(self):
        # unoriented + mirror equivalence is exactly equality of canonical forms
        for alpha in range(2, 61):
            betas = [b for b in range(1, alpha) if math.gcd(alpha, b) == 1]
            keys = {b: tb.canonical(alpha, b) for b in betas}
            for b1 in betas:
                for b2 in betas:
                    assert tb.equivalent((alpha, b1), (alpha, b2)) == (keys[b1] == keys[b2])

    @given(coprime_pairs(500), st.integers(min_value=1, max_value=499))
    def test_sampled_matches_canonical_keys(self, pair, beta2):
        alpha, beta1 = pair
        if beta2 >= alpha or math.gcd(alpha, beta2) != 1:
            return
        same_key = tb.canonical(alpha, beta1) == tb.canonical(alpha, beta2)
        assert tb.equivalent((alpha, beta1), (alpha, beta2)) == same_key

    @given(coprime_pairs(300), st.integers(min_value=1, max_value=299))
    def test_oriented_refines_unoriented(self, pair, beta2):
        alpha, beta1 = pair
        if beta1 % 2 == 0 or beta2 % 2 == 0 or beta2 >= alpha or math.gcd(alpha, beta2) != 1:
            return
        for mirror in (True, False):
            if tb.equivalent((alpha, beta1), (alpha, beta2), oriented=True, mirror=mirror):
                assert tb.equivalent((alpha, beta1), (alpha, beta2), oriented=False, mirror=mirror)

    def test_oriented_requires_odd(self):
        with pytest.raises(tb.OddFormRequiredError):
            tb.equivalent((5, 2), (5, 3), oriented=True)


class TestValidation:
    """orbit and equivalent check plain integers; canonical builds unchecked fractions."""

    INVALID = [
        ((6, 4), r"gcd\(6, 4\) != 1"),
        ((-3, 1), "alpha must be non-negative, got -3"),
        ((0, 2), r"gcd\(0, 2\) != 1"),
    ]

    @pytest.mark.parametrize("pair", [(6, 4), (6, 0), (6, -2), (-6, 4)])
    def test_canonical_names_the_gcd(self, pair):
        # the error comes from the failed inverse mod alpha, not from gcd
        alpha, beta = pair
        with pytest.raises(tb.InvalidFractionError) as caught:
            tb.canonical(alpha, beta)
        if alpha < 0:
            alpha, beta = -alpha, -beta
        assert str(caught.value) == f"gcd({alpha}, {beta}) != 1: not a two-bridge fraction"
        assert caught.value.__cause__ is None and caught.value.__suppress_context__

    @pytest.mark.parametrize("pair,message", INVALID)
    def test_orbit_rejects_invalid(self, pair, message):
        # (6, 4) and (0, 2) also have even beta: with oriented=True the gcd
        # error still comes first
        for oriented in (False, True):
            with pytest.raises(tb.InvalidFractionError, match=message):
                tb.orbit(*pair, oriented=oriented)

    @pytest.mark.parametrize("pair,message", INVALID)
    def test_equivalent_rejects_invalid(self, pair, message):
        for oriented in (False, True):
            with pytest.raises(tb.InvalidFractionError, match=message):
                tb.equivalent(pair, (5, 1), oriented=oriented)
            with pytest.raises(tb.InvalidFractionError, match=message):
                tb.equivalent((5, 1), pair, oriented=oriented)

    def test_unchecked_fractions_match_validated_ones(self):
        built = [f for alpha in range(0, 40) for f in classify.canonical_fractions(alpha)]
        built += [tb.canonical(alpha, beta) for alpha in range(0, 40) for beta in (1, -1, 3, -5)
                  if math.gcd(alpha, abs(beta)) == 1]
        checked = [tb.Fraction(f.alpha, f.beta) for f in built]
        assert all(type(f) is tb.Fraction for f in built)
        assert built == checked
        assert [hash(f) for f in built] == [hash(g) for g in checked]
        # mixed comparisons order as the validated ones do
        assert [f < g for f, g in zip(built, checked[1:])] == [f < g for f, g in zip(checked, checked[1:])]
        assert [g < f for f, g in zip(built, checked[1:])] == [g < f for f, g in zip(checked, checked[1:])]
        assert sorted(built) == sorted(checked)

    def test_unchecked_fractions_stay_frozen(self):
        f = tb.canonical(19, 16)
        with pytest.raises(AttributeError):
            f.beta = 5

    @given(coprime_pairs(500), coprime_pairs(500))
    def test_trusted_behaves_as_a_fraction(self, first, second):
        f, g = tb._trusted(*first), tb._trusted(*second)
        checked_f, checked_g = tb.Fraction(*first), tb.Fraction(*second)
        assert type(f) is tb.Fraction and f._asdict() == checked_f._asdict()
        assert f == checked_f and hash(f) == hash(checked_f)
        assert (f < g, f <= g, f == g) == (checked_f < checked_g, checked_f <= checked_g, checked_f == checked_g)
        assert (f < checked_g, checked_f < g) == (checked_f < checked_g,) * 2
        assert f.pair == first and repr(f) == repr(checked_f)
        for name in ("alpha", "beta"):
            with pytest.raises(AttributeError):
                setattr(f, name, 1)
            with pytest.raises(AttributeError):
                delattr(f, name)
        assert f.pair == first


class TestOrientationClasses:
    def test_examples(self):
        classes = tb.orientation_classes((4, 1))
        assert len(classes) == 2
        assert any(1 in c.reps for c in classes)
        assert any(3 in c.reps for c in classes)
        assert len(tb.orientation_classes((8, 3))) == 1
        assert len(tb.orientation_classes((7, 3))) == 1

    def test_unlink_and_small(self):
        assert len(tb.orientation_classes((0, 1))) == 1
        assert len(tb.orientation_classes((1, 1))) == 1
        assert len(tb.orientation_classes((2, 1))) == 1

    @given(coprime_pairs(400))
    def test_class_structure(self, pair):
        alpha, beta = pair
        f = tb.canonical(alpha, beta)
        classes = tb.orientation_classes(f)
        assert 1 <= len(classes) <= 2
        if f.alpha % 2 == 1:
            assert len(classes) == 1
        m = 2 * f.alpha
        for cls in classes:
            assert 1 <= len(cls.reps) <= 4
            for r in cls.reps:
                assert r % 2 == 1 and 0 < r < m
                assert pow(r, -1, m) in cls.reps
                assert (-r) % m in cls.reps

    def test_against_brute_force(self):
        # every canonical fraction with alpha <= 60: the odd units mod
        # 2*alpha over the unoriented orbit, split into classes closed under
        # negation and inversion by search; the class of beta comes first
        for alpha in range(2, 61):
            m = 2 * alpha
            for beta in range(1, alpha):
                if math.gcd(alpha, beta) != 1:
                    continue
                inv = next(y for y in range(alpha) if beta * y % alpha == 1)
                orbit = {beta, alpha - beta, inv, alpha - inv}
                if beta != min(orbit):
                    continue
                odd = {x for x in range(1, m, 2) if math.gcd(x, m) == 1 and x % alpha in orbit}
                lift = beta if beta % 2 else beta + alpha  # beta's odd lift
                classes = []
                for start in sorted(odd, key=lambda x: (x != lift, x)):
                    if any(start in c for c in classes):
                        continue
                    cls, todo = set(), [start]
                    while todo:
                        x = todo.pop()
                        if x not in cls:
                            cls.add(x)
                            todo += [m - x, next(y for y in range(m) if x * y % m == 1)]
                    classes.append(frozenset(cls))
                got = tb.orientation_classes(tb.Fraction(alpha, beta))
                assert [c.reps for c in got] == classes, (alpha, beta)
                assert all(c.alpha == alpha for c in got)


class TestConway:
    def test_cf_to_fraction_examples(self):
        assert tb.cf_to_fraction((1, 2, 1))[0] == (4, 3)
        assert tb.cf_to_fraction((3, 2, 2))[0] == (17, 5)
        assert tb.cf_to_fraction((1, 1, 1, 1))[1].pair == (5, 2)
        assert tb.cf_to_fraction((1, 2, -2))[1].pair == (5, 2)

    def test_degenerate(self):
        with pytest.raises(tb.DegenerateContinuedFractionError):
            tb.cf_to_fraction((2, 1, -1))
        with pytest.raises(tb.DegenerateContinuedFractionError):
            tb.cf_to_fraction((1, 0, 2))
        with pytest.raises(tb.DegenerateContinuedFractionError):
            tb.cf_to_fraction(())

    @given(coprime_pairs(1000))
    def test_roundtrip_raw(self, pair):
        # the Euclidean digits of alpha/beta, the last one d >= 2 split into
        # (d - 1, 1) when their count is even, evaluate back to the raw pair
        alpha, beta = pair
        digits, a, b = [], alpha, beta
        while b:
            digits.append(a // b)
            a, b = b, a % b
        if len(digits) % 2 == 0:
            digits[-1:] = [digits[-1] - 1, 1]
        assert len(digits) % 2 == 1
        assert all(d >= 1 for d in digits)
        raw, _ = tb.cf_to_fraction(digits)
        assert raw == (alpha, beta)

    def test_p2q_formula_exhaustive(self):
        for p in range(1, 101):
            for q in range(1, 101):
                raw, _ = tb.cf_to_fraction((p, 2, q))
                assert raw == (2 * p * q + p + q, 2 * q + 1)

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=50))
    def test_conway_flype_identity(self, p, q):
        lhs = tb.cf_to_fraction((p, 1, 1, q))[1]
        rhs = tb.cf_to_fraction((p, 2, -q - 1))[1]
        assert lhs == rhs

