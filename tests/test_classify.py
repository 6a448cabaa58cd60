import hashlib
import itertools
import json
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gofknots import braid as B
from gofknots import classify, cover, twobridge


class TestFamilyMembership:
    def test_examples(self):
        assert classify.family_membership(17, 7) == classify.FamilyParams("one", 2, 3)
        assert classify.family_membership(5, 3) == classify.FamilyParams("two", 1, 1)
        assert classify.family_membership(19, 9) is None

    def test_beta_one_never_matches(self):
        assert classify.family_membership(7, 1) is None

    def test_even_beta_rejected(self):
        with pytest.raises(twobridge.OddFormRequiredError):
            classify.family_membership(9, 4)

    @given(
        st.sampled_from(["one", "two"]),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
    )
    def test_inverts_the_parametrisation(self, family, p, q):
        params = classify.FamilyParams(family, p, q)
        assert classify.family_membership(params.alpha, params.beta_star) == params

    def test_no_overlap_with_torus_locus_except_four(self):
        # a family hit on a beta = +-1 fraction happens exactly at alpha = 4
        for alpha in range(2, 301):
            hits = classify.family_hits(alpha, twobridge.orbit(alpha, 1))
            if alpha == 4:
                assert [(h.family, h.p, h.q) for h in hits] == [("one", 1, 1)]
            else:
                assert hits == []

    def test_divisor_form_matches_the_solver(self):
        # family_hits reads (p, q) off divisors of 2*alpha +- 1; the reference
        # solves every odd orbit member with family_membership and applies
        # the same preference order
        checked = set()
        hit_fractions = 0
        for alpha in range(0, 1501):
            for f in classify.canonical_fractions(alpha):
                orb = twobridge.orbit(f.alpha, f.beta)
                expected = []
                for beta_star in sorted(b for b in orb if b % 2 == 1):
                    params = classify.family_membership(f.alpha, beta_star)
                    if params is not None:
                        expected.append(params)
                expected.sort(key=lambda fp: (fp.q % 2 == 0, fp.beta_star))
                got = classify.family_hits(f.alpha, orb)
                assert got == expected, f.pair
                checked.add(f.pair)
                hit_fractions += bool(got)
        assert (4, 1) in checked and (1500, 1) in checked and (1499, 1) in checked
        assert classify.family_hits(4, twobridge.orbit(4, 1)) == [classify.FamilyParams("one", 1, 1)]
        assert hit_fractions > 1000

    def test_divisor_form_on_arbitrary_members(self):
        # members at or past 2*alpha - 1 give a cofactor below 3 (p < 1)
        for alpha in range(-5, 80):
            members = frozenset(range(0, 2 * alpha + 4))
            expected = [
                params
                for params in (classify.family_membership(alpha, d) for d in sorted(members) if d % 2)
                if params is not None
            ]
            expected.sort(key=lambda fp: (fp.q % 2 == 0, fp.beta_star))
            assert classify.family_hits(alpha, members) == expected, alpha


class TestAxisClasses:
    def test_triple_at_four_one(self):
        report = classify.axis_classes(4, 1)
        assert report.count == 3
        assert [w.word for w in report.witnesses] == [
            (1, 1, 1, 1, 2),
            (1, 1, 1, 1, -2),
            (1, 2, 2, 1, -2),
        ]
        assert [w.label for w in report.witnesses] == [
            "torus-positive",
            "torus-negative",
            "flype-family(one,p=1,q=1)",
        ]

    def test_examples(self):
        assert classify.axis_classes(7, 1).count == 2
        assert classify.axis_classes(19, 2).count == 0
        assert classify.axis_classes(0, 1).count == 1
        assert classify.axis_classes(1, 1).count == 2

    def test_canonicalizes_input(self):
        assert classify.axis_classes(19, 16) == classify.axis_classes(19, 3)

    def test_witness_words_for_19_3(self):
        report = classify.axis_classes(19, 3)
        assert report.count == 1
        assert report.witnesses[0].word == (1, 1, 1, 1, 1, 1, 2, 2, 1, -2)
        assert report.family == classify.FamilyParams("one", 6, 1)

    def test_witnesses_are_syllables_at_any_alpha(self):
        assert classify.axis_classes(19, 3).witnesses[0].syllables == ((1, 6), (2, 2), (1, 1), (2, -1))
        big = 10**15
        pos, neg = classify.gof_count(big, 1).witnesses
        assert (pos.syllables, neg.syllables) == (((1, big), (2, 1)), ((1, big), (2, -1)))
        # family two, (p, q) = (2, 1): the second sigma_1 block is sigma_1^-2
        (w,) = classify.gof_count(8, 3).witnesses
        assert w.syllables == ((1, 2), (2, 2), (1, -2), (2, -1))
        assert w.word == (1, 1, 2, 2, -1, -1, -2)

    def test_orbit_helper_is_the_validated_orbit(self):
        # _report reads its family hits from _orbit(f); as a set it holds no
        # repeated member when beta^-1 = +-beta, as at (8,3)
        assert classify._orbit(twobridge.Fraction(0, 1)) == classify._orbit(twobridge.Fraction(1, 1)) == set()
        for alpha in range(2, 601):
            for f in classify.canonical_fractions(alpha):
                full = twobridge.orbit(*f.pair)
                assert classify._orbit(f) == set(full), f.pair
                assert classify.family_hits(alpha, classify._orbit(f)) == classify.family_hits(alpha, full), f.pair


class TestGofCount:
    @pytest.mark.parametrize(
        "pair,count",
        [
            ((0, 1), 1), ((5, 2), 1), ((19, 3), 1),
            ((19, 2), 0), ((19, 4), 0), ((19, 7), 0),
            ((1, 1), 2), ((2, 1), 2), ((3, 1), 2), ((5, 1), 2), ((19, 1), 2),
            ((4, 1), 3),
        ],
    )
    def test_value_table(self, pair, count):
        assert classify.gof_count(*pair).count == count

    def test_constant_on_homeomorphism_classes(self):
        for alpha in range(2, 151):
            by_class = {}
            for beta in range(1, alpha):
                if math.gcd(alpha, beta) != 1:
                    continue
                f = twobridge.canonical(alpha, beta)
                count = classify.gof_count(alpha, beta).count
                by_class.setdefault(f, set()).add(count)
            for f, counts in by_class.items():
                assert len(counts) == 1, (f, counts)

    def test_note_only_on_the_17_5_class(self):
        assert classify.gof_count(17, 5).notes == (classify.L17_5_NOTE,)
        assert classify.gof_count(17, 7).notes == (classify.L17_5_NOTE,)
        assert classify.gof_count(17, 12).notes == (classify.L17_5_NOTE,)
        assert classify.gof_count(17, 3).notes == ()
        assert classify.gof_count(19, 3).notes == ()


class TestWitnessInvariants:
    def test_determinant_and_self_identification(self):
        for alpha in range(0, 61):
            for f in classify.canonical_fractions(alpha):
                report = classify.axis_classes(f.alpha, f.beta)
                for witness in report.witnesses:
                    assert cover.closure_determinant(witness.word) == alpha
                    cid = classify.identify_closure(witness.word)
                    assert cid is not None
                    assert cid.fraction == f
                    assert not cid.mirrored

    def test_pairwise_nonconjugate_with_mirrors(self):
        for alpha in range(0, 201):
            for f in classify.canonical_fractions(alpha):
                witnesses = classify.axis_classes(f.alpha, f.beta).witnesses
                for i in range(len(witnesses)):
                    for j in range(i + 1, len(witnesses)):
                        wi, wj = witnesses[i].word, witnesses[j].word
                        assert not B.is_conjugate(wi, wj), (alpha, f.beta, i, j)
                        assert not B.is_conjugate(wi, B.mirror(wj)), (alpha, f.beta, i, j)

    def test_flype_partner_is_the_reversed_witness(self):
        # the syllables are spelled out here, and the class is read from the
        # reversed letters of the witness, not from flype_partner's slicing
        for family, e in ((classify.FAMILY_ONE, lambda q: q), (classify.FAMILY_TWO, lambda q: -(q + 1))):
            for p in range(1, 40):
                for q in range(1, 40):
                    fp = classify.FamilyParams(family, p, q)
                    partner = classify.flype_partner(fp)
                    assert partner == ((1, p), (2, -1), (1, e(q)), (2, 2)), fp
                    reversed_witness = B.reverse(B.expand(classify.family_witness(fp)))
                    assert B.syllable_class(partner) == B.conjugacy_class(reversed_witness), fp


class TestIdentifyClosure:
    def test_surgered_word(self):
        cid = classify.identify_closure((-1, -1, -1, -1, -1, -2))
        assert cid.fraction.pair == (5, 1)
        assert cid.mirrored is True
        assert cid.matched_witness == (1, 1, 1, 1, 1, 2)

    def test_unlink(self):
        cid = classify.identify_closure((1, 2, -1))
        assert cid.fraction.pair == (0, 1)
        assert cid.mirrored is False

    def test_trefoil(self):
        cid = classify.identify_closure((1, 1, 1, 2))
        assert cid.fraction.pair == (3, 1)

    def test_surgery_coherence(self):
        word = B.surgery_twist((1, 1, 1, 1, 1, 2), 1)
        cid = classify.identify_closure(word)
        assert cid.fraction.pair == (5, 1) and cid.mirrored is True

    def test_unrecognized(self):
        assert classify.identify_closure(()) is None
        assert classify.identify_closure((1, -1)) is None

    def test_bad_letter_is_named(self):
        with pytest.raises(B.BraidParseError, match="invalid braid letter 3"):
            classify.identify_closure((3,))

    def test_determinant_one_non_two_bridge(self):
        # the (3,5) torus knot closes a 3-braid and has determinant 1, but it
        # is not two-bridge, so it must not be confused with the unknot
        word = (1, 2) * 5
        assert cover.closure_determinant(word) == 1
        assert classify.identify_closure(word) is None

    def test_recognizes_flype_partner_and_swap(self):
        # all 3-braid representatives of b(17,5), not just the emitted witness
        for word in (
            (1, 1, 2, 2, 1, 1, 1, -2),   # witness, (p,q) = (2,3)
            (1, 1, 1, 2, 2, 1, 1, -2),   # swap, (p,q) = (3,2)
            (1, 1, -2, 1, 1, 1, 2, 2),   # partner of (2,3)
            (1, 1, 1, -2, 1, 1, 2, 2),   # partner of (3,2)
        ):
            cid = classify.identify_closure(word)
            assert cid is not None and cid.fraction.pair == (17, 5), word

    def test_recognizes_swapped_family_word(self):
        cid = classify.identify_closure((1, 2, 2) + (1,) * 6 + (-2,))
        assert cid is not None and cid.fraction.pair == (19, 3)

    def test_recognizes_family_two_mates(self):
        # alpha = 8 has family-two hits at both odd orbit members
        for word in (
            (1, 1, 2, 2, -1, -1, -2),          # (p,q) = (2,1)
            (1, 2, 2, -1, -1, -1, -2),         # (p,q) = (1,2)
            (1, 1, -2, -1, -1, 2, 2),          # partner of (2,1)
        ):
            cid = classify.identify_closure(word)
            assert cid is not None and cid.fraction.pair == (8, 3), word

    def test_mirrored_flag_orientation(self):
        cid = classify.identify_closure((-1, -1, -1, -2))
        assert cid.fraction.pair == (3, 1) and cid.mirrored is True

    def test_large_determinant_miss_in_bounded_memory(self):
        # no candidate is spelled out: the torus witnesses of this
        # determinant would be two 4 870 846-letter words, 39 MB each
        word = (1, -2) * 16
        assert cover.closure_determinant(word) == 4870845
        tracemalloc.start()
        try:
            assert classify.identify_closure(word) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_huge_determinant_miss_is_immediate(self):
        # (p, q) is solved from the class key, so nothing grows with the
        # determinant; trial division of 2*det +- 1 would never finish
        word = (1, -2) * 200
        assert cover.closure_determinant(word).bit_length() == 278
        start = time.perf_counter()
        assert classify.identify_closure(word) is None
        assert time.perf_counter() - start < 0.1


class TestIdentifyClosureWithoutScan(TestIdentifyClosure):
    # every TestIdentifyClosure case again, with the per-determinant scan
    # of canonical fractions and orbits, and the factoring of 2*alpha +- 1
    # into axis betas, made to fail
    @pytest.fixture(autouse=True)
    def no_scan(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("identify_closure scanned fractions or orbits, or factored")

        monkeypatch.setattr(classify, "canonical_fractions", refuse)
        monkeypatch.setattr(classify, "_axis_betas", refuse)
        monkeypatch.setattr(twobridge, "orbit", refuse)


def _golden_identify_words() -> list:
    """Every word of length <= 6, then seeded conjugates of 3-braid witnesses.

    The seeded words are family witnesses, flype partners, witnesses with p
    and q swapped and torus braids sigma_1^k sigma_2^+-1, each conjugated by
    a short random word, half of them mirrored.
    """
    words = [w for n in range(7) for w in itertools.product((1, -1, 2, -2), repeat=n)]
    rng = random.Random(2005)
    for i in range(160):
        kind = ("family", "partner", "swap", "torus")[i % 4]
        p, q = rng.randint(1, 6), rng.randint(1, 6)
        if kind == "swap":
            p, q = q, p
        q_block = (1,) * q if rng.random() < 0.5 else (-1,) * (q + 1)
        if kind == "torus":
            core = (1,) * rng.randint(2, 40) + (rng.choice((2, -2)),)
        elif kind == "partner":
            core = (1,) * p + (-2,) + q_block + (2, 2)
        else:
            core = (1,) * p + (2, 2) + q_block + (-2,)
        u = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 4)))
        word = u + core + B.invert(u)
        words.append(B.mirror(word) if i % 8 >= 4 else word)
    return words


class TestIdentifyGolden:
    # sha256 of the answers of the version that walked every canonical
    # fraction of the determinant and every member of its orbit, computed
    # before identification switched to the divisors of 2*alpha +- 1
    GOLDEN = "482e98adfc572a44c0887194cdb0b620256cf0d832773820a28ff415ad86c25c"

    def test_answers_digest(self):
        words = _golden_identify_words()
        assert len(words) == 5461 + 160
        answers = []
        for word in words:
            cid = classify.identify_closure(word)
            answers.append(None if cid is None else [*cid.fraction.pair, cid.mirrored, list(cid.matched_witness)])
        assert sum(a is not None for a in answers) == 3976
        digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
        assert digest == self.GOLDEN


class TestClosedFormKeys:
    # identify_closure solves for (p, q) from the exponent sum and trace of
    # the word's class; these are the values of those two it relies on
    def test_family_witness_and_partner(self):
        for family in (classify.FAMILY_ONE, classify.FAMILY_TWO):
            for p in range(1, 61):
                for q in range(1, 61):
                    fp = classify.FamilyParams(family, p, q)
                    if family == classify.FAMILY_ONE:
                        want = (p + q + 1, 2 - fp.alpha)
                    else:
                        want = (p - q, 2 + fp.alpha)
                    for syllables in (classify.family_witness(fp), classify.flype_partner(fp)):
                        assert B.syllable_class(syllables)[:2] == want, (fp, syllables)

    def test_torus(self):
        for k in range(-60, 61):
            for sign in (1, -1):
                assert B.syllable_class(((1, k), (2, sign)))[:2] == (k + sign, 2 - sign * k), (k, sign)

    @given(st.lists(st.sampled_from((1, -1, 2, -2)), max_size=40))
    @settings(max_examples=200)
    def test_mirror_negates_the_exponent_sum_and_keeps_the_trace(self, letters):
        e, trace = B.conjugacy_class(tuple(letters))[:2]
        assert B.conjugacy_class(B.mirror(tuple(letters)))[:2] == (-e, trace)


def _identify_by_axis_betas(word) -> classify.ClosureId | None:
    """identify_closure as it was before it solved for the family: walk every
    fraction of _axis_betas(alpha), which trial-divides 2*alpha +- 1, in
    increasing beta, and return the first candidate in the class of the word
    or of its mirror."""
    key = B.conjugacy_class(word)
    alpha = abs(2 - key[1])
    targets = ((False, key), (True, B.conjugacy_class(B.mirror(word))))
    for beta in sorted(classify._axis_betas(alpha)):
        f = twobridge._trusted(alpha, beta)
        for candidate in classify._candidates(f):
            candidate_key = B.syllable_class(candidate)
            for mirrored, target in targets:
                if candidate_key == target:
                    return classify.ClosureId(f, mirrored, candidate)
    return None


class TestIdentifyAgainstAxisBetas:
    def test_seeded_words(self):
        # family witnesses, flype partners and swapped witnesses with
        # p, q <= 200, torus braids with k <= 500, each conjugated by a short
        # random word, and random words; half of each kind mirrored
        rng = random.Random(23)
        recognised = 0
        for i in range(500):
            kind = ("family", "partner", "swap", "torus", "random")[i % 5]
            p, q = rng.randint(1, 200), rng.randint(1, 200)
            if kind == "swap":
                p, q = q, p
            q_block = (1,) * q if rng.random() < 0.5 else (-1,) * (q + 1)
            if kind == "random":
                core = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 20)))
            elif kind == "torus":
                core = (1,) * rng.randint(2, 500) + (rng.choice((2, -2)),)
            elif kind == "partner":
                core = (1,) * p + (-2,) + q_block + (2, 2)
            else:
                core = (1,) * p + (2, 2) + q_block + (-2,)
            u = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 6)))
            word = u + core + B.invert(u)
            if (i // 5) % 2:
                word = B.mirror(word)
            cid = classify.identify_closure(word)
            assert cid == _identify_by_axis_betas(word), (kind, word)
            assert cid is not None or kind == "random", (kind, word)
            recognised += cid is not None
        assert recognised >= 400


class TestCanonicalFractions:
    def test_small_lists(self):
        assert [f.pair for f in classify.canonical_fractions(0)] == [(0, 1)]
        assert [f.pair for f in classify.canonical_fractions(1)] == [(1, 1)]
        assert [f.pair for f in classify.canonical_fractions(17)] == [
            (17, 1), (17, 2), (17, 3), (17, 4), (17, 5),
        ]

    @given(st.integers(min_value=2, max_value=300))
    @settings(max_examples=60)
    def test_orbits_partition_residues(self, alpha):
        covered = set()
        for f in classify.canonical_fractions(alpha):
            orb = twobridge.orbit(alpha, f.beta)
            assert not (orb & covered)
            covered |= orb
        assert covered == {b for b in range(1, alpha) if math.gcd(alpha, b) == 1}

    @staticmethod
    def _orbit_minima(alpha):
        # brute force: the least of beta, alpha - beta, +-beta^-1 mod alpha
        # over every unit beta, with gcd and pow only
        minima = set()
        for beta in range(1, alpha):
            if math.gcd(beta, alpha) == 1:
                inv = pow(beta, -1, alpha)
                minima.add(min(beta, alpha - beta, inv, alpha - inv))
        return sorted(minima)

    def test_every_alpha_below_1500_against_brute_force(self):
        for alpha in range(2, 1500):
            got = [f.beta for f in classify.canonical_fractions(alpha)]
            assert got == self._orbit_minima(alpha), alpha

    @pytest.mark.parametrize(
        "alpha, betas",
        [
            (2, [1]),
            (3, [1]),
            (4, [1]),
            (6, [1]),
            (10, [1, 3]),  # 2p, p = alpha / 2: the last slot, beta = p, is no unit
            (14, [1, 3]),  # 2p with p = 7 = alpha / 2
            (25, [1, 2, 3, 4, 7, 9]),  # p^2
            (49, [1, 2, 3, 4, 5, 6, 9, 13, 17, 18, 20]),  # p^2
            # beta^2 = +-1 mod alpha: beta is its own partner, marks only itself
            (8, [1, 3]),  # 3^2 = 1
            (13, [1, 2, 3, 5]),  # 5^2 = -1
            (24, [1, 5, 7, 11]),  # every unit squares to 1
        ],
    )
    def test_edge_shapes(self, alpha, betas):
        assert [f.beta for f in classify.canonical_fractions(alpha)] == betas
        assert betas == self._orbit_minima(alpha)

    @pytest.mark.parametrize(
        "alpha",
        [
            2, 4, 8, 1024,  # powers of 2: one prime marks every even slot
            22, 998, 19946,  # 2p: the factor p is the last slot, alpha // 2
            7, 997, 7919,  # primes: no factor at or below alpha // 2
            30, 210, 2310,  # 3, 4 and 5 distinct primes
        ],
    )
    def test_sieve_edges(self, alpha):
        assert [f.beta for f in classify.canonical_fractions(alpha)] == self._orbit_minima(alpha)

    @given(st.integers(min_value=2, max_value=20_000))
    @settings(max_examples=60, deadline=None)
    def test_sieve_against_brute_force(self, alpha):
        assert [f.beta for f in classify.canonical_fractions(alpha)] == self._orbit_minima(alpha)


def _census(max_alpha):
    """Every canonical fraction's report up to max_alpha, in (alpha, beta)
    order: the rows of census_by_alpha, a count-0 report for an unlisted beta."""
    return [
        reports[beta] if beta in reports else classify.AxisReport(twobridge.Fraction(alpha, beta), ())
        for alpha, betas, reports in classify.census_by_alpha(max_alpha)
        for beta in betas
    ]


class TestCensus:
    def test_equals_axis_classes_row_by_row(self):
        # census finds family hits among the divisors of 2*alpha +- 1 listed
        # once per alpha; axis_classes scans the whole orbit of each fraction
        expected = [
            classify.axis_classes(f.alpha, f.beta)
            for alpha in range(0, 1201)
            for f in classify.canonical_fractions(alpha)
        ]
        got = _census(1200)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g == e, e.fraction.pair
        assert sum(1 for r in got if r.family is not None and r.count == 1) > 1000

    def test_only_axis_fractions_reach_the_decision_tree(self, monkeypatch):
        real = classify._report
        routed = []

        def report(f):
            routed.append(f.pair)
            return real(f)

        monkeypatch.setattr(classify, "_report", report)
        rows = _census(300)
        assert len(routed) == 902
        for alpha, beta in routed:
            assert beta == 1 or beta in classify._axis_betas(alpha), (alpha, beta)
        routed = set(routed)
        monkeypatch.setattr(classify, "_report", real)
        skipped = 0
        for row in rows:
            if row.fraction.pair in routed:
                continue
            skipped += 1
            assert row == classify.axis_classes(*row.fraction.pair), row.fraction.pair
            assert row.count == 0 and row.notes == (), row.fraction.pair
        assert skipped == 6289

    def test_is_the_flattening_of_census_by_alpha(self):
        flat, alphas = [], []
        for alpha, betas, reports in classify.census_by_alpha(700):
            alphas.append(alpha)
            betas = list(betas)
            assert betas == [f.beta for f in classify.canonical_fractions(alpha)], alpha
            assert 1 in reports and reports.keys() <= set(betas), alpha
            flat += [
                reports[b] if b in reports else classify.AxisReport(twobridge.Fraction(alpha, b), ())
                for b in betas
            ]
        assert alphas == list(range(701))
        assert _census(700) == flat

    def test_negative_bound_is_empty(self):
        assert _census(-1) == []
        assert list(classify.census_by_alpha(-1)) == []

    def test_first_rows(self):
        first, second = _census(1)
        assert first.fraction.pair == (0, 1) and first.count == 1
        assert second.fraction.pair == (1, 1) and second.count == 2

    def test_four_one_has_three_witnesses(self):
        (row,) = [r for r in _census(4) if r.fraction.pair == (4, 1)]
        assert row.count == 3
        assert row == classify.axis_classes(4, 1)

    def test_seventeen_five_note_and_hit(self):
        # divisors 5 and 7 of 35 = 2*17 + 1 both sit in the orbit of 5;
        # q = 3 (at 7) is odd, so it is preferred to q = 2 (at 5)
        (row,) = [r for r in _census(17) if r.fraction.pair == (17, 5)]
        assert row.notes == (classify.L17_5_NOTE,)
        assert row.family == classify.FamilyParams("one", 2, 3)
        assert row.witnesses[0].label == "flype-family(one,p=2,q=3)"
        assert 5 in classify._axis_betas(17)
        assert {5, 7} <= classify._orbit(twobridge.Fraction(17, 5))
