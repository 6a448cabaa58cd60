import math
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gofknots import braid as B
from gofknots import cover

import garside_oracle as O

words = st.lists(st.sampled_from(B.LETTERS), max_size=18).map(tuple)
short_words = st.lists(st.sampled_from(B.LETTERS), max_size=10).map(tuple)


def _all_words(max_len):
    out, frontier = [()], [()]
    for _ in range(max_len):
        frontier = [w + (g,) for w in frontier for g in B.LETTERS]
        out.extend(frontier)
    return out


# ---------------------------------------------------------------------------
# a certificate of non-conjugacy written apart from braid.conjugacy_class,
# used to cross-examine it: conjugate braids have equal exponent sums and
# SL2(Z) conjugate Burau images, and SL2(Z) conjugate hyperbolic matrices have
# properly equivalent fixed-point forms, hence identical reduction cycles.
# ---------------------------------------------------------------------------

def _form_of(m):
    return (m.c, m.d - m.a, -m.b)


def _rho(f, s, disc):
    a, b, c = f
    ac = abs(c)
    hi = ac if ac > s else s
    step = 2 * ac
    b2 = (-b) % step
    b2 += step * ((hi - b2) // step)
    return (c, b2, (b2 * b2 - disc) // (4 * c))


def _cycle_of_form(f):
    disc = f[1] * f[1] - 4 * f[0] * f[2]
    s = math.isqrt(disc)
    assert disc > 0 and s * s != disc
    while not (0 < f[1] <= s and (s - f[1] + 1) <= 2 * abs(f[0]) <= (s + f[1])):
        f = _rho(f, s, disc)
    cycle = {f}
    g = _rho(f, s, disc)
    while g != f:
        cycle.add(g)
        g = _rho(g, s, disc)
    return frozenset(cycle)


def certified_nonconjugate(w1, w2):
    """True means certainly not conjugate; False means no certificate."""
    if B.exponent_sum(w1) != B.exponent_sum(w2):
        return True
    m1, m2 = cover.burau_matrix(w1), cover.burau_matrix(w2)
    if m1.trace != m2.trace:
        return True
    if abs(m1.trace) < 3:
        return False
    if m1.trace < 0:
        m1 = cover.Matrix2(*(-x for x in m1))
        m2 = cover.Matrix2(*(-x for x in m2))
    f1, f2 = _form_of(m1), _form_of(m2)
    content = lambda f: math.gcd(math.gcd(abs(f[0]), abs(f[1])), abs(f[2]))
    if content(f1) != content(f2):
        return True
    return _cycle_of_form(f1) != _cycle_of_form(f2)


class TestGrammar:
    def test_parse_examples(self):
        assert B.parse_word("1 1 1 1 2") == (1, 1, 1, 1, 2)
        assert B.parse_word("-1,-1,-1,-1,-1,-2") == (-1, -1, -1, -1, -1, -2)
        assert B.parse_word("") == ()

    @pytest.mark.parametrize("bad", ["3", "0", "1,,2", "1 2 ", "x", "1;2", ",1", "1,"])
    def test_parse_errors(self, bad):
        with pytest.raises(B.BraidParseError):
            B.parse_word(bad)

    def test_error_names_position(self):
        with pytest.raises(B.BraidParseError, match="position 0"):
            B.parse_word("3")
        with pytest.raises(B.BraidParseError, match="position 2"):
            B.parse_word("1 3")

    @given(words)
    def test_roundtrip(self, w):
        assert B.parse_word(B.format_word(w)) == w

    def test_word_functions_name_the_bad_letter(self):
        with pytest.raises(B.BraidParseError, match="invalid braid letter 0"):
            B.conjugacy_class((1, 0))
        with pytest.raises(B.BraidParseError, match="invalid braid letter 7"):
            B.normal_form((1, 7))


class TestWordOps:
    def test_examples(self):
        assert B.exponent_sum((1, 1, 1, 1, 2)) == 5
        assert B.exponent_sum((1, 1, 1, 1, -2)) == 3
        assert B.exponent_sum(()) == 0
        assert B.mirror((1, 1, 1, 1, 1, 2)) == (-1, -1, -1, -1, -1, -2)
        assert B.invert((1, 2)) == (-2, -1)
        assert B.reverse((1, 2, -1)) == (-1, 2, 1)

    @given(words)
    def test_invert_is_group_inverse(self, w):
        assert B.normal_form(w + B.invert(w)) == B.NormalForm(0, ())

    @given(words, words)
    def test_mirror_is_homomorphism(self, w1, w2):
        assert B.normal_form(B.mirror(w1 + w2)) == B.normal_form(B.mirror(w1) + B.mirror(w2))


class TestNormalForm:
    def test_examples(self):
        assert B.normal_form((1, 2, 1)) == B.normal_form((2, 1, 2)) == B.NormalForm(1, ())
        nf = B.normal_form((-2,))
        assert nf.delta_power == -1 and nf.factor_words() == ((2, 1),)
        assert B.normal_form((1, -1)) == B.NormalForm(0, ())
        assert B.normal_form(B.FULL_TWIST) == B.NormalForm(2, ())
        assert B.normal_form((1, 2) * 3) == B.normal_form(B.FULL_TWIST)

    def test_full_twist_is_central(self):
        assert B.normal_form(B.FULL_TWIST + (1,)) == B.normal_form((1,) + B.FULL_TWIST)

    def test_braid_relation_conjugation(self):
        assert B.normal_form(B.conjugate_by((1,), (1, 2))) == B.normal_form((2,))

    @given(words, words)
    @settings(max_examples=400)
    def test_word_problem_matches_matrix_invariant(self, w1, w2):
        # (Burau at -1, exponent sum) is a complete invariant of the group,
        # giving an independent decision of the word problem
        nf_equal = B.normal_form(w1) == B.normal_form(w2)
        matrix_equal = (
            cover.burau_matrix(w1) == cover.burau_matrix(w2)
            and B.exponent_sum(w1) == B.exponent_sum(w2)
        )
        assert nf_equal == matrix_equal

    @given(words)
    def test_exponent_sum_reconstruction(self, w):
        assert B.exponent_sum(B.normal_form(w).to_word()) == B.exponent_sum(w)

    @given(words, st.data())
    def test_invariant_under_rewrites(self, w, data):
        base = B.normal_form(w)
        pos = data.draw(st.integers(min_value=0, max_value=len(w)))
        relation = (1, 2, 1, -2, -1, -2)
        g = data.draw(st.sampled_from(B.LETTERS))
        for insert in (relation, (g, -g)):
            rewritten = w[:pos] + insert + w[pos:]
            assert B.normal_form(rewritten) == base

    @given(words)
    def test_delta_conjugation_swaps_generators(self, w):
        conjugated = B.normal_form(B.conjugate_by(w, B.HALF_TWIST))
        swapped = tuple(3 - k if k > 0 else -3 - k for k in w)
        assert conjugated == B.normal_form(swapped)

    @given(words)
    def test_to_word_roundtrip(self, w):
        nf = B.normal_form(w)
        assert B.normal_form(nf.to_word()) == nf

    @given(words, words)
    def test_nf_mul_matches_concatenation(self, w1, w2):
        assert O.nf_mul(B.normal_form(w1), B.normal_form(w2)) == B.normal_form(w1 + w2)

    def test_nf_mul_exhaustive_small(self):
        follow = {
            s: [t for t in (B.S1, B.S2, B.S12, B.S21) if O.left_weighted(s, t)]
            for s in (B.S1, B.S2, B.S12, B.S21)
        }
        seqs = [()]
        frontier = [(s,) for s in (B.S1, B.S2, B.S12, B.S21)]
        while frontier:
            seqs.extend(frontier)
            frontier = [
                seq + (t,) for seq in frontier if len(seq) < 3 for t in follow[seq[-1]]
            ]
        for fa in seqs:
            for fb in seqs:
                for da, db in ((0, 0), (1, 0), (0, -1), (-1, 1)):
                    x, y = B.NormalForm(da, fa), B.NormalForm(db, fb)
                    assert O.nf_mul(x, y) == B.normal_form(x.to_word() + y.to_word())

    def test_one_pass_matches_table_combing_exhaustive(self):
        # the oracle folds nf_mul, combing by the S3 transfer tables, over
        # the one-letter normal forms
        for w in _all_words(7):
            assert B.normal_form(w) == O.normal_form(w), w

    def test_long_word_in_linear_time(self):
        # a quadratic left weighting takes tens of seconds on this word; the
        # Burau image with the exponent sum is a complete invariant that
        # does not go through the normal form
        word = (2, 1) * 6000 + (1, 2) * 6000
        start = time.perf_counter()
        nf = B.normal_form(word)
        assert time.perf_counter() - start < 1.0
        spelled = nf.to_word()
        assert B.exponent_sum(spelled) == B.exponent_sum(word)
        assert cover.burau_matrix(spelled) == cover.burau_matrix(word)


class TestCyclingDecycling:
    # the Garside engine of the test oracle, checked in its own terms

    @given(words)
    def test_steps_are_conjugations(self, w):
        v = B.normal_form(w)
        if not v.factors:
            return
        c = O.cycle(v)
        head = v.factors[0] if v.delta_power % 2 == 0 else B._TAU[v.factors[0]]
        a = B.SIMPLE_WORDS[head]
        assert B.normal_form(a + c.to_word()) == B.normal_form(v.to_word() + a)
        d = O.decycle(v)
        b = B.SIMPLE_WORDS[v.factors[-1]]
        assert B.normal_form(d.to_word() + b) == B.normal_form(b + v.to_word())

    @given(words)
    def test_steps_never_worsen(self, w):
        v = B.normal_form(w)
        for step in (O.cycle, O.decycle):
            u = step(v)
            assert O.inf(u) >= O.inf(v) and O.sup(u) <= O.sup(v)


class TestConjugacy:
    def test_surgery_computation(self):
        lhs = B.surgery_twist((1, 1, 1, 1, 1, 2), 1)
        assert B.is_conjugate(lhs, (-1, -1, -1, -1, -1, -2))

    @pytest.mark.parametrize("k", range(2, 11))
    def test_torus_pairs_split(self, k):
        assert not B.is_conjugate((1,) * k + (2,), (1,) * k + (-2,))

    def test_triple_for_alpha_four(self):
        w1, w2, w3 = (1, 1, 1, 1, 2), (1, 1, 1, 1, -2), (1, 2, 2, 1, -2)
        for a, b in ((w1, w2), (w1, w3), (w2, w3)):
            assert not B.is_conjugate(a, b)
            assert not B.is_conjugate(a, B.mirror(b))

    def test_flype_class_structure(self):
        # (p,q) = (3,2): the two flype shapes are distinct classes, and the
        # swapped word lands in the partner class
        witness = (1, 1, 1, 2, 2, 1, 1, -2)
        partner = (1, 1, 1, -2, 1, 1, 2, 2)
        swapped = (1, 1, 2, 2, 1, 1, 1, -2)
        assert not B.is_conjugate(witness, partner)
        assert certified_nonconjugate(witness, partner)
        assert B.is_conjugate(partner, swapped)
        # (p,q) = (6,1) collapses to a single class
        w61 = (1,) * 6 + (2, 2, 1, -2)
        p61 = (1,) * 6 + (-2, 1, 2, 2)
        assert B.is_conjugate(w61, p61)

    @given(short_words, short_words)
    @settings(max_examples=300)
    def test_soundness(self, w, u):
        assert B.is_conjugate(w, B.conjugate_by(w, u))

    @given(short_words, st.data())
    def test_rotation_closure(self, w, data):
        if not w:
            return
        k = data.draw(st.integers(min_value=0, max_value=len(w) - 1))
        assert B.is_conjugate(w, w[k:] + w[:k])

    @given(short_words, short_words)
    @settings(max_examples=200)
    def test_symmetric(self, w1, w2):
        assert B.is_conjugate(w1, w2) == B.is_conjugate(w2, w1)

    @given(short_words, short_words)
    @settings(max_examples=400)
    def test_against_form_cycle_certificate(self, w1, w2):
        if certified_nonconjugate(w1, w2):
            assert not B.is_conjugate(w1, w2)

    @given(short_words, short_words)
    @settings(max_examples=150)
    def test_conjugate_implies_matrix_invariants(self, w, u):
        other = B.conjugate_by(w, u)
        assert B.exponent_sum(w) == B.exponent_sum(other)
        assert cover.burau_matrix(w).trace == cover.burau_matrix(other).trace

    def test_random_nonconjugates_certified(self):
        rng = random.Random(424)
        checked = 0
        while checked < 60:
            w1 = tuple(rng.choice(B.LETTERS) for _ in range(rng.randint(1, 10)))
            w2 = tuple(rng.choice(B.LETTERS) for _ in range(rng.randint(1, 10)))
            if B.is_conjugate(w1, w2):
                continue
            checked += 1
            m = cover.burau_matrix(w1)
            if abs(m.trace) >= 3 and m.trace == cover.burau_matrix(w2).trace:
                assert certified_nonconjugate(w1, w2), (w1, w2)


class TestConjugacyExhaustiveSweep:
    def test_short_word_class_structure(self):
        # partition all words of length <= 4 into classes by summit set and
        # check the partition behaves like conjugacy should
        keys = {w: O.super_summit_set(w) for w in _all_words(4)}
        for w, key in keys.items():
            # closed under rotation and generator conjugation
            for k in range(1, len(w)):
                assert keys[w[k:] + w[:k]] == key
            for g in B.LETTERS:
                assert O.super_summit_set(B.conjugate_by(w, (g,))) == key
        # class invariants are constant
        classes = {}
        for w, key in keys.items():
            classes.setdefault(key, []).append(w)
        for members in classes.values():
            exps = {B.exponent_sum(w) for w in members}
            traces = {cover.burau_matrix(w).trace for w in members}
            assert len(exps) == 1 and len(traces) == 1
        # distinct classes never admit a form-cycle equivalence certificate
        reps = [members[0] for members in classes.values()]
        for i, w1 in enumerate(reps):
            for w2 in reps[i + 1:]:
                assert not B.is_conjugate(w1, w2)


D2, D4 = B.FULL_TWIST, B.FULL_TWIST * 2

# one case per branch of conjugacy_class: a word, a conjugate of it, and a
# non-conjugate word of the same exponent sum and trace.  Each non-conjugate
# partner differs from the word only in what its branch must keep: the sign
# of the parabolic content, the zero form of +-I, or the sign of an
# indefinite form of content 2 (the third word's form is properly equivalent
# to minus the first word's).  Each conjugate partner has another fixed-point
# form, which only a full reduction brings back; the indefinite one first
# reaches another member of the reduction cycle.
BRANCH_CASES = {
    "parabolic trace 2": ((1,) * 6, (2,) * 6, (-1,) * 6 + D4),
    "parabolic trace -2": ((1,) * 6 + D2, (2,) * 6 + D2, (-1,) * 6 + D2 * 3),
    "central Delta^2, M = -I": (D2, (2, 1) * 3, (1,) * 12 + B.invert(D2)),
    "central Delta^4, M = I": (D4, (2, 1) * 6, (1,) * 12),
    "indefinite non-primitive": (
        (1, 1, 1, -2, -2, 1, -2, -2),
        B.conjugate_by((1, 1, 1, -2, -2, 1, -2, -2), (1, 2)),
        (1, 1, -2, 1, 1, -2, -2, -2),
    ),
}

# definite images (|trace| < 2)
DEFINITE_CASES = {
    "trace 0": B.HALF_TWIST,
    "trace 1": (1, 2),
    "trace -1": (1, 2) + D2,
}


@st.composite
def word_pairs(draw):
    """Pairs of short words, half of them a word and a rotated conjugate."""
    w1 = draw(short_words)
    if not draw(st.booleans()):
        return w1, draw(short_words)
    w2 = B.conjugate_by(w1, draw(short_words))
    k = draw(st.integers(min_value=0, max_value=max(len(w2) - 1, 0)))
    return w1, w2[k:] + w2[:k]


class TestConjugacyClass:
    def test_partition_matches_summit_sets(self):
        by_key, by_summit = {}, {}
        for w in _all_words(5):
            by_key.setdefault(B.conjugacy_class(w), set()).add(w)
            by_summit.setdefault(O.super_summit_set(w), set()).add(w)
        as_partition = lambda classes: sorted(sorted(ws) for ws in classes.values())
        assert len(by_key) == len(by_summit) == 38
        assert as_partition(by_key) == as_partition(by_summit)

    @given(word_pairs())
    @settings(max_examples=300)
    def test_agrees_with_summit_set_oracle(self, pair):
        w1, w2 = pair
        assert B.is_conjugate(w1, w2) == O.is_conjugate(w1, w2)

    @pytest.mark.parametrize("name", list(BRANCH_CASES))
    def test_branch_cases(self, name):
        word, conjugate, other = BRANCH_CASES[name]
        key = B.conjugacy_class(word)
        assert O.is_conjugate(word, conjugate) and not O.is_conjugate(word, other)
        assert B.conjugacy_class(conjugate) == key
        assert B.conjugacy_class(other)[:2] == key[:2]
        assert B.conjugacy_class(other) != key

    @pytest.mark.parametrize("name", list(DEFINITE_CASES))
    def test_definite_cases(self, name):
        # SL2(Z) abelianises onto Z/12 by the exponent sum mod 12, and that
        # separates the two sign classes of each definite trace, so no
        # non-conjugate partner of equal exponent sum and trace exists; the
        # sign is checked on the inverse, whose form is minus the word's
        word = DEFINITE_CASES[name]
        conjugate = B.conjugate_by(word, (1, 1, 1, -2, -2))
        assert O.is_conjugate(word, conjugate)
        e, trace, sign = B.conjugacy_class(word)
        assert B.conjugacy_class(conjugate) == (e, trace, sign)
        assert B.conjugacy_class(B.invert(word)) == (-e, trace, -sign)


class TestSummitSets:
    @given(short_words)
    @settings(max_examples=150)
    def test_uniform_inf_sup(self, w):
        sss = O.super_summit_set(w)
        infs = {O.inf(v) for v in sss}
        sups = {O.sup(v) for v in sss}
        assert len(infs) == 1 and len(sups) == 1

    @given(short_words, short_words)
    @settings(max_examples=100)
    def test_conjugates_share_summit_set(self, w, u):
        assert O.super_summit_set(w) == O.super_summit_set(B.conjugate_by(w, u))

    def test_delta_powers_are_singletons(self):
        assert O.super_summit_set(B.HALF_TWIST) == frozenset({B.NormalForm(1, ())})
        assert O.super_summit_set(B.FULL_TWIST) == frozenset({B.NormalForm(2, ())})


def _spelled(syllables):
    """The letters of a syllable word, one at a time."""
    letters = []
    for gen, e in syllables:
        for _ in range(abs(e)):
            letters.append(gen if e > 0 else -gen)
    return tuple(letters)


# zero exponents and neighbouring syllables of one generator included
syllable_words = st.lists(
    st.tuples(st.sampled_from((1, 2)), st.integers(min_value=-9, max_value=9)), max_size=8
).map(tuple)


class TestSyllables:
    @given(syllable_words)
    @example(((1, 0),))
    @example(((1, 3), (1, -5), (2, 0), (2, 2)))
    @example(((2, -4), (1, 7), (2, 1)))
    @settings(max_examples=400)
    def test_closed_forms_match_the_letters(self, sylls):
        letters = _spelled(sylls)
        assert B.expand(sylls) == letters
        assert B.format_syllables(sylls) == " ".join(str(k) for k in letters)
        assert cover.burau_syllables(sylls) == cover.burau_matrix(letters)
        assert B.syllable_class(sylls) == B.conjugacy_class(letters)

    def test_torus_key_at_any_alpha(self):
        # sigma_1^k sigma_2^-1 maps to [[1 + k, k], [1, 1]]: trace k + 2
        for k in (5, 10**6, 10**15):
            key = B.syllable_class(((1, k), (2, -1)))
            assert key[:2] == (k - 1, k + 2)
        assert B.syllable_class(((1, 40), (2, -1))) == B.conjugacy_class((1,) * 40 + (-2,))

    def test_expand_allocates_the_word_once(self):
        # a tuple grown from an iterator of unknown length ends up to a quarter
        # larger than the word (8.9 MB here) before it is cut back
        k = 10**6
        tracemalloc.start()
        try:
            word = B.expand(((1, k), (2, -1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(word) == k + 1 and word[-2:] == (1, -2)
        assert peak < 8 * (k + 1) + 2**16
        assert B.expand(s for s in ((1, 3), (2, -2))) == (1, 1, 1, -2, -2)

    def test_bad_generator_rejected(self):
        with pytest.raises(ValueError):
            cover.burau_syllables(((3, 1),))


class TestSurgeryTwist:
    def test_examples(self):
        assert B.surgery_twist((1, 1, 1, 1, 1, 2), 0) == (1, 1, 1, 1, 1, 2)
        assert B.surgery_twist((), -1) == (1, 2) * 6
        assert B.exponent_sum(B.surgery_twist((), -1)) == 12

    @given(words, st.integers(min_value=-3, max_value=3))
    def test_exponent_change(self, w, n):
        assert B.exponent_sum(B.surgery_twist(w, n)) == B.exponent_sum(w) - 12 * n

    @given(words, st.integers(min_value=-2, max_value=2))
    def test_inserts_central_element(self, w, n):
        # appending the twists is the same element as prepending them
        twisted = B.surgery_twist(w, n)
        prepended = B.surgery_twist((), n) + tuple(w)
        assert B.normal_form(twisted) == B.normal_form(prepended)
