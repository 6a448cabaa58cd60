import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gofknots import braid as B
from gofknots import classify, cover

words = st.lists(st.sampled_from(B.LETTERS), max_size=25).map(tuple)


class TestBurau:
    def test_examples(self):
        assert cover.burau_matrix((1, 2, 1)) == cover.Matrix2(0, 1, -1, 0)
        assert cover.burau_matrix((1, 2) * 3) == cover.Matrix2(-1, 0, 0, -1)
        assert cover.burau_matrix(()) == cover.IDENTITY

    def test_braid_relation(self):
        assert cover.burau_matrix((1, 2, 1)) == cover.burau_matrix((2, 1, 2))

    def test_bad_letter_is_named(self):
        with pytest.raises(ValueError, match="invalid braid letter 5"):
            cover.burau_matrix((5,))

    @given(words, words)
    def test_homomorphism(self, w1, w2):
        product = cover.burau_matrix(w1).mul(cover.burau_matrix(w2))
        assert cover.burau_matrix(B.concat(w1, w2)) == product

    @given(st.lists(st.sampled_from(B.LETTERS), max_size=60).map(tuple))
    def test_determinant_one(self, w):
        assert cover.burau_matrix(w).det == 1


class TestClosureDeterminant:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ((1, 1, 1, 2), 3),
            ((1, 1, 1, 2, 2, 1, 1, -2), 17),
            ((1, 2), 1),
            ((2,), 0),
            ((), 0),
        ],
    )
    def test_examples(self, word, expected):
        assert cover.closure_determinant(word) == expected

    @given(words, words)
    def test_conjugation_invariant(self, w, u):
        assert cover.closure_determinant(B.conjugate_by(w, u)) == cover.closure_determinant(w)

    @given(words, st.integers(min_value=-3, max_value=3))
    def test_delta4_insertion_invariant(self, w, n):
        twisted = B.surgery_twist(w, n)
        assert cover.closure_determinant(twisted) == cover.closure_determinant(w)

    @given(words)
    def test_mirror_and_reverse_invariant(self, w):
        d = cover.closure_determinant(w)
        assert cover.closure_determinant(B.mirror(w)) == d
        assert cover.closure_determinant(B.reverse(w)) == d

    @pytest.mark.parametrize("word", [(), (2,)])
    def test_from_class_trace_examples(self, word):
        assert abs(2 - B.conjugacy_class(word)[1]) == cover.closure_determinant(word)

    @given(words)
    def test_from_class_trace(self, w):
        # det(M - I) = 2 - trace M in SL2(Z): identify_closure reads its
        # determinant off the class
        assert abs(2 - B.conjugacy_class(w)[1]) == cover.closure_determinant(w)

    def test_witness_determinants_up_to_2000(self):
        for alpha in range(0, 2001):
            for f in classify.canonical_fractions(alpha):
                for witness in classify.axis_classes(f.alpha, f.beta).witnesses:
                    assert cover.closure_determinant(witness.word) == alpha, (alpha, f.beta)


class TestHomology:
    @pytest.mark.parametrize(
        "word,factors",
        [
            ((1, 1, 1, 1, 2), (1, 4)),
            ((2,), (1, 0)),
            ((1, 2), (1, 1)),
            ((), (0, 0)),
        ],
    )
    def test_examples(self, word, factors):
        assert cover.dbc_homology(word).invariant_factors == factors

    @given(words)
    def test_divisibility_and_order(self, w):
        h = cover.dbc_homology(w)
        d1, d2 = h.invariant_factors
        assert d1 >= 0 and d2 >= 0
        if d1 != 0 and d2 != 0:
            assert d2 % d1 == 0
            assert d1 * d2 == cover.closure_determinant(w)
        else:
            assert cover.closure_determinant(w) == 0


class TestLiftSlope:
    def test_examples(self):
        assert cover.lift_slope(1, 1) == cover.SlopeSpec(2, 1, 1)
        assert cover.lift_slope(1, 2) == cover.SlopeSpec(1, 1, 2)
        assert cover.lift_slope(0, 1) == cover.SlopeSpec(0, 1, 1)

    def test_errors(self):
        with pytest.raises(cover.InvalidSlopeError):
            cover.lift_slope(2, 4)
        with pytest.raises(cover.InvalidSlopeError):
            cover.lift_slope(1, 0)

    @given(st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=40))
    def test_result_is_reduced(self, p, q):
        if math.gcd(abs(p), q) != 1:
            return
        spec = cover.lift_slope(p, q)
        assert math.gcd(abs(spec.numerator), spec.denominator) == 1
        assert spec.curve_count == (2 if q % 2 == 0 else 1)
