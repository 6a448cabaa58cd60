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
        assert cover.burau_matrix(()) == cover.Matrix2(1, 0, 0, 1)

    def test_braid_relation(self):
        assert cover.burau_matrix((1, 2, 1)) == cover.burau_matrix((2, 1, 2))

    def test_bad_letter_is_named(self):
        with pytest.raises(ValueError, match="invalid braid letter 5"):
            cover.burau_matrix((5,))

    @given(words, words)
    def test_homomorphism(self, w1, w2):
        a, b, c, d = cover.burau_matrix(w1)
        e, f, g, h = cover.burau_matrix(w2)
        product = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        assert cover.burau_matrix(w1 + w2) == product

    @given(st.lists(st.sampled_from(B.LETTERS), max_size=60).map(tuple))
    def test_determinant_one(self, w):
        a, b, c, d = cover.burau_matrix(w)
        assert a * d - b * c == 1


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
        assert cover.dbc_homology(word) == factors

    @given(words)
    def test_divisibility_and_order(self, w):
        d1, d2 = cover.dbc_homology(w)
        assert d1 >= 0 and d2 >= 0
        if d1 != 0 and d2 != 0:
            assert d2 % d1 == 0
            assert d1 * d2 == cover.closure_determinant(w)
        else:
            assert cover.closure_determinant(w) == 0
