"""Lexicographic value algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexpbs.lexcore import (
    NEG_INF,
    POS_INF,
    LexValue,
    lex_compare_eps,
    lex_is_positive,
)


class TestCompare:
    def test_first_difference(self):
        assert LexValue((1, 2)) < LexValue((1, 3))

    def test_neg_inf_at_level_one(self):
        assert LexValue((NEG_INF, 0)) < LexValue((0, NEG_INF))

    def test_equal(self):
        a, b = LexValue((2, -5)), LexValue((2, -5))
        assert a == b and a <= b and a >= b
        assert not (a < b or a > b)

    def test_greater(self):
        assert LexValue((3, 0)) > LexValue((2, 99))

    def test_length_mismatch(self):
        a, b = LexValue((1,)), LexValue((1, 2))
        for op in (a.__lt__, a.__le__, a.__gt__, a.__ge__, a.__add__,
                   a.__sub__):
            with pytest.raises(ValueError):
                op(b)

    def test_rich_comparisons(self):
        a, b = LexValue((1, 2)), LexValue((1, 3))
        assert a < b and a <= b and b > a and b >= a and a != b

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            LexValue((float("nan"), 0))


class TestArithmetic:
    def test_add(self):
        assert LexValue((1, 2)) + LexValue((0, -1)) == LexValue((1, 1))

    def test_add_absorbing_neg_inf(self):
        assert LexValue((NEG_INF, 3)) + LexValue((1, 1)) \
            == LexValue((NEG_INF, 4))

    def test_indeterminate_sum_rejected(self):
        with pytest.raises(ValueError):
            LexValue((POS_INF,)) + LexValue((NEG_INF,))
        with pytest.raises(ValueError):
            LexValue((POS_INF,)) - LexValue((POS_INF,))

    def test_sub(self):
        assert LexValue((3, 1)) - LexValue((1, 2)) == LexValue((2, -1))


class TestSign:
    def test_tiny_leading_entry_snapped(self):
        assert not lex_is_positive(LexValue((1e-9, -5)), eps=1e-6)

    def test_positive_at_level_two(self):
        assert lex_is_positive(LexValue((0, 0.5)), eps=1e-6)

    def test_zero_not_positive(self):
        assert not lex_is_positive(LexValue((0, 0)), eps=1e-6)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            lex_is_positive(LexValue((1,)), eps=-1.0)

    def test_compare_eps_ties(self):
        a = LexValue((1.0 + 1e-9, -5.0))
        b = LexValue((1.0, -4.0))
        assert lex_compare_eps(a, b, 1e-6) == -1
        assert lex_compare_eps(LexValue((NEG_INF, 1)), LexValue((NEG_INF, 1))) == 0


entries = st.one_of(
    st.integers(min_value=-50, max_value=50).map(float),
    st.sampled_from([NEG_INF, POS_INF]),
)
vec3 = st.tuples(entries, entries, entries).map(LexValue)
finite3 = st.tuples(*[st.integers(-50, 50).map(float)] * 3).map(LexValue)


class TestOrderProperties:
    @given(vec3, vec3)
    def test_antisymmetric_and_total(self, a, b):
        assert (a < b) == (b > a) and (a <= b) == (b >= a)
        assert [a < b, a == b, a > b].count(True) == 1
        if a <= b and b <= a:
            assert a == b

    @given(vec3, vec3, vec3)
    def test_transitive(self, a, b, c):
        if a <= b and b <= c:
            assert a <= c

    @given(finite3, finite3, finite3)
    def test_compatible_with_addition(self, a, b, c):
        if a <= b:
            assert a + c <= b + c
