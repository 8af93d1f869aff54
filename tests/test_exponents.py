"""Exactness tests for the exponent relations; everything here is rational."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nuctrace import (
    INF,
    Exponent,
    OrderExponent,
    ParameterTriple,
    check_holder_chain,
    conjugate,
    r_from_s,
    reduce_to_p_ge_2,
    s_from_p,
)


def F(a, b=1):
    return Fraction(a, b)


class TestExponentType:
    def test_parse_print_grammar(self):
        assert str(Exponent("7/3")) == "7/3"
        assert str(Exponent("2")) == "2"
        assert str(Exponent("INF")) == "inf"
        assert str(Exponent("inf")) == "inf"
        assert Exponent("4/3") == Exponent(F(4, 3))

    def test_reciprocal_of_inf_is_exact_zero(self):
        assert INF.reciprocal == 0
        assert INF.is_inf
        assert INF.value is None

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            Exponent(F(1, 2))
        with pytest.raises(ValueError):
            Exponent("0")

    def test_literal_size_is_bounded_before_expansion(self):
        assert Exponent("1e1000").value == 10**1000
        assert OrderExponent(" 1E-1_000 ").value == F(1, 10**1000)
        for text in ("1e1001", "2.5e-1_001", "1" * 65):
            with pytest.raises(ValueError, match="exponent literal"):
                Exponent(text)
        with pytest.raises(ValueError, match="exponent literal"):
            OrderExponent("1e-9999999")

    def test_rejects_inexact_floats(self):
        with pytest.raises(TypeError):
            Exponent(1.5)
        assert Exponent(float("inf")) == INF

    @pytest.mark.parametrize("cls", [Exponent, OrderExponent])
    @pytest.mark.parametrize("value", [True, False, Decimal("1"), 1.5], ids=repr)
    def test_one_input_rule_rejects_booleans_decimals_and_floats(self, cls, value):
        with pytest.raises(TypeError):
            cls(value)

    def test_classes_share_printing_and_hashing_but_never_compare_equal(self):
        assert Exponent(1) != OrderExponent(1)
        assert hash(OrderExponent("2/3")) == hash(Fraction(2, 3))
        assert repr(OrderExponent("2/3")) == "OrderExponent('2/3')"
        assert repr(INF) == "Exponent('inf')" and float(INF) == float("inf")

    def test_exponents_compare_only_for_equality(self):
        # the library orders exponents through reciprocals, never with <
        with pytest.raises(TypeError):
            Exponent(2) < Exponent(3)
        with pytest.raises(TypeError):
            INF >= 3

    def test_equality_is_exact(self):
        assert Exponent("4/2") == Exponent(2)
        assert Exponent("7/3") != Exponent("7/4")
        assert hash(Exponent("4/2")) == hash(Exponent(2))

    def test_order_exponent_range(self):
        assert OrderExponent("2/3").value == F(2, 3)
        assert OrderExponent(1).reciprocal == 1
        with pytest.raises(ValueError):
            OrderExponent(F(3, 2))
        with pytest.raises(ValueError):
            OrderExponent(0)


class TestCurveRelations:
    def test_s_from_p_endpoints(self):
        assert s_from_p(Exponent(2)) == OrderExponent(1)
        assert s_from_p(INF) == OrderExponent(F(2, 3))

    def test_s_from_p_derived_values(self):
        # independent evaluation:  1/s = 1 + |1/2 - 1/p|
        assert s_from_p(Exponent(1)).value == 1 / (1 + abs(F(1, 2) - 1))
        assert s_from_p(Exponent(1)) == OrderExponent(F(2, 3))
        assert s_from_p(Exponent(4)).value == 1 / (1 + abs(F(1, 2) - F(1, 4)))
        assert s_from_p(Exponent(4)) == OrderExponent(F(4, 5))

    def test_r_from_s_values(self):
        assert r_from_s(OrderExponent(1)) == INF
        assert r_from_s(OrderExponent(F(2, 3))) == Exponent(2)
        assert r_from_s(OrderExponent(F(4, 5))) == Exponent(4)

    def test_conjugate_values(self):
        assert conjugate(Exponent(2)) == Exponent(2)
        assert conjugate(Exponent(1)) == INF
        assert conjugate(Exponent(F(4, 3))) == Exponent(4)
        assert conjugate(INF) == Exponent(1)

    def test_reduce_to_p_ge_2(self):
        assert reduce_to_p_ge_2(Exponent(1)) == INF
        assert reduce_to_p_ge_2(Exponent(3)) == Exponent(3)
        assert reduce_to_p_ge_2(Exponent(F(4, 3))) == Exponent(4)

    def test_holder_chain_examples(self):
        assert check_holder_chain([INF, Exponent(2), Exponent(2)])
        assert check_holder_chain([Exponent(2), Exponent(2), INF])
        assert check_holder_chain([Exponent(3)] * 3)
        assert not check_holder_chain([Exponent(2)] * 3)


rational_p = st.fractions(min_value=1, max_value=128, max_denominator=64).map(Exponent)
any_p = st.one_of(rational_p, st.just(INF))
p_ge_2 = st.one_of(
    st.fractions(min_value=2, max_value=128, max_denominator=64).map(Exponent),
    st.just(INF),
)


class TestCurveProperties:
    @given(p_ge_2)
    def test_chain_identity_exact(self, p):
        s = s_from_p(p)
        assert check_holder_chain([r_from_s(s), Exponent(2), p])

    @given(any_p)
    def test_s_invariant_under_conjugation(self, p):
        assert s_from_p(p) == s_from_p(conjugate(p))

    @given(any_p)
    def test_one_minus_s_times_r_is_s(self, p):
        s = s_from_p(p)
        r = r_from_s(s)
        if r.is_inf:
            assert s.value == 1
        else:
            assert (1 - s.value) * r.value == s.value

    @given(any_p)
    def test_reduce_idempotent(self, p):
        once = reduce_to_p_ge_2(p)
        assert reduce_to_p_ge_2(once) == once
        assert once.reciprocal <= F(1, 2)

    @given(any_p)
    def test_conjugate_involutive(self, p):
        assert conjugate(conjugate(p)) == p

    @given(any_p)
    def test_string_roundtrip(self, p):
        assert Exponent(str(p)) == p


class TestParameterTriple:
    def test_reduces_and_solves(self):
        t = ParameterTriple(Exponent(1))
        assert (str(t.p), str(t.s), str(t.r)) == ("inf", "2/3", "2")
        t = ParameterTriple(Exponent(2))
        assert (str(t.p), str(t.s), str(t.r)) == ("2", "1", "inf")

    def test_rejects_off_curve_triples(self):
        # oracle: the curve written out, with the (1 - s) r = s and
        # r = inf <=> s = 1 consequences checked as well
        def on_curve(p, s, r):
            recip_s = 1 / s.value
            if recip_s != 1 + abs(F(1, 2) - p.reciprocal) or r.reciprocal != recip_s - 1:
                return False
            return s.value == 1 if r.is_inf else (1 - s.value) * r.value == s.value

        for p in (1, F(4, 3), F(3, 2), 2, F(7, 3), 3, 4, "inf"):
            t = ParameterTriple(p)
            assert on_curve(t.p, t.s, t.r)
            assert t.p == reduce_to_p_ge_2(p)
            # the oracle is not blind: a triple off the curve reads False
            assert not on_curve(t.p, OrderExponent(F(1, 2)), t.r)
            # s and r are derived, never given
            with pytest.raises(TypeError):
                ParameterTriple(t.p, t.s, t.r)

    def test_p_below_2_is_reduced(self):
        t = ParameterTriple(F(4, 3))
        assert t.p == 4 and t.s == s_from_p(Exponent(F(4, 3)))

    def test_as_dict_uses_shared_grammar(self):
        t = ParameterTriple(INF)
        assert t.as_dict() == {"p": "inf", "s": "2/3", "r": "2"}
