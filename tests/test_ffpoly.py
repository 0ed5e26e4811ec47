import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlrook.ffpoly import (
    FFPoly,
    RootMultiset,
    expand_roots,
    m_falling_factorial,
    to_basis,
)


class TestMFallingFactorial:
    def test_one_minus_m(self):
        assert m_falling_factorial(1, 2, 2) == -1
        assert m_falling_factorial(1, 2, 5) == -4

    def test_three_factor_value(self):
        # 1 * (1-2) * (1-4)
        assert m_falling_factorial(1, 3, 2) == 3

    def test_empty_product(self):
        for v in (-7, 0, 1, 12):
            assert m_falling_factorial(v, 0, 3) == 1

    def test_classical_falling_factorial_at_m1(self):
        for v in range(9):
            for k in range(9):
                expected = math.prod(v - i for i in range(k))
                assert m_falling_factorial(v, k, 1) == expected

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            m_falling_factorial(3, -1, 2)

    def test_bad_m_rejected(self):
        with pytest.raises(ValueError):
            m_falling_factorial(3, 1, 0)


class TestExpandRoots:
    def test_known_quartic(self):
        # (x+1) * x * x * (x+1) = x^4 + 2x^3 + x^2
        assert expand_roots(RootMultiset((1, 0, 0, 1))).coeffs == (0, 0, 1, 2, 1)

    def test_empty_is_one(self):
        assert expand_roots(RootMultiset(())).coeffs == (1,)

    def test_two_roots(self):
        assert expand_roots(RootMultiset((1, 0))).coeffs == (0, 1, 1)

    def test_roots_are_zeros(self):
        roots = RootMultiset((3, -2, 0, 7))
        poly = expand_roots(roots)
        for c in roots:
            assert poly.eval(-c) == 0

    @given(st.lists(st.integers(-20, 20), max_size=6), st.randoms())
    def test_permutation_invariant(self, constants, rng):
        shuffled = list(constants)
        rng.shuffle(shuffled)
        assert expand_roots(constants) == expand_roots(shuffled)

    def test_multiset_equality_ignores_order(self):
        assert RootMultiset((3, 1, 1)) == RootMultiset((1, 3, 1))
        assert RootMultiset((3, 1)) != RootMultiset((3, 1, 1))


class TestFFPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert FFPoly.power((1, 2, 0, 0)).coeffs == (1, 2)
        assert FFPoly.power((0, 0)).is_zero

    def test_degree(self):
        assert FFPoly.power((0, 0, 5)).degree == 2
        assert FFPoly.zero().degree == -1

    def test_eval_power(self):
        p = FFPoly.power((0, 0, 1, 2, 1))
        assert p.eval(1) == 4
        assert p.eval(0) == 0
        assert p.eval(-1) == 0

    def test_eval_constant(self):
        one = FFPoly.power((1,))
        for x in range(-3, 4):
            assert one.eval(x) == 1

    def test_eval_mfalling_matches_definition(self):
        p = FFPoly.mfalling((4, -1, 0, 2), 3)
        for x in range(-6, 7):
            expected = sum(
                c * m_falling_factorial(x, k, 3) for k, c in enumerate(p.coeffs)
            )
            assert p.eval(x) == expected

    def test_mixed_addition_rejected(self):
        with pytest.raises(TypeError):
            FFPoly.power((1,)) + FFPoly.mfalling((1,), 2)
        with pytest.raises(TypeError):
            FFPoly.mfalling((1,), 2) + FFPoly.mfalling((1,), 3)

    def test_addition(self):
        a = FFPoly.power((1, 2, 3))
        b = FFPoly.power((0, -2, -3))
        assert (a + b).coeffs == (1,)

    def test_json_dict(self):
        assert FFPoly.power((0, 1)).to_json_dict() == {"basis": "power", "coeffs": [0, 1]}
        assert FFPoly.mfalling((2,), 3).to_json_dict() == {
            "basis": "mfalling",
            "coeffs": [2],
            "m": 3,
        }


class TestBasisConversion:
    def test_basis_monomial_expands(self):
        # ff(x, 2, 2) = x * (x - 2) = x^2 - 2x
        p = FFPoly.mfalling((0, 0, 1), 2)
        assert p.to_power().coeffs == (0, -2, 1)

    def test_zero_polynomial(self):
        assert to_basis(FFPoly.zero(), 3).is_zero
        assert to_basis(FFPoly.zero(3), None).is_zero

    def test_round_trip_small(self):
        p = FFPoly.power((1, 2, 3))
        assert to_basis(to_basis(p, 3), None) == p

    def test_same_tag_is_identity(self):
        p = FFPoly.mfalling((5, 1), 2)
        assert p.to_mfalling(2) is p
        q = FFPoly.power((5, 1))
        assert q.to_power() is q

    @given(
        st.lists(st.integers(-50, 50), max_size=9),
        st.sampled_from((1, 2, 3)),
    )
    @settings(max_examples=200)
    def test_round_trip_exact(self, coeffs, m):
        p = FFPoly.power(coeffs)
        assert to_basis(to_basis(p, m), None) == p

    @given(
        st.lists(st.integers(-50, 50), max_size=9),
        st.sampled_from((1, 2, 3)),
        st.integers(-10, 10),
    )
    @settings(max_examples=200)
    def test_eval_agrees_across_bases(self, coeffs, m, x):
        p = FFPoly.power(coeffs)
        assert p.eval(x) == to_basis(p, m).eval(x)

    @given(
        st.lists(st.integers(-50, 50), max_size=9),
        st.sampled_from((2, 3)),
        st.sampled_from((1, 2, 3)),
    )
    @settings(max_examples=100)
    def test_mfalling_to_mfalling(self, coeffs, m_from, m_to):
        p = FFPoly.mfalling(coeffs, m_from)
        q = p.to_mfalling(m_to)
        assert q.m == m_to
        for x in range(-5, 6):
            assert p.eval(x) == q.eval(x)
