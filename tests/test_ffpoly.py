import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlrook.ffpoly import FFPoly, expand_roots
from oracles import m_falling_factorial


def ff(value, k, m):
    # the m-falling basis polynomial ff(x, k, m), evaluated at value
    return FFPoly.mfalling((0,) * k + (1,), m).eval(value)


class TestMFallingFactorial:
    def test_one_minus_m(self):
        assert ff(1, 2, 2) == -1
        assert ff(1, 2, 5) == -4

    def test_three_factor_value(self):
        # 1 * (1-2) * (1-4)
        assert ff(1, 3, 2) == 3

    def test_empty_product(self):
        for v in (-7, 0, 1, 12):
            assert ff(v, 0, 3) == 1

    def test_classical_falling_factorial_at_m1(self):
        for v in range(9):
            for k in range(9):
                expected = math.prod(v - i for i in range(k))
                assert ff(v, k, 1) == expected

    def test_matches_definition(self):
        for m in (1, 2, 3, 4):
            for v in range(-6, 7):
                for k in range(7):
                    expected = math.prod(v - m * i for i in range(k))
                    assert ff(v, k, m) == expected

    def test_bad_m_rejected(self):
        with pytest.raises(ValueError):
            FFPoly.mfalling((0, 1), 0)

    @pytest.mark.parametrize("value", [1.5, True, "1"])
    def test_non_integer_value_rejected(self, value):
        with pytest.raises(ValueError, match="not an integer"):
            ff(value, 2, 1)


class TestExpandRoots:
    def test_known_quartic(self):
        # (x+1) * x * x * (x+1) = x^4 + 2x^3 + x^2
        assert expand_roots((1, 0, 0, 1)).coeffs == (0, 0, 1, 2, 1)

    def test_empty_is_one(self):
        assert expand_roots(()).coeffs == (1,)

    def test_two_roots(self):
        assert expand_roots((1, 0)).coeffs == (0, 1, 1)

    def test_roots_are_zeros(self):
        roots = (3, -2, 0, 7)
        poly = expand_roots(roots)
        for c in roots:
            assert poly.eval(-c) == 0

    @given(st.lists(st.integers(-20, 20), max_size=6), st.randoms())
    def test_permutation_invariant(self, constants, rng):
        shuffled = list(constants)
        rng.shuffle(shuffled)
        assert expand_roots(constants) == expand_roots(shuffled)

    def test_one_shot_generator(self):
        assert expand_roots(c for c in (1, 0, 0, 1)).coeffs == (0, 0, 1, 2, 1)

    @pytest.mark.parametrize("roots", [[True], [0.5], (2, "a"), (True, 2)])
    def test_non_integer_plain_roots_rejected(self, roots):
        with pytest.raises(ValueError, match="root constant .* is not an integer"):
            expand_roots(roots)


# 400 root constants of the size the poly workload reaches, with zeros
# and a repeated constant among them
BIG_RNG = random.Random(2006)
BIG_ROOTS = [BIG_RNG.randint(-10**6, 10**6) for _ in range(380)] + [0] * 10 + [7] * 10
BIG_RNG.shuffle(BIG_ROOTS)


class TestLargeExpansion:
    def test_expand_matches_direct_product(self):
        p = expand_roots(BIG_ROOTS)
        assert len(p.coeffs) == 401 and p.coeffs[0] == 0 and p.coeffs[-1] == 1
        for x in (-7, -2, 0, 3, 10**6 + 1):
            assert p.eval(x) == math.prod(x + c for c in BIG_ROOTS)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_round_trip(self, m):
        p = expand_roots(BIG_ROOTS)
        q = p.to_mfalling(m)
        assert q.m == m and len(q.coeffs) == 401
        assert q.to_power() == p


class TestFFPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert FFPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert FFPoly((0, 0)).coeffs == ()

    def test_bool_coefficient_or_m_rejected(self):
        with pytest.raises(ValueError):
            FFPoly((True, 2))
        with pytest.raises(ValueError):
            FFPoly.mfalling((1, 2), True)

    def test_eval_power(self):
        p = FFPoly((0, 0, 1, 2, 1))
        assert p.eval(1) == 4
        assert p.eval(0) == 0
        assert p.eval(-1) == 0

    @pytest.mark.parametrize("x", [2.5, True])
    @pytest.mark.parametrize("m", [None, 2])
    def test_eval_non_integer_rejected(self, x, m):
        with pytest.raises(ValueError, match="not an integer"):
            FFPoly((1, 1), m).eval(x)

    def test_eval_constant(self):
        one = FFPoly((1,))
        for x in range(-3, 4):
            assert one.eval(x) == 1

    def test_eval_mfalling_matches_definition(self):
        p = FFPoly.mfalling((4, -1, 0, 2), 3)
        for x in range(-6, 7):
            expected = sum(
                c * m_falling_factorial(x, k, 3) for k, c in enumerate(p.coeffs)
            )
            assert p.eval(x) == expected

    def test_json_dict(self):
        assert FFPoly((0, 1)).to_json_dict() == {"basis": "power", "coeffs": [0, 1]}
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

    def test_short_mfalling_to_power(self):
        for m in (1, 2, 3):
            assert FFPoly.mfalling((-5,), m).to_power() == FFPoly((-5,))
            assert FFPoly.mfalling((), m).to_power() == FFPoly(())

    def test_zero_polynomial(self):
        assert FFPoly(()).to_mfalling(3).coeffs == ()
        assert FFPoly.mfalling((), 3).to_power().coeffs == ()

    def test_round_trip_small(self):
        p = FFPoly((1, 2, 3))
        assert p.to_mfalling(3).to_power() == p

    def test_same_tag_is_identity(self):
        p = FFPoly.mfalling((5, 1), 2)
        assert p.to_mfalling(2) is p
        q = FFPoly((5, 1))
        assert q.to_power() is q

    @given(
        st.lists(st.integers(-50, 50), max_size=9),
        st.sampled_from((1, 2, 3)),
    )
    @settings(max_examples=200)
    def test_round_trip_exact(self, coeffs, m):
        p = FFPoly(coeffs)
        assert p.to_mfalling(m).to_power() == p

    @given(
        st.lists(st.integers(-50, 50), max_size=9),
        st.sampled_from((1, 2, 3)),
        st.integers(-10, 10),
    )
    @settings(max_examples=200)
    def test_eval_agrees_across_bases(self, coeffs, m, x):
        p = FFPoly(coeffs)
        assert p.eval(x) == p.to_mfalling(m).eval(x)

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
