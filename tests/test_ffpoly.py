import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlrook import ffpoly, make_board, zone_roots
from mlrook.ffpoly import FFPoly, expand_roots
from oracles import brute_expand, m_falling_factorial, poly_eval


def ff(value, k, m):
    # the m-falling basis polynomial ff(x, k, m), evaluated at value
    return poly_eval(FFPoly.mfalling((0,) * k + (1,), m), value)


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
            assert poly_eval(poly, -c) == 0

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


class TestPackedExpansion:
    """expand_roots packs coefficients into slots sized for a bound of at
    most ffpoly._PACKED_BITS bits, then finishes coefficient by
    coefficient.  A narrow cap moves that switch onto small random inputs."""

    @pytest.mark.parametrize("bits", [8, 16, 64])
    @given(st.lists(st.integers(-5, 5) | st.integers(-(2**70), 2**70), max_size=24))
    @settings(max_examples=150)
    def test_narrow_cap_matches_schoolbook(self, bits, roots):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ffpoly, "_PACKED_BITS", bits)
            assert expand_roots(roots).coeffs == brute_expand(roots)

    def test_first_root_wider_than_a_slot(self):
        # the product is past the cap before any root is packed
        roots = (2**1100, -3, 0, 2**1100 + 1, 5)
        assert expand_roots(roots).coeffs == brute_expand(roots)

    @pytest.mark.parametrize("n", range(1020, 1036))
    def test_binomial_rows_across_the_cap(self, n):
        # (x + 1)^n has bound 2**n: rows up to n = 1,030 pack whole, and at
        # n = 1,031 to 1,035 the switch leaves the last 1 to 5 roots to the
        # tail; (x - 1)^n alternates signs, so every other slot borrows
        row = [math.comb(n, k) for k in range(n + 1)]
        assert expand_roots((1,) * n).coeffs == tuple(row)
        signed = [(-1) ** (n - k) * c for k, c in enumerate(row)]
        assert expand_roots((-1,) * n).coeffs == tuple(signed)

    def test_zero_roots(self):
        assert expand_roots((0,) * 7).coeffs == (0,) * 7 + (1,)
        roots = (0, -1, 0, 2**40, 0)
        assert expand_roots(roots).coeffs == brute_expand(roots)

    def test_bad_root_refused_before_expansion(self):
        # a one-shot generator is read once; the bad root after a wide one is
        # refused before the coefficient-wise kernel runs at all
        def kernel(coeffs, constant):
            raise AssertionError("expansion ran before the roots were checked")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ffpoly, "_mul_linear", kernel)
            roots = (c for c in (2**1100, 1, "a"))
            with pytest.raises(ValueError, match="root constant .* is not an integer"):
                expand_roots(roots)


# 400 root constants spanning +-10**6, far wider than the poly workload's,
# with zeros and a repeated constant among them: their bound prod(1 + |c|)
# is about 7,000 bits and passes the 1,024-bit packing cap within 60 roots
BIG_RNG = random.Random(2006)
BIG_ROOTS = [BIG_RNG.randint(-10**6, 10**6) for _ in range(380)] + [0] * 10 + [7] * 10
BIG_RNG.shuffle(BIG_ROOTS)

# the zone roots of a 400-column board drawn as the poly workload draws
# its boards (sorted heights uniform in [0, m*n]), at m = 2: constants in
# -12..26 whose bound is 1,257 bits, so the 1,024-bit packing cap falls
# after root 349.  The poly workload's expansions (seeds 101-103, 426 of
# them) have bounds of 360 to 2,899 bits, median 857; a quarter pass the cap
POLY_RNG = random.Random(1975)
POLY_ROOTS = zone_roots(make_board(sorted(POLY_RNG.randint(0, 800) for _ in range(400))), 2)


class TestLargeExpansion:
    roots = BIG_ROOTS

    def test_expand_matches_direct_product(self):
        p = expand_roots(self.roots)
        assert len(p.coeffs) == 401 and p.coeffs[0] == 0 and p.coeffs[-1] == 1
        for x in (-7, -2, 0, 3, 10**6 + 1):
            assert poly_eval(p, x) == math.prod(x + c for c in self.roots)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_round_trip(self, m):
        p = expand_roots(self.roots)
        q = p.to_mfalling(m)
        assert q.m == m and len(q.coeffs) == 401
        assert q.to_power() == p

    def test_matches_schoolbook(self):
        assert expand_roots(self.roots).coeffs == brute_expand(self.roots)


class TestPolySizedExpansion(TestLargeExpansion):
    roots = POLY_ROOTS

    def test_crosses_the_cap(self):
        assert math.prod(1 + abs(c) for c in self.roots).bit_length() == 1257


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
        assert poly_eval(p, 1) == 4
        assert poly_eval(p, 0) == 0
        assert poly_eval(p, -1) == 0

    def test_eval_constant(self):
        one = FFPoly((1,))
        for x in range(-3, 4):
            assert poly_eval(one, x) == 1

    def test_eval_mfalling_matches_definition(self):
        p = FFPoly.mfalling((4, -1, 0, 2), 3)
        for x in range(-6, 7):
            expected = sum(
                c * m_falling_factorial(x, k, 3) for k, c in enumerate(p.coeffs)
            )
            assert poly_eval(p, x) == expected

    def test_json_dict(self):
        assert FFPoly((0, 1)).to_json_dict() == {"basis": "power", "coeffs": [0, 1]}
        assert FFPoly.mfalling((2,), 3).to_json_dict() == {
            "basis": "mfalling",
            "coeffs": [2],
            "m": 3,
        }

    @pytest.mark.parametrize(
        "poly, text",
        [
            (FFPoly(()), "0"),
            (FFPoly((0, 1, 0, -2)), "-2*x^3 + 1*x"),
            (FFPoly((3,), 2), "3"),
            (FFPoly((0, 0, 1), 2), "1*x|2^2"),
        ],
    )
    def test_str(self, poly, text):
        assert str(poly) == text


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
        assert poly_eval(p, x) == poly_eval(p.to_mfalling(m), x)

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
            assert poly_eval(p, x) == poly_eval(q, x)
