"""Root expansion and basis changes checked against sympy.

sympy is a test-only dependency: without it this module is skipped and
the package itself still needs nothing beyond the standard library.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlrook.ffpoly import FFPoly, expand_roots

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
ROOTS = st.lists(st.integers(-30, 30), max_size=8)
COEFFS = st.lists(st.integers(-10**6, 10**6), max_size=8)
BLOCK = st.integers(1, 5)


def power_coeffs(expr):
    """Low-to-high integer coefficients of an expression in x."""
    return tuple(int(c) for c in reversed(sympy.Poly(expr, X).all_coeffs()))


def falling_sum(coeffs, m):
    """sum_k c_k * (x)(x - m)...(x - (k-1)m) as a sympy expression."""
    return sum(
        c * math.prod((X - i * m for i in range(k)), start=sympy.Integer(1))
        for k, c in enumerate(coeffs)
    )


def stripped(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@given(ROOTS)
@settings(max_examples=60, deadline=None)
def test_expand_roots_matches_sympy(roots):
    expected = power_coeffs(math.prod((X + c for c in roots), start=sympy.Integer(1)))
    assert expand_roots(roots).coeffs == stripped(expected)


@given(COEFFS, BLOCK)
@settings(max_examples=60, deadline=None)
def test_to_power_matches_sympy(coeffs, m):
    expected = power_coeffs(sympy.expand(falling_sum(coeffs, m)))
    assert FFPoly.mfalling(coeffs, m).to_power().coeffs == stripped(expected)


@given(ROOTS, BLOCK)
@settings(max_examples=60, deadline=None)
def test_to_mfalling_matches_sympy(roots, m):
    product = math.prod((X + c for c in roots), start=sympy.Integer(1))
    falling = expand_roots(roots).to_mfalling(m)
    assert falling.m == m
    assert sympy.expand(falling_sum(falling.coeffs, m) - product) == 0
