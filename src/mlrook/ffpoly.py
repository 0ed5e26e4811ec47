"""Exact polynomials in the power and m-falling-factorial bases.

Coefficients are Python integers, so arithmetic is exact at any size
(the weighted sums in this package grow factorially).  A polynomial
carries a basis tag:

- power basis: ``p(x) = sum(c_k * x**k)``;
- m-falling basis: ``p(x) = sum(c_k * ff(x, k, m))`` where
  ``ff(x, k, m) = x * (x - m) * ... * (x - (k-1)*m)``.

Basis conversion goes through synthetic division by the monic basis
polynomials (nodes 0, m, 2m, ...), which is exact over the integers in
both directions.  Root expansion and the conversion back to the power
basis share one multiply-by-(x + c) kernel that writes each output
coefficient once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .boards import _check_int, _check_m

__all__ = [
    "FFPoly",
    "expand_roots",
]


def _mul_linear(coeffs: list[int], constant: int) -> list[int]:
    # multiply a non-empty power-basis coefficient list by (x + constant);
    # each output coefficient is written once, from the two inputs it sums
    return [
        constant * coeffs[0],
        *[p + constant * q for p, q in zip(coeffs, coeffs[1:])],
        coeffs[-1],
    ]


def _divmod_linear(coeffs: list[int], node: int) -> tuple[list[int], int]:
    # synthetic division of a power-basis coefficient list by (x - node)
    d = len(coeffs) - 1
    quotient = [0] * d
    carry = coeffs[d]
    for i in range(d - 1, -1, -1):
        quotient[i] = carry
        carry = coeffs[i] + node * carry
    return quotient, carry


@dataclass(frozen=True)
class FFPoly:
    """Dense exact-integer polynomial tagged with its basis.

    ``m is None`` marks the power basis; an integer ``m >= 1`` marks the
    m-falling basis.  Coefficients run low to high and trailing zeros
    are stripped, so the zero polynomial has an empty coefficient tuple.
    """

    coeffs: tuple[int, ...]
    m: int | None = None

    def __post_init__(self) -> None:
        coeffs = list(self.coeffs)
        for c in coeffs:
            _check_int("coefficient", c)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))
        if self.m is not None:
            _check_m(self.m)

    @classmethod
    def mfalling(cls, coeffs: Iterable[int], m: int) -> "FFPoly":
        return cls(tuple(coeffs), m)

    def eval(self, x: int) -> int:
        """Exact evaluation at an integer point, respecting the basis."""
        _check_int("evaluation point", x)
        result = 0
        if self.m is None:
            for c in reversed(self.coeffs):
                result = result * x + c
        else:
            for k in range(len(self.coeffs) - 1, -1, -1):
                result = result * (x - k * self.m) + self.coeffs[k]
        return result

    def to_power(self) -> "FFPoly":
        """Re-express in the power basis (identity if already there)."""
        if self.m is None:
            return self
        # Horner over the basis nodes 0, m, 2m, ..., from the leading coefficient
        acc = list(self.coeffs[-1:])  # empty for the zero polynomial
        for k in range(len(self.coeffs) - 2, -1, -1):
            acc = _mul_linear(acc, -k * self.m)
            acc[0] += self.coeffs[k]
        return FFPoly(tuple(acc), None)

    def to_mfalling(self, m: int) -> "FFPoly":
        """Re-express in the m-falling basis for the given m."""
        _check_m(m)
        if self.m == m:
            return self
        cur = list(self.to_power().coeffs)
        out: list[int] = []
        k = 0
        while cur:
            cur, remainder = _divmod_linear(cur, k * m)
            out.append(remainder)
            k += 1
        return FFPoly(tuple(out), m)

    def to_json_dict(self) -> dict:
        """The wire form: {"basis": ..., "coeffs": [...], "m": ...}."""
        d = {
            "basis": "power" if self.m is None else "mfalling",
            "coeffs": list(self.coeffs),
        }
        if self.m is not None:
            d["m"] = self.m
        return d

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        var = "x" if self.m is None else f"x|{self.m}"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*{var}")
            else:
                parts.append(f"{c}*{var}^{k}")
        return " + ".join(parts)


def expand_roots(roots: Iterable[int]) -> FFPoly:
    """Expand ``prod(x + c_i)`` into power-basis coefficients.

    The empty product gives the constant 1.  Permuting the roots cannot
    change the result.
    """
    acc = [1]
    for c in roots:
        _check_int("root constant", c)
        acc = _mul_linear(acc, c)
    return FFPoly(tuple(acc), None)
