"""Exact polynomials in the power and m-falling-factorial bases.

Coefficients are Python integers, so arithmetic is exact at any size
(the weighted sums in this package grow factorially).  A polynomial
carries a basis tag:

- power basis: ``p(x) = sum(c_k * x**k)``;
- m-falling basis: ``p(x) = sum(c_k * ff(x, k, m))`` where
  ``ff(x, k, m) = x * (x - m) * ... * (x - (k-1)*m)``.

Basis conversion goes through synthetic division by the monic basis
polynomials (nodes 0, m, 2m, ...), which is exact over the integers in
both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .boards import _check_m

__all__ = [
    "FFPoly",
    "RootMultiset",
    "expand_roots",
    "m_falling_factorial",
    "to_basis",
]


def m_falling_factorial(value: int, k: int, m: int) -> int:
    """The product ``value * (value - m) * ... * (value - (k-1)*m)``.

    The empty product (k = 0) is 1.
    """
    if k < 0:
        raise ValueError(f"factor count k must be non-negative, got {k}")
    _check_m(m)
    return math.prod(value - m * i for i in range(k))


def _mul_linear(coeffs: list[int], constant: int) -> list[int]:
    # multiply a power-basis coefficient list by (x + constant)
    out = [0] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i + 1] += c
        out[i] += constant * c
    return out


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
    Adding polynomials requires equal basis tags; mixed tags raise
    ``TypeError`` rather than converting silently.
    """

    coeffs: tuple[int, ...]
    m: int | None = None

    def __post_init__(self) -> None:
        coeffs = list(self.coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} is not an integer")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))
        if self.m is not None:
            _check_m(self.m)

    @classmethod
    def power(cls, coeffs: Iterable[int]) -> "FFPoly":
        return cls(tuple(coeffs), None)

    @classmethod
    def mfalling(cls, coeffs: Iterable[int], m: int) -> "FFPoly":
        return cls(tuple(coeffs), m)

    @classmethod
    def zero(cls, m: int | None = None) -> "FFPoly":
        return cls((), m)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def eval(self, x: int) -> int:
        """Exact evaluation at an integer point, respecting the basis."""
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
        # Horner over the basis nodes 0, m, 2m, ...
        acc: list[int] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
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

    def _require_same_basis(self, other: "FFPoly") -> None:
        if self.m != other.m:
            raise TypeError(
                f"cannot combine polynomials in different bases ({self.m!r} vs {other.m!r})"
            )

    def __add__(self, other: "FFPoly") -> "FFPoly":
        if not isinstance(other, FFPoly):
            return NotImplemented
        self._require_same_basis(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FFPoly(tuple(out), self.m)

    def __str__(self) -> str:
        if self.is_zero:
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


def to_basis(p: FFPoly, m: int | None) -> FFPoly:
    """Convert ``p`` to the power basis (m=None) or the m-falling basis."""
    return p.to_power() if m is None else p.to_mfalling(m)


@dataclass(frozen=True)
class RootMultiset:
    """Multiset of integer constants ``c_i`` encoding ``prod(x + c_i)``.

    Stored sorted, so equal multisets compare equal regardless of the
    order they were produced in.
    """

    constants: tuple[int, ...]

    def __post_init__(self) -> None:
        constants = tuple(sorted(self.constants))
        for c in constants:
            if not isinstance(c, int):
                raise ValueError(f"root constant {c!r} is not an integer")
        object.__setattr__(self, "constants", constants)

    def __iter__(self):
        return iter(self.constants)

    def __len__(self) -> int:
        return len(self.constants)


def expand_roots(roots: RootMultiset | Iterable[int]) -> FFPoly:
    """Expand ``prod(x + c_i)`` into power-basis coefficients.

    The empty multiset gives the constant 1.  Permuting the roots cannot
    change the result.
    """
    constants = roots.constants if isinstance(roots, RootMultiset) else tuple(roots)
    acc = [1]
    for c in constants:
        acc = _mul_linear(acc, c)
    return FFPoly(tuple(acc), None)
