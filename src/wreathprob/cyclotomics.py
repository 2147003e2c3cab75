"""Exact arithmetic in cyclotomic fields.

A value is a rational polynomial in a primitive root of unity, kept
reduced modulo the corresponding cyclotomic polynomial, so equality and
rationality tests are decidable.  A coefficient is an int exactly when
it is integral, so values with integer coefficients, such as character
values of finite groups, are multiplied and added without Fractions.
Reduction folds each power x^k through a per-order table of x^k mod
Phi_n, so no operation divides polynomials.
Binary operations promote both sides to the least common root order
first.  Plain ints and Fractions mix freely with these values.
"""

from __future__ import annotations

import cmath
import operator
from fractions import Fraction
from functools import cache
from math import gcd, lcm

Rational = (int, Fraction)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@cache  # one entry per root order; builtin values' orders divide |G| <= MAX_GROUP_ORDER
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first.

    x^n - 1 long-divided by Phi_d for each proper divisor d: every Phi_d is
    monic with integer coefficients, so the division stays in the integers.
    """
    if n < 1:
        raise ValueError("order must be positive")
    num = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        den = cyclotomic_polynomial(d)
        quot = [0] * (len(num) - len(den) + 1)
        for shift in reversed(range(len(quot))):
            factor = quot[shift] = num[shift + len(den) - 1]
            if factor:
                for i, c in enumerate(den):
                    num[shift + i] -= factor * c
        assert not any(num), f"x^{n} - 1 over Phi_{d} leaves a remainder"
        num = quot
    return tuple(num)


@cache  # one entry per root order, as for cyclotomic_polynomial
def _power_table(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Nonzero (index, coefficient) pairs of x^k mod Phi_order, 0 <= k < 2 * order.

    Phi_order is monic with integer coefficients, so every row is an
    integer vector of length phi(order) and reducing needs no division.
    """
    phi = cyclotomic_polynomial(order)
    degree = len(phi) - 1
    row = [1] + [0] * (degree - 1)
    rows = []
    for _ in range(2 * order):
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [c - top * p for c, p in zip(row, phi)]
    return tuple(rows)


def _canonical(coeffs) -> tuple:
    """The coefficients with each integral Fraction replaced by its int."""
    coeffs = tuple(coeffs)
    if Fraction not in map(type, coeffs):
        return coeffs
    return tuple(
        c.numerator if type(c) is Fraction and c.denominator == 1 else c for c in coeffs
    )


def _fold(acc: list, row, coeff) -> None:
    """acc += coeff * row, for one sparse row of the power table."""
    for i, t in row:
        if t == 1:
            acc[i] += coeff
        elif t == -1:
            acc[i] -= coeff
        else:
            acc[i] += coeff * t


def _reduce(coeffs: dict[int, Fraction], order: int) -> tuple:
    """Reduce an exponent dict mod Phi_order by folding through the power table."""
    table = _power_table(order)
    acc = [0] * (len(cyclotomic_polynomial(order)) - 1)
    for e, c in coeffs.items():
        if c:
            _fold(acc, table[e % order], c)
    return _canonical(acc)


class Cyclotomic:
    """An element of the order-n cyclotomic field in reduced form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, Fraction]):
        self.order = order
        self.coeffs = _reduce(
            {e: Fraction(c) for e, c in coeffs.items()}, order
        )

    @classmethod
    def _of(cls, order: int, coeffs: tuple) -> "Cyclotomic":
        """Wrap a canonical coefficient tuple that is already reduced mod Phi_order."""
        out = object.__new__(cls)
        out.order = order
        out.coeffs = coeffs
        return out

    @classmethod
    def root(cls, order: int, exponent: int = 1) -> "Cyclotomic":
        return cls(order, {exponent: Fraction(1)})

    @classmethod
    def from_triples(cls, triples) -> "Cyclotomic":
        """Sum of (root order, exponent, rational coefficient) terms."""
        order = 1
        for root_order, _, _ in triples:
            order = order * root_order // gcd(order, root_order)
        acc: dict[int, Fraction] = {}
        for root_order, exponent, coeff in triples:
            step = order // root_order
            key = (exponent * step) % order
            acc[key] = acc.get(key, Fraction(0)) + Fraction(coeff)
        return cls(order, acc)

    def _promoted(self, order: int) -> tuple:
        if order == self.order:
            return self.coeffs
        step = order // self.order
        return _reduce({e * step: c for e, c in enumerate(self.coeffs)}, order)

    def _pair(self, other):
        """Common order and both coefficient tuples, for a Cyclotomic other."""
        if other.order == self.order:
            return self.order, self.coeffs, other.coeffs
        order = self.order * other.order // gcd(self.order, other.order)
        return order, self._promoted(order), other._promoted(order)

    def __add__(self, other):
        if isinstance(other, Rational):
            head = _canonical((self.coeffs[0] + other,))
            return Cyclotomic._of(self.order, head + self.coeffs[1:])
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        order, a, b = self._pair(other)
        return Cyclotomic._of(order, _canonical(map(operator.add, a, b)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._of(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (*Rational, Cyclotomic)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Rational):
            return Cyclotomic._of(self.order, _canonical(c * other for c in self.coeffs))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        order, a, b = self._pair(other)
        degree = len(a)
        conv = [0] * (2 * degree - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
        acc = conv[:degree]
        table = _power_table(order)
        for k in range(degree, 2 * degree - 1):
            if conv[k]:
                _fold(acc, table[k], conv[k])
        return Cyclotomic._of(order, _canonical(acc))

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        table = _power_table(self.order)
        acc = [0] * len(self.coeffs)
        for e, c in enumerate(self.coeffs):
            if c:
                _fold(acc, table[-e % self.order], c)
        return Cyclotomic._of(self.order, _canonical(acc))

    def is_rational(self) -> bool:
        return all(not c for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self!r}")
        return Fraction(self.coeffs[0])

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Rational):
            return self.is_rational() and self.as_fraction() == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        _, a, b = self._pair(other)
        return a == b

    def __complex__(self) -> complex:
        root = cmath.exp(2j * cmath.pi / self.order)
        return complex(sum(float(c) * root**e for e, c in enumerate(self.coeffs)))

    def __repr__(self):
        terms = [f"{c}*z{self.order}^{e}" for e, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def conjugate_value(v):
    """Complex conjugate for mixed rational/cyclotomic values."""
    if isinstance(v, Rational):
        return v
    return v.conjugate()


def numerator_denominator(v):
    """(n, d) with v = n / d: d a positive int, n an int or integer-coefficient value."""
    if isinstance(v, Rational):
        v = Fraction(v)
        return v.numerator, v.denominator
    d = lcm(*(c.denominator for c in v.coeffs))
    return v * d, d


def value_as_fraction(v) -> Fraction:
    """Coerce a necessarily-rational value to Fraction, or fail loudly."""
    if isinstance(v, Rational):
        return Fraction(v)
    return v.as_fraction()
