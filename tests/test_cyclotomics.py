"""Cyclotomic arithmetic: reduction, promotion, conjugation."""

import cmath
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cyclotomic_polynomial_mobius, reduce_by_division

from wreathprob.cyclotomics import (
    Cyclotomic,
    conjugate_value,
    cyclotomic_polynomial,
    numerator_denominator,
    value_as_fraction,
)


def test_cyclotomic_polynomials_frozen():
    f = Fraction
    assert cyclotomic_polynomial(1) == (f(-1), f(1))
    assert cyclotomic_polynomial(2) == (f(1), f(1))
    assert cyclotomic_polynomial(3) == (f(1), f(1), f(1))
    assert cyclotomic_polynomial(4) == (f(1), f(0), f(1))
    assert cyclotomic_polynomial(6) == (f(1), f(-1), f(1))
    assert cyclotomic_polynomial(12) == (f(1), f(0), f(-1), f(0), f(1))


def test_cyclotomic_polynomials_are_integral_and_match_mobius():
    for n in range(1, 121):
        phi = cyclotomic_polynomial(n)
        assert all(type(c) is int for c in phi), n
        assert phi == cyclotomic_polynomial_mobius(n), n


def test_root_relations():
    z3 = Cyclotomic.root(3)
    assert z3 * z3 + z3 + 1 == 0
    z4 = Cyclotomic.root(4)
    assert z4 * z4 == -1
    z6 = Cyclotomic.root(6)
    assert z6 * z6 * z6 == -1
    assert Cyclotomic.root(2) == -1
    assert Cyclotomic.root(1) == 1


def test_promotion_identifies_equal_values_across_orders():
    assert Cyclotomic.root(6, 3) == Cyclotomic.root(2)
    assert Cyclotomic.root(6, 2) == Cyclotomic.root(3)
    assert Cyclotomic.root(12, 4) == Cyclotomic.root(3)
    assert Cyclotomic.root(4) != Cyclotomic.root(3)


def test_mixed_arithmetic_with_rationals():
    z5 = Cyclotomic.root(5)
    total = z5 + z5 * z5 + z5 * z5 * z5 + z5 * z5 * z5 * z5
    assert total == -1
    assert (1 + total) == 0
    assert value_as_fraction(total + Fraction(3, 2)) == Fraction(1, 2)
    assert 2 * z5 - z5 - z5 == 0


def test_conjugation_and_modulus():
    for order in (3, 4, 5, 7, 12):
        for exp in range(order):
            z = Cyclotomic.root(order, exp)
            assert z * conjugate_value(z) == 1
    z7 = Cyclotomic.root(7)
    real_part = z7 + z7.conjugate()
    assert real_part == real_part.conjugate()
    assert not real_part.is_rational()
    assert z7 != z7.conjugate()


def test_rationality_detection():
    z3 = Cyclotomic.root(3)
    assert not z3.is_rational()
    with pytest.raises(ValueError):
        z3.as_fraction()
    assert value_as_fraction(Fraction(2, 3)) == Fraction(2, 3)
    assert value_as_fraction(5) == 5


def test_rational_readers_return_fractions():
    # integral coefficients are ints; the rational readers still give Fractions
    z4 = Cyclotomic.root(4)
    assert (z4 * z4).coeffs == (-1, 0) and type((z4 * z4).coeffs[0]) is int
    half = z4 * z4 * Fraction(1, 2)
    assert type(half.coeffs[0]) is Fraction
    for v in (z4 * z4, half, Cyclotomic.root(1), Cyclotomic.from_triples([(3, 1, 1), (3, 2, 1)])):
        assert type(v.as_fraction()) is Fraction
        assert type(value_as_fraction(v)) is Fraction
    assert type(value_as_fraction(5)) is Fraction


def test_numerator_denominator():
    z3 = Cyclotomic.root(3)
    assert numerator_denominator(Fraction(-3, 4)) == (-3, 4)
    assert numerator_denominator(7) == (7, 1)
    n, d = numerator_denominator(z3 * Fraction(1, 6) + Fraction(1, 4))
    assert d == 12 and n == 2 * z3 + 3
    assert all(type(c) is int for c in n.coeffs)


def test_from_triples():
    v = Cyclotomic.from_triples([(3, 1, 1), (3, 2, 1)])
    assert v == -1
    w = Cyclotomic.from_triples([(4, 1, 2), (1, 0, 3)])
    assert w == 3 + 2 * Cyclotomic.root(4)
    assert Cyclotomic.from_triples([(1, 0, Fraction(1, 2))]) == Fraction(1, 2)


def test_numeric_embedding_agrees():
    z12 = Cyclotomic.root(12)
    value = 2 * z12 + z12 * z12 - 3
    expected = 2 * cmath.exp(2j * cmath.pi / 12) + cmath.exp(4j * cmath.pi / 12) - 3
    assert abs(complex(value) - expected) < 1e-12


# ------------------------------------------------ against long division

rationals = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def exponent_dicts(draw):
    """An order in 1..12 and an unreduced {exponent: rational} over a few periods."""
    order = draw(st.integers(1, 12))
    terms = draw(st.dictionaries(st.integers(-order, 2 * order), rationals, max_size=6))
    return order, terms


def _lifted(order, terms, to):
    step = to // order
    return {e * step: c for e, c in terms.items()}


def _expect(value, order, coeffs):
    assert value.order == order
    # canonical form: a coefficient is an int exactly when it is integral
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in value.coeffs)
    assert value.coeffs == coeffs


@settings(max_examples=200, deadline=None)
@given(exponent_dicts(), exponent_dicts(), rationals)
def test_arithmetic_matches_division_oracle(left, right, r):
    (n, a_terms), (m, b_terms) = left, right
    a = Cyclotomic(n, a_terms)
    b = Cyclotomic(m, b_terms)
    _expect(a, n, reduce_by_division(a_terms, n))

    order = lcm(n, m)
    a_up = _lifted(n, a_terms, order)
    b_up = _lifted(m, b_terms, order)
    total = dict(a_up)
    difference = dict(a_up)
    for e, c in b_up.items():
        total[e] = total.get(e, 0) + c
        difference[e] = difference.get(e, 0) - c
    product: dict = {}
    for e, x in a_up.items():
        for f, y in b_up.items():
            product[e + f] = product.get(e + f, 0) + x * y
    _expect(a + b, order, reduce_by_division(total, order))
    _expect(a - b, order, reduce_by_division(difference, order))
    _expect(a * b, order, reduce_by_division(product, order))
    _expect(-a, n, reduce_by_division({e: -c for e, c in a_terms.items()}, n))
    _expect(a.conjugate(), n, reduce_by_division({-e: c for e, c in a_terms.items()}, n))

    shifted = dict(a_terms)
    shifted[0] = shifted.get(0, 0) + r
    _expect(a + r, n, reduce_by_division(shifted, n))
    _expect(r + a, n, reduce_by_division(shifted, n))
    shifted[0] -= 2 * r
    _expect(a - r, n, reduce_by_division(shifted, n))
    flipped = {e: -c for e, c in a_terms.items()}
    flipped[0] = flipped.get(0, 0) + r
    _expect(r - a, n, reduce_by_division(flipped, n))
    scaled = reduce_by_division({e: c * r for e, c in a_terms.items()}, n)
    _expect(a * r, n, scaled)
    _expect(r * a, n, scaled)

    expected_a = reduce_by_division(a_up, order)
    expected_b = reduce_by_division(b_up, order)
    assert (a == b) == (expected_a == expected_b)
    assert (a == r) == (expected_a == reduce_by_division({0: r}, order))
    oracle_rational = not any(reduce_by_division(a_terms, n)[1:])
    assert a.is_rational() == oracle_rational
