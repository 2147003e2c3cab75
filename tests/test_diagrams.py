"""Transition measures and free cumulants against growth and profile oracles."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wreathprob.diagrams import (
    dilate,
    free_cumulants,
    minima_maxima,
    moments_to_free_cumulants,
    profile_moment,
    transition_measure,
)
from wreathprob.partitions import dimension, partitions_of

from oracles import noncrossing_partitions


def test_minima_maxima_interlace():
    for n in range(13):
        for lam in partitions_of(n):
            x, y = minima_maxima(lam)
            assert len(x) == len(y) + 1
            merged = [v for pair in zip(x, y) for v in pair] + [x[-1]]
            assert all(merged[i] < merged[i + 1] for i in range(len(merged) - 1))


def test_empty_diagram_profile():
    assert minima_maxima(()) == ((0,), ())
    tm = transition_measure(())
    assert tm.atoms == (0,)
    assert tm.weights == (Fraction(1),)


def test_transition_measure_frozen():
    tm = transition_measure((2, 1))
    assert tm.atoms == (-2, 0, 2)
    assert tm.weights == (Fraction(3, 8), Fraction(1, 4), Fraction(3, 8))


def test_transition_measure_is_probability_with_mean_zero_variance_size():
    for n in range(13):
        for lam in partitions_of(n):
            tm = transition_measure(lam)
            assert sum(tm.weights) == 1
            assert all(w > 0 for w in tm.weights)
            assert tm.moment(1) == 0
            assert tm.moment(2) == n


def test_transition_weights_are_growth_probabilities():
    # weight at an addable corner equals the relative tableau count after
    # adding that box, an entirely hook-length route to the same numbers
    for n in range(9):
        for lam in partitions_of(n):
            tm = transition_measure(lam)
            padded = lam + (0,)
            for atom, weight in zip(tm.atoms, tm.weights):
                row = next(
                    i for i in range(len(padded)) if padded[i] - i == atom
                )
                grown = tuple(
                    v for v in padded[:row] + (padded[row] + 1,) + padded[row + 1 :] if v
                )
                assert weight == Fraction(dimension(grown), (n + 1) * dimension(lam))


def _omega_profile_moment(lam, k):
    # profile height function omega(u) = u + 2 #{i : lam_i - i > u}, rows
    # padded with zeros; its second difference is +1 at minima, -1 at maxima
    span = sum(lam) + 2
    rows = list(lam) + [0] * (2 * span)

    def omega(u):
        return u + 2 * sum(1 for i, part in enumerate(rows) if part - i > u)

    def sigma(u):
        return Fraction(omega(u) - abs(u), 2)

    total = Fraction(0)
    for u in range(-span, span + 1):
        total += (sigma(u + 1) - 2 * sigma(u) + sigma(u - 1)) * u**k
    return total


def test_profile_moments_match_omega_second_differences():
    for n in range(11):
        for lam in partitions_of(n):
            for k in range(7):
                assert profile_moment(lam, k) == _omega_profile_moment(lam, k)


def test_profile_moment_low_orders():
    for n in range(13):
        for lam in partitions_of(n):
            assert profile_moment(lam, 0) == 0
            assert profile_moment(lam, 1) == 0
            assert profile_moment(lam, 2) == 2 * n


def test_free_cumulants_first_two():
    for n in range(11):
        for lam in partitions_of(n):
            r = free_cumulants(lam, 2)
            assert r[0] == 0
            assert r[1] == n


def test_free_cumulants_frozen_single_row():
    assert free_cumulants((2,), 4) == [0, 2, 2, -2]


def test_free_cumulants_accepts_a_measure_directly():
    lam = (4, 2, 1)
    tm = transition_measure(lam)
    assert free_cumulants(tm, 5) == free_cumulants(lam, 5)


def test_moment_cumulant_inversion_matches_noncrossing_sum():
    diagrams = [(3, 1), (2, 2, 1), (4, 2, 1), (1, 1, 1, 1)]
    for lam in diagrams:
        tm = transition_measure(lam)
        moments = tm.moments(7)
        cumulants = moments_to_free_cumulants(moments)
        for k in range(1, 8):
            total = Fraction(0)
            for blocks in noncrossing_partitions(k):
                prod = Fraction(1)
                for block in blocks:
                    prod *= cumulants[len(block) - 1]
                total += prod
            assert total == moments[k - 1], (lam, k)


def test_dilation_scales_cumulants_homogeneously():
    for lam in [(2,), (3, 1), (2, 2), (4, 3, 1)]:
        base = free_cumulants(lam, 6)
        for p in (Fraction(1, 2), Fraction(2), Fraction(3)):
            tm = dilate(transition_measure(lam), p)
            scaled = free_cumulants(tm, 6)
            assert scaled == [p**n * base[n - 1] for n in range(1, 7)]


def _measure_route(lam, k):
    return moments_to_free_cumulants(transition_measure(lam).moments(k))


def test_free_cumulants_from_power_sums_match_measure_route():
    for n in range(13):
        for lam in partitions_of(n):
            for k in range(9):
                cumulants, via_measure = free_cumulants(lam, k), _measure_route(lam, k)
                assert cumulants == via_measure, (lam, k)
                # a diagram's free cumulants are ints, a measure's Fractions
                assert all(type(r) is int for r in cumulants), (lam, k)
                assert all(type(r) is Fraction for r in via_measure), (lam, k)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=30), st.integers(1, 10))
def test_free_cumulants_from_power_sums_on_large_diagrams(rows, k):
    lam = tuple(sorted(rows, reverse=True))
    assert free_cumulants(lam, k) == _measure_route(lam, k)
