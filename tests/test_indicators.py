"""Indicator algebra: products, structure constants, Kerov conversions."""

import itertools
import math
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import wreathprob
from wreathprob import bruteforce
from wreathprob.diagrams import free_cumulants, profile_moment
from wreathprob.groups import symmetric3_group
from wreathprob import indicators, partitions
from wreathprob.indicators import (
    IndicatorSum,
    compose,
    compose_each,
    cycle_type,
    expand_indicator,
    free_cumulant_as_indicators,
    in_indicators,
    indicator_in_free_cumulants,
    product_coefficients,
    profile_moment_in_free_cumulants,
)
from wreathprob.partitions import partitions_of, term_scalar
from wreathprob.wreath import IrreducibleFamily

from oracles import (
    character,
    falling,
    from_pairs,
    indicator_in_free_cumulants_by_fit,
    indicator_scalar,
    multiplicity_constant,
    pair_compose,
    pair_cycle_type,
    pair_indicator,
    profile_moment_in_free_cumulants_by_fit,
    sum_scalar,
    to_pairs,
)


def test_compose_applies_right_factor_first():
    swap01 = from_pairs(((0, 1), (1, 0)), 3)
    swap12 = from_pairs(((1, 2), (2, 1)), 3)
    assert compose(swap01, swap12) == from_pairs(((0, 1), (1, 2), (2, 0)), 3)
    assert compose(swap12, swap01) == from_pairs(((0, 2), (1, 0), (2, 1)), 3)


def compose_disjoint(p1, p2):
    """Product that vanishes (None) unless the supports are disjoint."""
    if dict(p1).keys() & dict(p2).keys():
        return None
    return tuple(sorted(p1 + p2))


def test_compose_disjoint():
    swap01 = ((0, 1), (1, 0))
    swap23 = ((2, 3), (3, 2))
    assert compose_disjoint(swap01, swap23) == ((0, 1), (1, 0), (2, 3), (3, 2))
    assert compose_disjoint(swap01, swap01) is None


def test_cycle_type_counts_pinned_fixed_points():
    assert cycle_type(from_pairs((), 6)) == ()
    assert cycle_type(from_pairs(((4, 4),), 6)) == (1,)
    assert cycle_type(from_pairs(((0, 1), (1, 0), (5, 5)), 6)) == (2, 1)


@st.composite
def pair_partial_perm(draw, q):
    """A partial permutation on q points as sorted (point, image) pairs."""
    support = sorted(draw(st.sets(st.integers(0, q - 1))))
    return tuple(zip(support, draw(st.permutations(support))))


@st.composite
def partial_perm_case(draw):
    q = draw(st.integers(1, 7))
    rows = draw(st.lists(st.integers(1, 3), max_size=3).filter(lambda r: sum(r) <= min(q, 5)))
    return q, draw(pair_partial_perm(q)), draw(pair_partial_perm(q)), tuple(rows)


@settings(max_examples=100, deadline=None)
@given(partial_perm_case())
def test_partial_permutations_match_pair_oracle(case):
    q, a, b, rows = case
    pa, pb = from_pairs(a, q), from_pairs(b, q)
    assert to_pairs(pa) == a
    assert compose(pa, pb) == from_pairs(pair_compose(a, b), q)
    assert list(compose_each([pa[0]], [pa[1]], pb)) == [compose(pa, pb)]
    assert cycle_type(pa) == pair_cycle_type(a)
    expected = Counter({from_pairs(pp, q): c for pp, c in pair_indicator(rows, q).items()})
    assert expand_indicator(rows, q) == expected


def test_expand_indicator_matches_pair_oracle_exhaustively():
    for size in range(6):
        for rows in partitions_of(size):
            for q in range(8):
                expected = Counter(
                    {from_pairs(pp, q): c for pp, c in pair_indicator(rows, q).items()}
                )
                assert expand_indicator(rows, q) == expected, (rows, q)
                assert expand_indicator(rows[::-1], q) == expected, (rows, q)


def test_expansions_of_distinct_indicators_are_disjoint():
    # a partial permutation's cycle type on its support is its rows, so
    # verify's structure-constant check fills one key set per indicator
    # with no sums; that needs every expansion on q points to be disjoint
    for q in range(7):
        owner = {}
        for size in range(q + 1):
            for rows in partitions_of(size):
                for pp in expand_indicator(rows, q):
                    assert owner.setdefault(pp, rows) == rows, (q, pp, rows, owner[pp])
        assert len(owner) == sum(math.comb(q, k) * math.factorial(k) for k in range(q + 1))


def test_expand_indicator_builds_each_partial_permutation_once(monkeypatch):
    calls = []
    original = indicators._filling

    def counting(rows, points, q):
        calls.append(points)
        return original(rows, points, q)

    monkeypatch.setattr(indicators, "_filling", counting)
    for rows in [(), (1,), (1, 1, 1), (2, 2), (3, 1, 1), (2, 2, 1), (5,)]:
        for q in range(sum(rows), 8):
            calls.clear()
            expand_indicator(rows, q)
            assert len(calls) == falling(q, sum(rows)) // multiplicity_constant(rows)


def test_multiplicity_constant():
    assert multiplicity_constant(()) == 1
    assert multiplicity_constant((1,)) == 1
    assert multiplicity_constant((2,)) == 2
    assert multiplicity_constant((1, 1)) == 2
    assert multiplicity_constant((3,)) == 3
    assert multiplicity_constant((2, 2)) == 8
    assert multiplicity_constant((3, 2, 2, 1)) == 24


def test_expand_indicator_counts():
    for rows in [(1,), (2,), (2, 1), (3,), (1, 1)]:
        for q in range(sum(rows), sum(rows) + 3):
            expansion = expand_indicator(rows, q)
            assert sum(expansion.values()) == falling(q, sum(rows))
            mult = multiplicity_constant(rows)
            assert all(c == mult for c in expansion.values())
            assert all(
                cycle_type(pp) == tuple(sorted(rows, reverse=True))
                for pp in expansion
            )


def test_structure_constants_frozen():
    assert product_coefficients((1,), (1,)) == {(1,): 1, (1, 1): 1}
    assert product_coefficients((2,), (1,)) == {(2,): 2, (2, 1): 1}
    assert product_coefficients((2,), (2,)) == {(1, 1): 2, (3,): 4, (2, 2): 1}
    assert product_coefficients((3,), (3,))[(1, 1, 1)] == 3
    # every structure constant that appears is a positive integer, held as an int
    pairs = [
        (mu, nu)
        for total in range(2, 9)
        for size in range(1, total)
        for mu in partitions_of(size)
        for nu in partitions_of(total - size)
    ]
    coeffs = [g for mu, nu in pairs for g in product_coefficients(mu, nu).values()]
    assert (len(pairs), len(coeffs)) == (301, 1353)
    assert all(type(g) is int and g > 0 for g in coeffs)


def _convolve(left: Counter, right: Counter) -> Counter:
    out: Counter = Counter()
    for p1, c1 in left.items():
        for p2, c2 in right.items():
            out[compose(p1, p2)] += c1 * c2
    return out


def test_structure_constants_hold_at_larger_point_counts():
    pairs = [
        ((1,), (1,)),
        ((2,), (1,)),
        ((2,), (2,)),
        ((2,), (2, 1)),
        ((3,), (2,)),
        ((1, 1), (2,)),
    ]
    for mu, nu in pairs:
        coeffs = product_coefficients(mu, nu)
        q0 = sum(mu) + sum(nu)
        for q in (q0, q0 + 1, q0 + 2):
            direct = _convolve(expand_indicator(mu, q), expand_indicator(nu, q))
            reconstructed: Counter = Counter()
            for rho, g in coeffs.items():
                for pp, c in expand_indicator(rho, q).items():
                    reconstructed[pp] += g * c
            assert direct == +reconstructed, (mu, nu, q)


def test_indicator_sum_products_match_scalar_products():
    s1 = IndicatorSum.indicator((1,))
    s2 = IndicatorSum.indicator((2,))
    assert (s1 * s1).terms == {(1, 1): 1, (1,): 1}
    assert (s2 * s1).terms == {(2, 1): 1, (2,): 2}
    for a, b in [(s1, s1), (s2, s1), (s2, s2)]:
        prod = a * b
        for lam in partitions_of(6) + partitions_of(4):
            assert prod.scalar_on(lam) == a.scalar_on(lam) * b.scalar_on(lam)


def test_indicator_sum_product_associative():
    s1 = IndicatorSum.indicator((1,))
    s2 = IndicatorSum.indicator((2,))
    s3 = IndicatorSum.indicator((3,))
    assert (s1 * s2) * s3 == s1 * (s2 * s3)
    assert (s1 * s1) * s2 == s1 * (s1 * s2)


def test_int_coefficients_stay_ints():
    s1 = IndicatorSum.indicator((1,))
    s2 = IndicatorSum.indicator((2,))
    built = [
        IndicatorSum.one(),
        s1 + s2,
        s1 - s2,
        s2 * s1,
        (s2 * s2) * (s1 + s2),
        s2.disjoint(s1 + s2),
        3 * s2,
        s2 * -2,
        free_cumulant_as_indicators(5),
        in_indicators(profile_moment_in_free_cumulants(4)),
    ]
    for summ in built:
        assert summ.terms and all(type(c) is int for c in summ.terms.values()), summ
    mixed = s2 + Fraction(1, 2) * s1
    assert [type(mixed.terms[rows]) for rows in ((2,), (1,))] == [int, Fraction]


def test_other_coefficients_are_stored_as_exact_fractions():
    s2 = IndicatorSum.indicator((2,))
    for coeff in (Fraction(1, 2), 0.5, "1/2"):
        for summ in (IndicatorSum({(2,): coeff}), coeff * s2, s2 * coeff):
            value = summ.terms[(2,)]
            assert type(value) is Fraction and value == Fraction(1, 2), (coeff, summ)
    # no float arithmetic: 0.1 * 3 would round, Fraction(0.1) * 3 does not
    assert (0.1 * (3 * s2)).terms == {(2,): 3 * Fraction(0.1)}
    assert type(IndicatorSum({(2,): Fraction(2)}).terms[(2,)]) is Fraction


def test_scalars_on_irreducibles_are_fractions():
    cases = [((), (1,)), ((1,), (1,)), ((3, 2), (2,)), ((4, 4, 1), (2, 2)), ((3, 2), (9,))]
    for lam, rows in cases:
        assert type(indicators.indicator_scalar(lam, rows)) is Fraction, (lam, rows)
    assert type(IndicatorSum.indicator((3, 3)).scalar_on((4, 4, 1))) is Fraction


def test_disjoint_product_concatenates_rows():
    s2 = IndicatorSum.indicator((2,))
    s31 = IndicatorSum.indicator((3, 1))
    assert s2.disjoint(s31).terms == {(3, 2, 1): 1}
    mixed = (s2 + 2 * s31).disjoint(s2)
    assert mixed.terms == {(2, 2): 1, (3, 2, 1): 2}


def test_kerov_expansions_frozen():
    assert indicator_in_free_cumulants(1) == {(2,): 1}
    assert indicator_in_free_cumulants(2) == {(3,): 1}
    assert indicator_in_free_cumulants(3) == {(4,): 1, (2,): 1}
    assert indicator_in_free_cumulants(4) == {(5,): 1, (3,): 5}
    assert indicator_in_free_cumulants(5) == {
        (6,): 1,
        (4,): 15,
        (2, 2): 5,
        (2,): 8,
    }
    assert indicator_in_free_cumulants(6) == {
        (7,): 1,
        (5,): 35,
        (3, 2): 35,
        (3,): 84,
    }


def _evaluate(poly, cumulants):
    """A free-cumulant polynomial at the cumulants R_1, R_2, ... of one diagram."""
    value = Fraction(0)
    for mono, coeff in poly.items():
        prod = Fraction(coeff)
        for idx in mono:
            prod *= cumulants[idx - 1]
        value += prod
    return value


def _kerov_value(l, lam):
    """The one-row indicator of length l evaluated through its Kerov polynomial."""
    return _evaluate(indicator_in_free_cumulants(l), free_cumulants(lam, l + 1))


def test_kerov_expansions_hold_beyond_interpolation_range():
    for l in range(1, 6):
        for lam in partitions_of(l + 3):
            assert _kerov_value(l, lam) == indicator_scalar(lam, (l,)), (l, lam)


def test_series_polynomials_match_interpolation_oracle():
    # the oracle fits each polynomial on every diagram of size <= index + 2
    cases = [(indicator_in_free_cumulants, indicator_in_free_cumulants_by_fit, i) for i in range(10)]
    cases += [(profile_moment_in_free_cumulants, profile_moment_in_free_cumulants_by_fit, i) for i in range(10)]
    for series, fit, i in cases:
        got, want = series(i), fit(i)
        assert got == want, (series.__name__, i)
        assert list(got) == list(want), (series.__name__, i)
        assert all(type(c) is int for c in got.values()), (series.__name__, i)


@st.composite
def young_diagram(draw, max_size=30):
    left = draw(st.integers(0, max_size))
    parts = []
    while left:
        parts.append(draw(st.integers(1, left)))
        left -= parts[-1]
    return tuple(sorted(parts, reverse=True))


@settings(max_examples=100, deadline=None)
@given(young_diagram(), st.integers(1, 12), st.integers(0, 12))
def test_series_polynomials_evaluate_on_random_diagrams(lam, l, k):
    # Murnaghan-Nakayama and the profile's corners share no code with the series
    cumulants = free_cumulants(lam, max(l + 1, k))
    assert _evaluate(indicator_in_free_cumulants(l), cumulants) == indicator_scalar(lam, (l,))
    assert _evaluate(profile_moment_in_free_cumulants(k), cumulants) == profile_moment(lam, k)


def test_kerov_polynomials_are_positive():
    # Feray 2009: every Kerov coefficient is a positive integer
    for l in range(1, 15):
        poly = indicator_in_free_cumulants(l)
        assert poly[(l + 1,)] == 1, l
        assert all(type(c) is int and c > 0 for c in poly.values()), l


def test_one_row_indicators_on_large_shapes_match_kerov_polynomials():
    # characters on up to 80 boxes, where the rim-hook recursion ends in
    # its fixed-point shortcut, against the Kerov polynomials in the free
    # cumulants of the same shapes (frozen in test_kerov_expansions_frozen)
    fam = IrreducibleFamily(
        symmetric3_group(), ["1/6", "2/3", "1/6"], [(2, 1), (3, 1), (1,)]
    )
    shapes = fam.shapes(120)
    assert max(sum(lam) for lam in shapes) == 80
    for lam in shapes:
        for l in range(1, 5):
            assert indicator_scalar(lam, (l,)) == _kerov_value(l, lam), (lam, l)


def test_large_diagram_scalars_match_kerov_polynomials_and_peeling():
    # the IRR slot shapes at q = 4000 hold 667 to 2667 boxes, past the
    # oracle's recursion: one row against its Kerov polynomial, and a
    # product of two terms against the terms of its expansion
    fam = IrreducibleFamily(
        symmetric3_group(), ["1/6", "2/3", "1/6"], [(2, 1), (3, 1), (1,)]
    )
    pairs = [
        ((2,), (2,)),
        ((3,), (2, 1)),
        ((4,), (3,)),
        ((5,), (3,)),
        ((3, 3), (1, 1)),
        ((2, 2), (2, 1, 1)),
    ]
    for lam in fam.shapes(4000):
        for l in range(1, 9):
            assert term_scalar(lam, (l,)) == _kerov_value(l, lam), (lam, l)
        for rho1, rho2 in pairs:
            expansion = product_coefficients(rho1, rho2).items()
            peeled = sum(g * term_scalar(lam, sigma) for sigma, g in expansion)
            assert term_scalar(lam, rho1) * term_scalar(lam, rho2) == peeled, (lam, rho1, rho2)


def test_free_cumulants_as_indicators_frozen():
    s = IndicatorSum.indicator
    assert free_cumulant_as_indicators(2) == s((1,))
    assert free_cumulant_as_indicators(3) == s((2,))
    assert free_cumulant_as_indicators(4) == s((3,)) - s((1,))
    r6 = free_cumulant_as_indicators(6)
    assert r6.terms == {(5,): 1, (3,): -15, (1, 1): -5, (1,): 2}


def test_free_cumulants_as_indicators_evaluate_correctly():
    for n in range(2, 7):
        expansion = free_cumulant_as_indicators(n)
        assert in_indicators({(n,): 1}) == expansion
        for size in range(10):
            for lam in partitions_of(size):
                expected = free_cumulants(lam, n)[n - 1]
                assert expansion.scalar_on(lam) == sum_scalar(expansion, lam) == expected


def test_profile_moments_in_free_cumulants_frozen():
    assert profile_moment_in_free_cumulants(2) == {(2,): 2}
    assert profile_moment_in_free_cumulants(3) == {(3,): 3}
    assert profile_moment_in_free_cumulants(4) == {(4,): 4, (2, 2): 6}


def test_profile_moments_as_indicators_evaluate_correctly():
    for k in range(2, 7):
        expansion = in_indicators(profile_moment_in_free_cumulants(k))
        for size in range(9):
            for lam in partitions_of(size):
                expected = profile_moment(lam, k)
                assert expansion.scalar_on(lam) == sum_scalar(expansion, lam) == expected


def test_indicator_scalar_reproduces_products_on_every_small_diagram():
    # the scalar action is an algebra homomorphism for each fixed size
    cases = [((2,), (2, 1)), ((3,), (1,)), ((2, 2), (1,))]
    for mu, nu in cases:
        smu = IndicatorSum.indicator(mu)
        snu = IndicatorSum.indicator(nu)
        prod = smu * snu
        for size in range(8):
            for lam in partitions_of(size):
                assert prod.scalar_on(lam) == indicator_scalar(
                    lam, mu
                ) * indicator_scalar(lam, nu)


@settings(max_examples=150, deadline=None)
@given(young_diagram(12), young_diagram(7), young_diagram(7), st.booleans())
def test_free_cumulant_route_matches_rim_hook_removal(lam, rho, sigma, as_list):
    # rho and sigma keep their fixed points; lists must work as tuples do
    shape, rows = (list(lam), list(rho)) if as_list else (lam, rho)
    assert indicators.indicator_scalar(shape, rows) == indicator_scalar(lam, rho)
    mixed = IndicatorSum.indicator(rows) - 3 * IndicatorSum.indicator(sigma)
    assert mixed.scalar_on(shape) == sum_scalar(mixed, lam)
    n = sum(lam)
    if sum(rho) <= n:
        mu = rho + (1,) * (n - sum(rho))
        # any order of the cycle lengths names the same class
        cycles = list(reversed(mu)) if as_list else mu
        assert wreathprob.character(shape, cycles) == character(lam, mu)


def test_both_scalar_routes_agree_on_every_small_diagram():
    # bead moves against the oracle's Murnaghan-Nakayama recursion over
    # whole cycle types, on every term of several rows
    terms = [rho for size in range(2, 8) for rho in partitions_of(size) if len(rho) > 1]
    for size in range(9):
        for lam in partitions_of(size):
            for rho in terms:
                assert indicators.indicator_scalar(lam, rho) == indicator_scalar(lam, rho)


def test_long_rows_are_never_expanded(monkeypatch):
    # peeling (10)(10) would expand 20!/(10! 10) fillings; a term that long
    # is read off rim hooks, and a character never expands at all
    expand = indicators.expand_indicator

    def bounded(rows, q):
        assert falling(q, sum(rows)) <= 10**6, (rows, q)
        return expand(rows, q)

    monkeypatch.setattr(indicators, "expand_indicator", bounded)
    for lam, rho in [((10, 10), (10, 10)), ((7, 5, 2), (6, 6, 2)), ((9, 6, 1), (7, 7))]:
        assert indicators.indicator_scalar(lam, rho) == indicator_scalar(lam, rho)
    assert wreathprob.character((8, 8), (8, 8)) == character((8, 8), (8, 8))
    assert wreathprob.character((10, 10), (10, 10)) == character((10, 10), (10, 10))


def test_scalar_cache_computes_each_diagram_term_once(monkeypatch):
    # the lemma reads the same terms on the same diagrams many times, through
    # scalar_on and character alike; each (diagram, rows) pair is computed once
    term_scalar = partitions.term_scalar
    keys = []

    def counting(lam, rows):
        keys.append((lam, rows))
        return term_scalar(lam, rows)

    for module in (indicators, partitions):
        monkeypatch.setattr(module, "term_scalar", counting)
    term_scalar.cache_clear()
    failures = []
    cases = bruteforce.check_factorization_lemma(
        symmetric3_group(), 3, failures, bruteforce.WreathGroup
    )
    assert cases > 0 and failures == []
    distinct = set(keys)
    info = term_scalar.cache_info()
    assert info.maxsize == partitions.SCALAR_CACHE_SIZE
    assert len(distinct) < len(keys) and len(distinct) <= info.maxsize
    assert info.misses == info.currsize == len(distinct)
    assert info.hits == len(keys) - len(distinct)
    for lam, rows in distinct:
        assert term_scalar(lam, rows) == indicator_scalar(lam, rows), (lam, rows)
