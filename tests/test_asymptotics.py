"""Cumulant machinery, scaled quantities, and limit-table transforms."""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st

from wreathprob.asymptotics import (
    ConvergenceReport,
    LimitParameters,
    composition_sums,
    condition_exponent,
    convergence_report,
    cumulant_from_moments,
    disjoint_cumulant,
    element_cumulant,
    example1_limits,
    half_power,
    induce_limits,
    irreducible_limits,
    limit_covariance_rhs,
    natural_cumulant,
    outer_limits,
    predicted_limit,
    r_cumulant,
    restrict_limits,
    scaled_quantity,
    set_partitions,
    tensor_limits,
)
from wreathprob import asymptotics
from wreathprob.errors import Infeasible, InputError, NoLimitTable
from wreathprob.groups import cyclic_group, symmetric3_group
from wreathprob.indicators import IndicatorSum
from wreathprob.wreath import (
    Example1Family,
    InducedFamily,
    IrreducibleFamily,
    OuterFamily,
    RestrictedFamily,
    family_from_json,
)

from family_trees import PROPERTY_GROUPS, nodes, trees
from oracles import composition_double_sum_bruteforce, compositions, measure_r_cumulant
from oracles import per_entry_limits, per_entry_restrict_limits


def composition_double_sum(c_of, l1: int, l2: int, weight=None):
    """Sum over equal-length composition pairs of (l1 l2 / r) prod c(a_i+b_i), by ``composition_sums``.

    weight, if given, maps the common length r to an extra factor.
    """
    return sum(
        (
            Fraction(l1 * l2, r) * ways * (1 if weight is None else weight(r))
            for r, ways in composition_sums(c_of, max(l1, l2)).get((l1, l2), ())
        ),
        Fraction(0),
    )


def test_set_partitions_are_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203]
    for n, expected in enumerate(bell):
        parts = list(set_partitions(n))
        assert len(parts) == expected
        for pi in parts:
            flat = sorted(x for block in pi for x in block)
            assert flat == list(range(n))


def test_cumulant_from_moments_low_orders():
    m = {
        (0,): Fraction(2),
        (1,): Fraction(3),
        (2,): Fraction(5),
        (0, 1): Fraction(7),
        (0, 2): Fraction(11),
        (1, 2): Fraction(13),
        (0, 1, 2): Fraction(17),
    }

    def moment(block):
        return m[tuple(sorted(block))]

    assert cumulant_from_moments(moment, 1) == 2
    assert cumulant_from_moments(moment, 2) == 7 - 2 * 3
    expected = 17 - 7 * 5 - 11 * 3 - 13 * 2 + 2 * 2 * 3 * 5
    assert cumulant_from_moments(moment, 3) == expected


def test_mixed_cumulants_of_independent_variables_vanish():
    # moments factor across the two groups, so any mixed cumulant is zero
    singles = {0: Fraction(2), 1: Fraction(-1), 2: Fraction(3), 3: Fraction(5)}
    pair_bumps = {(0, 1): Fraction(4), (2, 3): Fraction(-2)}

    def moment(block):
        groups = {i for i in block if i < 2}, {i for i in block if i >= 2}
        out = Fraction(1)
        for g in groups:
            part = Fraction(1)
            for i in g:
                part *= singles[i]
            key = tuple(sorted(g))
            if key in pair_bumps:
                part += pair_bumps[key]
            out *= part
        return out

    for block_args in [(0, 2), (0, 1, 2), (0, 2, 3), (1, 3)]:
        remap = {i: j for j, i in enumerate(block_args)}

        def submoment(block, remap=remap, args=block_args):
            return moment(tuple(args[i] for i in block))

        assert cumulant_from_moments(submoment, len(block_args)) == 0


def test_natural_cumulant_reference_values():
    fam = Example1Family(cyclic_group(2))
    for q in (3, 4, 7):
        assert natural_cumulant(fam, q, [(0, (1,))]) == Fraction(q, 2)
    assert natural_cumulant(fam, 4, [(0, (1,)), (1, (1,))]) == -1
    # arguments longer than q produce identically zero variables
    assert natural_cumulant(fam, 4, [(0, (5,)), (0, (5,))]) == 0


def test_disjoint_cumulant_reference_values():
    fam = Example1Family(cyclic_group(2))
    assert disjoint_cumulant(fam, 4, [(0, (1,))]) == 2
    assert disjoint_cumulant(fam, 4, [(0, (1,)), (0, (1,))]) == -1
    assert disjoint_cumulant(fam, 6, [(0, (2,)), (0, (2,))]) == 0


def test_conditions_two_and_three_agree_for_single_argument():
    fam = Example1Family(cyclic_group(2), multiplicities=(1, 3))
    for l in (1, 2, 3):
        for q in (4, 6):
            a = scaled_quantity(fam, 2, q, [(0, l)])
            b = scaled_quantity(fam, 3, q, [(0, l)])
            assert a == b


def test_scaled_covariance_grid_frozen_values():
    fam = Example1Family(cyclic_group(2))
    got = {
        q: scaled_quantity(fam, 3, q, [(0, 2), (0, 2)]) for q in (10, 20, 30)
    }
    assert got == {10: Fraction(9, 20), 20: Fraction(19, 40), 30: Fraction(29, 60)}
    got3 = {
        q: scaled_quantity(fam, 3, q, [(0, 3), (0, 3)]) for q in (10, 20, 30)
    }
    assert got3 == {
        10: Fraction(27, 100),
        20: Fraction(513, 1600),
        30: Fraction(203, 600),
    }
    # cross-slot single-row covariance is exactly the limit at every q
    for q in (10, 20, 30):
        assert scaled_quantity(fam, 3, q, [(0, 1), (1, 1)]) == Fraction(-1, 4)


def test_theorem_two_consistency_at_finite_q():
    # natural minus disjoint covariance, scaled, approaches the double sum
    fam = Example1Family(cyclic_group(2))
    target = composition_double_sum(
        lambda m: Fraction(1, 2) if m == 2 else Fraction(0), 2, 2
    )
    assert target == Fraction(1, 2)
    errors = []
    for q in (10, 20, 30):
        gap = scaled_quantity(fam, 3, q, [(0, 2), (0, 2)]) - scaled_quantity(
            fam, 2, q, [(0, 2), (0, 2)]
        )
        errors.append(abs(gap - target))
    assert errors[0] > errors[1] > errors[2]
    # for single rows the finite-q difference is exactly the double sum
    for q in (4, 9, 16):
        gap = scaled_quantity(fam, 3, q, [(0, 1), (0, 1)]) - scaled_quantity(
            fam, 2, q, [(0, 1), (0, 1)]
        )
        assert gap == Fraction(1, 2)


def test_r_cumulant_routes_agree():
    fam = Example1Family(cyclic_group(2))
    cases = [
        [(0, 2)],
        [(0, 3)],
        [(0, 2), (0, 2)],
        [(0, 2), (1, 2)],
        [(0, 3), (0, 3)],
        [(0, 2), (0, 3)],
    ]
    for q in (4, 6):
        for args in cases:
            assert r_cumulant(fam, q, args) == measure_r_cumulant(fam, q, args), (q, args)
    assert r_cumulant(fam, 8, [(0, 2)]) == 4  # E of the slot size


@st.composite
def _r_cumulant_cases(draw):
    ct = draw(st.sampled_from(PROPERTY_GROUPS))
    fam = draw(trees(ct, 2))
    q = draw(st.integers(1, 5))
    # small families: the measure route's class work stays far below its budget
    assume(fam.class_cost(q)[1] <= 1000)
    arg = st.tuples(st.integers(0, ct.num_irreps - 1), st.sampled_from([2, 3]))
    return fam, q, draw(st.lists(arg, min_size=1, max_size=2))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_r_cumulant_cases())
def test_r_cumulant_matches_the_measure_on_random_families(case):
    fam, q, args = case
    try:
        want = measure_r_cumulant(fam, q, args)
    except Infeasible:
        reject()  # past the class budget, which counts more than class work
    assert r_cumulant(fam, q, args) == want, (fam.to_json(), q, args)


def test_point_mass_family_has_no_fluctuations():
    fam = IrreducibleFamily(cyclic_group(2), weights=(Fraction(1, 2), Fraction(1, 2)))
    for args in [[(0, 2), (0, 2)], [(0, 2), (1, 3)], [(0, 3), (0, 3), (0, 2)]]:
        assert r_cumulant(fam, 9, args) == 0
        assert measure_r_cumulant(fam, 9, args) == 0


def test_expected_odd_free_cumulant_vanishes():
    fam = Example1Family(cyclic_group(2))
    for q in (4, 9):
        assert scaled_quantity(fam, 4, q, [(0, 3)]) == 0


def test_element_cumulant_vanishing_pattern():
    fam = Example1Family(cyclic_group(2))
    q = 3
    identity = ((0, 0, 0), (0, 1, 2))
    cycle = ((0, 0, 0), (1, 0, 2))
    colored = ((1, 0, 0), (0, 1, 2))
    assert element_cumulant(fam, q, [identity]) == 1
    assert element_cumulant(fam, q, [cycle]) == 0
    assert element_cumulant(fam, q, [colored]) == 0
    # disjoint supports: all higher cumulants vanish for this family
    other = ((0, 1, 0), (0, 1, 2))
    assert element_cumulant(fam, q, [colored, other]) == 0
    swap01 = ((0, 0, 0), (1, 0, 2))
    assert element_cumulant(fam, q, [swap01, ((0, 0, 1), (0, 1, 2))]) == 0


def test_condition_exponents():
    assert condition_exponent(3, [(0, 1)]) == -2
    assert condition_exponent(3, [(0, 2), (0, 2)]) == -4
    assert condition_exponent(2, [(0, 2), (0, 2)]) == -4
    assert condition_exponent(4, [(0, 3)]) == -3
    assert condition_exponent(4, [(0, 2), (0, 2)]) == -2
    assert condition_exponent(1, [((0, 0), (1, 0)), ((0, 0), (0, 1))]) == 3
    with pytest.raises(ValueError):
        condition_exponent(5, [])


def test_cumulant_symmetry_and_multilinearity():
    fam = Example1Family(cyclic_group(2))
    args = [(0, (2,)), (0, (1,)), (1, (1,))]
    base = natural_cumulant(fam, 5, args)
    assert natural_cumulant(fam, 5, list(reversed(args))) == base
    combo = IndicatorSum.indicator((2,)) * 2 + IndicatorSum.indicator((1, 1)) * Fraction(1, 3)
    lhs = natural_cumulant(fam, 5, [(0, combo), (1, (1,))])
    rhs = 2 * natural_cumulant(fam, 5, [(0, (2,)), (1, (1,))]) + Fraction(
        1, 3
    ) * natural_cumulant(fam, 5, [(0, (1, 1)), (1, (1,))])
    assert lhs == rhs


def test_compositions_and_double_sum():
    for n in range(1, 7):
        assert len(list(compositions(n))) == 2 ** (n - 1)

    def example1_c(m):
        return Fraction(1, 3) if m == 2 else Fraction(0)

    assert composition_double_sum(example1_c, 1, 1) == Fraction(1, 3)
    assert composition_double_sum(example1_c, 3, 3) == 3 * Fraction(1, 27)
    assert composition_double_sum(example1_c, 2, 3) == 0
    weighted = composition_double_sum(
        example1_c, 2, 2, weight=lambda r: Fraction(2) ** r
    )
    assert weighted == 2 * Fraction(1, 9) * 4


# a c table with zeros and signs, so both pruning and cancellation occur
SIGNED_C = {2: Fraction(1, 3), 3: Fraction(0), 4: Fraction(-2, 5), 5: Fraction(7),
            6: Fraction(0), 7: Fraction(1, 2), 8: Fraction(-3), 9: Fraction(0),
            10: Fraction(5, 4), 11: Fraction(2, 9), 12: Fraction(-1), 13: Fraction(3, 7),
            14: Fraction(0)}
DOUBLE_SUM_WEIGHTS = (None, lambda r: Fraction(3, 2) ** -r - 1)


def test_double_sum_matches_bruteforce_over_all_composition_pairs():
    table = SIGNED_C
    for l1 in range(1, 7):
        for l2 in range(1, 7):
            for weight in DOUBLE_SUM_WEIGHTS:
                got = composition_double_sum(table.__getitem__, l1, l2, weight)
                want = composition_double_sum_bruteforce(
                    table.__getitem__, l1, l2, weight
                )
                assert isinstance(got, Fraction)
                assert got == want, (l1, l2, weight)


def test_one_composition_sums_run_serves_every_pair():
    sums = composition_sums(SIGNED_C.__getitem__, 7)
    assert set(sums) <= {(l1, l2) for l1 in range(1, 8) for l2 in range(1, 8)}
    for l1 in range(1, 8):
        for l2 in range(1, 8):
            ways = sums.get((l1, l2), [])
            assert [r for r, _ in ways] == sorted({r for r, _ in ways})
            assert all(w for _, w in ways)
            for weight in DOUBLE_SUM_WEIGHTS:
                got = sum(
                    Fraction(l1 * l2, r) * w * (1 if weight is None else weight(r))
                    for r, w in ways
                )
                want = composition_double_sum_bruteforce(SIGNED_C.__getitem__, l1, l2, weight)
                assert got == want, (l1, l2, weight)


def test_example1_limit_table_reproduces_every_branch():
    w = (Fraction(1, 2), Fraction(1, 2))
    params = example1_limits(w, max_l=5)
    c = Fraction(1, 2)
    for l1 in range(1, 6):
        for l2 in range(1, 6):
            disjoint = -c * c if l1 == l2 == 1 else Fraction(0)
            want = limit_covariance_rhs(params, 0, l1, 0, l2, disjoint)
            assert params.covariance(0, l1, 0, l2) == want
            if l1 == l2 == 1:
                assert want == c * (1 - c)
            elif l1 == l2:
                assert want == l1 * c**l1
            else:
                assert want == 0
            cross = params.covariance(0, l1, 1, l2)
            assert cross == (-c * c if l1 == l2 == 1 else 0)
    # disjoint covariance inverts the double sum
    assert params.disjoint_covariance(0, 1, 0, 1) == -c * c
    assert params.disjoint_covariance(0, 2, 0, 2) == 0


def test_half_power_exactness():
    assert half_power(Fraction(1, 4), 3) == Fraction(1, 8)
    assert half_power(Fraction(1, 2), 4) == Fraction(1, 4)
    assert half_power(Fraction(0), 5) == 0
    assert half_power(Fraction(3), 0) == 1
    assert half_power(Fraction(1, 2), 1) == pytest.approx(math.sqrt(0.5))


def test_half_power_agrees_with_the_integer_square_root_rule():
    # the condition scalings are q**(e/2) at integer q >= 1: exact when e is
    # even or q a square, else the float power
    for q in range(1, 50):
        root = math.isqrt(q)
        for e in range(-7, 8):
            if e % 2 == 0:
                want = Fraction(q) ** (e // 2)
            elif root * root == q:
                want = Fraction(root) ** e
            else:
                want = float(q) ** (e / 2)
            got = half_power(q, e)
            assert got == want and type(got) is type(want), (q, e)


@pytest.mark.parametrize(
    "condition, args, want",
    [
        (3, [(0, 1)], Fraction(1, 2)),
        (4, [(0, 2)], Fraction(1, 2)),
        (3, [(0, 2), (0, 2)], Fraction(1, 2)),
        (2, [(0, 2), (0, 2)], 0),
        (4, [(0, 3), (0, 3)], Fraction(1, 2)),
        (3, [(0, 1), (1, 1)], Fraction(-1, 4)),
        (3, [(0, 1), (0, 1), (0, 1)], None),
    ],
)
def test_predicted_limit_reads_the_table(condition, args, want):
    params = Example1Family(cyclic_group(2)).limits(6)
    got = predicted_limit(params, condition, args)
    assert got == want and (want is None) == (got is None)


def test_predicted_limit_without_a_table():
    induced = InducedFamily(Example1Family(cyclic_group(2)), Fraction(1, 2)).limits()
    assert induced.cov is None
    assert predicted_limit(induced, 3, [(0, 1), (0, 1)]) is None
    assert predicted_limit(induced, 3, [(0, 1)]) == induced.c_value(0, 2)
    assert predicted_limit(None, 3, [(0, 1)]) is None
    with pytest.raises(InputError, match="start at 2"):
        predicted_limit(None, 4, [(0, 1)])


@pytest.fixture
def no_cumulants(monkeypatch):
    def refuse(*args):
        raise AssertionError("a cumulant was computed")

    monkeypatch.setattr(asymptotics, "raw_cumulant", refuse)


@pytest.mark.parametrize(
    "condition, args, grid",
    [
        (3, [(0, 2), (0, 2)], [10, 20, 20, 40]),
        (4, [(0, 1)], [4, 8]),
        (4, [(0, 2), (0, 1)], [4, 8]),
    ],
)
def test_convergence_report_refuses_before_any_cumulant(no_cumulants, condition, args, grid):
    fam = Example1Family(cyclic_group(2))
    with pytest.raises(InputError):
        convergence_report(fam, condition, args, grid, limit=Fraction(1, 2))


def test_repeated_grid_point_would_flip_the_verdict():
    # the tied error at a repeated q is no strict decrease, so the refusal
    # keeps a grid's verdict from depending on how often a point is listed
    fam = Example1Family(cyclic_group(2))
    args = [(0, 2), (0, 2)]
    report = convergence_report(fam, 3, args, [10, 20, 40], limit=Fraction(1, 2))
    assert report.verdict is True
    with pytest.raises(InputError, match="repeats"):
        convergence_report(fam, 3, args, [10, 20, 20, 40], limit=Fraction(1, 2))


def test_restriction_of_independent_boxes_is_invariant():
    fam = Example1Family(cyclic_group(2), multiplicities=(1, 3))
    parent = fam.limits(max_index=5)
    for ratio in (Fraction(2), Fraction(3, 2), Fraction(1)):
        child = RestrictedFamily(fam, ratio).limits(max_index=5)
        assert child.c == parent.c
        assert child.cov == parent.cov
    # and the finite-q moments agree exactly, not only in the limit
    restricted = RestrictedFamily(fam, Fraction(5, 2))
    for factors in [[(0, (1,))], [(1, (2,))], [(0, (1,)), (1, (1,))]]:
        assert restricted.moment(6, factors) == fam.moment(6, factors)


def test_restrict_limits_edge_densities():
    params = example1_limits((Fraction(1, 4), Fraction(3, 4)), max_l=4)
    same = restrict_limits(params, Fraction(1))
    assert same.c == params.c and same.cov == params.cov
    recovered = restrict_limits(params, Fraction(0))
    assert recovered.c == params.c
    assert recovered.cov == params.cov
    with pytest.raises(ValueError):
        restrict_limits(params, Fraction(3, 2))


def test_restricted_point_mass_covariance_converges():
    ct = cyclic_group(2)
    parent = IrreducibleFamily(ct, weights=(Fraction(1, 2), Fraction(1, 2)))
    fam = RestrictedFamily(parent, Fraction(2))
    predicted = fam.limits(max_index=4).covariance(0, 1, 0, 1)
    assert predicted == Fraction(1, 8)
    report = convergence_report(
        fam, 3, [(0, 1), (0, 1)], [20, 40, 60], limit=predicted
    )
    assert report.verdict is True


def test_induction_limit_means():
    ct = symmetric3_group()
    fam = Example1Family(ct)
    parent = fam.limits(max_index=4)
    for p in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
        child = induce_limits(parent, p, ct)
        # left-regular weights are reproduced for every density
        assert {k: v for k, v in child.c.items() if k[1] == 2} == parent.c
        assert child.cov is None
    with pytest.raises(ValueError):
        child.covariance(0, 1, 0, 1)
    # induced family moments agree with the limit at leading order
    induced = InducedFamily(fam, Fraction(1, 2))
    assert induced.limits().c == {
        (0, 2): Fraction(1, 6),
        (1, 2): Fraction(1, 6),
        (2, 2): Fraction(2, 3),
    }


def test_outer_of_equal_families_is_identity():
    w = (Fraction(1, 2), Fraction(1, 2))
    params = example1_limits(w, max_l=4)
    combined = outer_limits(params, params, Fraction(1, 3))
    assert combined.c == params.c
    assert combined.cov == params.cov


def test_outer_limit_covariance_matches_finite_q_trend():
    ct = cyclic_group(2)
    left = Example1Family(ct)
    right = Example1Family(ct, multiplicities=(1, 3))
    fam = OuterFamily(left, right, Fraction(1, 2))
    params = fam.limits(max_index=4)
    assert params.c_value(0, 2) == Fraction(3, 8)
    predicted = params.covariance(0, 1, 0, 1)
    # half of each parent's disjoint part plus the double sum at c' = 3/8
    assert predicted == -Fraction(1, 8) - Fraction(1, 32) + Fraction(3, 8)
    report = convergence_report(
        fam, 3, [(0, 1), (0, 1)], [16, 32, 48], limit=predicted
    )
    assert report.verdict is True


def test_tensor_limits_from_fibre_characters():
    ct = cyclic_group(2)
    trivial = Example1Family(ct, multiplicities=(1, 0))
    sign = Example1Family(ct, multiplicities=(0, 1))
    params = tensor_limits(trivial, sign)
    assert params.c == {(1, 2): Fraction(1)}
    both = tensor_limits(
        Example1Family(ct, multiplicities=(1, 1)),
        Example1Family(ct, multiplicities=(1, 1)),
    )
    assert both.c == {(0, 2): Fraction(1, 2), (1, 2): Fraction(1, 2)}
    # weights alone fix the normalized fibre: 1/3, 2/3 is the fibre triv + 2 sign
    thirds = Example1Family(ct, weights=(Fraction(1, 3), Fraction(2, 3)))
    one_two = Example1Family(ct, multiplicities=(1, 2))
    assert tensor_limits(thirds, sign) == tensor_limits(one_two, sign)
    assert tensor_limits(thirds, thirds) == tensor_limits(one_two, one_two)
    # S3 has a two-dimensional irreducible: 1/3 each is the fibre 2 triv + 2 sign + std,
    # whose square (values 36, 0, 9) is 9 triv + 9 sign + 9 std
    s3 = symmetric3_group()
    even = Example1Family(s3, weights=(Fraction(1, 3),) * 3)
    square = Example1Family(s3, multiplicities=(9, 9, 9)).limits()
    assert tensor_limits(even, even) == square
    two_two_one = Example1Family(s3, multiplicities=(2, 2, 1))
    assert tensor_limits(two_two_one, two_two_one) == square


def test_irreducible_limits_values():
    ct = cyclic_group(2)
    fam = IrreducibleFamily(ct, weights=(Fraction(1, 4), Fraction(3, 4)))
    params = irreducible_limits(fam, max_index=4)
    # single-box base: R_2 = 1, R_3 = 0, R_4 = -1 (two-atom transition measure)
    assert params.c == {
        (0, 2): Fraction(1, 4),
        (1, 2): Fraction(3, 4),
        (0, 4): -Fraction(1, 16),
        (1, 4): -Fraction(9, 16),
    }
    assert params.covariance(0, 2, 0, 2) == 0


def test_canonical_measure_dispatch():
    ct = cyclic_group(2)
    fam = Example1Family(ct)
    measure = fam.canonical_measure(4)
    assert sum(measure.values()) == 1
    point = IrreducibleFamily(
        ct, weights=(Fraction(1, 2), Fraction(1, 2))
    ).canonical_measure(6)
    assert list(point.values()) == [Fraction(1)]
    brute = RestrictedFamily(fam, Fraction(2)).canonical_measure(2)
    assert sum(brute.values()) == 1


def test_convergence_report_verdicts_and_emission():
    fam = Example1Family(cyclic_group(2))
    constant = convergence_report(fam, 3, [(0, 1)], [4, 8, 16], limit=Fraction(1, 2))
    assert constant.verdict is True
    assert all(row[2] == Fraction(1, 2) for row in constant.rows)
    failing = convergence_report(fam, 3, [(0, 1)], [4, 8, 16], limit=Fraction(1, 3))
    assert failing.verdict is False
    open_ended = convergence_report(fam, 3, [(0, 1)], [4, 8])
    assert open_ended.verdict is None
    csv_text = constant.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "q,raw,scaled,limit,abs_err,scaled_float"
    assert lines[2].split(",") == ["4", "2", "1/2", "1/2", "0", "0.5"]
    doc = constant.to_json()
    assert doc["verdict"] is True
    assert doc["description"] == "condition 3 at [(0, 1)]"
    assert doc["rows"][0]["q"] == 4


# ---------------------------------------- limit tables: one DP per slot

# restricted(3, outer(1/2, example1 S3, example1 S3 [1, 0, 2])): three slots
RESTRICTED_OUTER_S3 = {
    "kind": "restricted",
    "ratio": "3",
    "parent": {
        "kind": "outer",
        "ratio": "1/2",
        "left": {"kind": "example1", "group": "S3"},
        "right": {"kind": "example1", "group": "S3", "multiplicities": [1, 0, 2]},
    },
}


def test_limit_table_runs_one_composition_sums_per_slot(monkeypatch):
    depths = []
    run = asymptotics.composition_sums

    def counted(c_of, top):
        depths.append(top)
        return run(c_of, top)

    monkeypatch.setattr(asymptotics, "composition_sums", counted)
    params = family_from_json(RESTRICTED_OUTER_S3).limits(9)
    # both outer factors and the outer table, three slots each; the
    # restriction reads the outer table's runs again
    assert depths == [9] * 9
    assert params.cov


@st.composite
def _tables(draw):
    ct = draw(st.sampled_from(PROPERTY_GROUPS))
    return draw(nodes(ct, 2, shaped=True)), draw(st.sampled_from(range(2, 11)))


def _typed(entries):
    return {key: (type(v), v) for key, v in entries.items()}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_tables())
def test_limit_tables_match_the_per_entry_reference(case):
    fam, depth = case
    try:
        want = per_entry_limits(fam, depth)
    except NoLimitTable:
        with pytest.raises(NoLimitTable):
            fam.limits(depth)
        return
    got = fam.limits(depth)
    # equal values of equal types: an exact entry must not turn into a float
    assert _typed(got.c) == _typed(want.c), fam.to_json()
    assert (got.cov is None) == (want.cov is None)
    if want.cov is not None:
        assert _typed(got.cov) == _typed(want.cov), fam.to_json()
    assert got.to_json() == want.to_json()


def test_restricted_entry_stays_float_where_the_pin_is_a_float_zero():
    # c(0, 3) is irrational and c(1, 3) is zero, so the pin of entry
    # (0, 2, 1, 2) is the float 0.0: subtracting it makes the entry a float
    root = half_power(Fraction(1, 2), 3)
    params = LimitParameters(
        slots=2,
        c={(0, 2): Fraction(1, 2), (0, 3): root, (1, 2): Fraction(1, 2)},
        cov={(0, 2, 1, 2): Fraction(1)},
    )
    got = restrict_limits(params, Fraction(1, 2))
    want = per_entry_restrict_limits(params, Fraction(1, 2))
    assert _typed(got.cov) == _typed(want.cov)
    assert got.cov[(0, 2, 1, 2)] == 0.25 and isinstance(got.cov[(0, 2, 1, 2)], float)


def test_double_sum_reads_past_the_table_depth():
    params = example1_limits((Fraction(1, 3), Fraction(2, 3)), max_l=3)
    c_of = lambda m: params.c_value(1, m)
    assert params.double_sum(1, 2, 2) == composition_double_sum(c_of, 2, 2)
    # deeper than the first run: the slot's dynamic program runs again
    deep = params.double_sum(1, 7, 7)
    assert deep == composition_double_sum(c_of, 7, 7) == 7 * Fraction(2, 3) ** 7
    assert params == example1_limits((Fraction(1, 3), Fraction(2, 3)), max_l=3)
    assert "_sums" not in repr(params)
