"""Cumulant machinery, scaled quantities, and limit-table transforms."""

import inspect
import math
import random
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
    irreducible_limits,
    natural_cumulant,
    outer_limits,
    predicted_limit,
    r_cumulant,
    restrict_limits,
    scaled_quantity,
    set_partitions,
)
from wreathprob import asymptotics
from wreathprob.bruteforce import WreathGroup
from wreathprob.cli import SCHEMA_VERSION, _build_parser, _report_csv, _report_json
from wreathprob.errors import Infeasible, InputError, NoLimitTable
from wreathprob.groups import builtin_group, cyclic_group, symmetric3_group
from wreathprob.indicators import IndicatorSum
from wreathprob.wreath import (
    Example1Family,
    InducedFamily,
    IrreducibleFamily,
    OuterFamily,
    RestrictedFamily,
    TensorFamily,
    family_from_json,
)

from family_trees import PROPERTY_GROUPS, moment_factors, nodes, trees
from oracles import class_function_element_cumulant, composition_double_sum_bruteforce
from oracles import compositions, measure_r_cumulant
from oracles import induce_limits, per_entry_limits, per_entry_restrict_limits, tensor_fibre_weights


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
    # integer moments still give an exact Fraction
    assert type(cumulant_from_moments(lambda block: 3, 2)) is Fraction


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
    for cumulant, args in [
        (natural_cumulant, [(0, (2,)), (1, (1,))]),
        (disjoint_cumulant, [(0, (2,)), (0, (1,))]),
        (r_cumulant, [(0, 2), (1, 3)]),
    ]:
        assert type(cumulant(fam, 4, args)) is Fraction, cumulant
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


def test_r_cumulant_cases_leave_out_a_parent_past_the_class_budget():
    # the restricted family is cheap at q = 4, and r_cumulant asks its tensor
    # parent for moments at q = 8, where that parent's measure would pass the
    # class budget (class work 36540); a tensor moment is charged no measure
    ct = symmetric3_group()
    parent = TensorFamily(Example1Family(ct, [1, 0, 0]), Example1Family(ct, [1, 0, 0]))
    fam = RestrictedFamily(parent, 2)
    assert fam.class_cost(4)[1] <= 1000 and measure_r_cumulant(fam, 4, [(0, 2)]) == 4
    assert r_cumulant(fam, 4, [(0, 2)]) == 4
    with pytest.raises(Infeasible, match="q=8"):
        parent.canonical_measure(8)


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


# C2 wr S_4 elements as (colors, perm): a transposition (0 1), a
# transposition (2 3) coloured at point 2, and points 0 and 3 coloured alone
SWAP01 = ((0, 0, 0, 0), (1, 0, 2, 3))
COLORED_SWAP23 = ((0, 0, 1, 0), (0, 1, 3, 2))
COLOR0 = ((1, 0, 0, 0), (0, 1, 2, 3))
COLOR3 = ((0, 0, 0, 1), (0, 1, 2, 3))


def _enumerated_cumulant(fam, q, elements):
    """First or second cumulant of group elements, read off the enumerated wreath group."""
    group = WreathGroup(fam.ct, q)
    values = fam.class_function(q)

    def mean(i):
        return values.get(group.class_types[group.class_of[i]], 0)

    first, *rest = (group.index[x] for x in elements)
    if not rest:
        return mean(first)
    (second,) = rest
    return mean(group.mul(first, second)) - mean(first) * mean(second)


@pytest.mark.parametrize(
    "args, raw, scaled",
    [
        # a transposition has length 1: q**(1/2); two factors add q
        ([COLORED_SWAP23], Fraction(1, 3), Fraction(2, 3)),
        ([COLOR0, COLOR3], Fraction(-1, 3), Fraction(-4, 3)),
        ([SWAP01, COLOR3], Fraction(-1, 3), Fraction(-8, 3)),
        ([SWAP01], 0, 0),
    ],
)
def test_condition_one_quantities_match_the_enumerated_group(args, raw, scaled):
    # the irreducible of shapes ((2,), (1, 1)) at q = 4
    fam = IrreducibleFamily(cyclic_group(2), (Fraction(1, 2), Fraction(1, 2)), ((2, 1), (1,)))
    q = 4
    assert fam.shapes(q) == ((2,), (1, 1))
    assert _enumerated_cumulant(fam, q, args) == raw
    assert asymptotics.raw_cumulant(fam, 1, q, args) == raw
    assert scaled_quantity(fam, 1, q, args) == scaled
    report = convergence_report(fam, 1, args, [q], limit=scaled)
    assert report.rows == [(q, raw, scaled, scaled, 0)]
    assert report.verdict is True
    assert report.description == f"condition 1 at {args}"
    # one grid point: the verdict is the relative error alone, here past 15 %
    far = convergence_report(fam, 1, args, [q], limit=scaled - 1)
    assert far.rows == [(q, raw, scaled, scaled - 1, 1)]
    assert far.verdict is False


def _traced_cumulant(ct, shapes, q, elements):
    """First or second cumulant of elements under an irreducible's enumerated trace."""
    group = WreathGroup(ct, q)
    chi = group.irreducible_character(shapes)
    dim = chi[group.class_of[group.identity]]

    def mean(i):
        return Fraction(chi[group.class_of[i]], dim)

    first, *rest = (group.index[x] for x in elements)
    if not rest:
        return mean(first)
    (second,) = rest
    return mean(group.mul(first, second)) - mean(first) * mean(second)


@pytest.mark.parametrize("args", [[COLORED_SWAP23], [COLOR0, COLOR3], [SWAP01, COLOR3], [SWAP01]])
def test_condition_one_embeds_the_elements_at_every_grid_point(args):
    # condition 1 fixes the elements and grows q: at q > 4 each element
    # gains identity-coloured fixed points 4..q-1
    fam = IrreducibleFamily(cyclic_group(2), (Fraction(1, 2), Fraction(1, 2)), ((2, 1), (1,)))
    grid = [4, 5, 6]
    report = convergence_report(fam, 1, args, grid)
    for q, row in zip(grid, report.rows):
        padded = [(colors + (0,) * (q - 4), perm + tuple(range(4, q))) for colors, perm in args]
        assert row[:2] == (q, _traced_cumulant(fam.ct, fam.shapes(q), q, padded))
        # fixed points add as many points as cycles: the scaling is unchanged
        assert row[2] == scaled_quantity(fam, 1, q, padded)


def test_condition_one_refuses_a_grid_point_below_the_elements(monkeypatch):
    def refuse(*args):
        raise AssertionError("a cumulant was computed")

    monkeypatch.setattr(asymptotics, "cumulant_from_moments", refuse)
    fam = IrreducibleFamily(cyclic_group(2), (Fraction(1, 2), Fraction(1, 2)), ((2, 1), (1,)))
    with pytest.raises(InputError, match="more than q=3 points"):
        convergence_report(fam, 1, [COLOR0, COLOR3], [6, 3, 4])
    with pytest.raises(InputError, match="more than q=3 points"):
        element_cumulant(fam, 3, [COLOR0])


# malformed condition-1 elements on the irreducible C2 family at q = 4: a
# repeated point, a colour missing, and a colour that is no element of C2
MALFORMED = [((0, 0, 0), (1, 1, 2)), ((1,), (1, 0)), ((0, 2), (1, 0))]


@pytest.mark.parametrize("element", MALFORMED)
def test_condition_one_refuses_a_malformed_element(element):
    fam = IrreducibleFamily(cyclic_group(2), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(InputError, match="is not a group colour per point and a permutation"):
        element_cumulant(fam, 4, [SWAP01, element])
    with pytest.raises(InputError, match="is not a group colour per point"):
        convergence_report(fam, 1, [element], [4, 9])
    if element != MALFORMED[-1]:  # the exponent reads permutations only
        with pytest.raises(InputError, match="is not a group colour per point"):
            condition_exponent(1, [element])


def test_condition_one_refuses_a_permutation_leaving_its_points(monkeypatch):
    # perm (0, 2) on two points: walking its cycles never returns to point 1
    def refuse(perm):
        raise AssertionError(f"the cycles of {perm} were walked")

    monkeypatch.setattr(asymptotics, "backward_cycles", refuse)
    fam = IrreducibleFamily(cyclic_group(2), (Fraction(1, 2), Fraction(1, 2)))
    element = ((0, 0), (0, 2))
    with pytest.raises(InputError, match="is not a group colour per point and a permutation"):
        element_cumulant(fam, 4, [element])
    with pytest.raises(InputError, match="is not a group colour per point and a permutation"):
        condition_exponent(1, [element])


@st.composite
def _element_cases(draw):
    ct = draw(st.sampled_from(PROPERTY_GROUPS))
    fam = draw(trees(ct, 2))
    q = draw(st.integers(1, 5))
    assume(fam.class_cost(q)[1] <= 1000)

    def element(points):
        colors = st.lists(st.integers(0, ct.group.order - 1), min_size=points, max_size=points)
        return st.tuples(colors.map(tuple), st.permutations(range(points)).map(tuple))

    # every element starts at point 0, so supports may overlap
    elements = st.lists(st.integers(1, q).flatmap(element), min_size=1, max_size=3)
    return fam, q, draw(elements)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_element_cases())
def test_element_cumulant_matches_the_class_function_route(case):
    fam, q, elements = case
    try:
        want = class_function_element_cumulant(fam, q, elements)
    except Infeasible:
        reject()  # past the budget of the class-function route
    assert element_cumulant(fam, q, elements) == want, (fam.to_json(), q, elements)


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
            want = disjoint + params.double_sum(0, l1, l2)
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


# a rational cumulant summed from the cyclotomic characters of cyclic:4
C4_FIBRE = {"kind": "example1", "group": "cyclic:4", "multiplicities": [1, 0, 1, 1]}


def test_condition_one_scales_a_rational_cumulant_by_a_float_power():
    fam = family_from_json(C4_FIBRE)
    args = [((1,), (0,)), ((0, 0), (1, 0))]
    raw = element_cumulant(fam, 3, args)
    assert raw == 0 and type(raw) is Fraction
    # half_power(3, 3) is a float
    assert scaled_quantity(fam, 1, 3, args) == 0


def test_predicted_limit_has_no_condition_one_entry():
    params = family_from_json(C4_FIBRE).limits()
    assert predicted_limit(params, 1, [((1,), (0,))]) is None


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


def test_equal_nonzero_errors_at_distinct_grid_points_are_no_decrease():
    # the scaled mean of one fixed point is the slot weight 1/2 at every q,
    # so against 1/4 the error stays 1/4: close enough, but not decreasing
    fam = Example1Family(cyclic_group(2))
    report = convergence_report(fam, 3, [(0, 1)], [4, 9], limit=Fraction(1, 4), tolerance=2)
    assert [row[4] for row in report.rows] == [Fraction(1, 4)] * 2
    assert report.verdict is False


def test_a_nonzero_error_after_an_exact_zero_is_no_decrease():
    # slot 0 holds 2 of 4 boxes, then 3 of 5: errors 0, then 1/10
    fam = IrreducibleFamily(cyclic_group(2), (Fraction(1, 2), Fraction(1, 2)))
    report = convergence_report(fam, 3, [(0, 1)], [4, 5], limit=Fraction(1, 2), tolerance=1)
    assert [row[4] for row in report.rows] == [0, Fraction(1, 10)]
    assert report.verdict is False


def test_zero_limit_admits_a_last_error_equal_to_the_tolerance():
    # against a zero limit the tolerance bounds the absolute error, inclusively
    fam = Example1Family(cyclic_group(2))
    report = convergence_report(fam, 3, [(0, 1)], [9], limit=0, tolerance=Fraction(1, 2))
    assert report.rows[-1][4] == Fraction(1, 2)
    assert report.verdict is True


def test_limits_reads_the_report_tolerance_default():
    # `report` takes convergence_report's default and `limits` the parser's
    ns = _build_parser("limits").parse_args(["limits"])
    signature = inspect.signature(convergence_report)
    assert ns.tolerance == signature.parameters["tolerance"].default == Fraction(15, 100)


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
        child = InducedFamily(fam, p).limits(max_index=4)
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


@st.composite
def _induced_cases(draw):
    ct = draw(st.sampled_from(PROPERTY_GROUPS))
    parent = draw(trees(ct, 2, shaped=True))
    # square ratios keep p^{i/2} exact while 1 - p is no square
    p = draw(st.sampled_from([0, Fraction(1, 4), Fraction(1, 3), Fraction(4, 9), Fraction(1, 2), 1]))
    return parent, Fraction(p), draw(st.sampled_from(range(2, 11)))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_induced_cases())
def test_induced_table_is_the_outer_table_with_the_regular_block(case):
    parent, p, depth = case
    fam = InducedFamily(parent, p)
    try:
        want = induce_limits(parent.limits(depth), p, parent.ct)
    except NoLimitTable:
        with pytest.raises(NoLimitTable):
            fam.limits(depth)
        return
    got = fam.limits(depth)
    assert _typed(got.c) == _typed(want.c), fam.to_json()
    assert got.cov is None
    assert got.to_json() == want.to_json()
    outer = OuterFamily(parent, Example1Family(parent.ct), p).limits(depth)
    assert _typed(got.c) == _typed(outer.c), fam.to_json()


def test_outer_mean_at_a_square_share_stays_exact():
    # 1/4 is a square and 3/4 is not: the right block has no c(0, 3), so
    # its float power must not turn the left block's exact entry into a float
    ct = cyclic_group(2)
    left = IrreducibleFamily(ct, (Fraction(1, 2), Fraction(1, 2)), [(2,), (1,)])
    fam = OuterFamily(left, Example1Family(ct), Fraction(1, 4))
    params = fam.limits()
    value = params.c_value(0, 3)
    assert value == Fraction(1, 32) and type(value) is Fraction
    # so must its zero disjoint covariances: (0, 2, 0, 3) is exactly 9/128
    assert all(type(v) is Fraction for v in params.cov.values()), params.cov
    assert params.covariance(0, 2, 0, 3) == Fraction(9, 128)
    want = per_entry_limits(fam)
    assert _typed(params.c) == _typed(want.c) and _typed(params.cov) == _typed(want.cov)
    assert InducedFamily(left, Fraction(1, 4)).limits().c == params.c


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
    params = TensorFamily(trivial, sign).limits()
    assert params.c == {(1, 2): Fraction(1)}
    both = TensorFamily(
        Example1Family(ct, multiplicities=(1, 1)),
        Example1Family(ct, multiplicities=(1, 1)),
    ).limits()
    assert both.c == {(0, 2): Fraction(1, 2), (1, 2): Fraction(1, 2)}
    # weights alone fix the normalized fibre: 1/3, 2/3 is the fibre triv + 2 sign
    thirds = Example1Family(ct, weights=(Fraction(1, 3), Fraction(2, 3)))
    one_two = Example1Family(ct, multiplicities=(1, 2))
    assert TensorFamily(thirds, sign).limits() == TensorFamily(one_two, sign).limits()
    assert TensorFamily(thirds, thirds).limits() == TensorFamily(one_two, one_two).limits()
    # S3 has a two-dimensional irreducible: 1/3 each is the fibre 2 triv + 2 sign + std,
    # whose square (values 36, 0, 9) is 9 triv + 9 sign + 9 std
    s3 = symmetric3_group()
    even = Example1Family(s3, weights=(Fraction(1, 3),) * 3)
    square = Example1Family(s3, multiplicities=(9, 9, 9)).limits()
    assert TensorFamily(even, even).limits() == square
    two_two_one = Example1Family(s3, multiplicities=(2, 2, 1))
    assert TensorFamily(two_two_one, two_two_one).limits() == square


TENSOR_GROUPS = ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6", "S3", "dihedral:4", "dihedral:5")


def _multiplicities(rng, k):
    while not any(mults := [rng.randrange(3) for _ in range(k)]):
        pass
    return mults


def test_tensor_tables_are_the_product_fibre_tables():
    # the one-box measure against the fibre product summed over group elements
    rng = random.Random(32)
    for name in TENSOR_GROUPS:
        ct = builtin_group(name)
        for _ in range(15):
            left, right = (Example1Family(ct, _multiplicities(rng, ct.num_irreps)) for _ in "lr")
            depth = rng.randrange(2, 9)
            want = example1_limits(tensor_fibre_weights(left, right), depth)
            assert TensorFamily(left, right).limits(depth) == want, (name, left.to_json())
            assert TensorFamily(right, left).limits(depth) == want


def test_tensor_tables_need_two_independent_box_factors():
    ct = cyclic_group(2)
    box = Example1Family(ct)
    point = IrreducibleFamily(ct, (Fraction(1, 2), Fraction(1, 2)))
    cases = [
        (box, point, "irreducible"),
        (point, box, "irreducible"),
        (TensorFamily(box, box), box, "tensor"),
        (box, InducedFamily(box, Fraction(1, 2)), "induced"),
    ]
    for left, right, kind in cases:
        with pytest.raises(NoLimitTable, match=f"no tensor limit table for family kind '{kind}'"):
            TensorFamily(left, right).limits()


@st.composite
def _tensor_pairs(draw):
    ct = draw(st.sampled_from(PROPERTY_GROUPS))
    left, right = draw(trees(ct, 1)), draw(trees(ct, 1))
    q = draw(st.integers(1, 4))
    return left, right, q, draw(moment_factors(ct))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_tensor_pairs())
def test_tensor_products_commute(case):
    left, right, q, factors = case
    ab, ba = TensorFamily(left, right), TensorFamily(right, left)
    assert ab.moment(q, factors) == ba.moment(q, factors), (ab.to_json(), q, factors)
    try:
        table = ab.limits(4)
    except NoLimitTable:
        with pytest.raises(NoLimitTable):
            ba.limits(4)
        return
    assert ba.limits(4).to_json() == table.to_json()


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
    csv_text = _report_csv(constant)
    lines = csv_text.strip().splitlines()
    assert lines[0] == f"# schema_version={SCHEMA_VERSION}"
    assert lines[1] == "q,raw,scaled,limit,abs_err,scaled_float"
    assert lines[2].split(",") == ["4", "2", "1/2", "1/2", "0", "0.5"]
    doc = _report_json(constant)
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
