"""Representation families: closed-form moments against the enumeration oracle."""

import json
import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st

from wreathprob import indicators, wreath
from wreathprob.asymptotics import element_cumulant, natural_cumulant
from wreathprob.bruteforce import MAX_ELEMENTS
from wreathprob.errors import Infeasible, InputError
from wreathprob.groups import builtin_group, cyclic_group, dihedral_group, symmetric3_group
from wreathprob.indicators import IndicatorSum
from wreathprob.partitions import partitions_of
from wreathprob.wreath import (
    MAX_CLASS_WORK,
    MOMENT_MEMO_SIZE,
    Example1Family,
    InducedFamily,
    IrreducibleFamily,
    OuterFamily,
    RepFamily,
    RestrictedFamily,
    TensorFamily,
    _capped_count,
    check_class_budget,
    class_types,
    class_values,
    enumerate_irreps,
    factorized_character,
    family_from_json,
    irreps_by_sizes,
    wreath_dimension,
    wreath_order,
)

from family_trees import PROPERTY_GROUPS, moment_factors, stray_keys, trees
from oracles import (
    brute_moment,
    class_function_tensor_moment,
    enumerated_group,
    enumerated_measure,
    enumerated_sizes,
    family_values,
    class_value_per_irreducible,
    full_table_measure,
    indicator_scalar,
    sum_scalar,
)


def test_enumerate_irreps_counts():
    ct2 = cyclic_group(2)
    ct3 = symmetric3_group()
    assert len(enumerate_irreps(ct2, 2)) == 5
    assert len(enumerate_irreps(ct3, 2)) == 9
    # composition sum: sum over ordered slot sizes of partition-count products
    def count(slots, q):
        if slots == 1:
            return len(partitions_of(q))
        return sum(count(slots - 1, q - a) * len(partitions_of(a)) for a in range(q + 1))

    assert len(enumerate_irreps(ct2, 5)) == count(2, 5)
    assert len(enumerate_irreps(ct3, 4)) == count(3, 4)


def test_budget_counts_match_enumeration():
    # the recurrence behind the class budget counts what would be enumerated
    for ct in (cyclic_group(2), symmetric3_group(), dihedral_group(4)):
        for q in range(7):
            assert _capped_count(len(ct.group.conjugacy_classes), q) == len(class_types(ct, q))
            assert _capped_count(ct.num_irreps, q) == len(enumerate_irreps(ct, q))
    assert _capped_count(1, 10**9) == MAX_CLASS_WORK + 1


@pytest.mark.parametrize(
    "spec, top",
    [
        ("cyclic:2", 5),
        ("cyclic:3", 4),
        ("S3", 4),
        ("cyclic:4", 3),
        # 2-dimensional irreducibles; dihedral:5 has the values z5 + z5^-1
        ("dihedral:4", 3),
        ("dihedral:5", 3),
    ],
)
def test_class_value_columns_match_per_irreducible_walk(spec, top):
    # same value and same representation: an int where the per-irreducible
    # route gives an int, otherwise the same root order and coefficients
    ct = builtin_group(spec)
    for q in range(top + 1):
        for lam_tuples in irreps_by_sizes(ct, q).values():
            for t in class_types(ct, q):
                for lam_tuple, new in zip(lam_tuples, class_values(ct, lam_tuples, t)):
                    old = class_value_per_irreducible(ct, lam_tuple, t)
                    assert type(new) is type(old) and new == old, (lam_tuple, t)
                    if type(old) is not int:
                        assert new.order == old.order
                        assert list(map(type, new.coeffs)) == list(map(type, old.coeffs))


def test_class_function_on_long_cycle_classes_finishes(monkeypatch):
    # on C1 at q = 14 the class types include (7, 7) and (6, 6, 2), whose
    # indicators would expand millions of partial permutations
    expand = indicators.expand_indicator

    def bounded(rows, q):
        assert math.perm(q, sum(rows)) <= 10**6, (rows, q)
        return expand(rows, q)

    monkeypatch.setattr(indicators, "expand_indicator", bounded)
    ct = cyclic_group(1)
    fam = IrreducibleFamily(ct, (1,))
    start = time.perf_counter()
    check_class_budget(14, fam.class_cost(14)[1])  # the budget admits it
    values = fam.class_function(14)
    assert time.perf_counter() - start < 10
    shapes = fam.shapes(14)
    dim = wreath_dimension(ct, shapes)
    for t in class_types(ct, 14):
        expected = Fraction(class_value_per_irreducible(ct, shapes, t), dim)
        assert values.get(t, 0) == expected, t


def test_wreath_dimension_squares_fill_group():
    for ct, q in [(cyclic_group(2), 4), (symmetric3_group(), 3), (cyclic_group(4), 2)]:
        order = len(ct.group.mult) ** q * 1
        for k in range(2, q + 1):
            order *= k
        total = sum(wreath_dimension(ct, t) ** 2 for t in enumerate_irreps(ct, q))
        assert total == order


def test_factorized_character_multiplies_slot_scalars():
    ct = symmetric3_group()
    lam_tuple = ((2,), (1,), (2, 1))
    factors = [(0, (1,)), (2, (2,)), (2, (1,))]
    value = factorized_character(lam_tuple, factors)
    assert type(value) is Fraction
    # same-slot factors combine through the indicator product, not naively
    merged = IndicatorSum.indicator((2,)) * IndicatorSum.indicator((1,))
    assert value == factorized_character(lam_tuple, [(0, (1,)), (2, merged)])
    assert value == indicator_scalar((2,), (1,)) * sum_scalar(merged, (2, 1))


FACTOR_SETS_2 = [
    [(0, (1,))],
    [(1, (1,))],
    [(0, (2,))],
    [(1, (2,))],
    [(0, (1, 1))],
    [(0, (1,)), (1, (1,))],
    [(0, (2,)), (1, (1,))],
    [(0, (3,))],
    [(0, (2, 1))],
    [(0, (1,)), (0, (1,))],
    [(0, (2,)), (0, (2,))],
    [(1, (2, 2))],
]


def _check_against_brute(family, q, factor_sets):
    for factors in factor_sets:
        closed = family.moment(q, factors)
        brute = brute_moment(family, q, factors)
        assert closed == brute, (q, factors, closed, brute)


def test_example1_moments_match_enumeration():
    fam = Example1Family(cyclic_group(2))
    for q in (2, 3):
        _check_against_brute(fam, q, FACTOR_SETS_2)
    fam3 = Example1Family(symmetric3_group())
    _check_against_brute(fam3, 2, [[(0, (1,))], [(2, (1,))], [(2, (2,))], [(0, (1,)), (2, (1,))]])


def test_example1_closed_form_values():
    fam = Example1Family(cyclic_group(2))
    # single-row pins scale by falling factorials of q times weight powers
    assert fam.moment(5, [(0, (1,))]) == Fraction(5, 2)
    assert fam.moment(5, [(0, (1,)), (1, (1,))]) == 5 * 4 * Fraction(1, 4)
    assert fam.moment(5, [(0, (2,))]) == 0
    assert fam.moment(5, [(0, (1, 1))]) == 5 * 4 * Fraction(1, 4)
    weighted = Example1Family(cyclic_group(2), weights=(Fraction(3, 4), Fraction(1, 4)))
    assert weighted.moment(4, [(1, (1,))]) == 1
    assert weighted.moment(4, [(0, (1, 1))]) == 12 * Fraction(9, 16)


def test_canonical_measure_matches_decomposition():
    for ct, q in [(cyclic_group(2), 2), (cyclic_group(2), 3), (symmetric3_group(), 2)]:
        fam = Example1Family(ct)
        measure = enumerated_measure(fam, q)
        total = Fraction(0)
        for lam_tuple in enumerate_irreps(ct, q):
            p = fam.canonical_probability(q, lam_tuple)
            assert measure.get(lam_tuple, Fraction(0)) == p
            total += p
        assert total == 1


def test_canonical_measure_frozen_small_case():
    fam = Example1Family(cyclic_group(2))
    probs = {t: fam.canonical_probability(2, t) for t in enumerate_irreps(cyclic_group(2), 2)}
    assert probs[((2,), ())] == Fraction(1, 8)
    assert probs[((1, 1), ())] == Fraction(1, 8)
    assert probs[((1,), (1,))] == Fraction(1, 2)
    assert probs[((), (2,))] == Fraction(1, 8)
    assert probs[((), (1, 1))] == Fraction(1, 8)


def test_example1_closed_form_measure_counts_only_irreducibles():
    # the closed form builds no class type: C2 at q = 12 reads 1165
    # irreducibles, well inside the budget, and q = 50 reads past it
    fam = Example1Family(cyclic_group(2))
    measure = fam.canonical_measure(12)
    assert len(measure) == len(enumerate_irreps(cyclic_group(2), 12)) == 1165
    assert sum(measure.values()) == 1
    with pytest.raises(ValueError, match="class budget"):
        fam.canonical_measure(50)


def test_moment_equals_measure_average():
    # route two: decompose the family character, then average slot scalars
    ct = cyclic_group(2)
    families = {
        "plain": Example1Family(ct),
        "restricted": RestrictedFamily(Example1Family(ct), Fraction(2)),
        "induced": InducedFamily(Example1Family(ct), Fraction(1, 2)),
        "outer": OuterFamily(Example1Family(ct), Example1Family(ct), Fraction(1, 2)),
        "tensor": TensorFamily(Example1Family(ct), Example1Family(ct)),
    }
    for name, fam in families.items():
        q = 3
        measure = enumerated_measure(fam, q)
        assert fam.canonical_measure(q) == measure, name
        assert sum(measure.values()) == 1, name
        assert all(p > 0 for p in measure.values()), name
        for factors in [[(0, (1,))], [(0, (2,))], [(0, (1,)), (1, (1,))]]:
            averaged = sum(
                p * factorized_character(t, factors) for t, p in measure.items()
            )
            moment = fam.moment(q, factors)
            assert moment == averaged and type(moment) is Fraction, (name, factors)


def test_restricted_family_matches_enumeration():
    parent = Example1Family(cyclic_group(2))
    for ratio, q in [(Fraction(2), 2), (Fraction(3, 2), 2), (Fraction(2), 1)]:
        fam = RestrictedFamily(parent, ratio)
        _check_against_brute(fam, q, FACTOR_SETS_2[:8])


def test_restricted_ratio_one_is_identity():
    parent = Example1Family(symmetric3_group())
    fam = RestrictedFamily(parent, Fraction(1))
    for factors in [[(0, (1,))], [(2, (2,))], [(0, (1,)), (2, (1,))]]:
        assert fam.moment(3, factors) == parent.moment(3, factors)


def test_induced_family_matches_enumeration():
    parent = Example1Family(cyclic_group(2))
    for ratio, q in [(Fraction(1, 2), 2), (Fraction(1, 2), 3), (Fraction(1, 3), 3), (Fraction(1, 2), 4)]:
        fam = InducedFamily(parent, ratio)
        _check_against_brute(fam, q, FACTOR_SETS_2[:9])


def test_induced_ratio_one_is_identity():
    parent = Example1Family(cyclic_group(2))
    fam = InducedFamily(parent, Fraction(1))
    for factors in FACTOR_SETS_2[:6]:
        assert fam.moment(3, factors) == parent.moment(3, factors)


def test_outer_family_matches_enumeration():
    left = Example1Family(cyclic_group(2))
    right = Example1Family(cyclic_group(2), multiplicities=(1, 3))
    assert right.weights == (Fraction(1, 4), Fraction(3, 4))
    for ratio, q in [(Fraction(1, 2), 2), (Fraction(1, 2), 3), (Fraction(1, 3), 3)]:
        fam = OuterFamily(left, right, ratio)
        _check_against_brute(fam, q, FACTOR_SETS_2[:8])


def test_tensor_family_matches_enumeration():
    left = Example1Family(cyclic_group(2))
    right = Example1Family(cyclic_group(2), multiplicities=(1, 3))
    fam = TensorFamily(left, right)
    _check_against_brute(fam, 2, FACTOR_SETS_2[:8])
    _check_against_brute(fam, 3, [[(0, (1,))], [(0, (2,))], [(0, (1,)), (1, (1,))]])
    # C2 wr S20 has 24842 irreducibles, but a moment pairs none of them with
    # a class: the product is the regular fibre, half of the 20 points in slot 0
    assert fam.moment(20, [(0, (1,))]) == 10


def test_tensor_moments_over_larger_groups_match_enumeration():
    # two irreducible factors: rows longer than one point do not vanish, as
    # they would beside an independent-box factor; cyclic:4 has non-real
    # characters, so the conjugates in the orthogonality read matter
    s3 = symmetric3_group()
    weights = (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6))
    left = IrreducibleFamily(s3, weights, ((1,), (2, 1), (1,)))
    fam = TensorFamily(left, IrreducibleFamily(s3, (Fraction(1, 3),) * 3))
    factor_sets = [[(z, rows)] for z in range(3) for rows in ((1,), (2,), (1, 1), (3,))]
    factor_sets += [[(0, (1,)), (1, (2,))], [(1, (2,)), (2, (1,))]]
    for q in (2, 3):
        _check_against_brute(fam, q, factor_sets)
    assert fam.moment(2, [(1, (2,))]) == -2
    c4 = builtin_group("cyclic:4")
    left = IrreducibleFamily(c4, (0, Fraction(1, 3), Fraction(2, 3), 0))
    fam = TensorFamily(left, IrreducibleFamily(c4, (0, Fraction(2, 3), 0, Fraction(1, 3))))
    factor_sets = [[(z, rows)] for z in range(4) for rows in ((1,), (2,), (1, 1), (3,))]
    factor_sets += [[(1, (2,)), (3, (1,))], [(0, (1,)), (3, (2,))]]
    for q in (2, 3):
        _check_against_brute(fam, q, factor_sets)
    assert fam.moment(3, [(3, (2,))]) == Fraction(2, 3)


def test_tensor_moments_decompose_no_measure(monkeypatch):
    def c2_tensor():
        ct = cyclic_group(2)
        return TensorFamily(Example1Family(ct, (1, 1)), Example1Family(ct, (2, 1)))

    factor_sets = [[(0, (1,))], [(0, (1, 1)), (1, (1,))], [(1, (2,))]]
    # a coloured transposition, a coloured fixed point, and both
    elements = [((1, 0), (1, 0)), ((0, 0, 1), (0, 1, 2)), ((1, 0, 1), (1, 0, 2))]

    def answers(fam):
        moments = [fam.moment(6, factors) for factors in factor_sets]
        return moments, fam.limits(), element_cumulant(fam, 6, elements)

    want = answers(c2_tensor())

    def refuse(*args, **kwargs):
        raise AssertionError("a tensor moment read a class function or decomposed a measure")

    for name in ("measure_from_class_function", "class_values", "factorized_character"):
        monkeypatch.setattr(wreath, name, refuse)
    monkeypatch.setattr(RepFamily, "canonical_measure", refuse)
    for cls in (RepFamily, *wreath.FAMILY_KINDS.values()):
        monkeypatch.setattr(cls, "class_function", refuse)
    assert answers(c2_tensor()) == want


def test_tensor_cumulant_builds_each_character_table_once(monkeypatch):
    # a 3-cycle and a coloured transposition on disjoint points: the blocks
    # read cycle lengths (3,), (2,) and (2, 3), the last in either slot order
    ct = cyclic_group(2)
    half = (Fraction(1, 2), Fraction(1, 2))
    left, right = (IrreducibleFamily(ct, half, bases) for bases in [((2, 1), (1,)), ((1,), (2,))])
    fam = TensorFamily(left, right)
    builds, check = [], wreath.check_class_budget  # the first step of every table build

    def counting(q, work):
        builds.append(q)
        check(q, work)

    monkeypatch.setattr(wreath, "check_class_budget", counting)
    elements = [((0, 0, 0, 0, 0), (1, 2, 0, 3, 4)), ((0, 0, 0, 1, 0), (0, 1, 2, 4, 3))]
    assert element_cumulant(fam, 6, elements) == Fraction(-3, 5000)
    # one table per family and multiset of lengths: the tensor's and each factor's
    assert len(builds) == 3 * 3


def test_tensor_of_c2_fibres_is_the_regular_fibre():
    # normalized fibres (1, 0) and (1, 1/3) multiply into the regular (1, 0)
    ct = cyclic_group(2)
    fam = TensorFamily(Example1Family(ct, (1, 1)), Example1Family(ct, (2, 1)))
    regular = Example1Family(ct, (3, 3))
    factors = [(0, (1, 1)), (1, (1,))]
    # from q = 20 on, C2 wr S_q has more irreducibles than the class budget
    for q in [*range(5, 41), 1000]:
        want = Fraction(math.perm(q, 3), 8)
        assert fam.moment(q, factors) == regular.moment(q, factors) == want, q


@st.composite
def _tensor_moment_cases(draw):
    ct = draw(st.sampled_from(PROPERTY_GROUPS))
    fam = draw(st.builds(TensorFamily, trees(ct, 1), trees(ct, 1)))
    # one cross-disjoint term: one row tuple per slot
    items = tuple(sorted(dict(draw(moment_factors(ct))).items()))
    return fam, draw(st.integers(1, 5)), items


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_tensor_moment_cases())
def test_tensor_moments_match_the_class_function_route(case):
    fam, q, items = case
    try:
        want = class_function_tensor_moment(fam, q, items)
    except Infeasible:
        reject()  # past the budget of the class-function route
    assert fam.joint_moment(q, items) == want, (fam.to_json(), q, items)


def test_irreducible_family_shapes_and_moments():
    ct = cyclic_group(2)
    fam = IrreducibleFamily(ct, weights=(Fraction(1, 2), Fraction(1, 2)))
    shapes = fam.shapes(8)
    assert sum(sum(s) for s in shapes) == 8
    for factors in [[(0, (1,))], [(0, (2,))], [(1, (3,))]]:
        value = fam.moment(8, factors)
        expected = factorized_character(shapes, factors)
        assert value == expected
    # deterministic family: the decomposition is a point mass at the shapes
    assert enumerated_measure(fam, 3) == {fam.shapes(3): Fraction(1)}
    assert RepFamily.canonical_measure(fam, 3) == {fam.shapes(3): Fraction(1)}


def test_irreducible_family_base_dilation():
    ct = cyclic_group(2)
    fam = IrreducibleFamily(
        ct, weights=(Fraction(1, 2), Fraction(1, 2)), bases=((2, 1), (1,))
    )
    shapes = fam.shapes(24)
    assert sum(sum(s) for s in shapes) == 24
    # slot zero holds 12 boxes: dilation factor 2 of the three-box base
    assert shapes[0][0] >= shapes[0][1]


@pytest.mark.parametrize("family", [Example1Family, IrreducibleFamily])
@pytest.mark.parametrize(
    "weights, match",
    [
        ((Fraction(1, 2),), "one weight per base irreducible"),
        ((Fraction(1, 2), Fraction(1, 3)), "probability vector"),
        ((Fraction(3, 2), Fraction(-1, 2)), "probability vector"),
    ],
)
def test_weight_vector_is_checked_alike(family, weights, match):
    with pytest.raises(ValueError, match=match):
        family(cyclic_group(2), weights=weights)


def test_family_json_round_trip():
    ct = cyclic_group(2)
    base = Example1Family(ct, multiplicities=(1, 3))
    families = [
        base,
        Example1Family(ct, weights=(Fraction(1, 4), Fraction(3, 4))),
        RestrictedFamily(base, Fraction(2)),
        InducedFamily(base, Fraction(1, 2)),
        OuterFamily(base, Example1Family(ct), Fraction(1, 3)),
        TensorFamily(base, Example1Family(ct)),
        IrreducibleFamily(ct, weights=(Fraction(1, 2), Fraction(1, 2)), bases=((2, 1), (1,))),
    ]
    for fam in families:
        doc = json.loads(json.dumps(fam.to_json()))
        clone = family_from_json(doc)
        assert clone.to_json() == doc
        for factors in [[(0, (1,))], [(0, (2,))], [(0, (1,)), (1, (1,))]]:
            q = 3
            assert clone.moment(q, factors) == fam.moment(q, factors)


@st.composite
def _round_trip_cases(draw):
    ct = draw(st.sampled_from(PROPERTY_GROUPS))
    fam = draw(trees(ct, 2, shaped=True))
    # a tensor node's moments read a class function: keep its work small
    assume(fam.class_cost(3)[1] <= 1000)
    factor = st.tuples(st.integers(0, ct.num_irreps - 1), st.integers(1, 3).map(lambda l: (l,)))
    return fam, [draw(factor), draw(factor)]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_round_trip_cases())
def test_family_json_round_trip_on_random_trees(case):
    fam, factors = case
    doc = json.loads(json.dumps(fam.to_json()))
    clone = family_from_json(doc)
    assert clone.to_json() == doc == json.loads(json.dumps(clone.to_json()))
    assert clone.moment(3, factors) == fam.moment(3, factors), doc


@st.composite
def _memo_cases(draw):
    ct = draw(st.sampled_from(PROPERTY_GROUPS))
    fam = draw(trees(ct, 2))
    assume(fam.class_cost(3)[1] <= 1000)
    factor = st.tuples(st.integers(0, ct.num_irreps - 1), st.sampled_from([(1,), (2,), (1, 1)]))
    asked = draw(
        st.lists(
            st.tuples(st.integers(1, 3), st.lists(factor, min_size=1, max_size=3)),
            min_size=1,
            max_size=4,
        )
    )
    # every request again with its factors shuffled, and with one factor
    # twice (a multiset, not a set, decides the moment), at interleaved q
    again = [(q, draw(st.permutations(factors))) for q, factors in asked]
    twice = [(q, factors + factors[:1]) for q, factors in asked]
    return fam, draw(st.permutations(asked + again + twice))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_memo_cases())
def test_memoized_moments_match_a_fresh_family(case):
    fam, requests = case
    for q, factors in requests:
        value = fam.moment(q, factors)
        fresh = family_from_json(fam.to_json()).moment(q, factors)
        assert value == fresh and type(value) is type(fresh), (fam.to_json(), q, factors)


def test_moment_memo_stays_within_its_bound():
    base = Example1Family(cyclic_group(2), (1, 3))
    fam = RestrictedFamily(base, 2)
    factors = [(0, (1,)), (1, (1,))]
    for q in range(1, 5000):
        # each q adds a moment and a joint moment to fam, a joint moment to base
        assert fam.moment(q, factors) == Fraction(3, 16) * q * (q - 1)
        assert len(fam._memo) <= MOMENT_MEMO_SIZE and len(base._memo) <= MOMENT_MEMO_SIZE
    assert len(fam._memo) == len(base._memo) == MOMENT_MEMO_SIZE
    # the oldest entries went first: the latest q are still remembered
    assert (4999, ((0, (1,)), (1, (1,)))) in fam._memo
    assert (9998, ((0, (1,)), (1, (1,)))) in base._memo


def test_equal_factors_compute_each_distinct_moment_once(monkeypatch):
    computed = []
    normalize = wreath._normalize_factors

    def counting(factors, q=None):
        if q is not None:
            computed.append(len(factors))
        return normalize(factors, q)

    monkeypatch.setattr(wreath, "_normalize_factors", counting)
    fam = Example1Family(cyclic_group(2))
    cumulant = natural_cumulant(fam, 40, [(0, (2,))] * 5)
    # 31 blocks of 5 equal factors are 5 distinct moments, one per block size
    assert sorted(computed) == [1, 2, 3, 4, 5]
    assert cumulant == natural_cumulant(Example1Family(cyclic_group(2)), 40, [(0, (2,))] * 5)


@settings(max_examples=100, deadline=None)
@given(stray_keys())
def test_family_from_json_refuses_an_unknown_key_at_every_depth(case):
    doc, key = case
    with pytest.raises(ValueError, match=f"unknown .* key {re.escape(repr(key))}$"):
        family_from_json(doc)


def test_family_from_json_names_a_missing_required_key():
    for doc, key in [
        ({"kind": "irreducible", "group": "cyclic:2"}, "weights"),
        ({"kind": "example1", "weights": ["1/2", "1/2"]}, "group"),
        ({"kind": "outer", "ratio": "1/2", "left": {"kind": "example1", "group": "S3"}}, "right"),
    ]:
        with pytest.raises(KeyError, match=key):
            family_from_json(doc)


def test_moment_rows_start_at_one_on_every_kind():
    # a row of length 0 is no cycle: example1 read it as a missing fixed
    # point and irreducible as a present one, so every kind refuses it
    ct = cyclic_group(2)
    half = (Fraction(1, 2), Fraction(1, 2))
    base = Example1Family(ct)
    families = [
        base,
        IrreducibleFamily(ct, half),
        RestrictedFamily(base, 2),
        InducedFamily(base, Fraction(1, 2)),
        OuterFamily(base, IrreducibleFamily(ct, half), Fraction(1, 2)),
        TensorFamily(base, IrreducibleFamily(ct, half)),
    ]
    for fam in families:
        for rows in [(0,), (2, 0), (-1,)]:
            with pytest.raises(InputError, match="at least 1"):
                fam.moment(6, [(0, rows)])
            with pytest.raises(InputError, match="at least 1"):
                fam.moment(6, [(1, (1,)), (0, IndicatorSum({(2,): 1, rows: 1}))])
        # the unit's empty rows pin no point
        assert fam.moment(6, [(0, IndicatorSum.one())]) == 1, fam.kind


def test_family_from_json_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="unknown family kind"):
        family_from_json({"kind": "twisted", "group": "cyclic:2"})
    with pytest.raises(ValueError, match="unknown family kind"):
        family_from_json({"kind": "restricted", "ratio": "2", "parent": {"group": "S3"}})
    with pytest.raises(ValueError, match="JSON object"):
        family_from_json({"kind": "tensor", "left": [], "right": []})


C2_MULT = [[0, 1], [1, 0]]
C2_CLASSES = [[0], [1]]


@pytest.mark.parametrize(
    "irreps, problem",
    [
        ([{"dim": 1, "values": [1, 1]}], "1 irreps for 2 conjugacy classes"),
        ([{"dim": 1, "values": [1, 1]}, {"dim": 1, "values": [1, 1]}], "row orthogonality"),
        ([{"dim": 1, "values": [1, 1]}, {"dim": 2, "values": [2, 0]}], "squared dimensions"),
    ],
)
def test_family_descriptors_refuse_invalid_inline_tables(irreps, problem):
    table = {"mult": C2_MULT, "character_table": {"classes": C2_CLASSES, "irreps": irreps}}
    for kind in ("example1", "irreducible"):
        doc = {"kind": kind, "group": table}
        if kind == "irreducible":
            doc["weights"] = ["1"] + ["0"] * (len(irreps) - 1)
        with pytest.raises(ValueError, match=f"invalid character table: {problem}"):
            family_from_json(doc)
        with pytest.raises(ValueError, match=problem):
            family_from_json({"kind": "restricted", "ratio": "2", "parent": doc})


def test_builtin_group_names_skip_table_validation(monkeypatch):
    def refuse(ct):
        raise AssertionError("a builtin table was validated")

    monkeypatch.setattr(wreath, "validate_character_table", refuse)
    assert family_from_json({"kind": "example1", "group": "S3"}).ct.num_irreps == 3
    inline = Example1Family(cyclic_group(2)).to_json()
    with pytest.raises(AssertionError, match="validated"):
        family_from_json(inline)


# ------------------------------------------- class functions vs enumeration

@st.composite
def _families(draw):
    ct = draw(st.sampled_from(PROPERTY_GROUPS))
    fam = draw(trees(ct, 2))
    q = draw(st.integers(1, 4))
    assume(all(wreath_order(ct, n) <= MAX_ELEMENTS for n in enumerated_sizes(fam, q)))
    factor = st.tuples(st.integers(0, ct.num_irreps - 1), st.sampled_from([(1,), (2,), (1, 1)]))
    factors = draw(st.lists(factor, min_size=1, max_size=2))
    return fam, q, factors


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_families())
def test_class_function_and_measure_match_enumeration(case):
    fam, q, factors = case
    wg = enumerated_group(fam.ct, q)
    values = family_values(fam, q)
    class_function = fam.class_function(q)
    for t, cls in zip(wg.class_types, wg.classes):
        assert class_function.get(t, 0) == values[cls[0]], (fam.to_json(), q, t)
    assert set(class_function) <= set(wg.class_types)
    assert len(class_function) <= fam.class_cost(q)[0]
    assert RepFamily.canonical_measure(fam, q) == full_table_measure(wg, values)
    assert fam.moment(q, factors) == brute_moment(fam, q, factors), (fam.to_json(), q, factors)
