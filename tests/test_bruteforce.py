"""Explicit wreath groups and induced characters against first principles."""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathprob.bruteforce import (
    MAX_ELEMENTS,
    WreathGroup,
    algebra_product,
    indicator_image,
    phi_image,
    tensor_algebra_image,
)
from wreathprob.cyclotomics import Cyclotomic, conjugate_value, value_as_fraction
from wreathprob.groups import builtin_group, cyclic_group, dihedral_group, symmetric3_group
from wreathprob.indicators import IndicatorSum, expand_indicator
from wreathprob.partitions import partitions_of
from wreathprob.wreath import (
    Example1Family,
    InducedFamily,
    IrreducibleFamily,
    OuterFamily,
    RestrictedFamily,
    enumerate_irreps,
    w_mul,
    wreath_dimension,
    wreath_order,
)

from oracles import (
    OrbitWreathGroup,
    centralizer,
    class_function,
    class_types,
    conjugates_of_class,
    family_values,
    fraction_tensor_algebra_image,
    full_table_measure,
    indicator_scalar,
    w_inv,
)

IMAGE_GROUPS = ["cyclic:2", "cyclic:3", "cyclic:4", "S3", "dihedral:4"]


def normalized_trace(wg, lam_tuple, image):
    """Normalized character of the irreducible on a (numerators, denominator) image."""
    numerators, denominator = image
    values = wg.irreducible_character(lam_tuple)
    total = 0
    for idx, coeff in numerators.items():
        total = total + coeff * values[wg.class_of[idx]]
    return value_as_fraction(total) / (denominator * wreath_dimension(wg.ct, lam_tuple))


def as_fractions(image):
    """The nonzero coefficients of a (numerators, denominator) image, divided out."""
    numerators, denominator = image
    return {idx: c * Fraction(1, denominator) for idx, c in numerators.items() if c}


@functools.cache
def image_group(spec, q):
    return WreathGroup(builtin_group(spec), q)


def test_group_law_axioms():
    ct = symmetric3_group()
    wg = WreathGroup(ct, 2)
    assert wg.order == 6 * 6 * 2
    sample = wg.elements[:: wg.order // 12]
    e = wg.elements[wg.identity]
    for a in sample:
        assert w_mul(ct.group.mult, a, e) == a
        assert w_mul(ct.group.mult, e, a) == a
        assert w_mul(ct.group.mult, a, w_inv(ct.group, a)) == e
        for b in sample:
            for c in sample[:4]:
                lhs = w_mul(ct.group.mult, w_mul(ct.group.mult, a, b), c)
                rhs = w_mul(ct.group.mult, a, w_mul(ct.group.mult, b, c))
                assert lhs == rhs


def test_conjugacy_classes_partition_group():
    for ct, q in [(cyclic_group(2), 3), (symmetric3_group(), 2)]:
        wg = WreathGroup(ct, q)
        assert sum(wg.class_sizes()) == wg.order
        assert wg.classes[0] == (wg.identity,)
        # class sizes divide the group order
        assert all(wg.order % s == 0 for s in wg.class_sizes())


ORBIT_ORACLE_CASES = [
    (ct, q)
    for ct, bound in [
        (cyclic_group(2), 4),
        (cyclic_group(3), 3),
        (symmetric3_group(), 3),
        (dihedral_group(4), 2),
    ]
    for q in range(1, bound + 1)
]


@pytest.mark.parametrize(
    "ct, q", ORBIT_ORACLE_CASES, ids=[f"{ct.name}-q{q}" for ct, q in ORBIT_ORACLE_CASES]
)
def test_classes_and_characters_match_orbit_oracle(ct, q):
    # cycle-data classes against conjugation orbits, and cycle-to-slot
    # characters against the induced-character formula summed over conjugates
    wg = WreathGroup(ct, q)
    oracle = OrbitWreathGroup(ct, q)
    assert wg.elements == oracle.elements
    assert wg.classes == oracle.classes
    for lam_tuple in enumerate_irreps(ct, q):
        assert wg.irreducible_character(lam_tuple) == oracle.irreducible_character(
            lam_tuple
        ), lam_tuple


def test_conjugates_of_class_counts_every_conjugation():
    ct = symmetric3_group()
    wg = WreathGroup(ct, 2)
    oracle = OrbitWreathGroup(ct, 2)
    for k in range(len(wg.classes)):
        rep = wg.classes[k][0]
        explicit = Counter(oracle.conjugate(y, rep) for y in range(wg.order))
        assert conjugates_of_class(wg, k) == explicit, k


def test_irreducible_characters_orthonormal():
    cases = [(cyclic_group(2), 2), (cyclic_group(2), 3), (symmetric3_group(), 2), (cyclic_group(3), 2)]
    for ct, q in cases:
        wg = WreathGroup(ct, q)
        tuples = enumerate_irreps(ct, q)
        assert sum(wreath_dimension(ct, t) ** 2 for t in tuples) == wg.order
        sizes = wg.class_sizes()
        chars = {t: wg.irreducible_character(t) for t in tuples}
        for t1 in tuples:
            identity_class = wg.class_of[wg.identity]
            assert chars[t1][identity_class] == wreath_dimension(ct, t1)
            for t2 in tuples:
                dot = 0
                for k, size in enumerate(sizes):
                    dot = dot + size * chars[t1][k] * conjugate_value(chars[t2][k])
                expected = wg.order if t1 == t2 else 0
                assert dot == expected, (t1, t2)


def _std_rep_matrix(perm):
    # exact standard representation of the degree-3 symmetric group on the
    # zero-sum plane, basis f1 = e0 - e1, f2 = e1 - e2
    cols = []
    for basis in ((1, -1, 0), (0, 1, -1)):
        image = [0, 0, 0]
        for src, x in enumerate(basis):
            image[perm[src]] += x
        cols.append((image[0], -image[2]))
    return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))


def test_std_rep_is_a_homomorphism():
    ct = symmetric3_group()
    perms = sorted(itertools.permutations(range(3)))
    for a in range(6):
        for b in range(6):
            pa, pb = perms[a], perms[b]
            ab = perms[ct.group.mult[a][b]]
            ma, mb, mab = (_std_rep_matrix(p) for p in (pa, pb, ab))
            prod = tuple(
                tuple(sum(ma[i][k] * mb[k][j] for k in range(2)) for j in range(2))
                for i in range(2)
            )
            assert prod == mab


def test_cycle_color_product_direction_pinned():
    # trace of the tensor-power action must multiply cycle colors in the
    # backward walk order; the forward order gives a different class here
    ct = symmetric3_group()
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    t1 = index[(1, 0, 2)]
    t2 = index[(0, 2, 1)]
    cyc = index[(1, 2, 0)]
    colors = (t1, t2, cyc)
    sigma = (1, 2, 0)
    sigma_inv = (2, 0, 1)
    mats = [_std_rep_matrix(perms[c]) for c in colors]
    trace = Fraction(0)
    for i in itertools.product(range(2), repeat=3):
        term = Fraction(1)
        for m in range(3):
            term *= mats[m][i[m]][i[sigma_inv[m]]]
        trace += term
    backward = ct.group.mult[ct.group.mult[colors[0]][colors[2]]][colors[1]]
    forward = ct.group.mult[ct.group.mult[colors[0]][colors[1]]][colors[2]]
    chi_std = {g: ct.value(2, g) for g in range(6)}
    assert chi_std[backward] != chi_std[forward]  # the pin is meaningful
    assert trace == chi_std[backward]


def test_tensor_power_decomposes_with_integer_multiplicities():
    ct = symmetric3_group()
    q = 2
    wg = WreathGroup(ct, q)
    perms3 = sorted(itertools.permutations(range(3)))
    mats = {g: _std_rep_matrix(p) for g, p in enumerate(perms3)}

    def tensor_trace(element):
        colors, perm = element
        perm_inv = [0] * q
        for i, image in enumerate(perm):
            perm_inv[image] = i
        total = Fraction(0)
        for i in itertools.product(range(2), repeat=q):
            term = Fraction(1)
            for m in range(q):
                term *= mats[colors[m]][i[m]][i[perm_inv[m]]]
            total += term
        return total

    chi_w = [tensor_trace(x) for x in wg.elements]
    sizes = wg.class_sizes()
    reconstruction = [0] * len(sizes)
    total_dim = 0
    for lam_tuple in enumerate_irreps(ct, q):
        chi = wg.irreducible_character(lam_tuple)
        dot = 0
        for k, size in enumerate(sizes):
            rep = wg.classes[k][0]
            dot = dot + size * chi_w[rep] * conjugate_value(chi[k])
        mult = value_as_fraction(dot) / wg.order
        assert mult.denominator == 1 and mult >= 0, lam_tuple
        total_dim += int(mult) * wreath_dimension(ct, lam_tuple)
        for k in range(len(sizes)):
            reconstruction[k] = reconstruction[k] + int(mult) * chi[k]
    assert total_dim == 2**q
    for k in range(len(sizes)):
        assert reconstruction[k] == chi_w[wg.classes[k][0]]


def test_phi_image_of_indicators_acts_by_indicator_scalars():
    # per-irreducible normalized trace of an embedded indicator equals the
    # slot diagram's scalar; small instance of the factorization statement
    ct = cyclic_group(2)
    wg = WreathGroup(ct, 3)
    for lam_tuple in enumerate_irreps(ct, 3):
        for slot in range(2):
            for rows in [(1,), (2,), (3,), (1, 1), (2, 1)]:
                image = indicator_image(wg, slot, rows)
                lhs = normalized_trace(wg, lam_tuple, image)
                assert lhs == indicator_scalar(lam_tuple[slot], rows)


def test_phi_image_cycle_scaling_on_higher_dimensional_fibre():
    # a 2-cycle embedded in the two-dimensional fibre: without the
    # dim**(k-1) factor per k-cycle the normalized trace lands at half
    # the indicator scalar on every irreducible concentrated in that slot
    ct = symmetric3_group()
    wg = WreathGroup(ct, 2)
    image = indicator_image(wg, 2, (2,))
    for lam_tuple in enumerate_irreps(ct, 2):
        lhs = normalized_trace(wg, lam_tuple, image)
        assert lhs == indicator_scalar(lam_tuple[2], (2,)), lam_tuple


def test_phi_images_multiply_like_partial_permutations():
    ct = cyclic_group(2)
    wg = WreathGroup(ct, 3)
    from wreathprob.indicators import IndicatorSum

    s1 = IndicatorSum.indicator((1,))
    s2 = IndicatorSum.indicator((2,))
    for slot in range(2):
        lhs = algebra_product(
            wg, indicator_image(wg, slot, s1), indicator_image(wg, slot, s2)
        )
        rhs = indicator_image(wg, slot, s1 * s2)
        assert as_fractions(lhs) == as_fractions(rhs)


@st.composite
def image_cases(draw):
    """A builtin group, q <= 3 and 1-2 (slot, IndicatorSum) factors.

    The factors' largest rows add up to at most q, which keeps the
    Fraction oracle's products small.
    """
    spec = draw(st.sampled_from(IMAGE_GROUPS))
    q = draw(st.integers(1, 3))
    slots = builtin_group(spec).num_irreps
    coefficients = st.fractions(-3, 3, max_denominator=4).filter(bool)
    room, factors = q, []
    for _ in range(draw(st.integers(1, 2))):
        if not room:
            break
        size = draw(st.integers(1, room))
        room -= size
        rows = st.sampled_from([r for n in range(1, size + 1) for r in partitions_of(n)])
        terms = draw(st.dictionaries(rows, coefficients, min_size=1, max_size=2))
        factors.append((draw(st.integers(0, slots - 1)), IndicatorSum(terms)))
    return spec, q, factors


@settings(max_examples=40, deadline=None)
@given(image_cases())
def test_integer_images_match_fraction_oracle(case):
    spec, q, factors = case
    wg = image_group(spec, q)
    want = {k: v for k, v in fraction_tensor_algebra_image(wg, factors).items() if v}
    assert as_fractions(tensor_algebra_image(wg, factors)) == want


@pytest.mark.parametrize("spec", IMAGE_GROUPS)
def test_images_carry_integer_numerators(spec):
    wg = image_group(spec, 2)
    mixed = IndicatorSum({(1,): Fraction(2, 3), (2,): Fraction(-1, 2)})
    images = []
    for slot in range(wg.ct.num_irreps):
        images += [phi_image(wg, slot, pp) for pp in expand_indicator((2,), 2)]
        images.append(indicator_image(wg, slot, mixed))
        images.append(tensor_algebra_image(wg, [(slot, (1,)), (0, mixed)]))
    assert tensor_algebra_image(wg, []) == ({wg.identity: 1}, 1)
    kinds = set()
    for numerators, denominator in images:
        assert type(denominator) is int and denominator > 0
        for c in numerators.values():
            kinds.add(type(c))
            assert type(c) is int or all(type(x) is int for x in c.coeffs), c
    assert kinds <= {int, Cyclotomic}
    # the rational groups' images stay on plain ints
    assert (Cyclotomic in kinds) == (spec in ("cyclic:3", "cyclic:4"))


def test_cross_slot_overlaps_vanish():
    # products of single-point pins on different slots keep only disjoint
    # supports: the expected count is falling(q, 2), not q^2
    ct = cyclic_group(2)
    wg = WreathGroup(ct, 3)
    image0 = indicator_image(wg, 0, (1,))
    image1 = indicator_image(wg, 1, (1,))
    prod = algebra_product(wg, image0, image1)
    lam_tuple = ((3,), ())
    value = normalized_trace(wg, lam_tuple, prod)
    assert value == 0  # slot 1 pin kills the all-trivial irreducible
    lam_tuple = ((2,), (1,))
    value = normalized_trace(wg, lam_tuple, prod)
    assert value == indicator_scalar((2,), (1,)) * indicator_scalar((1,), (1,))


def test_enumeration_budget_refuses_before_allocating():
    # S3 wr S8 has 6^8 * 8! (about 6.8e10) elements: refused at once
    with pytest.raises(ValueError, match="enumeration budget"):
        WreathGroup(symmetric3_group(), 8)
    assert 6**4 * math.factorial(4) <= MAX_ELEMENTS < 2**7 * math.factorial(7)


def test_measure_on_support_matches_full_table():
    c2, c3, s3 = cyclic_group(2), cyclic_group(3), symmetric3_group()
    third = Fraction(1, 3)
    cases = [
        (
            OuterFamily(
                Example1Family(c3), IrreducibleFamily(c3, (third, third, third)), Fraction(1, 2)
            ),
            4,
        ),
        (RestrictedFamily(Example1Family(c2), Fraction(2)), 3),
        (InducedFamily(Example1Family(s3), Fraction(1, 2)), 3),
    ]
    for fam, q in cases:
        wg = WreathGroup(fam.ct, q)
        values = family_values(fam, q)
        # the character vanishes somewhere, so the support is a proper subset
        assert any(not values[cls[0]] for cls in wg.classes), fam.kind
        assert len(class_function(fam, q)) < len(wg.classes), fam.kind
        measure = fam.canonical_measure(q)
        assert measure == full_table_measure(wg, values), fam.kind
        assert sum(measure.values()) == 1


CLASS_SIZE_CASES = [
    (ct, q)
    for ct, bound in [(cyclic_group(2), 4), (symmetric3_group(), 3), (dihedral_group(4), 2)]
    for q in range(bound + 1)
]


@pytest.mark.parametrize(
    "ct, q", CLASS_SIZE_CASES, ids=[f"{ct.name}-q{q}" for ct, q in CLASS_SIZE_CASES]
)
def test_class_types_and_sizes_match_enumeration(ct, q):
    # |G|^q q! / z(t), type by type, against the enumerated classes
    wg = WreathGroup(ct, q)
    types = class_types(ct, q)
    assert len(types) == len(set(types)) == len(wg.class_types)
    enumerated = dict(zip(wg.class_types, wg.class_sizes()))
    assert {t: wreath_order(ct, q) // centralizer(ct, t) for t in types} == enumerated
    assert all(wreath_order(ct, q) % centralizer(ct, t) == 0 for t in types)
