"""End-to-end acceptance checks, one per numbered claim.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` for the
explicit PASS lines).  Checks 1-10 and 12 are exact; check 11 verifies
Gaussian fluctuations of a fixed-seed Monte Carlo batch inside
3-standard-error bands and takes under a minute on one core.
"""

import itertools
import math
import random
import statistics
from collections import Counter
from fractions import Fraction

from wreathprob.asymptotics import (
    convergence_report,
    element_cumulant,
    example1_limits,
    irreducible_limits,
    restrict_limits,
)
from wreathprob.bruteforce import WreathGroup, tensor_algebra_image
from wreathprob.cyclotomics import value_as_fraction
from wreathprob.diagrams import (
    dilate,
    free_cumulants,
    transition_measure,
)
from wreathprob.groups import cyclic_group, symmetric3_group
from wreathprob.indicators import (
    compose,
    expand_indicator,
    indicator_in_free_cumulants,
    product_coefficients,
)
from wreathprob.partitions import dimension, partitions_of
from wreathprob.sampling import (
    fluctuation_statistics,
    normality_check,
    sample_plancherel,
    sample_shapes,
)
from wreathprob.wreath import (
    Example1Family,
    InducedFamily,
    IrreducibleFamily,
    enumerate_irreps,
    factorized_character,
    wreath_dimension,
)

from oracles import enumerated_measure, example1_probability, growth_weights, indicator_scalar


def _announce(number: int, text: str) -> None:
    print(f"criterion {number:>2} PASS: {text}")


def test_criterion_01_transition_measure_invariants():
    for n in range(13):
        for lam in partitions_of(n):
            tm = transition_measure(lam)
            assert sum(tm.weights) == 1, lam
            assert tm.moment(1) == 0, lam
            assert tm.moment(2) == n, lam
            assert free_cumulants(lam, 2)[1] == n, lam
    _announce(1, "mass 1, first moment 0, second moment = box count, size <= 12")


def test_criterion_02_dilation_scales_free_cumulants():
    factors = (Fraction(1, 2), Fraction(2), Fraction(3))
    for n in range(9):
        for lam in partitions_of(n):
            tm = transition_measure(lam)
            base = free_cumulants(tm, 6)
            for p in factors:
                scaled = free_cumulants(dilate(tm, p), 6)
                for k in range(1, 7):
                    assert scaled[k - 1] == p**k * base[k - 1], (lam, p, k)
    _announce(2, "R_n of a p-dilated measure is p^n R_n, sizes <= 8")


def _factor_multisets(num_slots: int, max_total: int):
    items = [
        (slot, rows)
        for slot in range(num_slots)
        for size in range(1, max_total + 1)
        for rows in partitions_of(size)
    ]
    out = []
    for r in range(1, max_total + 1):
        for combo in itertools.combinations_with_replacement(items, r):
            if sum(sum(rows) for _, rows in combo) <= max_total:
                out.append(combo)
    return out


def test_criterion_03_characters_factorize_against_enumeration():
    cases = 0
    for ct, q_top in [(cyclic_group(2), 4), (symmetric3_group(), 3)]:
        factor_sets = _factor_multisets(ct.num_irreps, 4)
        for q in range(1, q_top + 1):
            wg = WreathGroup(ct, q)
            irreps = enumerate_irreps(ct, q)
            chars = {t: wg.irreducible_character(t) for t in irreps}
            dims = {t: wreath_dimension(ct, t) for t in irreps}
            for factors in factor_sets:
                numerators, denominator = tensor_algebra_image(wg, factors)
                class_sums: dict[int, object] = {}
                for idx, coeff in numerators.items():
                    k = wg.class_of[idx]
                    class_sums[k] = class_sums.get(k, 0) + coeff
                for t in irreps:
                    chi = chars[t]
                    total = 0
                    for k, s in class_sums.items():
                        total = total + s * chi[k]
                    lhs = value_as_fraction(total) / (denominator * dims[t])
                    assert lhs == factorized_character(t, factors), (q, factors, t)
                    cases += 1
    assert cases > 8000
    _announce(3, f"factorized = enumerated character in {cases} cases")


def _convolve(left: Counter, right: Counter) -> Counter:
    out: Counter = Counter()
    for p1, c1 in left.items():
        for p2, c2 in right.items():
            out[compose(p1, p2)] += c1 * c2
    return out


def test_criterion_04_structure_constants_match_convolution():
    assert product_coefficients((1,), (1,)) == {(1, 1): 1, (1,): 1}
    assert product_coefficients((2,), (1,)) == {(2, 1): 1, (2,): 2}
    pairs = 0
    for total in range(2, 7):
        for a in range(1, total):
            for mu in partitions_of(a):
                for nu in partitions_of(total - a):
                    coeffs = product_coefficients(mu, nu)
                    assert all(type(g) is int for g in coeffs.values()), (mu, nu)
                    direct = _convolve(
                        expand_indicator(mu, total), expand_indicator(nu, total)
                    )
                    reconstructed: Counter = Counter()
                    for rho, g in coeffs.items():
                        for pp, c in expand_indicator(rho, total).items():
                            reconstructed[pp] += g * c
                    assert direct == +reconstructed, (mu, nu)
                    pairs += 1
    assert pairs == 80
    _announce(4, "all 80 products with total size <= 6 match the convolution")


def test_criterion_05_indicators_as_free_cumulant_polynomials():
    for n in range(11):
        for lam in partitions_of(n):
            cums = free_cumulants(lam, 4)
            assert indicator_scalar(lam, (2,)) == cums[2], lam
            assert indicator_scalar(lam, (3,)) == cums[3] + cums[1], lam
    # larger shapes, each checked against the rim-hook character recursion
    held_out = [(5, 4, 2, 1), (6, 3, 2, 1), (4, 4, 3, 1), (7, 5), (6, 6), (3, 3, 3, 2, 1)]
    for l in (2, 3, 4, 5):
        poly = indicator_in_free_cumulants(l)
        assert poly.get((l + 1,)) == 1
        for lam in held_out:
            cums = free_cumulants(lam, l + 1)
            value = Fraction(0)
            for mono, coeff in poly.items():
                term = Fraction(coeff)
                for idx in mono:
                    term *= cums[idx - 1]
                value += term
            assert value == indicator_scalar(lam, (l,)), (l, lam)
    _announce(5, "cycle indicators equal their free-cumulant polynomials")


def _supported_elements(order: int, q: int, points: tuple[int, ...]):
    out = []
    for images in itertools.permutations(points):
        perm = list(range(q))
        for src, dst in zip(points, images):
            perm[src] = dst
        for colors in itertools.product(range(order), repeat=len(points)):
            full = [0] * q
            for pt, c in zip(points, colors):
                full[pt] = c
            out.append((tuple(full), tuple(perm)))
    return out


def test_criterion_06_left_regular_cumulants_vanish():
    ct = cyclic_group(2)
    fam = Example1Family(ct)
    for q in (2, 3, 4):
        identity = ((0,) * q, tuple(range(q)))
        assert element_cumulant(fam, q, [identity]) == 1
        half = q // 2
        left = _supported_elements(2, q, tuple(range(half)))
        right = _supported_elements(2, q, tuple(range(half, q)))
        for a in left + right:
            expected = 1 if a == identity else 0
            assert element_cumulant(fam, q, [a]) == expected, (q, a)
        for a in left:
            for b in right:
                assert element_cumulant(fam, q, [a, b]) == 0, (q, a, b)
    # one color flip per point: all higher cumulants vanish too
    for q in (3, 4):
        fam_q = Example1Family(ct)
        flip_sets = [_supported_elements(2, q, (i,)) for i in range(q)]
        for combo in itertools.product(*flip_sets):
            assert element_cumulant(fam_q, q, list(combo)) == 0, (q, combo)
    _announce(6, "only the first cumulant at the identity survives")


def test_criterion_07_canonical_measure_closed_form():
    cases = [
        (Example1Family(cyclic_group(2)), (1, 2, 3)),
        (Example1Family(cyclic_group(2), multiplicities=(1, 3)), (1, 2, 3)),
        (Example1Family(symmetric3_group()), (1, 2, 3)),
    ]
    for fam, qs in cases:
        for q in qs:
            measure = fam.canonical_measure(q)
            closed = {t: example1_probability(fam, q, t) for t in enumerate_irreps(fam.ct, q)}
            assert measure == {t: p for t, p in closed.items() if p}, (fam.ct.group.order, q)
            assert measure == enumerated_measure(fam, q), (fam.ct.group.order, q)
            assert sum(measure.values()) == 1
    _announce(7, "multinomial times growth law equals the brute decomposition")


def test_criterion_08_covariance_grids_approach_limits():
    fam = Example1Family(cyclic_group(2))
    grid = [10, 20, 30]
    for l in (2, 3):
        limit = l * Fraction(1, 2) ** l
        report = convergence_report(fam, 3, [(0, l), (0, l)], grid, limit=limit)
        errors = [row[4] for row in report.rows]
        assert errors[0] > errors[1] > errors[2], (l, errors)
        assert errors[2] <= Fraction(15, 100) * limit, (l, errors)
        assert report.verdict is True
    cross = convergence_report(fam, 3, [(0, 1), (1, 1)], grid, limit=Fraction(-1, 4))
    assert all(row[4] == 0 for row in cross.rows)
    assert cross.verdict is True
    _announce(8, "scaled covariances land within 15% of l c^l and -c1 c2")


def test_criterion_09_double_sum_reproduces_covariance_table():
    for weights in [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4))]:
        params = example1_limits(weights, max_l=5)
        for s1 in range(2):
            for s2 in range(2):
                c1, c2 = weights[s1], weights[s2]
                for l1 in range(1, 6):
                    for l2 in range(1, 6):
                        disjoint = params.disjoint_covariance(s1, l1, s2, l2)
                        got = params.covariance(s1, l1, s2, l2)
                        same_slot = params.double_sum(s1, l1, l2) if s1 == s2 else 0
                        want = disjoint + same_slot
                        assert got == want, (weights, s1, l1, s2, l2)
                        if l1 == l2 == 1:
                            branch = c1 * (1 - c1) if s1 == s2 else -c1 * c2
                        elif l1 == l2 and s1 == s2:
                            branch = l1 * c1**l1
                        else:
                            branch = Fraction(0)
                        assert got == branch, (weights, s1, l1, s2, l2)
    _announce(9, "composition double sum matches every covariance branch")


def test_criterion_10_constructor_transforms():
    params = example1_limits((Fraction(1, 4), Fraction(3, 4)), max_l=4)
    same = restrict_limits(params, Fraction(1))
    assert same.c == params.c and same.cov == params.cov
    # vanishing density erases the parent's own fluctuations and leaves
    # the independent-box table at the parent's densities
    point = irreducible_limits(
        IrreducibleFamily(cyclic_group(2), weights=(Fraction(1, 4), Fraction(3, 4))),
        max_index=4,
    )
    assert point.covariance(0, 2, 0, 2) == 0
    recovered = restrict_limits(point, Fraction(0))
    reference = example1_limits((Fraction(1, 4), Fraction(3, 4)), max_l=3)
    assert recovered.c == reference.c
    assert recovered.cov == reference.cov
    ct = symmetric3_group()
    parent = example1_limits(tuple(Fraction(d * d, 6) for d in ct.dims()), max_l=3)
    for p in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
        child = InducedFamily(Example1Family(ct), p).limits(3)
        assert {k: v for k, v in child.c.items() if k[1] == 2} == parent.c, p
    _announce(10, "restriction endpoints and induced densities behave")


def test_criterion_11_fluctuations_are_gaussian():
    q, n_samples = 2500, 4000
    fam = Example1Family(cyclic_group(2))
    shapes = sample_shapes(fam, q, n_samples, 20260819, {0})
    stats = fluctuation_statistics(fam, q, shapes, [("R", 0, 2), ("R", 0, 3)])
    var_boxes = statistics.fmean(row[0] ** 2 for row in stats)
    var_r3 = statistics.fmean(row[1] ** 2 for row in stats)
    assert abs(var_boxes - 0.25) <= 0.025, var_boxes
    assert abs(var_r3 - 0.5) <= 0.05, var_r3
    report = normality_check(stats, names=["boxes", "r3"])
    for entry in report["statistics"]:
        assert not entry["degenerate"]
        assert abs(entry["skewness"]) <= 3 * math.sqrt(6 / n_samples), entry
        assert abs(entry["excess_kurtosis"]) <= 3 * math.sqrt(24 / n_samples), entry
        assert entry["gaussian"], entry
    _announce(
        11,
        f"q={q}, N={n_samples}: variances {var_boxes:.4f}/{var_r3:.4f}, "
        "skew and kurtosis inside 3-sigma bands",
    )


def test_criterion_12_growth_sampler_is_exact():
    for n in range(7):
        for lam in partitions_of(n):
            tm = transition_measure(lam)
            steps = growth_weights(lam)
            assert [c for c, _, _ in steps] == list(tm.atoms)
            assert [p for _, _, p in steps] == list(tm.weights)
            assert sum(p for _, _, p in steps) == 1
            for content, grown, _ in steps:
                assert sum(grown) == n + 1
                added = set(Counter(grown) - Counter(lam))
                row = [i for i, (a, b) in enumerate(
                    itertools.zip_longest(grown, lam, fillvalue=0)) if a != b][0]
                assert grown[row] - 1 - row == content, (lam, content, added)
    rng = random.Random(12)
    n_samples = 100_000
    for n in (3, 4):
        counts = Counter(sample_plancherel(n, rng) for _ in range(n_samples))
        for lam in partitions_of(n):
            p = dimension(lam) ** 2 / math.factorial(n)
            band = 4 * math.sqrt(n_samples * p * (1 - p))
            assert abs(counts[lam] - n_samples * p) <= band, (lam, counts[lam])
    _announce(12, "step law matches the transition measure; frequencies in 4 sigma")
