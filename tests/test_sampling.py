import itertools
import json
import math
import random
import statistics
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathprob.cli import _sample_texts
from wreathprob.diagrams import free_cumulants, profile_moment, transition_measure
from wreathprob import sampling
from wreathprob.groups import cyclic_group, symmetric3_group
from wreathprob.partitions import dimension, partitions_of
from wreathprob.sampling import (
    STATISTIC_KINDS,
    check_specs,
    fluctuation_statistics,
    normality_check,
    predicted_r_covariance,
    sample_canonical,
    sample_plancherel,
    sample_shapes,
    statistic_columns,
    statistic_value,
)
from wreathprob.errors import Infeasible, InputError
from wreathprob.wreath import Example1Family, InducedFamily, IrreducibleFamily

from family_trees import PROPERTY_GROUPS, box_tensors, box_trees
from oracles import dimension_branching, falling, growth_weights, indicator_scalar
from oracles import independent_box_weights, partition_count_pentagonal


def rng_for(seed):
    return random.Random(seed)


def full_tuples(fam, q, n_samples, root_seed, workers=1):
    """Every sample's whole partition tuple, from the shapes of every slot."""
    slots = range(fam.ct.num_irreps)
    shapes = sample_shapes(fam, q, n_samples, root_seed, slots, workers)
    return list(zip(*(shapes[slot] for slot in slots)))


def test_growth_weights_match_transition_measure():
    for n in range(7):
        for lam in partitions_of(n):
            tm = transition_measure(lam)
            steps = growth_weights(lam)
            assert [c for c, _, _ in steps] == list(tm.atoms)
            assert [p for _, _, p in steps] == list(tm.weights)
            assert sum(p for _, _, p in steps) == 1
            for content, grown, _ in steps:
                assert sum(grown) == n + 1
                assert content in transition_measure(grown).atoms or True


def test_growth_step_two_one():
    steps = growth_weights((2, 1))
    assert [(c, p) for c, _, p in steps] == [
        (-2, Fraction(3, 8)),
        (0, Fraction(1, 4)),
        (2, Fraction(3, 8)),
    ]
    assert [g for _, g, _ in steps] == [(2, 1, 1), (2, 2), (3, 1)]


def test_sample_plancherel_trivial():
    assert sample_plancherel(0, rng_for(0)) == ()
    assert sample_plancherel(1, rng_for(0)) == (1,)


class PermutationRng:
    """Stands in for a generator: ``random()`` walks a fixed permutation."""

    def __init__(self, perm):
        n = len(perm)
        self.values = iter([(p + 1) / (n + 1) for p in perm])

    def random(self):
        return next(self.values)


@pytest.mark.parametrize("n", [6, 7])
def test_insertion_shapes_count_standard_tableau_pairs(n):
    # Robinson-Schensted is a bijection from permutations to pairs of
    # standard tableaux of one shape, so over all n! orders each shape
    # appears dim(lam)^2 times: the Plancherel law, exactly
    counts = Counter(
        sample_plancherel(n, PermutationRng(perm))
        for perm in itertools.permutations(range(n))
    )
    assert len(counts) == partition_count_pentagonal(n)
    for lam, hits in counts.items():
        assert sum(lam) == n and list(lam) == sorted(lam, reverse=True)
        assert hits == dimension_branching(lam) ** 2, lam


@pytest.mark.parametrize("n", [3, 4])
def test_plancherel_law_chi_square(n):
    trials = 100000
    rng = rng_for(20260819 + n)
    counts = Counter(sample_plancherel(n, rng) for _ in range(trials))
    expected = {
        lam: Fraction(dimension(lam) ** 2, math.factorial(n))
        for lam in partitions_of(n)
    }
    assert sum(expected.values()) == 1
    chi2 = 0.0
    for lam, p in expected.items():
        mean = trials * float(p)
        sd = math.sqrt(trials * float(p) * (1 - float(p)))
        assert abs(counts[lam] - mean) <= 4 * sd, (lam, counts[lam], mean)
        chi2 += (counts[lam] - mean) ** 2 / mean
    df = len(expected) - 1
    assert chi2 <= df + 4 * math.sqrt(2 * df)


def test_sample_canonical_rejects_other_kinds():
    fam = IrreducibleFamily(cyclic_group(2), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        sample_canonical(fam, 4, rng_for(0))


def test_sample_shapes_refuses_other_kinds_before_drawing(monkeypatch):
    def no_sampling(payload):
        raise AssertionError("sampling started")

    monkeypatch.setattr(sampling, "_sample_range", no_sampling)
    fam = IrreducibleFamily(cyclic_group(2), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(Infeasible, match="no direct sampler"):
        sample_shapes(fam, 4, 3, 0, {0})


@st.composite
def _box_tensor_draws(draw):
    ct = draw(st.sampled_from(PROPERTY_GROUPS))
    slots = draw(st.sets(st.integers(0, ct.num_irreps - 1), min_size=1))
    return draw(box_tensors(ct)), draw(st.integers(1, 40)), draw(st.integers(0, 99)), slots


@settings(max_examples=50, deadline=None)
@given(_box_tensor_draws())
def test_tensor_of_box_families_samples_as_its_product_fibre_family(case):
    fam, q, seed, slots = case
    want = sample_shapes(fam.boxes, q, 3, seed, slots)
    assert sample_shapes(fam, q, 3, seed, slots) == want, fam.to_json()
    # the same draws from the product fibre family that the fibre oracle names
    oracle = Example1Family(fam.ct, weights=independent_box_weights(fam))
    assert sample_shapes(oracle, q, 3, seed, slots) == want


@st.composite
def _box_tree_draws(draw):
    ct = draw(st.sampled_from(PROPERTY_GROUPS))
    slots = draw(st.sets(st.integers(0, ct.num_irreps - 1), min_size=1))
    return draw(box_trees(ct)), draw(st.integers(1, 40)), draw(st.integers(0, 99)), slots


@settings(max_examples=50, deadline=None)
@given(_box_tree_draws())
def test_box_trees_sample_as_their_boxes_family(case):
    # restricted, outer and induced trees too: each draws what its ``boxes`` draws
    fam, q, seed, slots = case
    want = sample_shapes(fam.boxes, q, 3, seed, slots)
    assert sample_shapes(fam, q, 3, seed, slots) == want, fam.to_json()


@pytest.mark.parametrize(
    "spec, match",
    [
        (("sigma", 0, 2), "unknown statistic kind"),
        (("R", 0, 1), "start at index 2"),
        (("p", 0, 1), "start at index 2"),
        (("character", 0, 0), "start at index 1"),
        (("R", -1, 2), "slot"),
        (("character", 2, 1), "slot"),
    ],
)
def test_check_specs_refusals(spec, match):
    with pytest.raises(InputError, match=match):
        check_specs([("R", 0, 2), spec], 2)


def test_check_specs_admits_each_kind_from_its_least_index():
    check_specs([("R", 1, 2), ("p", 0, 2), ("character", 1, 1)], 2)


def test_statistic_scalings_are_the_float_powers():
    # one sample, all three boxes in slot 0 at q = 3: every centered value
    # is (raw - exact mean) times q**(e/2), e = 1 - i, 2 - i and i by kind
    fam = Example1Family(cyclic_group(2))
    q = 3
    shapes = {0: [(3,)], 1: [()]}
    specs = [("R", 0, 2), ("R", 0, 3), ("p", 0, 3), ("character", 0, 2)]
    (row,) = fluctuation_statistics(fam, q, shapes, specs)
    raws = [raw for raw, _ in statistic_columns(fam, q, shapes, specs)]
    for spec, value, (raw,), e in zip(specs, row, raws, (1 - 2, 1 - 3, 2 - 3, 2)):
        mean = sampling.exact_mean(fam, q, spec)
        center = raw if mean is None else float(mean)
        assert value == (raw - center) * float(q) ** (e / 2)
    assert all(row[:3])


def test_canonical_single_box():
    fam = Example1Family(cyclic_group(2), multiplicities=(1, 3))
    trials = 20000
    rng = rng_for(5)
    hits = Counter(sample_canonical(fam, 1, rng) for _ in range(trials))
    assert set(hits) <= {((1,), ()), ((), (1,))}
    for atom, p in [(((1,), ()), 0.25), ((((), (1,))), 0.75)]:
        sd = math.sqrt(trials * p * (1 - p))
        assert abs(hits[atom] - trials * p) <= 4 * sd


def test_canonical_q2_frequencies():
    fam = Example1Family(cyclic_group(2))
    trials = 100000
    rng = rng_for(7)
    counts = Counter(sample_canonical(fam, 2, rng) for _ in range(trials))
    law = {
        ((2,), ()): Fraction(1, 8),
        ((1, 1), ()): Fraction(1, 8),
        ((1,), (1,)): Fraction(1, 2),
        ((), (2,)): Fraction(1, 8),
        ((), (1, 1)): Fraction(1, 8),
    }
    assert set(counts) == set(law)
    for atom, p in law.items():
        mean = trials * float(p)
        sd = math.sqrt(trials * float(p) * (1 - float(p)))
        assert abs(counts[atom] - mean) <= 4 * sd, atom


def test_block_sizes_binomial():
    fam = Example1Family(cyclic_group(2))
    q, trials = 50, 4000
    rng = rng_for(11)
    sizes = [sum(sample_canonical(fam, q, rng)[0]) for _ in range(trials)]
    se_mean = math.sqrt(q / 4) / math.sqrt(trials)
    assert abs(statistics.fmean(sizes) - q / 2) <= 4 * se_mean
    var = statistics.pvariance(sizes)
    se_var = (q / 4) * math.sqrt(2 / (trials - 1))
    assert abs(var - q / 4) <= 4 * se_var


def test_mean_r2_matches_qc():
    fam = Example1Family(cyclic_group(2), multiplicities=(1, 3))
    q, trials = 100, 2000
    shapes = sample_shapes(fam, q, trials, 13, {0, 1})
    for slot, c in [(0, Fraction(1, 4)), (1, Fraction(3, 4))]:
        values = [float(statistic_value(lam, ("R", slot, 2))) for lam in shapes[slot]]
        se = math.sqrt(float(c * (1 - c)) * q / trials)
        assert abs(statistics.fmean(values) - float(q * c)) <= 4 * se


def test_reproducibility_and_workers():
    fam = Example1Family(cyclic_group(2))
    a = full_tuples(fam, 30, 40, 99)
    b = full_tuples(fam, 30, 40, 99)
    assert a == b
    c = full_tuples(fam, 30, 40, 99, workers=2)
    assert c == a
    d = full_tuples(fam, 30, 40, 100)
    assert d != a
    # sample i draws from the counter-seeded stream "root_seed:i"
    for i, sample in enumerate(a):
        assert sample == sample_canonical(fam, 30, random.Random(f"99:{i}"))


@pytest.mark.parametrize(
    "workers, n, cpus, expected", [(64, 3, 8, 3), (64, 100, 2, 2), (3, 100, 8, 3), (5, 9, None, 1)]
)
def test_pool_size_is_capped(monkeypatch, workers, n, cpus, expected):
    import concurrent.futures

    sizes = []

    class InProcessPool:
        """Records max_workers and runs the payloads here: no process starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return list(map(fn, payloads))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(sampling.os, "cpu_count", lambda: cpus)
    fam = Example1Family(cyclic_group(2))
    assert full_tuples(fam, 6, n, 5, workers) == full_tuples(fam, 6, n, 5)
    assert sizes == [expected]


LAZY_FAMILIES = [
    Example1Family(cyclic_group(2)),
    Example1Family(symmetric3_group()),
    # slot 1 has multiplicity 0, so its block is always empty
    Example1Family(symmetric3_group(), multiplicities=(1, 0, 2)),
]


@pytest.mark.parametrize("fam", LAZY_FAMILIES)
def test_sample_canonical_slots_match_full_tuple(fam):
    n_slots = fam.ct.num_irreps
    subsets = [
        subset
        for r in range(n_slots + 1)
        for subset in itertools.permutations(range(n_slots), r)
    ]
    for seed in range(6):
        full = sample_canonical(fam, 40, random.Random(seed))
        assert len(full) == n_slots
        for subset in subsets:
            part = sample_canonical(fam, 40, random.Random(seed), subset)
            assert part == tuple(full[slot] for slot in subset), (seed, subset)
    with pytest.raises(ValueError):
        sample_canonical(fam, 4, rng_for(0), [n_slots])
    with pytest.raises(ValueError):
        sample_canonical(fam, 4, rng_for(0), [-1])


def test_sample_canonical_reads_slots_from_an_iterator():
    # the range check must not use up the slots it then inserts
    fam = Example1Family(cyclic_group(2))
    want = sample_canonical(fam, 10, random.Random(5), [0, 1])
    assert sample_canonical(fam, 10, random.Random(5), iter([0, 1])) == want


def test_draw_on_a_slot_bound_goes_to_the_upper_slot():
    # weights 1/2, 1/2: the bound is 0.5 and the scale exactly 1.0; the
    # draws are 1/2, 3/4, 1/4
    fam = Example1Family(cyclic_group(2))
    perm = (1, 2, 0)
    assert sample_canonical(fam, 3, PermutationRng(perm)) == ((1,), (2,))


def test_zero_weight_slot_stays_empty():
    # weights 1/2, 0, 1/2: slot 1 is the empty interval [0.5, 0.5); the
    # draws are 3/6, 1/6, 2/6, 5/6, 4/6
    fam = Example1Family(cyclic_group(3), multiplicities=(1, 0, 1))
    perm = (2, 0, 1, 4, 3)
    expected = ((2,), (), (2, 1))
    assert sample_canonical(fam, 5, PermutationRng(perm)) == expected
    assert sample_canonical(fam, 5, PermutationRng(perm), [1]) == ((),)


@pytest.mark.parametrize("fam", LAZY_FAMILIES)
def test_slot_shapes_same_for_any_worker_count_and_slot_set(fam):
    first = [("R", 0, 2), ("character", 0, 2)]
    later = [("R", 1, 3), ("p", 0, 3)]
    n_slots = fam.ct.num_irreps
    subsets = [
        set(subset)
        for r in range(1, n_slots + 1)
        for subset in itertools.combinations(range(n_slots), r)
    ]
    stats = {}
    for workers in (1, 2):
        alone = {s: sample_shapes(fam, 25, 30, 7, {s}, workers)[s] for s in range(n_slots)}
        one = fluctuation_statistics(fam, 25, {0: alone[0]}, first)
        for subset in subsets:
            drawn = sample_shapes(fam, 25, 30, 7, subset, workers)
            assert sorted(drawn) == sorted(subset)
            # a slot's shapes are the same whichever slots are drawn with it
            assert all(drawn[s] == alone[s] for s in subset), subset
            if 0 in subset:
                assert fluctuation_statistics(fam, 25, drawn, first) == one, subset
        two = fluctuation_statistics(fam, 25, alone, later + first)
        samples = list(zip(*(alone[s] for s in range(n_slots))))
        stats[workers] = (one, two, samples)
        assert len(samples) == 30
    assert stats[1] == stats[2]
    eager = [sample_canonical(fam, 25, random.Random(f"7:{i}")) for i in range(30)]
    assert stats[1][2] == eager
    assert sample_shapes(fam, 25, 0, 7, range(n_slots), workers=2) == {
        s: [] for s in range(n_slots)
    }


def test_only_the_given_slots_are_inserted(monkeypatch):
    fam = Example1Family(cyclic_group(2))
    q, n = 60, 20
    sizes = [
        [sum(lam) for lam in sample_canonical(fam, q, random.Random(f"4:{i}"))]
        for i in range(n)
    ]
    inserted = []
    real = sampling._insertion_shape

    def counting(values):
        inserted.append(len(values))
        return real(values)

    monkeypatch.setattr(sampling, "_insertion_shape", counting)
    shapes = sample_shapes(fam, q, n, 4, [0, 0])
    assert inserted == [s[0] for s in sizes]
    inserted.clear()
    # statistics read the given shapes: they draw and insert nothing
    fluctuation_statistics(fam, q, shapes, [("R", 0, 2)])
    fluctuation_statistics(fam, q, shapes, [("R", 0, 3), ("R", 0, 2)])
    assert inserted == []


def test_free_cumulants_run_once_per_shape_per_slot(monkeypatch):
    fam = Example1Family(cyclic_group(2))
    shapes = sample_shapes(fam, 20, 50, 3, {0, 1})
    specs = [("R", 0, 2), ("p", 0, 3), ("character", 0, 2), ("R", 1, 4), ("R", 0, 2)]
    expected = fluctuation_statistics(fam, 20, shapes, specs)
    depths = []
    real = sampling.free_cumulants

    def counting(lam, up_to):
        depths.append(up_to)
        return real(lam, up_to)

    monkeypatch.setattr(sampling, "free_cumulants", counting)
    assert fluctuation_statistics(fam, 20, shapes, specs) == expected
    # one call per shape of each slot, as deep as the slot's statistics read:
    # slot 0's character:2 reads R_3, slot 1's R:4 reads R_4
    assert Counter(depths) == {3: 50, 4: 50}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.sampled_from(partitions_of(n))), st.integers(1, 8))
def test_statistic_value_is_each_kind_direct_formula(lam, i):
    n = sum(lam)
    direct = {
        "R": lambda: free_cumulants(lam, i)[i - 1],
        "p": lambda: profile_moment(lam, i),
        "character": lambda: indicator_scalar(lam, (i,)) / falling(n, i) if n >= i else 0,
    }
    for kind, formula in direct.items():
        if i >= STATISTIC_KINDS[kind].least:
            value = statistic_value(lam, (kind, 0, i))
            assert value == formula(), (kind, lam, i)
            # polynomial statistics are ints on a diagram; the per-falling ratio is exact
            assert type(value) is (Fraction if kind == "character" else int), (kind, lam, i)


def test_character_statistic_matches_direct_scalar():
    fam = Example1Family(cyclic_group(2))
    for lam in sample_shapes(fam, 6, 30, 21, {0})[0]:
        for l in (1, 2, 3):
            via = statistic_value(lam, ("character", 0, l))
            n = sum(lam)
            direct = (
                indicator_scalar(lam, (l,)) / falling(n, l)
                if n >= l
                else Fraction(0)
            )
            assert via == direct


def test_point_mass_statistics_vanish():
    fam = IrreducibleFamily(
        cyclic_group(2), (Fraction(1, 2), Fraction(1, 2))
    )
    q = 16
    shapes = {slot: [lam] * 40 for slot, lam in enumerate(fam.shapes(q))}
    stats = fluctuation_statistics(
        fam, q, shapes, [("R", 0, 2), ("R", 1, 3), ("p", 0, 4), ("character", 0, 2)]
    )
    assert all(v == 0 for row in stats for v in row)
    report = normality_check(stats)
    assert all(e["degenerate"] for e in report["statistics"])
    assert not any(e["gaussian"] for e in report["statistics"])


def test_statistic_errors():
    fam = Example1Family(cyclic_group(2))
    shapes = sample_shapes(fam, 8, 5, 1, {0})
    with pytest.raises(ValueError):
        fluctuation_statistics(fam, 8, shapes, [("R", 0, 1)])
    with pytest.raises(ValueError):
        fluctuation_statistics(fam, 8, shapes, [("p", 0, 1)])
    with pytest.raises(ValueError):
        fluctuation_statistics(fam, 8, shapes, [("sigma", 0, 2)])
    with pytest.raises(ValueError, match="empty batch"):
        fluctuation_statistics(fam, 8, sample_shapes(fam, 8, 0, 0, {0}), [("R", 0, 2)])


def test_normality_check_refuses_no_samples():
    with pytest.raises(ValueError, match="no samples"):
        normality_check([])
    with pytest.raises(ValueError, match="no samples"):
        normality_check([], ["x"], predicted_cov=[[1]])


def test_normality_calibration():
    rng = rng_for(42)
    n = 5000
    stats = [[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(n)]
    report = normality_check(stats, ["x", "y"])
    for entry in report["statistics"]:
        assert not entry["degenerate"]
        assert entry["gaussian"]
        assert abs(entry["skewness"]) <= 3 * math.sqrt(6 / n)
        assert abs(entry["excess_kurtosis"]) <= 3 * math.sqrt(24 / n)
    cov = report["covariance"]
    assert abs(cov[0][0] - 1) < 0.1 and abs(cov[1][1] - 1) < 0.1
    assert abs(cov[0][1]) < 0.1


def test_normality_degenerate_flag():
    stats = [[1.0]] * 2000
    report = normality_check(stats)
    entry = report["statistics"][0]
    assert entry["degenerate"] and not entry["gaussian"]


def test_predicted_covariance_table():
    fam = Example1Family(cyclic_group(2))
    params = fam.limits()
    specs = [("R", 0, 2), ("R", 1, 2), ("R", 0, 3)]
    cov = predicted_r_covariance(params, specs)
    expected = [
        [0.25, -0.25, 0.0],
        [-0.25, 0.25, 0.0],
        [0.0, 0.0, 0.5],
    ]
    assert cov == expected
    with pytest.raises(ValueError):
        predicted_r_covariance(params, [("p", 0, 2)])
    induced = InducedFamily(fam, Fraction(1, 2)).limits()  # no covariance table
    with pytest.raises(ValueError):
        predicted_r_covariance(induced, [("R", 0, 2)])


def test_r3_fluctuations_match_limit():
    fam = Example1Family(cyclic_group(2))
    q, trials = 400, 1500
    shapes = sample_shapes(fam, q, trials, 2026, {0, 1})
    stats = fluctuation_statistics(fam, q, shapes, [("R", 0, 3), ("R", 1, 3)])
    report = normality_check(
        stats,
        ["r3a", "r3b"],
        predicted_cov=predicted_r_covariance(
            fam.limits(), [("R", 0, 3), ("R", 1, 3)]
        ),
    )
    for entry in report["statistics"]:
        assert not entry["degenerate"]
        assert abs(entry["variance"] - 0.5) < 0.12
    assert report["covariance_abs_error"] < 0.12


def test_csv_and_summary_schema():
    fam = Example1Family(cyclic_group(2))
    shapes = sample_shapes(fam, 10, 12, 8, {0, 1})
    specs = [("R", 0, 2), ("p", 1, 2)]
    text, summary = _sample_texts(fam, 10, 8, 12, shapes, specs)
    lines = text.strip().split("\n")
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "sample,statistic,raw,centered_scaled"
    assert len(lines) == 2 + 12 * 2
    assert lines[2].startswith("0,R[0,2],")
    doc = json.loads(summary)
    assert doc["n_samples"] == 12
    assert doc["q"] == 10
    assert doc["root_seed"] == 8
    names = [e["name"] for e in doc["statistics"]]
    assert names == ["R[0,2]", "p[1,2]"]
    assert len(doc["covariance"]) == 2
