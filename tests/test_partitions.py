"""Partitions, hook lengths, rim-hook characters against independent oracles."""

import itertools
import math
from fractions import Fraction

import pytest

from wreathprob.indicators import indicator_scalar
from wreathprob.partitions import (
    SCALAR_CACHE_SIZE,
    character,
    conjugate,
    dimension,
    is_partition,
    partitions_of,
)

from oracles import (
    centralizer_order,
    class_size,
    dimension_branching,
    falling,
    identity_matrix,
    matrix_multiply,
    matrix_trace,
    partition_count_pentagonal,
    seminormal_generator,
    seminormal_image,
    standard_tableaux,
    symmetric_character_table,
)


def test_partition_counts_match_pentagonal_recurrence():
    for n in range(21):
        assert len(partitions_of(n)) == partition_count_pentagonal(n)


def test_partition_counts_frozen():
    assert len(partitions_of(4)) == 5
    assert len(partitions_of(10)) == 42


def test_partitions_are_valid_and_lex_descending():
    for n in range(1, 13):
        parts = partitions_of(n)
        assert parts[0] == (n,)
        assert parts[-1] == (1,) * n
        for lam in parts:
            assert is_partition(lam)
            assert sum(lam) == n
        assert all(parts[i] > parts[i + 1] for i in range(len(parts) - 1))


def test_booleans_are_no_partition_parts():
    # bool is an int subclass; a JSON true must not pass as a part of 1
    assert not is_partition((True,))
    assert not is_partition((2, True))
    assert is_partition((2, 1))


def test_conjugate_is_involution():
    for n in range(9):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam
    assert conjugate((4, 3, 1)) == (3, 2, 2, 1)


def test_dimension_matches_branching_rule():
    for n in range(10):
        for lam in partitions_of(n):
            assert dimension(lam) == dimension_branching(lam)


def test_dimension_frozen_values():
    assert dimension(()) == 1
    assert dimension((2, 1)) == 2
    assert dimension((4, 3, 1)) == 70
    assert dimension((5, 5)) == 42  # Catalan number
    # keyed by diagrams, so bounded like the (diagram, rows) scalars
    assert dimension.cache_info().maxsize == SCALAR_CACHE_SIZE


def test_dimension_squares_sum_to_group_order():
    for n in range(1, 11):
        assert sum(dimension(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)


def test_characters_match_permutation_module_table():
    for n in range(1, 9):
        table = symmetric_character_table(n)
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert character(lam, mu) == table[lam][mu], (lam, mu)


def test_character_frozen_values():
    assert character((2, 1), (3,)) == -1
    assert character((2, 1), (1, 1, 1)) == 2
    assert character((2, 1), (2, 1)) == 0
    for n in range(1, 9):
        for mu in partitions_of(n):
            assert character((n,), mu) == 1
            assert character((1,) * n, mu) == (-1) ** (n - len(mu))


def test_character_first_orthogonality():
    for n in range(1, 9):
        shapes = partitions_of(n)
        for lam, rho in itertools.combinations_with_replacement(shapes, 2):
            dot = sum(
                class_size(mu) * character(lam, mu) * character(rho, mu)
                for mu in partitions_of(n)
            )
            assert dot == (math.factorial(n) if lam == rho else 0)


def test_class_sizes_partition_the_group():
    for n in range(1, 10):
        assert sum(class_size(mu) for mu in partitions_of(n)) == math.factorial(n)
    assert centralizer_order((2, 1)) == 2
    assert class_size((2, 1)) == 3


def test_falling_factorial():
    assert falling(5, 0) == 1
    assert falling(5, 3) == 60
    assert falling(3, 5) == 0  # hits zero factor
    assert falling(Fraction(1, 2), 2) == Fraction(-1, 4)
    # the library's falling factorials are math.perm on non-negative ints
    assert all(math.perm(n, k) == falling(n, k) for n in range(8) for k in range(10))


def test_seminormal_matrices_satisfy_coxeter_relations():
    for n in range(2, 6):
        for lam in partitions_of(n):
            gens = [seminormal_generator(lam, m) for m in range(1, n)]
            size = len(standard_tableaux(lam))
            assert size == dimension(lam)
            eye = identity_matrix(size)
            for g in gens:
                assert matrix_multiply(g, g) == eye
            for i in range(len(gens) - 1):
                lhs = matrix_multiply(gens[i], matrix_multiply(gens[i + 1], gens[i]))
                rhs = matrix_multiply(gens[i + 1], matrix_multiply(gens[i], gens[i + 1]))
                assert lhs == rhs
            for i, j in itertools.combinations(range(len(gens)), 2):
                if j - i >= 2:
                    assert matrix_multiply(gens[i], gens[j]) == matrix_multiply(
                        gens[j], gens[i]
                    )


def _one_line_cycle_type(perm):
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        point = start
        while not seen[point]:
            seen[point] = True
            point = perm[point]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def test_seminormal_traces_recover_characters():
    for n in range(1, 5):
        for lam in partitions_of(n):
            for perm in itertools.permutations(range(n)):
                trace = matrix_trace(seminormal_image(lam, perm))
                assert trace == character(lam, _one_line_cycle_type(perm))


def _fillings_as_permutations(rows, n):
    """Every way to pin disjoint cycles of the given lengths on n points."""
    size = sum(rows)
    for points in itertools.permutations(range(n), size):
        perm = list(range(n))
        offset = 0
        for length in rows:
            cycle = points[offset : offset + length]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                perm[a] = b
            offset += length
        yield tuple(perm)


def test_indicator_scalar_matches_matrix_sum():
    # the summed fillings give a central element, so its seminormal image
    # must be the claimed scalar times the identity
    cases = [
        ((2, 1), (2,)),
        ((3,), (2,)),
        ((1, 1, 1), (3,)),
        ((2, 2), (2, 2)),
        ((2, 1, 1), (2, 1)),
        ((3, 1), (2,)),
        ((2, 2), (1,)),
    ]
    for lam, rows in cases:
        n = sum(lam)
        size = len(standard_tableaux(lam))
        total = [[Fraction(0)] * size for _ in range(size)]
        for perm in _fillings_as_permutations(rows, n):
            mat = seminormal_image(lam, perm)
            for i in range(size):
                for j in range(size):
                    total[i][j] += mat[i][j]
        scalar = indicator_scalar(lam, rows)
        for i in range(size):
            for j in range(size):
                assert total[i][j] == (scalar if i == j else 0), (lam, rows)


def test_indicator_scalar_frozen_values():
    assert indicator_scalar((3,), (2,)) == 6
    assert indicator_scalar((1, 1, 1), (2,)) == -6
    assert indicator_scalar((2, 1), (2,)) == 0
    assert indicator_scalar((2, 1), (1,)) == 3
    for n in range(1, 8):
        lam = (n,)
        for k in range(1, n + 1):
            assert indicator_scalar(lam, (k,)) == falling(n, k)


def test_indicator_scalar_vanishes_when_rows_do_not_fit():
    assert indicator_scalar((2, 1), (4,)) == 0
    assert indicator_scalar((2, 1), (2, 2)) == 0
    assert indicator_scalar((), (1,)) == 0


def test_indicator_scalar_rejects_bad_rows():
    with pytest.raises(ValueError):
        indicator_scalar((2, 1), (0,))


def test_character_size_mismatch_raises():
    with pytest.raises(ValueError):
        character((2, 1), (2, 2))
