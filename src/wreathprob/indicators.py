"""Partial permutations and normalized conjugacy-class indicators.

A partial permutation on q points is an Ivanov-Kerov pair (images,
support): ``images`` is a permutation of range(q) in one-line form that
is the identity off the support, and ``support`` is an int bitmask that
may also pin fixed points.  The product applies the right factor first
and unions the supports.  The indicator attached to a tuple of row
lengths is the sum over all injective fillings of those rows by points,
each filling contributing the partial permutation whose cycles are the
filled rows (length-one rows pin fixed points into the support).

Products of indicators expand again in indicators with coefficients not
depending on the number of points; the coefficients are extracted once
at the smallest sufficient point count and cached.  On top of this sit
the conversions between indicators and free cumulants in both
directions, obtained by exact interpolation over small diagrams.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import cache

from .diagrams import free_cumulants, profile_moment
from .partitions import falling, indicator_scalar, partitions_of

PartialPerm = tuple[tuple[int, ...], int]


def compose(p1: PartialPerm, p2: PartialPerm) -> PartialPerm:
    """Natural product: apply p2 first, then p1, on the union support."""
    return tuple(map(p1[0].__getitem__, p2[0])), p1[1] | p2[1]


def compose_each(images, supports, p2: PartialPerm):
    """compose(p1, p2) for every p1, given as parallel image and support lists.

    The products are made in C, without a Python frame per pair.
    """
    right, mask = p2
    if len(right) < 2:
        # itemgetter returns a bare item, not a tuple, for fewer than two indices
        return (compose(p1, p2) for p1 in zip(images, supports))
    return zip(map(operator.itemgetter(*right), images), map(mask.__or__, supports))


def cycle_type(pp: PartialPerm) -> tuple[int, ...]:
    """Cycle lengths on the support, fixed points included, descending."""
    images, support = pp
    lengths = []
    while support:
        point = (support & -support).bit_length() - 1
        length = 0
        # walk the cycle until it is back at a point already struck off
        while support >> point & 1:
            support &= ~(1 << point)
            point = images[point]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _multiplicity(rows: tuple[int, ...]) -> int:
    """Fillings per partial permutation of type rows: prod l^m_l m_l!.

    A filled row may start at any of its points and equal rows may swap.
    """
    out = 1
    for length, m in Counter(rows).items():
        out *= length**m * math.factorial(m)
    return out


def expand_indicator(rows: tuple[int, ...], q: int) -> Counter:
    """The indicator on q points as a multiset of partial permutations.

    Each distinct partial permutation is built once, from its canonical
    filling, and counted once per filling that gives it.
    """
    if sum(rows) > q:
        return Counter()
    rows = tuple(sorted(rows, reverse=True))
    if not rows:
        return Counter({_filling(rows, (), q): 1})
    count = _multiplicity(rows)
    return Counter(
        {_filling(rows, points, q): count for points in _canonical_points(rows, tuple(range(q)), 0)}
    )


def _canonical_points(rows, free, low):
    """Point sequences filling the descending rows from the sorted ``free`` points.

    Each row starts at its least point, and equal rows start in increasing
    order (a row starts at or above ``low``), so every partial permutation
    comes from exactly one sequence.
    """
    length, rest = rows[0], rows[1:]
    if length == 1:
        # only fixed points are left: one increasing choice of them
        yield from itertools.combinations(free, len(rows))
        return
    for i in range(len(free) - length + 1):
        start = free[i]
        if start < low:
            continue
        above = free[i + 1 :]
        if not rest:
            for tail in itertools.permutations(above, length - 1):
                yield (start, *tail)
            continue
        # the next row starts above this one exactly when it is as long
        nxt = start + 1 if rest[0] == length else 0
        for tail in itertools.permutations(above, length - 1):
            left = free[:i] + tuple(p for p in above if p not in tail)
            head = (start, *tail)
            for more in _canonical_points(rest, left, nxt):
                yield head + more


def _filling(rows: tuple[int, ...], points, q: int) -> PartialPerm:
    """Partial permutation on q points whose cycles are the rows filled by ``points``."""
    images = list(range(q))
    support = 0
    start = 0
    for length in rows:
        end = start + length
        prev = points[end - 1]  # each row closes: its last point maps to its first
        for point in points[start:end]:
            images[prev] = point
            support |= 1 << point
            prev = point
        start = end
    return tuple(images), support


@cache
def product_coefficients(mu: tuple[int, ...], nu: tuple[int, ...]) -> dict:
    """Expansion of the natural product of two indicators in indicators.

    Extracted at the smallest point count where nothing truncates; the
    test suite re-checks the same identity at larger point counts.  The
    symmetric group on the points permutes the fillings of ``mu``
    transitively and leaves the other indicator and every cycle type
    unchanged, so one filling of ``mu`` stands for all falling(q0, |mu|)
    of them.  Indicator products commute, so the larger factor gets that
    one filling and only the smaller is expanded.
    """
    mu = tuple(sorted(mu, reverse=True))
    nu = tuple(sorted(nu, reverse=True))
    if sum(nu) > sum(mu):
        mu, nu = nu, mu
    q0 = sum(mu) + sum(nu)
    p1 = _filling(mu, range(sum(mu)), q0)
    totals: Counter = Counter()
    for p2, c2 in expand_indicator(nu, q0).items():
        totals[cycle_type(compose(p1, p2))] += c2
    out = {}
    for rho, total in sorted(totals.items()):
        coeff = Fraction(total * falling(q0, sum(mu)), falling(q0, sum(rho)))
        if coeff:
            out[rho] = coeff
    return out


class IndicatorSum:
    """Formal rational combination of indicators, closed under products."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for rows, coeff in terms.items():
                key = tuple(sorted(rows, reverse=True))
                val = self.terms.get(key, Fraction(0)) + Fraction(coeff)
                if val:
                    self.terms[key] = val
                elif key in self.terms:
                    del self.terms[key]

    @classmethod
    def indicator(cls, rows: tuple[int, ...]) -> "IndicatorSum":
        return cls({tuple(rows): Fraction(1)})

    @classmethod
    def one(cls) -> "IndicatorSum":
        return cls({(): Fraction(1)})

    def __eq__(self, other) -> bool:
        return isinstance(other, IndicatorSum) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "IndicatorSum") -> "IndicatorSum":
        out = dict(self.terms)
        for rows, coeff in other.terms.items():
            out[rows] = out.get(rows, Fraction(0)) + coeff
        return IndicatorSum(out)

    def __sub__(self, other: "IndicatorSum") -> "IndicatorSum":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "IndicatorSum":
        return IndicatorSum({rows: Fraction(scalar) * c for rows, c in self.terms.items()})

    def __mul__(self, other) -> "IndicatorSum":
        if not isinstance(other, IndicatorSum):
            return self.__rmul__(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for mu, c1 in self.terms.items():
            for nu, c2 in other.terms.items():
                for rho, g in product_coefficients(mu, nu).items():
                    out[rho] = out.get(rho, Fraction(0)) + c1 * c2 * g
        return IndicatorSum(out)

    def disjoint(self, other: "IndicatorSum") -> "IndicatorSum":
        """Disjoint product: supports forced apart, rows simply concatenate."""
        out: dict[tuple[int, ...], Fraction] = {}
        for mu, c1 in self.terms.items():
            for nu, c2 in other.terms.items():
                rho = tuple(sorted(mu + nu, reverse=True))
                out[rho] = out.get(rho, Fraction(0)) + c1 * c2
        return IndicatorSum(out)

    def scalar_on(self, lam: tuple[int, ...]) -> Fraction:
        """Evaluate as the scalar acting on the irreducible of shape lam."""
        return sum(
            (c * indicator_scalar(lam, rows) for rows, c in self.terms.items()),
            start=Fraction(0),
        )

    def __repr__(self):
        if not self.terms:
            return "IndicatorSum(0)"
        bits = [f"{c}*S{list(rows)}" for rows, c in sorted(self.terms.items())]
        return "IndicatorSum(" + " + ".join(bits) + ")"


def _solve_unique(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Exact solve of a (possibly overdetermined) system; must be consistent
    with a unique solution."""
    rows = [list(r) + [v] for r, v in zip(matrix, rhs)]
    ncols = len(matrix[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    if rank < ncols:
        raise ValueError("interpolation system is underdetermined")
    for i in range(rank, len(rows)):
        if rows[i][-1]:
            raise ValueError("interpolation system is inconsistent")
    solution = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        solution[col] = rows[r][-1]
    return solution


def _monomials_up_to_weight(max_weight: int) -> list[tuple[int, ...]]:
    """Multisets of cumulant indices >= 2, graded by total index weight."""
    out = [()]
    for w in range(2, max_weight + 1):
        out.extend(
            lam
            for lam in partitions_of(w)
            if all(part >= 2 for part in lam)
        )
    return out


def interpolate_in_free_cumulants(values, max_weight: int, max_size: int) -> dict:
    """Express a diagram functional exactly in free-cumulant monomials.

    ``values`` maps a diagram to a Fraction; the fit runs over all
    diagrams of size at most ``max_size`` and demands a unique exact
    solution among monomials of weight at most ``max_weight``.
    """
    monomials = _monomials_up_to_weight(max_weight)
    diagrams = [lam for n in range(max_size + 1) for lam in partitions_of(n)]
    matrix = []
    rhs = []
    for lam in diagrams:
        cumulants = free_cumulants(lam, max(max_weight, 2))
        row = []
        for mono in monomials:
            prod = Fraction(1)
            for idx in mono:
                prod *= cumulants[idx - 1]
            row.append(prod)
        matrix.append(row)
        rhs.append(Fraction(values(lam)))
    solution = _solve_unique(matrix, rhs)
    return {m: c for m, c in zip(monomials, solution) if c}


@cache
def indicator_in_free_cumulants(l: int) -> dict:
    """The one-row indicator of length l as a free-cumulant polynomial."""
    if l == 0:
        return {(): Fraction(1)}
    return interpolate_in_free_cumulants(
        lambda lam: indicator_scalar(lam, (l,)), l + 1, l + 2
    )


@cache
def profile_moment_in_free_cumulants(k: int) -> dict:
    """The k-th profile power sum as a free-cumulant polynomial."""
    return interpolate_in_free_cumulants(
        lambda lam: profile_moment(lam, k), k, k + 2
    )


@cache
def free_cumulant_as_indicators(n: int) -> IndicatorSum:
    """Free cumulant R_n written back as a combination of indicators."""
    if n == 1:
        return IndicatorSum()
    expansion = indicator_in_free_cumulants(n - 1)
    assert expansion.get((n,)) == 1, "leading Kerov term must be R_(l+1)"
    out = IndicatorSum.indicator((n - 1,))
    for mono, coeff in expansion.items():
        if mono == (n,):
            continue
        prod = IndicatorSum.one()
        for idx in mono:
            prod = prod * free_cumulant_as_indicators(idx)
        out = out - coeff * prod
    return out


@cache
def profile_moment_as_indicators(k: int) -> IndicatorSum:
    """The k-th profile power sum as a combination of indicators."""
    out = IndicatorSum()
    for mono, coeff in profile_moment_in_free_cumulants(k).items():
        prod = IndicatorSum.one()
        for idx in mono:
            prod = prod * free_cumulant_as_indicators(idx)
        out = out + coeff * prod
    return out
