"""Partial permutations and normalized conjugacy-class indicators.

A partial permutation on q points is an Ivanov-Kerov pair (images,
support): ``images`` is a permutation of range(q) in one-line form that
is the identity off the support, and ``support`` is an int bitmask that
may also pin fixed points.  The product applies the right factor first
and unions the supports.  The indicator attached to a tuple of row
lengths is the sum over all injective fillings of those rows by points,
each filling contributing the partial permutation whose cycles are the
filled rows (length-one rows pin fixed points into the support).

Products of indicators expand again in indicators with integer
coefficients not depending on the number of points; the coefficients are
extracted once at the smallest sufficient point count and cached.  An
integral value is an int here, and a Fraction is made only for a ratio:
scalars on irreducibles are Fractions.  On top of this sit the
conversions between indicators and free cumulants in both directions,
truncated products of power series whose coefficients are integer
free-cumulant polynomials, from Lagrange inversion of the moment series
and Biane's formula for the Kerov polynomials (Biane 2003, "Characters
of symmetric groups and free cumulants"); each R_n then goes back to
indicators by peeling off the leading Kerov term R_n of the (n-1)-cycle
indicator.  The scalar through which a sum acts on an irreducible is a
sum of ``partitions.term_scalar`` over its terms.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import cache

from .partitions import term_scalar

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


def multiplicity(rows: tuple[int, ...]) -> int:
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
    count = multiplicity(rows)
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


@cache  # unbounded: 206 entries on `sample --stats R:0:14`, each costly to recompute
def product_coefficients(mu: tuple[int, ...], nu: tuple[int, ...]) -> dict:
    """Expansion of the natural product of two indicators in indicators.

    Extracted at the smallest point count where nothing truncates; the
    test suite re-checks the same identity at larger point counts.  The
    symmetric group on the points permutes the fillings of ``mu``
    transitively and leaves the other indicator and every cycle type
    unchanged, so one filling of ``mu`` stands for all falling(q0, |mu|)
    of them.  Indicator products commute, so the larger factor gets that
    one filling and only the smaller is expanded.  The coefficients are
    integers (Ivanov-Kerov 1999): the division is exact.
    """
    mu = tuple(sorted(mu, reverse=True))
    nu = tuple(sorted(nu, reverse=True))
    if sum(nu) > sum(mu):
        mu, nu = nu, mu
    q0 = sum(mu) + sum(nu)
    p1 = _filling(mu, range(sum(mu)), q0)
    # nu counts each of its partial permutations multiplicity(nu) times
    totals = Counter(cycle_type(compose(p1, p2)) for p2 in expand_indicator(nu, q0))
    scale = multiplicity(nu) * math.perm(q0, sum(mu))
    return {rho: total * scale // math.perm(q0, sum(rho)) for rho, total in sorted(totals.items())}


def _exact(coeff):
    """A coefficient as stored: an int as it is, any other number as its exact Fraction."""
    return coeff if type(coeff) is int else Fraction(coeff)


class IndicatorSum:
    """Formal rational combination of indicators, closed under products."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            for rows, coeff in terms.items():
                key = tuple(sorted(rows, reverse=True))
                val = self.terms.get(key, 0) + _exact(coeff)
                if val:
                    self.terms[key] = val
                elif key in self.terms:
                    del self.terms[key]

    @classmethod
    def indicator(cls, rows: tuple[int, ...]) -> "IndicatorSum":
        return cls({tuple(rows): 1})

    @classmethod
    def one(cls) -> "IndicatorSum":
        return cls({(): 1})

    @classmethod
    def of(cls, item) -> "IndicatorSum":
        """The sum itself, or the indicator of a tuple of row lengths."""
        return item if isinstance(item, IndicatorSum) else cls.indicator(item)

    def __eq__(self, other) -> bool:
        return isinstance(other, IndicatorSum) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "IndicatorSum") -> "IndicatorSum":
        out = dict(self.terms)
        for rows, coeff in other.terms.items():
            out[rows] = out.get(rows, 0) + coeff
        return IndicatorSum(out)

    def __sub__(self, other: "IndicatorSum") -> "IndicatorSum":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "IndicatorSum":
        return IndicatorSum({rows: _exact(scalar) * c for rows, c in self.terms.items()})

    def __mul__(self, other) -> "IndicatorSum":
        if not isinstance(other, IndicatorSum):
            return self.__rmul__(other)
        out: dict = {}
        for mu, c1 in self.terms.items():
            for nu, c2 in other.terms.items():
                for rho, g in product_coefficients(mu, nu).items():
                    out[rho] = out.get(rho, 0) + c1 * c2 * g
        return IndicatorSum(out)

    def disjoint(self, other: "IndicatorSum") -> "IndicatorSum":
        """Disjoint product: supports forced apart, rows simply concatenate."""
        out: dict = {}
        for mu, c1 in self.terms.items():
            for nu, c2 in other.terms.items():
                rho = tuple(sorted(mu + nu, reverse=True))
                out[rho] = out.get(rho, 0) + c1 * c2
        return IndicatorSum(out)

    def scalar_on(self, lam) -> Fraction:
        """Evaluate as the scalar acting on the irreducible of shape lam, term by term."""
        lam = tuple(lam)
        terms = self.terms.items()
        return sum((c * term_scalar(lam, rows) for rows, c in terms), start=Fraction(0))

    def __repr__(self):
        if not self.terms:
            return "IndicatorSum(0)"
        bits = [f"{c}*S{list(rows)}" for rows, c in sorted(self.terms.items())]
        return "IndicatorSum(" + " + ".join(bits) + ")"


def indicator_scalar(lam, rows) -> Fraction:
    """Scalar through which the indicator of ``rows`` (parts >= 1) acts on irrep ``lam``.

    It vanishes when the rows hold more points than lam has boxes.
    """
    if any(r < 1 for r in rows):
        raise ValueError(f"row lengths must be positive: {rows}")
    return IndicatorSum.indicator(rows).scalar_on(lam)


def evaluate(poly: dict, cumulants):
    """A free-cumulant polynomial at the free cumulants R_1, R_2, ... of one diagram."""
    return sum(c * math.prod(cumulants[idx - 1] for idx in mono) for mono, c in poly.items())


def _series_mul(a: dict, b: dict, top: int) -> dict:
    """Product of two u-series up to u^top.

    A series maps (degree, monomial) to an int coefficient; a monomial is
    a descending tuple of free-cumulant indices >= 2.
    """
    by_degree: list[list] = [[] for _ in range(top + 1)]
    for (d, mono), c in b.items():
        by_degree[d].append((mono, c))
    out: dict = {}
    for (d1, m1), c1 in a.items():
        for d2 in range(top - d1 + 1):
            for m2, c2 in by_degree[d2]:
                key = (d1 + d2, tuple(sorted(m1 + m2, reverse=True)))
                out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _phi_power(e: int, top: int) -> dict:
    """phi(w)^e up to w^top, where phi(w) = 1 + sum_{j>=2} R_j w^j."""
    phi = {(0, ()): 1, **{(j, (j,)): 1 for j in range(2, top + 1)}}
    out = {(0, ()): 1}
    for _ in range(e):
        out = _series_mul(out, phi, top)
    return out


def _coefficient(series: dict, degree: int, divisor: int = 1) -> dict:
    """[u^degree] of a series, divided exactly by divisor.

    Monomials run by weight, then lex-descending, as partitions_of lists them.
    """
    monos = sorted((m for d, m in series if d == degree), key=lambda m: (-sum(m), m), reverse=True)
    out = {}
    for mono in monos:
        coeff = series[degree, mono]
        assert coeff % divisor == 0, "free-cumulant polynomials have integer coefficients"
        out[mono] = coeff // divisor
    return out


@cache  # keyed by an index: one entry per row length asked for
def indicator_in_free_cumulants(l: int) -> dict:
    """The one-row indicator of length l as a free-cumulant polynomial (Kerov).

    Biane's formula: Sigma_l = -(1/l) [u^(l+1)] prod_{j<l} (1 - ju) h(u / (1 - ju)),
    where h = 1/m for the moment series m(u) = sum_n M_n u^n.  Lagrange
    inversion of m(u) = phi(u m(u)) gives h_n = -[w^n] phi^(n-1) / (n-1)
    for n >= 2 (h_1 = 0), and the j-th factor has [u^d] = sum_n C(d-2, n-2)
    j^(d-n) h_n for d >= 2, after 1 - ju below degree 2.
    """
    if l == 0:
        return {(): 1}
    top = l + 1
    h = {
        n: {mono: -c for mono, c in _coefficient(_phi_power(n - 1, n), n, n - 1).items()}
        for n in range(2, top + 1)
    }
    product = {(0, ()): 1, **{(n, mono): c for n, poly in h.items() for mono, c in poly.items()}}
    for j in range(1, l):  # the j = 0 factor is h itself
        factor = {(0, ()): 1, (1, ()): -j}
        for d in range(2, top + 1):
            for n in range(2, d + 1):
                weight = math.comb(d - 2, n - 2) * j ** (d - n)
                for mono, c in h[n].items():
                    factor[d, mono] = factor.get((d, mono), 0) + weight * c
        product = _series_mul(product, factor, top)
    return {mono: -c for mono, c in _coefficient(product, top, l).items()}


@cache  # keyed by an index: one entry per profile moment asked for
def profile_moment_in_free_cumulants(k: int) -> dict:
    """The k-th profile power sum as a free-cumulant polynomial: [w^k] phi^k.

    At k = 0 the series gives 1, which profile_moment subtracts.
    """
    if k == 0:
        return {}
    return _coefficient(_phi_power(k, k), k)


def in_indicators(poly: dict) -> IndicatorSum:
    """A free-cumulant polynomial with each R_n replaced by its indicator form."""
    out = IndicatorSum()
    for mono, coeff in poly.items():
        prod = IndicatorSum.one()
        for idx in mono:
            prod = prod * free_cumulant_as_indicators(idx)
        out = out + coeff * prod
    return out


@cache  # keyed by an index: one entry per free cumulant asked for
def free_cumulant_as_indicators(n: int) -> IndicatorSum:
    """Free cumulant R_n written back as a combination of indicators."""
    if n == 1:
        return IndicatorSum()
    expansion = indicator_in_free_cumulants(n - 1)
    assert expansion.get((n,)) == 1, "leading Kerov term must be R_(l+1)"
    lower = {mono: coeff for mono, coeff in expansion.items() if mono != (n,)}
    return IndicatorSum.indicator((n - 1,)) - in_indicators(lower)
