"""Irreducible data and probability families for wreath products.

Irreducibles of the wreath product of a finite group with a symmetric
group on q points are indexed by tuples of partitions, one per
irreducible of the base group, with total size q.  Conjugacy-class
indicators act on each irreducible through one scalar per slot, and
products of full indicators across distinct slots only keep the
cross-disjoint fillings (overlapping coordinates hit orthogonal
isotypic projections and die), so joint moments of a random tuple of
partitions are determined by per-slot row data.

A RepFamily assigns to every q a probability measure on these tuples via
its exact joint moment rule; concrete families cover the independent-box
construction, deterministic balanced shapes, and restriction, induction,
outer-product, and tensor constructions on top of other families.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

from .cyclotomics import Cyclotomic, conjugate_value, numerator_denominator, value_as_fraction
from .errors import Infeasible, InputError, NoLimitTable
from .groups import CharacterTable, _coeff_from_json, _coeff_to_json, builtin_group
from .groups import character_table_from_json, character_table_to_json
from .indicators import IndicatorSum
from .partitions import character as sym_character
from .partitions import dimension, falling, is_partition, partitions_of


def _multipartitions(k: int, q: int):
    """Every k-tuple of partitions of total size q."""
    if k == 1:
        for lam in partitions_of(q):
            yield (lam,)
        return
    for size in range(q + 1):
        for lam in partitions_of(size):
            for rest in _multipartitions(k - 1, q - size):
                yield (lam,) + rest


def enumerate_irreps(ct: CharacterTable, q: int) -> list[tuple[tuple[int, ...], ...]]:
    """All tuples of partitions, one per base-group irreducible, of total size q."""
    return list(_multipartitions(ct.num_irreps, q))


def wreath_dimension(ct: CharacterTable, lam_tuple) -> int:
    """Dimension of the irreducible indexed by a tuple of partitions."""
    q = sum(sum(lam) for lam in lam_tuple)
    out = math.factorial(q)
    for slot, lam in enumerate(lam_tuple):
        n = sum(lam)
        out //= math.factorial(n)
        out *= dimension(lam) * ct.irreps[slot].dim ** n
    return out


# --------------------------------------------------------------- class types
#
# A conjugacy class of G wr S_q is its type: the multiset of (cycle length,
# G-class of the cycle's colour product), kept as a sorted tuple (Macdonald,
# *Symmetric Functions and Hall Polynomials*, ch. I app. B).  G-class 0 is
# the identity class, so identity fixed points sort first.

FIXED = (1, 0)

# One budget for every family path: the class values a class function
# computes plus, for a measure, its support times the irreducibles it is
# paired with, all bounded before anything is enumerated.
MAX_CLASS_WORK = 2 * 10**4


def w_mul(gmult, a, b):
    """(v, pi)(w, sigma): colors merge through pi, permutations compose."""
    v, p = a
    w, s = b
    q = len(p)
    pinv = [0] * q
    for i, image in enumerate(p):
        pinv[image] = i
    colors = tuple(gmult[v[i]][w[pinv[i]]] for i in range(q))
    perm = tuple(p[s[i]] for i in range(q))
    return colors, perm


def backward_cycles(perm) -> list[tuple[int, ...]]:
    """The cycles of perm, each walked backwards from its least point c0.

    An element (colors, perm) has colour product colors[c0] *
    colors[perm^-1(c0)] * colors[perm^-2(c0)] * ... on that cycle, in
    exactly this order of points.
    """
    q = len(perm)
    pinv = [0] * q
    for i, image in enumerate(perm):
        pinv[image] = i
    seen = [False] * q
    out = []
    for c0 in range(q):
        if seen[c0]:
            continue
        cycle = [c0]
        seen[c0] = True
        point = pinv[c0]
        while point != c0:
            seen[point] = True
            cycle.append(point)
            point = pinv[point]
        out.append(tuple(cycle))
    return out


def class_type(group, colors, walk) -> tuple:
    """Type of the element (colors, perm), given perm's ``backward_cycles``."""
    key = []
    for cycle in walk:
        g = colors[cycle[0]]
        for point in cycle[1:]:
            g = group.mult[g][colors[point]]
        key.append((len(cycle), group.class_of[g]))
    key.sort()
    return tuple(key)


def class_types(ct: CharacterTable, q: int) -> list[tuple]:
    """Every class type of G wr S_q, one per tuple of partitions over the G-classes.

    Each part l of the c-th partition is one cycle (l, c).
    """
    return [
        tuple(sorted((part, c) for c, lam in enumerate(lams) for part in lam))
        for lams in _multipartitions(len(ct.group.conjugacy_classes), q)
    ]


def centralizer(ct: CharacterTable, t) -> int:
    """z(t) = prod (l |G| / |c|)^m m!; the class has |G|^q q! / z(t) elements."""
    group = ct.group
    out = 1
    for (length, g_class), m in Counter(t).items():
        size = len(group.conjugacy_classes[g_class])
        out *= (length * group.order // size) ** m * math.factorial(m)
    return out


def wreath_order(ct: CharacterTable, q: int) -> int:
    return ct.group.order**q * math.factorial(q)


@functools.cache
def _shares(m: int, caps: tuple[int, ...]) -> tuple:
    """Every way to share m equal cycles among slots taking at most caps[j] each.

    Each share is (takes, ways): ``ways`` = m! / prod takes! assignments
    of the cycles to the slots give it.
    """
    if not caps:
        return (((), 1),) if m == 0 else ()
    return tuple(
        ((take, *rest), ways * math.comb(m, take))
        for take in range(min(m, caps[0]) + 1)
        for rest, ways in _shares(m - take, caps[1:])
    )


def _split_ways(ct: CharacterTable, t, sizes) -> dict:
    """The splits of type t's cycles among the slots, summed per key.

    A split gives slot rho cycles of |lam^rho| points in all; a slot takes
    no cycle of a G-class its irreducible vanishes on.  The key is
    (lengths, picks): ``lengths[rho]`` lists the cycle lengths slot rho
    receives, ascending, and ``picks[rho * k + c]`` counts its cycles of
    G-class c, for k G-classes.  The value is the number of
    cycle-to-slot assignments behind the key's splits.  Cells of equal
    cycles are shared out one at a time, and equal partial keys merge.
    """
    irreps = ct.irreps
    k = len(ct.group.conjugacy_classes)
    states = {(tuple(sizes), ((),) * len(irreps), (0,) * (len(irreps) * k)): 1}
    for (length, g_class), m in sorted(Counter(t).items()):
        open_slots = [rho for rho, irrep in enumerate(irreps) if irrep.values[g_class] != 0]
        merged: dict[tuple, int] = {}
        for (room, lengths, picks), ways in states.items():
            caps = tuple(room[rho] // length for rho in open_slots)
            for takes, share in _shares(m, caps):
                room2, lengths2, picks2 = list(room), list(lengths), list(picks)
                for rho, take in zip(open_slots, takes):
                    if take:
                        room2[rho] -= take * length
                        lengths2[rho] += (length,) * take
                        picks2[rho * k + g_class] += take
                key = (tuple(room2), tuple(lengths2), tuple(picks2))
                merged[key] = merged.get(key, 0) + ways * share
        states = merged
    return {(lengths, picks): ways for (_, lengths, picks), ways in states.items()}


def _colour(ct: CharacterTable, picks):
    """Product of the slot characters at the picked G-classes (see ``_split_ways``)."""
    k = len(ct.group.conjugacy_classes)
    out = 1
    for i, count in enumerate(picks):
        for _ in range(count):
            out = out * ct.irreps[i // k].values[i % k]
    return out


def class_values(ct: CharacterTable, lam_tuples, t) -> list:
    """The values on the class of type t of irreducibles with one slot-size vector.

    An irreducible is induced from the block subgroup
    prod_rho G wr S_{|lam^rho|}, and the blocks an element fixes are the
    splits of its cycles that fill slot rho with exactly |lam^rho| points.
    Each split contributes the product of the slot characters at its
    cycles' colour classes times, per slot, the symmetric-group character
    at the lengths the slot received.  The splits depend on the sizes
    alone, so they are walked once for all the irreducibles.  Per cycle
    lengths, the products of slot characters are summed on integer
    coefficient vectors, one per root order; an irreducible then weighs
    these sums by its integer character products.  A value is an int
    unless a product with a cyclotomic value has a nonzero weight, and
    then a cyclotomic number over the lcm of those products' orders.
    """
    per_lengths: dict[tuple, list] = {}
    for (lengths, picks), ways in _split_ways(ct, t, map(sum, lam_tuples[0])).items():
        entry = per_lengths.setdefault(lengths, [0, {}])
        colour = _colour(ct, picks)
        if isinstance(colour, Cyclotomic):
            vector = entry[1].setdefault(colour.order, [0] * len(colour.coeffs))
            for j, c in enumerate(colour.coeffs):
                vector[j] += ways * c
        else:
            entry[0] += ways * colour
    out = []
    for lam_tuple in lam_tuples:
        value = 0
        sums: dict[int, list] = {}
        for lengths, (rational, vectors) in per_lengths.items():
            weight = math.prod(map(sym_character, lam_tuple, lengths))
            if not weight:
                continue
            value += weight * rational
            for order, vector in vectors.items():
                acc = sums.setdefault(order, [0] * len(vector))
                for j, c in enumerate(vector):
                    acc[j] += weight * c
        for order, acc in sums.items():
            value += Cyclotomic.reduced(order, acc)
        out.append(value)
    return out


def class_value(ct: CharacterTable, lam_tuple, t):
    """The irreducible lam_tuple's value on the class of type t."""
    return class_values(ct, [lam_tuple], t)[0]


def irreps_by_sizes(ct: CharacterTable, q: int) -> dict[tuple, list]:
    """The irreducibles of G wr S_q grouped by slot-size vector, in enumeration order."""
    out: dict[tuple, list] = {}
    for lam_tuple in enumerate_irreps(ct, q):
        out.setdefault(tuple(map(sum, lam_tuple)), []).append(lam_tuple)
    return out


def _capped_count(k: int, n: int) -> int:
    """k-tuples of partitions of n, capped just past the class budget.

    Euler's transform of prod (1 - x^j)^-k: m a(m) = sum_j k sigma(j) a(m - j).
    The counts never decrease, so the recurrence stops at the first past the cap.
    """
    a, sigma = [1], [0]
    while len(a) <= n and a[-1] <= MAX_CLASS_WORK:
        m = len(a)
        sigma.append(sum(d for d in range(1, m + 1) if m % d == 0))
        a.append(sum(k * sigma[j] * a[m - j] for j in range(1, m + 1)) // m)
    return min(a[-1], MAX_CLASS_WORK + 1)


def check_class_budget(q: int, work: int) -> None:
    if work > MAX_CLASS_WORK:
        raise Infeasible(f"q={q}: class work {work} passes the class budget of {MAX_CLASS_WORK}")


def measure_from_class_function(ct: CharacterTable, q: int, values: dict) -> dict:
    """Decompose a normalized class function into the probability it induces.

    The mass of one irreducible is its dimension times the inner product
    sum_t values[t] conj(chi(t)) / z(t) over the support.  The weights
    values[t] / z(t) are brought to one denominator first, so the inner
    products run on integer coefficients and divide once.
    """
    parts = [(t, *numerator_denominator(value), centralizer(ct, t)) for t, value in values.items()]
    denominator = math.lcm(*(d * z for _, _, d, z in parts))
    support = [(t, n * (denominator // (d * z))) for t, n, d, z in parts]
    totals = dict.fromkeys(enumerate_irreps(ct, q), 0)
    for lam_tuples in irreps_by_sizes(ct, q).values():
        for t, weight in support:
            for lam_tuple, chi in zip(lam_tuples, class_values(ct, lam_tuples, t)):
                totals[lam_tuple] = totals[lam_tuple] + weight * conjugate_value(chi)
    scale = Fraction(1, denominator)
    out = {}
    for lam_tuple, total in totals.items():
        mass = value_as_fraction(total * scale) * wreath_dimension(ct, lam_tuple)
        if mass:
            out[lam_tuple] = mass
    return out


def _truncate(summ: IndicatorSum, q: int) -> IndicatorSum:
    # indicators needing more than q points are the zero element at size q
    kept = {rows: c for rows, c in summ.terms.items() if sum(rows) <= q}
    if len(kept) == len(summ.terms):
        return summ
    return IndicatorSum(kept)


def _normalize_factors(factors, q: int | None = None):
    """Group mixed (slot, rows-or-IndicatorSum) factors into one sum per slot.

    When q is given, terms that cannot be supported at size q are dropped
    before and after each product; this is exact and keeps the structure
    constant expansion small.
    """
    per_slot: dict[int, IndicatorSum] = {}
    for slot, item in factors:
        item = IndicatorSum.of(item)
        if q is not None:
            item = _truncate(item, q)
        if slot in per_slot:
            prod = per_slot[slot] * item
            per_slot[slot] = _truncate(prod, q) if q is not None else prod
        else:
            per_slot[slot] = item
    return dict(sorted(per_slot.items()))


def factorized_character(lam_tuple, factors) -> Fraction:
    """Normalized character of a product of per-slot indicators.

    Factors sharing a slot are multiplied inside that slot's indicator
    algebra; the result is the product over slots of the scalar through
    which the slot's indicator acts on the slot's partition.
    """
    per_slot = _normalize_factors(factors)
    out = Fraction(1)
    for slot, summ in per_slot.items():
        out *= summ.scalar_on(lam_tuple[slot])
    return out


class RepFamily:
    """A q-indexed family of probability measures on partition tuples.

    A joint moment of one cross-disjoint indicator term averages the
    factorized character over ``canonical_measure``; families with a
    closed-form rule override it.  The public ``moment`` accepts arbitrary
    per-slot indicator data and reduces products inside each slot first.
    """

    kind = "abstract"

    def __init__(self, ct: CharacterTable):
        self.ct = ct
        # the moments of one call share a q: keep only that q's measure
        self._measure: tuple[int, dict] | None = None

    def moment(self, q: int, factors) -> Fraction:
        """Expectation of a product of per-slot indicators at size q."""
        per_slot = _normalize_factors(factors, q)
        slots = list(per_slot)
        bad = [s for s in slots if not 0 <= s < self.ct.num_irreps]
        if bad:
            raise InputError(f"factor slot {bad[0]} is out of range for {self.ct.num_irreps} slots")
        total = Fraction(0)
        for combo in itertools.product(*(per_slot[s].terms.items() for s in slots)):
            coeff = Fraction(1)
            items = []
            for slot, (rows, c) in zip(slots, combo):
                coeff *= c
                if rows:
                    items.append((slot, rows))
            if coeff:
                total += coeff * self._joint_moment(q, tuple(items))
        return total

    def _joint_moment(self, q: int, items) -> Fraction:
        """E of one cross-disjoint joint indicator; items = ((slot, rows), ...)."""
        if self._measure is None or self._measure[0] != q:
            self._measure = (q, self.canonical_measure(q))
        measure = self._measure[1]
        return sum(
            (p * factorized_character(lam, items) for lam, p in measure.items()), Fraction(0)
        )

    def to_json(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_json(cls, doc) -> "RepFamily":
        raise NotImplementedError

    def limits(self, max_index: int = 6):
        """Limit table (``asymptotics.LimitParameters``) along the constructor tree."""
        raise NoLimitTable(f"no limit table for family kind {self.kind!r}")

    def class_cost(self, q: int) -> tuple[int, int]:
        """(support, work) of ``class_function(q)``, counted without building it.

        ``support`` bounds the class types it is nonzero on, ``work`` the
        class values and pairs of class types it computes.
        """
        raise NotImplementedError

    def class_function(self, q: int) -> dict:
        """Normalized character at size q: {class type: value} on its support."""
        raise NotImplementedError

    def checked_class_function(self, q: int) -> dict:
        """``class_function(q)`` once the class budget admits its work."""
        check_class_budget(q, self.class_cost(q)[1])
        return self.class_function(q)

    def canonical_measure(self, q: int) -> dict:
        """Probability of each partition tuple under the size-q measure.

        Decomposes the family's class function over the irreducibles;
        families with a closed form override this.
        """
        support, work = self.class_cost(q)
        # every irreducible is paired with every supported class type
        check_class_budget(q, work + support * _capped_count(self.ct.num_irreps, q))
        return measure_from_class_function(self.ct, q, self.class_function(q))


def _weight_vector(ct: CharacterTable, weights) -> tuple[Fraction, ...]:
    """Slot weights as Fractions: one per base irreducible, a probability vector."""
    weights = tuple(Fraction(w) for w in weights)
    if len(weights) != ct.num_irreps:
        raise ValueError("one weight per base irreducible required")
    if sum(weights) != 1 or any(w < 0 for w in weights):
        raise ValueError("weights must be a probability vector")
    return weights


class Example1Family(RepFamily):
    """Independent group-algebra boxes weighted by one base representation.

    The measure at size q is the isotypic decomposition of the induced
    representation whose fibre is the q-fold tensor power of a base-group
    representation; slot weights are (multiplicity times dim) over the
    fibre dimension, and joint moments vanish unless every pinned row is
    a fixed point.
    """

    kind = "example1"

    def __init__(self, ct: CharacterTable, multiplicities=None, weights=None):
        super().__init__(ct)
        if weights is None and multiplicities is None:
            multiplicities = ct.dims()  # left regular
        self.multiplicities = None
        if multiplicities is not None:
            mults = tuple(multiplicities) if isinstance(multiplicities, (list, tuple)) else ()
            # bool is an int subclass, so the type is compared exactly
            bad = any(type(m) is not int or m < 0 for m in mults)
            if bad or not any(mults) or len(mults) != ct.num_irreps:
                raise InputError(
                    "multiplicities must be non-negative integers, one per base"
                    f" irreducible, not all zero: {multiplicities!r}"
                )
            self.multiplicities = mults
            parts = [m * r.dim for m, r in zip(self.multiplicities, ct.irreps)]
            implied = [Fraction(part, sum(parts)) for part in parts]
            # the enumerated character follows the multiplicities, so
            # weights given beside them must be the ones they imply
            if weights is not None and [Fraction(w) for w in weights] != implied:
                raise ValueError(
                    "weights must equal multiplicity times dim over the fibre dimension"
                )
            weights = implied
        self.weights = _weight_vector(ct, weights)

    def _joint_moment(self, q: int, items) -> Fraction:
        total_ones = 0
        prod = Fraction(1)
        for slot, rows in items:
            if any(r != 1 for r in rows):
                return Fraction(0)
            total_ones += len(rows)
            prod *= self.weights[slot] ** len(rows)
        return falling(q, total_ones) * prod

    def _fibre(self) -> list:
        """The normalized fibre character per G-class: sum_i (w_i / dim_i) chi_i."""
        scales = [w / r.dim for w, r in zip(self.weights, self.ct.irreps)]
        columns = zip(*(r.values for r in self.ct.irreps))
        return [sum(map(operator.mul, scales, col)) for col in columns]

    def class_cost(self, q: int) -> tuple[int, int]:
        # fixed-point types over the G-classes the fibre character is nonzero on
        nonzero = sum(1 for v in self._fibre() if v)
        fixed_point_types = math.comb(q + nonzero - 1, q)
        return fixed_point_types, fixed_point_types

    def class_function(self, q: int) -> dict:
        # the tensor power lives on the base group's q-fold product: only
        # fixed-point types, each point contributing the normalized fibre character
        fibre, one = self._fibre(), Fraction(1)
        nonzero = [c for c, v in enumerate(fibre) if v]
        return {
            tuple((1, c) for c in classes): math.prod((fibre[c] for c in classes), start=one)
            for classes in itertools.combinations_with_replacement(nonzero, q)
        }

    def canonical_probability(self, q: int, lam_tuple) -> Fraction:
        """Closed-form mass of one partition tuple under the size-q measure."""
        if sum(sum(lam) for lam in lam_tuple) != q:
            return Fraction(0)
        out = Fraction(math.factorial(q))
        for slot, lam in enumerate(lam_tuple):
            n = sum(lam)
            out *= self.weights[slot] ** n
            out *= Fraction(dimension(lam) ** 2, math.factorial(n) ** 2)
        return out

    def canonical_measure(self, q: int) -> dict:
        # the closed form builds no class type: only irreducibles count
        check_class_budget(q, _capped_count(self.ct.num_irreps, q))
        masses = {t: self.canonical_probability(q, t) for t in enumerate_irreps(self.ct, q)}
        return {t: p for t, p in masses.items() if p}

    def limits(self, max_index: int = 6):
        from .asymptotics import example1_limits

        return example1_limits(self.weights, max_l=max_index)

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "group": character_table_to_json(self.ct)}
        if self.multiplicities is not None:
            doc["multiplicities"] = list(self.multiplicities)
        else:
            doc["weights"] = [_coeff_to_json(w) for w in self.weights]
        return doc

    @classmethod
    def from_json(cls, doc) -> "Example1Family":
        weights = doc.get("weights")
        if weights is not None:
            weights = [_coeff_from_json(w) for w in weights]
        return cls(_group_from_json(doc["group"]), doc.get("multiplicities"), weights)


class IrreducibleFamily(RepFamily):
    """Deterministic balanced shapes: one fixed tuple of partitions per q.

    Each slot receives a near-floor(weight * q) share of the boxes filled
    with an integer dilation of a base diagram; the handful of leftover
    boxes are appended as short rows, which is negligible at the scaling
    the limit theorems use.  Moments are plain products of scalars.
    """

    kind = "irreducible"

    def __init__(self, ct: CharacterTable, weights, bases=None):
        super().__init__(ct)
        self.weights = _weight_vector(ct, weights)
        if bases is None:
            bases = [(1,) if w else () for w in self.weights]
        self.bases = tuple(tuple(b) for b in bases)
        if len(self.bases) != ct.num_irreps:
            raise ValueError("one base diagram per base irreducible required")
        for w, base in zip(self.weights, self.bases):
            if not is_partition(base):
                raise ValueError(f"base {list(base)} is not a partition")
            if w and not base:
                raise ValueError("weighted slots need a base diagram")

    @staticmethod
    def _fill(base: tuple[int, ...], n: int) -> tuple[int, ...]:
        """Dilate the base to at most n boxes, append leftovers as short rows."""
        if n == 0:
            return ()
        size = sum(base)
        t = math.isqrt(n // size)
        while t and t * t * size > n:
            t -= 1
        rows = [part * t for part in base for _ in range(t)]
        leftover = n - t * t * size
        width = max(t * base[-1], 1) if t else leftover
        while leftover:
            take = min(width, leftover)
            rows.append(take)
            leftover -= take
        return tuple(sorted(rows, reverse=True))

    def shapes(self, q: int) -> tuple[tuple[int, ...], ...]:
        sizes = [math.floor(w * q) for w in self.weights]
        deficit = q - sum(sizes)
        # leftover boxes go to the heaviest slot
        sizes[max(range(len(sizes)), key=lambda s: self.weights[s])] += deficit
        return tuple(
            self._fill(base, n) for base, n in zip(self.bases, sizes)
        )

    def class_cost(self, q: int) -> tuple[int, int]:
        # a class value walks the splits of its type among the slots, which
        # grow like the irreducibles: each is counted as that many
        types = _capped_count(len(self.ct.group.conjugacy_classes), q)
        return types, types * _capped_count(self.ct.num_irreps, q)

    def class_function(self, q: int) -> dict:
        shapes = self.shapes(q)
        scale = Fraction(1, wreath_dimension(self.ct, shapes))
        values = {t: class_value(self.ct, shapes, t) for t in class_types(self.ct, q)}
        return {t: v * scale for t, v in values.items() if v}

    def canonical_measure(self, q: int) -> dict:
        return {self.shapes(q): Fraction(1)}

    def limits(self, max_index: int = 6):
        from .asymptotics import irreducible_limits

        return irreducible_limits(self, max_index=max_index + 1)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "group": character_table_to_json(self.ct),
            "weights": [_coeff_to_json(w) for w in self.weights],
            "bases": [list(b) for b in self.bases],
        }

    @classmethod
    def from_json(cls, doc) -> "IrreducibleFamily":
        weights = [_coeff_from_json(w) for w in doc["weights"]]
        bases = doc.get("bases")
        if bases is not None:
            bases = [tuple(b) for b in bases]
        return cls(_group_from_json(doc["group"]), weights, bases)


class _ConstructorFamily(RepFamily):
    """A constructor over other families, described by its arguments.

    ``fields`` names the constructor arguments in descriptor order: a
    ``ratio`` is a fraction, every other field a nested family.
    """

    fields: tuple[str, ...] = ()

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        for name in self.fields:
            value = getattr(self, name)
            doc[name] = _coeff_to_json(value) if name == "ratio" else value.to_json()
        return doc

    @classmethod
    def from_json(cls, doc) -> "_ConstructorFamily":
        def decode(name):
            return (_coeff_from_json if name == "ratio" else family_from_json)(doc[name])

        return cls(**{name: decode(name) for name in cls.fields})


class RestrictedFamily(_ConstructorFamily):
    """Restriction from a family living on floor(ratio * q) points, ratio >= 1.

    Restricting keeps the ambient measure and shrinks the indicator's
    point pool, so a joint moment is the parent moment rescaled by the
    ratio of falling factorials of the two point counts.
    """

    kind = "restricted"
    fields = ("ratio", "parent")

    def __init__(self, parent: RepFamily, ratio):
        super().__init__(parent.ct)
        self.parent = parent
        self.ratio = Fraction(ratio)
        if self.ratio < 1:
            raise ValueError("restriction ratio must be at least 1")

    def r_of(self, q: int) -> int:
        return math.floor(self.ratio * q)

    def class_cost(self, q: int) -> tuple[int, int]:
        return self.parent.class_cost(self.r_of(q))

    def class_function(self, q: int) -> dict:
        # x at q embeds at r with r - q more identity fixed points
        fixed = self.r_of(q) - q
        return {
            t[fixed:]: v
            for t, v in self.parent.class_function(q + fixed).items()
            if t[:fixed] == (FIXED,) * fixed
        }

    def _joint_moment(self, q: int, items) -> Fraction:
        r = self.r_of(q)
        total = sum(sum(rows) for _, rows in items)
        if total > q:
            return Fraction(0)
        parent_value = self.parent._joint_moment(r, items)
        return Fraction(falling(q, total), falling(r, total)) * parent_value

    def limits(self, max_index: int = 6):
        from .asymptotics import restrict_limits

        return restrict_limits(self.parent.limits(max_index), 1 / self.ratio)


def _row_splits(rows):
    """(ways, left, right): each split of rows between the two blocks.

    Taking k of the m rows of one length gives C(m, k) ways; both row
    tuples stay in descending order.
    """
    cells = sorted(Counter(rows).items(), reverse=True)
    for take in itertools.product(*(range(m + 1) for _, m in cells)):
        ways = math.prod(math.comb(m, k) for (_, m), k in zip(cells, take))
        left = tuple(length for (length, _), k in zip(cells, take) for _ in range(k))
        right = tuple(length for (length, m), k in zip(cells, take) for _ in range(m - k))
        yield ways, left, right


class OuterFamily(_ConstructorFamily):
    """Outer product: two independent blocks induced up to the full group.

    Every pinned cycle must land inside one block, rows of equal length
    split binomially, and the two blocks contribute independent parent
    moments at sizes floor(ratio * q) and the complement.
    """

    kind = "outer"
    fields = ("ratio", "left", "right")

    def __init__(self, left: RepFamily, right: RepFamily, ratio):
        if left.ct != right.ct:
            raise ValueError("outer factors must share the base group")
        super().__init__(left.ct)
        self.left = left
        self.right = right
        self.ratio = Fraction(ratio)
        if not 0 <= self.ratio <= 1:
            raise ValueError("outer ratio must lie in [0, 1]")

    def split_of(self, q: int) -> tuple[int, int]:
        q1 = math.floor(self.ratio * q)
        return q1, q - q1

    def class_cost(self, q: int) -> tuple[int, int]:
        q1, q2 = self.split_of(q)
        (s1, w1), (s2, w2) = self.left.class_cost(q1), self.right.class_cost(q2)
        types = _capped_count(len(self.ct.group.conjugacy_classes), q)
        return min(s1 * s2, types), w1 + w2 + s1 * s2

    def class_function(self, q: int) -> dict:
        # Frobenius over the splits t = t1 + t2 into the two blocks, each
        # weighted z(t) / (C(q, q1) z(t1) z(t2))
        (q1, q2), ct = self.split_of(q), self.ct
        right = self.right.class_function(q2)
        out: dict[tuple, object] = {}
        for t1, v1 in self.left.class_function(q1).items():
            w1 = v1 * Fraction(1, math.comb(q, q1) * centralizer(ct, t1))
            for t2, v2 in right.items():
                t = tuple(sorted(t1 + t2))
                term = w1 * v2 * Fraction(centralizer(ct, t), centralizer(ct, t2))
                out[t] = out.get(t, 0) + term
        return {t: v for t, v in out.items() if v}

    def _joint_moment(self, q: int, items) -> Fraction:
        q1, q2 = self.split_of(q)
        splits = [[(slot, *split) for split in _row_splits(rows)] for slot, rows in items]
        total = Fraction(0)
        for combo in itertools.product(*splits):
            # an induced family's right block is the regular family, which
            # vanishes unless every row it gets is a fixed point
            right = self.right._joint_moment(q2, tuple((s, r) for s, _, _, r in combo if r))
            if right:
                left = self.left._joint_moment(q1, tuple((s, l) for s, _, l, _ in combo if l))
                total += math.prod(w for _, w, _, _ in combo) * right * left
        return total

    def limits(self, max_index: int = 6):
        from .asymptotics import outer_limits

        return outer_limits(
            self.left.limits(max_index), self.right.limits(max_index), self.ratio
        )


class InducedFamily(OuterFamily):
    """Induction from a family living on floor(ratio * q) points, ratio <= 1.

    Inducing from W_r to W_q is the outer product with the left-regular
    representation of W_{q-r}: Ind pi = Ind_{W_r x W_{q-r}} (pi x reg).
    So this is the outer family with ``parent`` on the first block and
    the left-regular ``example1`` family on the q - r fresh points; the
    descriptor keeps only the parent and the ratio.
    """

    kind = "induced"
    fields = ("ratio", "parent")

    def __init__(self, parent: RepFamily, ratio):
        if not 0 <= Fraction(ratio) <= 1:
            raise ValueError("induction ratio must lie in [0, 1]")
        super().__init__(parent, Example1Family(parent.ct), ratio)
        self.parent = parent

    def limits(self, max_index: int = 6):
        from .asymptotics import induce_limits

        return induce_limits(self.parent.limits(max_index), self.ratio, self.ct)


class TensorFamily(_ConstructorFamily):
    """Pointwise tensor product of two families' representations.

    Normalized characters multiply class by class, which has no
    indicator-level product rule, so it keeps the default joint moment:
    the factorized character averaged over the measure it decomposes into.
    """

    kind = "tensor"
    fields = ("left", "right")

    def __init__(self, left: RepFamily, right: RepFamily):
        if left.ct != right.ct:
            raise ValueError("tensor factors must share the base group")
        super().__init__(left.ct)
        self.left = left
        self.right = right

    def class_cost(self, q: int) -> tuple[int, int]:
        (s1, w1), (s2, w2) = self.left.class_cost(q), self.right.class_cost(q)
        return min(s1, s2), w1 + w2

    def class_function(self, q: int) -> dict:
        # class functions keep nonzero values only, so no product vanishes
        right = self.right.class_function(q)
        return {t: v * right[t] for t, v in self.left.class_function(q).items() if t in right}

    def limits(self, max_index: int = 6):
        from .asymptotics import tensor_limits

        return tensor_limits(self.left, self.right, max_index)


def _group_from_json(doc) -> CharacterTable:
    if isinstance(doc, str):
        return builtin_group(doc)
    return character_table_from_json(doc)


FAMILY_KINDS = {
    "example1": Example1Family,
    "irreducible": IrreducibleFamily,
    "restricted": RestrictedFamily,
    "induced": InducedFamily,
    "outer": OuterFamily,
    "tensor": TensorFamily,
}


def family_from_json(doc) -> RepFamily:
    """Build a family from its JSON descriptor (groups inline or by name)."""
    if not isinstance(doc, dict):
        raise ValueError("a family descriptor must be a JSON object")
    kind = doc.get("kind")
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind: {kind!r}")
    return FAMILY_KINDS[kind].from_json(doc)
