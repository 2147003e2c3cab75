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

import itertools
import math
from fractions import Fraction

from .groups import CharacterTable
from .indicators import IndicatorSum
from .partitions import dimension, falling, indicator_scalar, partitions_of


def enumerate_irreps(ct: CharacterTable, q: int) -> list[tuple[tuple[int, ...], ...]]:
    """All tuples of partitions, one per base-group irreducible, of total size q."""
    slots = ct.num_irreps

    def rec(slot: int, remaining: int):
        if slot == slots - 1:
            for lam in partitions_of(remaining):
                yield (lam,)
            return
        for size in range(remaining + 1):
            for lam in partitions_of(size):
                for rest in rec(slot + 1, remaining - size):
                    yield (lam,) + rest

    return list(rec(0, q))


def wreath_dimension(ct: CharacterTable, lam_tuple) -> int:
    """Dimension of the irreducible indexed by a tuple of partitions."""
    q = sum(sum(lam) for lam in lam_tuple)
    out = math.factorial(q)
    for slot, lam in enumerate(lam_tuple):
        n = sum(lam)
        out //= math.factorial(n)
        out *= dimension(lam) * ct.irreps[slot].dim ** n
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
        if not isinstance(item, IndicatorSum):
            item = IndicatorSum.indicator(tuple(item))
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

    Subclasses provide the joint moment of one cross-disjoint indicator
    term; the public ``moment`` accepts arbitrary per-slot indicator data
    and reduces products inside each slot first.
    """

    kind = "abstract"

    def __init__(self, ct: CharacterTable):
        self.ct = ct

    def moment(self, q: int, factors) -> Fraction:
        """Expectation of a product of per-slot indicators at size q."""
        per_slot = _normalize_factors(factors, q)
        slots = list(per_slot)
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
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_json(cls, doc) -> "RepFamily":
        raise NotImplementedError

    def limits(self, max_index: int = 6):
        """Limit table (``asymptotics.LimitParameters``) along the constructor tree."""
        raise ValueError(f"no limit table for family kind {self.kind!r}")

    def enumeration_sizes(self, q: int) -> set[int]:
        """The q of every wreath group the explicit character at q builds."""
        return {q}

    def canonical_measure(self, q: int) -> dict:
        """Probability of each partition tuple under the size-q measure.

        Decomposes the family's character over the enumerated wreath group;
        families with a closed form override this.
        """
        from .bruteforce import family_character_values, measure_from_character, wreath_group

        values = family_character_values(self, q)
        return measure_from_character(wreath_group(self.ct, q), values)


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
            self.multiplicities = tuple(int(m) for m in multiplicities)
            parts = [m * r.dim for m, r in zip(self.multiplicities, ct.irreps)]
            implied = [Fraction(part, sum(parts)) for part in parts]
            # the enumerated character follows the multiplicities, so
            # weights given beside them must be the ones they imply
            if weights is not None and [Fraction(w) for w in weights] != implied:
                raise ValueError(
                    "weights must equal multiplicity times dim over the fibre dimension"
                )
            weights = implied
        self.weights = tuple(Fraction(w) for w in weights)
        if len(self.weights) != ct.num_irreps:
            raise ValueError("one weight per base irreducible required")
        if sum(self.weights) != 1 or any(w < 0 for w in self.weights):
            raise ValueError("weights must be a probability vector")

    def _joint_moment(self, q: int, items) -> Fraction:
        total_ones = 0
        prod = Fraction(1)
        for slot, rows in items:
            if any(r != 1 for r in rows):
                return Fraction(0)
            total_ones += len(rows)
            prod *= self.weights[slot] ** len(rows)
        return falling(q, total_ones) * prod

    def enumeration_sizes(self, q: int) -> set[int]:
        # the explicit character is the fibre character's q-th tensor power,
        # which weights alone do not determine
        if self.multiplicities is None:
            raise ValueError("explicit character needs integer multiplicities")
        return {q}

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
        masses = {t: self.canonical_probability(q, t) for t in enumerate_irreps(self.ct, q)}
        return {t: p for t, p in masses.items() if p}

    def limits(self, max_index: int = 6):
        from .asymptotics import example1_limits

        return example1_limits(self.weights, max_l=max_index)

    def to_json(self) -> dict:
        from .groups import character_table_to_json

        doc = {"kind": self.kind, "group": character_table_to_json(self.ct)}
        if self.multiplicities is not None:
            doc["multiplicities"] = list(self.multiplicities)
        else:
            doc["weights"] = [_fraction_to_json(w) for w in self.weights]
        return doc

    @classmethod
    def from_json(cls, doc) -> "Example1Family":
        weights = doc.get("weights")
        if weights is not None:
            weights = [_fraction_from_json(w) for w in weights]
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
        self.weights = tuple(Fraction(w) for w in weights)
        if len(self.weights) != ct.num_irreps:
            raise ValueError("one weight per base irreducible required")
        if sum(self.weights) != 1 or any(w < 0 for w in self.weights):
            raise ValueError("weights must be a probability vector")
        if bases is None:
            bases = [(1,) if w else () for w in self.weights]
        self.bases = tuple(tuple(b) for b in bases)
        for w, base in zip(self.weights, self.bases):
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

    def _joint_moment(self, q: int, items) -> Fraction:
        shapes = self.shapes(q)
        out = Fraction(1)
        for slot, rows in items:
            out *= indicator_scalar(shapes[slot], rows)
        return out

    def canonical_measure(self, q: int) -> dict:
        return {self.shapes(q): Fraction(1)}

    def limits(self, max_index: int = 6):
        from .asymptotics import irreducible_limits

        return irreducible_limits(self, max_index=max_index + 1)

    def to_json(self) -> dict:
        from .groups import character_table_to_json

        return {
            "kind": self.kind,
            "group": character_table_to_json(self.ct),
            "weights": [_fraction_to_json(w) for w in self.weights],
            "bases": [list(b) for b in self.bases],
        }

    @classmethod
    def from_json(cls, doc) -> "IrreducibleFamily":
        weights = [_fraction_from_json(w) for w in doc["weights"]]
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
            doc[name] = _fraction_to_json(value) if name == "ratio" else value.to_json()
        return doc

    @classmethod
    def from_json(cls, doc) -> "_ConstructorFamily":
        def decode(name):
            return (_fraction_from_json if name == "ratio" else family_from_json)(doc[name])

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

    def enumeration_sizes(self, q: int) -> set[int]:
        return {q} | self.parent.enumeration_sizes(self.r_of(q))

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


class InducedFamily(_ConstructorFamily):
    """Induction from a family living on floor(ratio * q) points, ratio <= 1.

    The fresh points behave like independent regular-representation
    boxes: only pinned fixed points may land there, each contributing
    the slot's squared-dimension weight, while everything else must stay
    inside the embedded parent block.
    """

    kind = "induced"
    fields = ("ratio", "parent")

    def __init__(self, parent: RepFamily, ratio):
        super().__init__(parent.ct)
        self.parent = parent
        self.ratio = Fraction(ratio)
        if not 0 <= self.ratio <= 1:
            raise ValueError("induction ratio must lie in [0, 1]")

    def r_of(self, q: int) -> int:
        return math.floor(self.ratio * q)

    def enumeration_sizes(self, q: int) -> set[int]:
        return {q} | self.parent.enumeration_sizes(self.r_of(q))

    def regular_weight(self, slot: int) -> Fraction:
        dim = self.ct.irreps[slot].dim
        return Fraction(dim * dim, self.ct.group.order)

    def _joint_moment(self, q: int, items) -> Fraction:
        r = self.r_of(q)
        fresh = q - r
        ones = [sum(1 for v in rows if v == 1) for _, rows in items]
        total = Fraction(0)
        for outside in itertools.product(*(range(u + 1) for u in ones)):
            spill = sum(outside)
            weight = falling(fresh, spill)
            if not weight:
                continue
            reduced = []
            for (slot, rows), u, o in zip(items, ones, outside):
                weight *= math.comb(u, o) * self.regular_weight(slot) ** o
                kept = tuple(v for v in rows if v != 1) + (1,) * (u - o)
                if kept:
                    reduced.append((slot, tuple(sorted(kept, reverse=True))))
            total += weight * self.parent._joint_moment(r, tuple(reduced))
        return total

    def limits(self, max_index: int = 6):
        from .asymptotics import induce_limits

        return induce_limits(self.parent.limits(max_index), self.ratio, self.ct)


class OuterFamily(_ConstructorFamily):
    """Outer product: two independent blocks induced up to the full group.

    Every pinned cycle must land inside one block, rows of equal length
    split binomially, and the two blocks contribute independent parent
    moments at sizes floor(ratio * q) and the complement.
    """

    kind = "outer"
    fields = ("ratio", "left", "right")

    def __init__(self, left: RepFamily, right: RepFamily, ratio):
        if left.ct.num_irreps != right.ct.num_irreps:
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

    def enumeration_sizes(self, q: int) -> set[int]:
        q1, q2 = self.split_of(q)
        return {q} | self.left.enumeration_sizes(q1) | self.right.enumeration_sizes(q2)

    def _joint_moment(self, q: int, items) -> Fraction:
        q1, q2 = self.split_of(q)
        total = Fraction(0)
        # per slot, split the multiset of row lengths between the blocks
        slot_splits = []
        for slot, rows in items:
            mult: dict[int, int] = {}
            for v in rows:
                mult[v] = mult.get(v, 0) + 1
            options = []
            for take in itertools.product(*(range(m + 1) for m in mult.values())):
                ways = 1
                left_rows = []
                right_rows = []
                for (length, m), k in zip(mult.items(), take):
                    ways *= math.comb(m, k)
                    left_rows += [length] * k
                    right_rows += [length] * (m - k)
                options.append(
                    (
                        ways,
                        tuple(sorted(left_rows, reverse=True)),
                        tuple(sorted(right_rows, reverse=True)),
                    )
                )
            slot_splits.append((slot, options))
        for combo in itertools.product(*(opts for _, opts in slot_splits)):
            ways = 1
            left_items = []
            right_items = []
            for (slot, _), (w, lrows, rrows) in zip(slot_splits, combo):
                ways *= w
                if lrows:
                    left_items.append((slot, lrows))
                if rrows:
                    right_items.append((slot, rrows))
            total += (
                ways
                * self.left._joint_moment(q1, tuple(left_items))
                * self.right._joint_moment(q2, tuple(right_items))
            )
        return total

    def limits(self, max_index: int = 6):
        from .asymptotics import outer_limits

        return outer_limits(
            self.left.limits(max_index), self.right.limits(max_index), self.ratio
        )


class TensorFamily(_ConstructorFamily):
    """Pointwise tensor product of two families' representations.

    Normalized characters multiply element by element, which has no
    indicator-level product rule, so exact moments are only available at
    the explicit enumeration scale.
    """

    kind = "tensor"
    fields = ("left", "right")

    def __init__(self, left: RepFamily, right: RepFamily):
        if left.ct.num_irreps != right.ct.num_irreps:
            raise ValueError("tensor factors must share the base group")
        super().__init__(left.ct)
        self.left = left
        self.right = right

    def _joint_moment(self, q: int, items) -> Fraction:
        from .bruteforce import tensor_joint_moment

        return tensor_joint_moment(self, q, items)

    def enumeration_sizes(self, q: int) -> set[int]:
        return {q} | self.left.enumeration_sizes(q) | self.right.enumeration_sizes(q)

    def limits(self, max_index: int = 6):
        from .asymptotics import tensor_limits

        return tensor_limits(self.left, self.right)


def _fraction_to_json(f: Fraction):
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _fraction_from_json(v) -> Fraction:
    if isinstance(v, str):
        num, _, den = v.partition("/")
        return Fraction(int(num), int(den or 1))
    return Fraction(v)


def _group_from_json(doc) -> CharacterTable:
    from .groups import builtin_group, character_table_from_json

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
