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
outer-product, and tensor constructions on top of other families.  The
size-q measure of every kind but ``irreducible``, a point mass, inverts
the joint moments that pin all q points by S_n column orthogonality, and
a tensor reads its moments off its factors' characters at the pinned
cycles (``cycle_characters``), so no family states a class function and
no moment reads a measure.  A family whose ``boxes`` is set is an
independent-box family: its moments, limit table and draws are that family's.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

from .cyclotomics import conjugate_value, value_as_fraction
from .errors import Infeasible, InputError, NoLimitTable
from .groups import CharacterTable, _coeff_from_json, _coeff_to_json, builtin_group
from .groups import character_table_from_json, character_table_to_json, validate_character_table
from .indicators import IndicatorSum
from .partitions import character as sym_character
from .partitions import dimension, is_partition, partitions_of


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

# One budget for the measure and character paths: a measure's irreducibles,
# charged before its first moment, and the (moment, irreducible) pairs it
# sums, before the first pair; and the products ``cycle_characters`` makes,
# before its first moment.
MAX_CLASS_WORK = 2 * 10**4

# Moments and joint moments one family keeps: a cumulant asks for the
# moment of every block of every set partition, and a command's rows,
# conditions and q grid ask again.  Past the bound the oldest goes first.
MOMENT_MEMO_SIZE = 2**12


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


def wreath_order(ct: CharacterTable, q: int) -> int:
    return ct.group.order**q * math.factorial(q)


def _split_ways(ct: CharacterTable, t, sizes) -> dict:
    """The splits of type t's cycles among the slots, summed per cycle lengths.

    A split gives slot rho cycles of |lam^rho| points in all; a slot takes
    no cycle of a G-class its irreducible vanishes on.  The cycles of
    sorted(t) go out one at a time, and a state is (room per slot, cycle
    lengths per slot, ascending).  Its value is the sum, over the
    cycle-to-slot assignments behind it, of the product of the slot
    characters at the cycles' colour classes; equal states merge by
    adding values.  Returns {lengths per slot: that sum}.
    """
    irreps = ct.irreps
    states = {(tuple(sizes), ((),) * len(irreps)): 1}
    for length, g_class in sorted(t):
        merged: dict[tuple, object] = {}
        for (room, lengths), value in states.items():
            for rho, irrep in enumerate(irreps):
                chi = irrep.values[g_class]
                if room[rho] < length or not chi:
                    continue
                room2, lengths2 = list(room), list(lengths)
                room2[rho] -= length
                lengths2[rho] += (length,)
                key = (tuple(room2), tuple(lengths2))
                merged[key] = merged.get(key, 0) + value * chi
        states = merged
    return {lengths: value for (_, lengths), value in states.items()}


def class_values(ct: CharacterTable, lam_tuples, t) -> list:
    """The values on the class of type t of irreducibles with one slot-size vector.

    An irreducible is induced from the block subgroup
    prod_rho G wr S_{|lam^rho|}, and the blocks an element fixes are the
    splits of its cycles that fill slot rho with exactly |lam^rho| points.
    Each split contributes the product of the slot characters at its
    cycles' colour classes times, per slot, the symmetric-group character
    at the lengths the slot received.  The splits depend on the sizes
    alone, so they are walked once for all the irreducibles, and an
    irreducible weighs each colour sum by its integer character product.
    A value is an int unless a colour sum with a nonzero weight is
    cyclotomic, and then a cyclotomic number over the lcm of their orders.
    """
    colours = _split_ways(ct, t, map(sum, lam_tuples[0])).items()
    out = []
    for lam_tuple in lam_tuples:
        value = 0
        for lengths, colour in colours:
            weight = math.prod(map(sym_character, lam_tuple, lengths))
            if weight:
                value += weight * colour
        out.append(value)
    return out


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


def _truncate(summ: IndicatorSum, q: int) -> IndicatorSum:
    # indicators needing more than q points are the zero element at size q
    kept = {rows: c for rows, c in summ.terms.items() if sum(rows) <= q}
    if len(kept) == len(summ.terms):
        return summ
    return IndicatorSum(kept)


def _normalize_factors(factors, q: int):
    """Group mixed (slot, rows-or-IndicatorSum) factors into one sum per slot.

    Terms that cannot be supported at size q are dropped before and after
    each product; this is exact and keeps the structure constant expansion
    small.
    """
    per_slot: dict[int, IndicatorSum] = {}
    for slot, item in factors:
        item = _truncate(IndicatorSum.of(item), q)
        per_slot[slot] = _truncate(per_slot[slot] * item, q) if slot in per_slot else item
    return dict(sorted(per_slot.items()))


def factorized_character(lam_tuple, factors) -> Fraction:
    """Normalized character of a product of per-slot indicators.

    Factors sharing a slot are multiplied inside that slot's indicator
    algebra; the result is the product over slots of the scalar through
    which the slot's indicator acts on the slot's partition.
    """
    per_slot = _normalize_factors(factors, sum(map(sum, lam_tuple)))
    out = Fraction(1)
    for slot, summ in per_slot.items():
        out *= summ.scalar_on(lam_tuple[slot])
    return out


FAMILY_KINDS: dict[str, type] = {}  # kind -> class; every RepFamily subclass enters itself


class RepFamily:
    """A q-indexed family of probability measures on partition tuples.

    Every family kind states its own joint moment rule for one
    cross-disjoint indicator term.  The public ``moment`` accepts arbitrary
    per-slot indicator data and reduces products inside each slot first.
    Both are remembered by value, up to ``MOMENT_MEMO_SIZE`` entries.
    """

    kind = "abstract"
    fields: tuple[str, ...] = ()  # descriptor keys in output order, coded by ``_FIELDS``
    # the ``example1`` family this one equals, where its kind's tree shows one
    boxes = None

    def __init_subclass__(cls):
        FAMILY_KINDS[cls.kind] = cls

    def __init__(self, ct: CharacterTable):
        self.ct = ct
        self._memo: dict = {}

    def _remember(self, key, value):
        if len(self._memo) >= MOMENT_MEMO_SIZE:
            del self._memo[next(iter(self._memo))]
        self._memo[key] = value
        return value

    def moment(self, q: int, factors) -> Fraction:
        """Expectation of a product of per-slot indicators at size q."""
        factors = [(slot, IndicatorSum.of(item)) for slot, item in factors]
        # products inside a slot commute, so the multiset of factors decides
        # the moment; a frozenset key never equals a joint moment's tuple
        key = (q, frozenset(Counter(factors).items()))
        if key in self._memo:
            return self._memo[key]
        if bad := sorted(slot for slot, _ in factors if not 0 <= slot < self.ct.num_irreps):
            raise InputError(f"factor slot {bad[0]} is out of range for {self.ct.num_irreps} slots")
        if any(r < 1 for _, summ in factors for rows in summ.terms for r in rows):
            raise InputError("moment rows must be at least 1")
        per_slot = _normalize_factors(factors, q)
        total = Fraction(0)
        for combo in itertools.product(*(summ.terms.items() for summ in per_slot.values())):
            items = tuple((slot, rows) for slot, (rows, _) in zip(per_slot, combo) if rows)
            total += math.prod(c for _, c in combo) * self.joint_moment(q, items)
        return self._remember(key, total)

    def joint_moment(self, q: int, items) -> Fraction:
        """``_joint_moment``, remembered by (q, items); rows start at 1, as in ``moment``."""
        key = (q, items)
        if key in self._memo:
            return self._memo[key]
        if any(r < 1 for _, rows in items for r in rows):
            raise InputError("moment rows must be at least 1")
        return self._remember(key, (self.boxes or self)._joint_moment(q, items))

    def _joint_moment(self, q: int, items) -> Fraction:
        """E of one cross-disjoint joint indicator; items = ((slot, rows), ...)."""
        raise NotImplementedError

    def to_json(self) -> dict:
        """The descriptor: ``kind``, then every set field in ``fields`` order."""
        doc = {"kind": self.kind}
        for key in self.fields:
            attr, encode, _ = _FIELDS[key]
            if (value := getattr(self, attr)) is not None:
                doc[key] = encode(value)
        return doc

    @staticmethod
    def from_json(doc) -> "RepFamily":
        """Build a family from its descriptor; a key outside its kind's ``fields`` is refused."""
        if not isinstance(doc, dict):
            raise ValueError("a family descriptor must be a JSON object")
        if (cls := FAMILY_KINDS.get(doc.get("kind"))) is None:
            raise ValueError(f"unknown family kind: {doc.get('kind')!r}")
        if stray := [key for key in doc if key != "kind" and key not in cls.fields]:
            raise ValueError(f"unknown {cls.kind} descriptor key {stray[0]!r}")
        if null := [key for key, value in doc.items() if value is None]:
            raise ValueError(f"{cls.kind} descriptor key {null[0]!r} is null; omit it instead")
        params = inspect.signature(cls).parameters
        args = {}
        for key in cls.fields:
            attr, _, decode = _FIELDS[key]
            # a missing key the constructor needs is a KeyError naming it
            if key in doc or params[attr].default is inspect.Parameter.empty:
                args[attr] = decode(doc[key])
        return cls(**args)

    def limits(self, max_index: int = 6):
        """Limit table (``asymptotics.LimitParameters``): the closed form where ``boxes`` is set."""
        if self.boxes:
            from .asymptotics import example1_limits

            return example1_limits(self.boxes.weights, max_l=max_index)
        raise NoLimitTable(f"no limit table for family kind {self.kind!r}")

    def canonical_measure(self, q: int) -> dict:
        """Probability of each partition tuple under the size-q measure.

        The joint moment M(rho) that pins all q points, rho_z |- n_z in
        slot z, sees only the tuples with |lam^z| = n_z, on which the
        indicator of rho_z acts by n_z! chi^lam^z(rho_z) / dim lam^z.  So
        column orthogonality in each S_(n_z) inverts the moments of one
        slot-size block, with integer characters (Macdonald ch. I §7):

            P(Lam) = prod_z (dim lam^z / n_z!) sum_rho M(rho) prod_z chi^lam^z(rho_z) / z(rho_z)

        Budget, against ``MAX_CLASS_WORK``: the irreducibles are charged
        before the first moment, and the (rho, Lam) pairs as each nonzero
        moment adds its block's, before the first pair.  Only ``irreducible``,
        a point mass, overrides this.
        """
        check_class_budget(q, _capped_count(self.ct.num_irreps, q))
        blocks, pairs = [], 0
        for lam_tuples in irreps_by_sizes(self.ct, q).values():
            weights = {}  # rho: M(rho) / prod_z z(rho_z), on the nonzero moments
            for rho in lam_tuples:
                if m := self.joint_moment(q, tuple((z, r) for z, r in enumerate(rho) if r)):
                    pairs += len(lam_tuples)
                    check_class_budget(q, pairs)
                    z = (k**c * math.factorial(c) for r in rho for k, c in Counter(r).items())
                    weights[rho] = m / math.prod(z)
            if weights:
                blocks.append((lam_tuples, weights))
        chi, out = functools.cache(sym_character), {}
        for lam_tuples, weights in blocks:
            # the sums run on integer numerators over one denominator per block
            common = math.lcm(*(w.denominator for w in weights.values()))
            numerators = [(rho, int(w * common)) for rho, w in weights.items()]
            common *= math.prod(math.factorial(sum(lam)) for lam in lam_tuples[0])
            for lam_tuple in lam_tuples:
                total = sum(n * math.prod(map(chi, lam_tuple, rho)) for rho, n in numerators)
                if total:
                    out[lam_tuple] = Fraction(total * math.prod(map(dimension, lam_tuple)), common)
        return out


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
    fields = ("group", "multiplicities", "weights")

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
        return math.perm(q, total_ones) * prod

    @property
    def boxes(self) -> "Example1Family":
        return self

    def to_json(self) -> dict:
        # given multiplicities imply the weights, so only they are written
        doc = super().to_json()
        if self.multiplicities is not None:
            del doc["weights"]
        return doc


class IrreducibleFamily(RepFamily):
    """Deterministic balanced shapes: one fixed tuple of partitions per q.

    Each slot receives a near-floor(weight * q) share of the boxes filled
    by ``_fill``: an integer dilation of a base diagram plus leftover rows.
    The shape is the exact dilation only at sizes n = t^2 |base|, and only
    there do its scaled free cumulants equal the limit table's.  Moments
    are plain products of scalars.
    """

    kind = "irreducible"
    fields = ("group", "weights", "bases")

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
        """Dilate the base by t = isqrt(n // |base|), then append the rest as rows.

        The n - t^2 |base| leftover boxes go into rows of width t * base[-1].
        They vanish only when n = t^2 |base|; elsewhere they are not
        negligible at the sqrt(n) scaling: base (3) at n = 24 gets 12
        leftover boxes and is a 4x6 rectangle, not the 2x6 dilation.
        """
        if n == 0:
            return ()
        size = sum(base)
        t = math.isqrt(n // size)
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
        return factorized_character(self.shapes(q), items)

    def canonical_measure(self, q: int) -> dict:
        return {self.shapes(q): Fraction(1)}

    def limits(self, max_index: int = 6):
        from .asymptotics import irreducible_limits

        return irreducible_limits(self, max_index=max_index + 1)


class RestrictedFamily(RepFamily):
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

    @functools.cached_property
    def boxes(self) -> Example1Family | None:
        # restricting an independent-box family gives it back
        return self.parent.boxes

    def r_of(self, q: int) -> int:
        return math.floor(self.ratio * q)

    def _joint_moment(self, q: int, items) -> Fraction:
        r = self.r_of(q)
        total = sum(sum(rows) for _, rows in items)
        if total > q:
            return Fraction(0)
        parent_value = self.parent.joint_moment(r, items)
        return Fraction(math.perm(q, total), math.perm(r, total)) * parent_value

    def limits(self, max_index: int = 6):
        from .asymptotics import restrict_limits

        return restrict_limits(self.parent.limits(max_index), 1 / self.ratio)


def _row_splits(rows, left_cap, right_cap):
    """(ways, left, right): each split of rows between the two blocks, no row past its block's cap.

    Taking k of the m rows of one length gives C(m, k) ways; both row
    tuples stay in descending order.
    """
    cells = sorted(Counter(rows).items(), reverse=True)
    # the left block takes k of the m rows of one length: none past its
    # cap, and all of them past the right block's
    takes = [
        range(m if length > right_cap else 0, (0 if length > left_cap else m) + 1)
        for length, m in cells
    ]
    for take in itertools.product(*takes):
        ways = math.prod(math.comb(m, k) for (_, m), k in zip(cells, take))
        left = tuple(length for (length, _), k in zip(cells, take) for _ in range(k))
        right = tuple(length for (length, m), k in zip(cells, take) for _ in range(m - k))
        yield ways, left, right


class OuterFamily(RepFamily):
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

    @functools.cached_property
    def boxes(self) -> Example1Family | None:
        # one fibre in both blocks: sum_k C(m, k) falling(q1, k) falling(q2, m - k)
        # = falling(q, m), so left-regular induction keeps an independent-box family
        left, right = self.left.boxes, self.right.boxes
        return left if left and right and left.weights == right.weights else None

    def split_of(self, q: int) -> tuple[int, int]:
        q1 = math.floor(self.ratio * q)
        return q1, q - q1

    def _joint_moment(self, q: int, items) -> Fraction:
        q1, q2 = self.split_of(q)
        # a block with ``boxes`` set is 0 on a row longer than 1: no split hands it one
        caps = [1 if fam.boxes else math.inf for fam in (self.left, self.right)]
        splits = [[(slot, *split) for split in _row_splits(rows, *caps)] for slot, rows in items]
        pinned, total = sum(sum(rows) for _, rows in items), Fraction(0)
        for combo in itertools.product(*splits):
            # a block pinning more points than it has is 0 on any family
            if not pinned - q2 <= sum(sum(l) for _, _, l, _ in combo) <= q1:
                continue
            right = self.right.joint_moment(q2, tuple((s, r) for s, _, _, r in combo if r))
            if right:
                left = self.left.joint_moment(q1, tuple((s, l) for s, _, l, _ in combo if l))
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
        """The outer table, its covariances withheld before ``outer_limits`` builds any."""
        from .asymptotics import outer_limits

        parent = dataclasses.replace(self.parent.limits(max_index), cov=None)
        return outer_limits(parent, self.right.limits(max_index), self.ratio)


def cycle_characters(family: RepFamily, q: int, lengths) -> dict:
    """{(c_1..c_n): chi / dim at cycles (l_i, c_i) plus q - L identity fixed points}, nonzero.

    That is falling(q, L)^-1 sum_z prod_i chi_{z_i}(c_i) d_{z_i}^-l_i M(z), with M(z) the
    joint moment pinning cycle i in slot z_i (Macdonald ch. I app. B).  The terms go over one
    denominator and turn from slots into classes one cycle at a time, on integer numerators.
    """
    memo = (q, tuple(lengths), "characters")  # moment keys are pairs: it never equals one
    if memo in family._memo:
        return family._memo[memo]
    irreps, n = family.ct.irreps, len(lengths)
    check_class_budget(q, n * len(irreps) ** (n + 1))  # the products it makes
    terms = {}
    for slots in itertools.product(range(len(irreps)), repeat=n):
        cycles = sorted(zip(slots, lengths), key=lambda cycle: (cycle[0], -cycle[1]))
        runs = itertools.groupby(cycles, operator.itemgetter(0))
        moment = family.joint_moment(q, tuple((z, tuple(l for _, l in run)) for z, run in runs))
        terms[slots] = moment / math.prod(irreps[z].dim**l for z, l in zip(slots, lengths))
    denominator = math.lcm(*(m.denominator for m in terms.values()))
    values = {key: m.numerator * (denominator // m.denominator) for key, m in terms.items() if m}
    for i in range(n):
        turned: Counter = Counter()
        for key, value in values.items():
            for c, chi in enumerate(irreps[key[i]].values):
                turned[key[:i] + (c,) + key[i + 1 :]] += value * chi
        values = turned
    scale = Fraction(1, denominator * math.perm(q, sum(lengths)))
    return family._remember(memo, {key: value * scale for key, value in values.items() if value})


class TensorFamily(RepFamily):
    """Pointwise tensor product of two families' representations.

    Normalized characters multiply class by class, which has no
    indicator-level product rule.  So a joint moment multiplies the factors'
    ``cycle_characters`` and reads the product by column orthogonality.
    Where both factors are independent-box families, so is the tensor
    (``boxes``), and ``RepFamily`` takes that family's moments and table.
    """

    kind = "tensor"
    fields = ("left", "right")

    def __init__(self, left: RepFamily, right: RepFamily):
        if left.ct != right.ct:
            raise ValueError("tensor factors must share the base group")
        super().__init__(left.ct)
        self.left = left
        self.right = right

    @functools.cached_property
    def boxes(self) -> Example1Family | None:
        """The independent-box family whose slot weights are the one-box moments, if any.

        Two independent-box fibres multiply into one fibre, and at q = 1 the
        one-box moment of slot z is that fibre's weight: dim_z times its
        class-size-weighted inner product with chi_z.
        """
        if self.left.boxes and self.right.boxes:
            weights = [self._joint_moment(1, ((z, (1,)),)) for z in range(self.ct.num_irreps)]
            return Example1Family(self.ct, weights=weights)
        return None

    def _joint_moment(self, q: int, items) -> Fraction:
        # (length, slot) order: one factor table serves every order of the same lengths
        cycles = sorted((length, z) for z, rows in items for length in rows)
        lengths = [length for length, _ in cycles]
        if sum(lengths) > q:
            return Fraction(0)
        left, right = (cycle_characters(fam, q, lengths) for fam in (self.left, self.right))
        shares = [Fraction(len(c), self.ct.group.order) for c in self.ct.group.conjugacy_classes]
        irreps, total = self.ct.irreps, 0
        for key, value in left.items():
            # a cycle of length l in slot z at G-class c weighs |c| / |G| conj chi_z(c) d_z^l
            for c, (length, z) in zip(key, cycles):
                value *= shares[c] * conjugate_value(irreps[z].values[c]) * irreps[z].dim**length
            total += value * right.get(key, 0)
        return value_as_fraction(total * math.perm(q, sum(lengths)))


def _group_from_json(doc) -> CharacterTable:
    """A builtin group by name, or an inline character table once it validates."""
    if isinstance(doc, str):
        return builtin_group(doc)
    ct = character_table_from_json(doc)
    if problems := validate_character_table(ct):
        raise ValueError(f"invalid character table: {problems[0]}")
    return ct


def _weights_from_json(weights) -> list[Fraction]:
    # a string is iterable too, but its characters are no weights
    if not isinstance(weights, list):
        raise ValueError(f"weights must be a list, one per base irreducible: {weights!r}")
    return [*map(_coeff_from_json, weights)]


family_from_json = RepFamily.from_json  # groups inline or by name


# descriptor key -> (attribute, which is also the constructor argument, encoder, decoder)
_FIELDS = {
    "group": ("ct", character_table_to_json, _group_from_json),
    "ratio": ("ratio", _coeff_to_json, _coeff_from_json),
    "weights": ("weights", lambda w: [*map(_coeff_to_json, w)], _weights_from_json),
    "multiplicities": ("multiplicities", list, lambda mults: mults),
    "bases": ("bases", lambda bases: [*map(list, bases)], lambda bases: bases),
    **{k: (k, lambda fam: fam.to_json(), family_from_json) for k in ("parent", "left", "right")},
}
