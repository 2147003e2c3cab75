"""Explicit wreath-product computations at enumeration scale.

Everything here works with the full element list of the wreath product
of a small base group with a small symmetric group: multiplication,
conjugacy classes, irreducible characters by the induced-character
formula over a block subgroup, images of indicators in the group
algebra, and normalized characters of every representation family.
These serve as the ground truth that the closed-form moment rules and
the factorized character are tested against.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from .cyclotomics import conjugate_value, value_as_fraction
from .groups import CharacterTable, projection_coefficients
from .partitions import character as sym_character
from .partitions import dimension
from .wreath import (
    Example1Family,
    RepFamily,
    _normalize_factors,
    enumerate_irreps,
    wreath_dimension,
)

Element = tuple[tuple[int, ...], tuple[int, ...]]

# Largest wreath group built element by element.  WreathGroup is the only
# code that allocates group elements, so this one budget decides feasibility.
MAX_ELEMENTS = 50000


def w_mul(gmult, a: Element, b: Element) -> Element:
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


def w_inv(group, a: Element) -> Element:
    v, p = a
    q = len(p)
    pinv = [0] * q
    for i, image in enumerate(p):
        pinv[image] = i
    colors = tuple(group.inverse[v[p[j]]] for j in range(q))
    return colors, tuple(pinv)


class WreathGroup:
    """Full element enumeration of one wreath product."""

    def __init__(self, ct: CharacterTable, q: int):
        order = ct.group.order**q * math.factorial(q)
        if order > MAX_ELEMENTS:
            raise ValueError(
                f"the wreath group at q={q} has {order} elements, past the "
                f"enumeration budget of {MAX_ELEMENTS}"
            )
        self.ct = ct
        self.q = q
        group = ct.group
        self.order = order
        perms = list(itertools.permutations(range(q)))
        self.elements: list[Element] = [
            (colors, perm)
            for colors in itertools.product(range(group.order), repeat=q)
            for perm in perms
        ]
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.identity = self.index[((group.identity,) * q, tuple(range(q)))]
        self._gen_indices = self._generators()
        self.classes = self._conjugacy_classes()
        self.class_of = [0] * self.order
        for k, cls in enumerate(self.classes):
            for i in cls:
                self.class_of[i] = k
        self._conj_counters: dict[int, list] = {}
        self._characters: dict[tuple, list] = {}

    def mul(self, a: int, b: int) -> int:
        return self.index[w_mul(self.ct.group.mult, self.elements[a], self.elements[b])]

    def inv(self, a: int) -> int:
        return self.index[w_inv(self.ct.group, self.elements[a])]

    def _generators(self) -> list[int]:
        group = self.ct.group
        gens = []
        for g in range(group.order):
            if g == group.identity:
                continue
            colors = (g,) + (group.identity,) * (self.q - 1)
            gens.append(self.index[(colors, tuple(range(self.q)))])
        for i in range(self.q - 1):
            perm = list(range(self.q))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            gens.append(self.index[((group.identity,) * self.q, tuple(perm))])
        return gens

    def _conjugacy_classes(self):
        seen = [False] * self.order
        classes = []
        for start in range(self.order):
            if seen[start]:
                continue
            orbit = {start}
            frontier = [start]
            seen[start] = True
            while frontier:
                x = frontier.pop()
                for s in self._gen_indices:
                    y = self.mul(self.mul(s, x), self.inv(s))
                    if not seen[y]:
                        seen[y] = True
                        orbit.add(y)
                        frontier.append(y)
            classes.append(tuple(sorted(orbit)))
        classes.sort(key=lambda cls: (self.identity not in cls, min(cls)))
        return tuple(classes)

    def conjugates_of_class(self, class_index: int):
        """Counter of y * rep * y^-1 over all y, for the class representative."""
        if class_index not in self._conj_counters:
            rep = self.classes[class_index][0]
            counter: Counter = Counter()
            for y in range(self.order):
                counter[self.mul(self.mul(y, rep), self.inv(y))] += 1
            self._conj_counters[class_index] = counter
        return self._conj_counters[class_index]

    # ------------------------------------------------------------ characters

    def _blocks(self, sizes) -> list[tuple[int, int]]:
        out = []
        start = 0
        for n in sizes:
            out.append((start, start + n))
            start += n
        assert start == self.q
        return out

    def _preserves_blocks(self, perm, blocks) -> bool:
        return all(
            all(start <= perm[i] < end for i in range(start, end))
            for start, end in blocks
        )

    def _block_character(self, element: Element, blocks, lam_tuple):
        """Character of the block subgroup: one twisted irreducible per block."""
        colors, perm = element
        group = self.ct.group
        value = 1
        for slot, (start, end) in enumerate(blocks):
            lam = lam_tuple[slot]
            lengths = []
            seen = set()
            pinv = {perm[i]: i for i in range(start, end)}
            for c0 in range(start, end):
                if c0 in seen:
                    continue
                # walk the cycle backwards, multiplying colors as we go
                g = colors[c0]
                seen.add(c0)
                point = pinv[c0]
                length = 1
                while point != c0:
                    seen.add(point)
                    g = group.mult[g][colors[point]]
                    point = pinv[point]
                    length += 1
                lengths.append(length)
                value = value * self.ct.value(slot, g)
                if value == 0:
                    return 0
            value = value * sym_character(lam, tuple(sorted(lengths, reverse=True)))
        return value

    def irreducible_character(self, lam_tuple) -> list:
        """Class-function values of the irreducible for one partition tuple."""
        key = tuple(lam_tuple)
        if key in self._characters:
            return self._characters[key]
        sizes = [sum(lam) for lam in lam_tuple]
        blocks = self._blocks(sizes)
        subgroup_order = 1
        for n in sizes:
            subgroup_order *= self.ct.group.order**n * math.factorial(n)
        values = []
        for k in range(len(self.classes)):
            total = 0
            for idx, count in self.conjugates_of_class(k).items():
                x = self.elements[idx]
                if self._preserves_blocks(x[1], blocks):
                    total = total + count * self._block_character(x, blocks, lam_tuple)
            values.append(Fraction(1, subgroup_order) * total)
        self._characters[key] = values
        return values

    def class_sizes(self) -> list[int]:
        return [len(cls) for cls in self.classes]


_WREATH_CACHE: dict[tuple[int, int], WreathGroup] = {}
_CACHE_KEEPALIVE: list = []


def wreath_group(ct: CharacterTable, q: int) -> WreathGroup:
    key = (id(ct), q)
    if key not in _WREATH_CACHE:
        _WREATH_CACHE[key] = WreathGroup(ct, q)
        _CACHE_KEEPALIVE.append(ct)
    return _WREATH_CACHE[key]


# ---------------------------------------------------------- algebra images


def phi_image(wg: WreathGroup, slot: int, pp) -> dict[int, object]:
    """Image of one partial permutation under the slot's twisted embedding.

    Support coordinates average over the group with the isotypic
    projection's coefficients; all other coordinates stay at identity.
    Each cycle of length k also carries a factor dim**(k-1): the k color
    projections collapse to a single one around the cycle, and without
    the factor the normalized trace of the image would come out a power
    of dim too small on every irreducible.
    """
    group = wg.ct.group
    proj = projection_coefficients(wg.ct, slot)
    dim = wg.ct.irreps[slot].dim
    mapping = dict(pp)
    support = sorted(mapping)
    cycles = _cycle_count(mapping)
    scale = dim ** (len(support) - cycles)
    perm = list(range(wg.q))
    for a, b in mapping.items():
        perm[a] = b
    perm = tuple(perm)
    out: dict[int, object] = {}
    for assignment in itertools.product(range(group.order), repeat=len(support)):
        coeff = scale
        colors = [group.identity] * wg.q
        for point, g in zip(support, assignment):
            coeff = coeff * proj[g]
            colors[point] = g
        if coeff == 0:
            continue
        idx = wg.index[(tuple(colors), perm)]
        out[idx] = out.get(idx, 0) + coeff
    return out


def _cycle_count(mapping: dict) -> int:
    seen = set()
    count = 0
    for start in mapping:
        if start in seen:
            continue
        count += 1
        point = start
        while point not in seen:
            seen.add(point)
            point = mapping[point]
    return count


def indicator_image(wg: WreathGroup, slot: int, summ) -> dict[int, object]:
    """Image of an IndicatorSum (or plain rows tuple) in the group algebra."""
    from .indicators import IndicatorSum, expand_indicator

    if not isinstance(summ, IndicatorSum):
        summ = IndicatorSum.indicator(tuple(summ))
    out: dict[int, object] = {}
    for rows, coeff in summ.terms.items():
        for pp, count in expand_indicator(rows, wg.q).items():
            for idx, c in phi_image(wg, slot, pp).items():
                out[idx] = out.get(idx, 0) + coeff * count * c
    return out


def algebra_product(wg: WreathGroup, a: dict, b: dict) -> dict[int, object]:
    out: dict[int, object] = {}
    for i, ci in a.items():
        for j, cj in b.items():
            k = wg.mul(i, j)
            out[k] = out.get(k, 0) + ci * cj
    return out


def normalized_trace(wg: WreathGroup, lam_tuple, algebra: dict) -> Fraction:
    """Normalized character of the irreducible on a group-algebra element."""
    values = wg.irreducible_character(lam_tuple)
    dim = wreath_dimension(wg.ct, lam_tuple)
    total = 0
    for idx, coeff in algebra.items():
        total = total + coeff * values[wg.class_of[idx]]
    return value_as_fraction(total * Fraction(1, dim))


def tensor_algebra_image(wg: WreathGroup, factors) -> dict[int, object]:
    """Group-algebra image of a product of per-slot indicator sums."""
    per_slot = _normalize_factors(factors)
    out = {wg.identity: 1}
    for slot, summ in per_slot.items():
        out = algebra_product(wg, out, indicator_image(wg, slot, summ))
    return out


# ------------------------------------------------------- family characters


_FAMILY_VALUES_CACHE: dict[tuple[int, int], list] = {}


def family_character_values(family: RepFamily, q: int) -> list:
    """Normalized character of the family's representation, per element."""
    key = (id(family), q)
    if key not in _FAMILY_VALUES_CACHE:
        _FAMILY_VALUES_CACHE[key] = _family_values(family, q)
        _CACHE_KEEPALIVE.append(family)
    return _FAMILY_VALUES_CACHE[key]


def _family_values(family: RepFamily, q: int) -> list:
    kind = family.kind
    if kind == "restricted":
        return _restricted_values(family, q)
    wg = wreath_group(family.ct, q)
    if kind == "example1":
        return _example1_values(family, wg)
    if kind == "irreducible":
        shapes = family.shapes(q)
        values = wg.irreducible_character(shapes)
        dim = wreath_dimension(wg.ct, shapes)
        return [values[wg.class_of[i]] * Fraction(1, dim) for i in range(wg.order)]
    if kind == "induced":
        return _induced_values(family, wg)
    if kind == "outer":
        return _outer_values(family, wg)
    if kind == "tensor":
        left = family_character_values(family.left, q)
        right = family_character_values(family.right, q)
        return [a * b for a, b in zip(left, right)]
    raise ValueError(f"no explicit character for kind {kind!r}")


def _example1_values(family: Example1Family, wg: WreathGroup) -> list:
    if family.multiplicities is None:
        raise ValueError("explicit character needs integer multiplicities")
    ct = family.ct
    fibre_char = [
        sum(m * ct.value(slot, g) for slot, m in enumerate(family.multiplicities))
        for g in range(ct.group.order)
    ]
    fibre_dim = sum(m * r.dim for m, r in zip(family.multiplicities, ct.irreps))
    identity_perm = tuple(range(wg.q))
    values = []
    for colors, perm in wg.elements:
        if perm != identity_perm:
            values.append(Fraction(0))
            continue
        value = Fraction(1, fibre_dim**wg.q)
        for g in colors:
            value = value * fibre_char[g]
        values.append(value)
    return values


def _restricted_values(family, q: int) -> list:
    # the parent lives on r >= q points: enumerating its larger group first
    # lets an over-budget request fail before the smaller group is built
    r = family.r_of(q)
    parent_values = family_character_values(family.parent, r)
    parent_wg = wreath_group(family.ct, r)
    group = family.ct.group
    out = []
    for colors, perm in wreath_group(family.ct, q).elements:
        embedded = (
            colors + (group.identity,) * (r - q),
            perm + tuple(range(q, r)),
        )
        out.append(parent_values[parent_wg.index[embedded]])
    return out


def _induced_values(family, wg: WreathGroup) -> list:
    q = wg.q
    r = family.r_of(q)
    parent_values = family_character_values(family.parent, r)
    parent_wg = wreath_group(family.ct, r)
    group = family.ct.group
    out = [0] * wg.order
    per_class = []
    for k in range(len(wg.classes)):
        total = 0
        for idx, count in wg.conjugates_of_class(k).items():
            colors, perm = wg.elements[idx]
            if any(perm[i] != i for i in range(r, q)):
                continue
            if any(colors[i] != group.identity for i in range(r, q)):
                continue
            inner = (colors[:r], perm[:r])
            total = total + count * parent_values[parent_wg.index[inner]]
        per_class.append(total * Fraction(1, wg.order))
    for i in range(wg.order):
        out[i] = per_class[wg.class_of[i]]
    return out


def _outer_values(family, wg: WreathGroup) -> list:
    q = wg.q
    q1, q2 = family.split_of(q)
    left_values = family_character_values(family.left, q1)
    right_values = family_character_values(family.right, q2)
    left_wg = wreath_group(family.ct, q1)
    right_wg = wreath_group(family.ct, q2)
    per_class = []
    for k in range(len(wg.classes)):
        total = 0
        for idx, count in wg.conjugates_of_class(k).items():
            colors, perm = wg.elements[idx]
            if any(perm[i] >= q1 for i in range(q1)):
                continue
            first = (colors[:q1], perm[:q1])
            second = (colors[q1:], tuple(p - q1 for p in perm[q1:]))
            total = total + count * (
                left_values[left_wg.index[first]]
                * right_values[right_wg.index[second]]
            )
        per_class.append(total * Fraction(1, wg.order))
    return [per_class[wg.class_of[i]] for i in range(wg.order)]


# ------------------------------------------------------------ brute moments


def brute_moment(family: RepFamily, q: int, factors) -> Fraction:
    """Family moment computed from the explicit normalized character."""
    wg = wreath_group(family.ct, q)
    values = family_character_values(family, q)
    algebra = tensor_algebra_image(wg, factors)
    total = 0
    for idx, coeff in algebra.items():
        total = total + coeff * values[idx]
    return value_as_fraction(total)


def tensor_joint_moment(family, q: int, items) -> Fraction:
    """Exact joint moment for a tensor family via full enumeration."""
    return brute_moment(family, q, [(slot, rows) for slot, rows in items])


def measure_from_character(wg: WreathGroup, values) -> dict:
    """Decompose a normalized character into the probability it induces.

    The mass of one irreducible is its multiplicity times its dimension
    over the total dimension, all read off from exact inner products.
    """
    sizes = wg.class_sizes()
    out = {}
    for lam_tuple in enumerate_irreps(wg.ct, wg.q):
        chi = wg.irreducible_character(lam_tuple)
        total = 0
        for k, cls_size in enumerate(sizes):
            rep = wg.classes[k][0]
            total = total + cls_size * values[rep] * conjugate_value(chi[k])
        mass = value_as_fraction(total * Fraction(1, wg.order)) * wreath_dimension(
            wg.ct, lam_tuple
        )
        if mass:
            out[lam_tuple] = mass
    return out
