"""Explicit wreath-product computations at enumeration scale.

Everything here works with the full element list of the wreath product
of a small base group with a small symmetric group: multiplication,
conjugacy classes read off cycle data, irreducible characters by
assigning cycles to slots, images of indicators in the group algebra,
and normalized characters of every representation family.
These serve as the ground truth that the closed-form moment rules and
the factorized character are tested against.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .asymptotics import permutation_length
from .cyclotomics import conjugate_value, value_as_fraction
from .groups import CharacterTable, projection_coefficients
from .partitions import character as sym_character
from .wreath import (
    Example1Family,
    RepFamily,
    _normalize_factors,
    enumerate_irreps,
    wreath_dimension,
)

Element = tuple[tuple[int, ...], tuple[int, ...]]

# Largest wreath group built element by element.  WreathGroup is the only
# code that allocates group elements, so this one budget decides feasibility;
# family_character_values checks every group a family needs before the first.
MAX_ELEMENTS = 50000


def check_budget(ct: CharacterTable, q: int) -> int:
    """Order of the wreath group at q, or ValueError if past the budget."""
    order = ct.group.order**q * math.factorial(q)
    if order > MAX_ELEMENTS:
        raise ValueError(
            f"the wreath group at q={q} has {order} elements, past the "
            f"enumeration budget of {MAX_ELEMENTS}"
        )
    return order


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


class WreathGroup:
    """Full element enumeration of one wreath product, with class-level characters.

    A class is a multiset of (cycle length, G-class of the cycle's colour
    product), kept sorted in ``class_types`` (Macdonald, *Symmetric
    Functions and Hall Polynomials*, ch. I app. B).
    """

    def __init__(self, ct: CharacterTable, q: int):
        self.order = check_budget(ct, q)
        self.ct = ct
        self.q = q
        group = ct.group
        perms = list(itertools.permutations(range(q)))
        self.elements: list[Element] = [
            (colors, perm)
            for colors in itertools.product(range(group.order), repeat=q)
            for perm in perms
        ]
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.identity = self.index[((group.identity,) * q, tuple(range(q)))]
        self.class_types, self.classes = self._conjugacy_classes(perms)
        self.class_of = [0] * self.order
        for k, cls in enumerate(self.classes):
            for i in cls:
                self.class_of[i] = k
        self._characters: dict[tuple, list] = {}

    def mul(self, a: int, b: int) -> int:
        return self.index[w_mul(self.ct.group.mult, self.elements[a], self.elements[b])]

    def _conjugacy_classes(self, perms):
        mult = self.ct.group.mult
        class_of_g = self.ct.group.class_of
        walks = [backward_cycles(perm) for perm in perms]
        by_type: dict[tuple, list[int]] = {}
        # the elements run through perms fastest, so the walks repeat in
        # step with them; the index's own ints go into the classes: fresh
        # ones from enumerate() would cost one int object per element
        for ((colors, _), i), walk in zip(self.index.items(), itertools.cycle(walks)):
            key = []
            for cycle in walk:
                g = colors[cycle[0]]
                for point in cycle[1:]:
                    g = mult[g][colors[point]]
                key.append((len(cycle), class_of_g[g]))
            key.sort()
            by_type.setdefault(tuple(key), []).append(i)
        ordered = sorted(
            by_type.items(), key=lambda item: (self.identity not in item[1], item[1][0])
        )
        return (
            tuple(key for key, _ in ordered),
            tuple(tuple(cls) for _, cls in ordered),
        )

    def conjugates_of_class(self, class_index: int) -> dict[int, int]:
        """How often y * rep * y^-1 lands on each element, over all y.

        Every conjugate of the representative is hit |centralizer| =
        order / class size times.
        """
        cls = self.classes[class_index]
        return dict.fromkeys(cls, self.order // len(cls))

    # ------------------------------------------------------------ characters

    def irreducible_character(self, lam_tuple) -> list:
        """Class-function values of the irreducible for one partition tuple."""
        key = tuple(lam_tuple)
        if key not in self._characters:
            self._characters[key] = [self._class_value(key, t) for t in self.class_types]
        return self._characters[key]

    def _class_value(self, lam_tuple, cycles):
        """The irreducible's value on the class with these (length, G-class) cycles.

        The irreducible is induced from the block subgroup
        prod_rho G wr S_{|lam^rho|}, and the blocks an element fixes are the
        assignments of its cycles to slots that fill slot rho with exactly
        |lam^rho| points.  Each such assignment contributes the slot
        character at every cycle's colour class times, per slot, the
        symmetric-group character at the lengths it received.  The integer
        parts are summed per product of slot characters first, so exact
        cyclotomic arithmetic runs once per distinct product.
        """
        irreps = self.ct.irreps
        room = [sum(lam) for lam in lam_tuple]
        lengths: list[list[int]] = [[] for _ in lam_tuple]
        picked: list[tuple[int, int]] = []
        terms: dict[tuple, int] = {}

        def assign(c):
            if c == len(cycles):
                coeff = math.prod(map(sym_character, lam_tuple, lengths))
                if coeff:
                    product = tuple(sorted(picked))
                    terms[product] = terms.get(product, 0) + coeff
                return
            length, g_class = cycles[c]
            for slot, irrep in enumerate(irreps):
                if room[slot] < length or irrep.values[g_class] == 0:
                    continue
                room[slot] -= length
                lengths[slot].append(length)
                picked.append((slot, g_class))
                assign(c + 1)
                picked.pop()
                lengths[slot].pop()
                room[slot] += length

        assign(0)
        return sum(
            coeff * math.prod(irreps[slot].values[g_class] for slot, g_class in product)
            for product, coeff in terms.items()
        )

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
    perm = list(range(wg.q))
    for a, b in mapping.items():
        perm[a] = b
    perm = tuple(perm)
    scale = dim ** permutation_length(perm)
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
        # every group the character needs is checked before any is built
        for size in sorted(family.enumeration_sizes(q)):
            check_budget(family.ct, size)
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
    return [per_class[k] for k in wg.class_of]


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
    return [per_class[k] for k in wg.class_of]


# ------------------------------------------------------------ brute moments


def brute_moment(family: RepFamily, q: int, factors) -> Fraction:
    """Family moment computed from the explicit normalized character."""
    values = family_character_values(family, q)
    wg = wreath_group(family.ct, q)
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
    # classes where the character vanishes add nothing to an inner product
    support = [
        (wg.class_types[k], len(cls) * values[cls[0]])
        for k, cls in enumerate(wg.classes)
        if values[cls[0]]
    ]
    out = {}
    for lam_tuple in enumerate_irreps(wg.ct, wg.q):
        total = 0
        for cycles, weight in support:
            total = total + weight * conjugate_value(wg._class_value(lam_tuple, cycles))
        mass = value_as_fraction(total * Fraction(1, wg.order)) * wreath_dimension(
            wg.ct, lam_tuple
        )
        if mass:
            out[lam_tuple] = mass
    return out
