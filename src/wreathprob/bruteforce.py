"""Explicit wreath-product computations at enumeration scale.

Everything here works with the full element list of the wreath product
of a small base group with a small symmetric group: multiplication,
conjugacy classes read off cycle data, and images of indicators in the
group algebra.  It serves ``verify`` and the tests as the ground truth
that the class-level characters and the factorized character are
checked against; no family path builds a group.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .cyclotomics import conjugate_value
from .errors import Infeasible
from .groups import CharacterTable
from .indicators import IndicatorSum, expand_indicator, multiplicity
from .wreath import _normalize_factors, backward_cycles, class_type, class_values
from .wreath import irreps_by_sizes, w_mul, wreath_order

# Largest wreath group built element by element.  WreathGroup is the only
# code that allocates group elements, so this budget decides its feasibility.
MAX_ELEMENTS = 50000


def check_enumeration_budget(ct: CharacterTable, q: int) -> int:
    """The order of G wr S_q, refused past the enumeration budget."""
    order = wreath_order(ct, q)
    if order > MAX_ELEMENTS:
        raise Infeasible(
            f"the wreath group at q={q} has {order} elements, past the "
            f"enumeration budget of {MAX_ELEMENTS}"
        )
    return order


class WreathGroup:
    """Full element enumeration of one wreath product, with class-level characters.

    A class is a multiset of (cycle length, G-class of the cycle's colour
    product), kept sorted in ``class_types`` (Macdonald, *Symmetric
    Functions and Hall Polynomials*, ch. I app. B).
    """

    def __init__(self, ct: CharacterTable, q: int):
        self.order = check_enumeration_budget(ct, q)
        self.ct = ct
        self.q = q
        group = ct.group
        perms = list(itertools.permutations(range(q)))
        self.elements = [
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
        group = self.ct.group
        walks = [backward_cycles(perm) for perm in perms]
        by_type: dict[tuple, list[int]] = {}
        # the elements run through perms fastest, so the walks repeat in
        # step with them; the index's own ints go into the classes: fresh
        # ones from enumerate() would cost one int object per element
        for ((colors, _), i), walk in zip(self.index.items(), itertools.cycle(walks)):
            by_type.setdefault(class_type(group, colors, walk), []).append(i)
        ordered = sorted(
            by_type.items(), key=lambda item: (self.identity not in item[1], item[1][0])
        )
        return (
            tuple(key for key, _ in ordered),
            tuple(tuple(cls) for _, cls in ordered),
        )

    # ------------------------------------------------------------ characters

    def irreducible_character(self, lam_tuple) -> list:
        """Class-function values of the irreducible for one partition tuple.

        The first call for a slot-size vector fills every irreducible with it.
        """
        key = tuple(lam_tuple)
        if key not in self._characters:
            sizes = tuple(map(sum, key))
            same = irreps_by_sizes(self.ct, self.q).get(sizes, [])
            lam_tuples = [key] + [lam for lam in same if lam != key]
            columns = [class_values(self.ct, lam_tuples, t) for t in self.class_types]
            for i, lam in enumerate(lam_tuples):
                self._characters[lam] = [column[i] for column in columns]
        return self._characters[key]

    def class_sizes(self) -> list[int]:
        return [len(cls) for cls in self.classes]


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
    dim = wg.ct.irreps[slot].dim
    # the projection's coefficient at g is dim conj(chi(g)) / |G|: the
    # algebraic-integer numerators multiply first, the division comes once
    numerators = [dim * conjugate_value(wg.ct.value(slot, g)) for g in range(group.order)]
    perm, mask = pp
    support = [a for a in range(wg.q) if mask >> a & 1]
    scale = dim ** (len(perm) - len(backward_cycles(perm)))
    divisor = Fraction(1, group.order ** len(support))
    out: dict[int, object] = {}
    for assignment in itertools.product(range(group.order), repeat=len(support)):
        coeff = scale
        colors = [group.identity] * wg.q
        for point, g in zip(support, assignment):
            coeff = coeff * numerators[g]
            colors[point] = g
        if coeff == 0:
            continue
        # the support's colours differ between assignments: each index once
        out[wg.index[(tuple(colors), perm)]] = coeff * divisor
    return out


def indicator_image(wg: WreathGroup, slot: int, summ) -> dict[int, object]:
    """Image of an IndicatorSum (or plain rows tuple) in the group algebra."""
    out: dict[int, object] = {}
    for rows, coeff in IndicatorSum.of(summ).terms.items():
        # each partial permutation of rows counts multiplicity(rows) times
        weight = coeff * multiplicity(rows)
        for pp in expand_indicator(rows, wg.q):
            for idx, c in phi_image(wg, slot, pp).items():
                out[idx] = out.get(idx, 0) + weight * c
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
