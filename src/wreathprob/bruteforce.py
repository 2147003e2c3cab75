"""Explicit wreath-product computations at enumeration scale.

Everything here works with the full element list of the wreath product
of a small base group with a small symmetric group: multiplication,
conjugacy classes read off cycle data, and images of indicators in the
group algebra as integer numerators over one int denominator.  It
serves ``verify`` and the tests as the ground truth that the
class-level characters and the factorized character are checked
against; no family path builds a group.  The ``check_*`` functions are
``verify``'s checks: each appends its failures to a list and returns the
number of cases it ran.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, lcm

from .cyclotomics import conjugate_value, numerator_denominator, value_as_fraction
from .errors import Infeasible
from .groups import CharacterTable
from .indicators import IndicatorSum, compose_each, expand_indicator, multiplicity
from .indicators import product_coefficients
from .partitions import partitions_of
from .wreath import _normalize_factors, backward_cycles, class_type, class_values
from .wreath import enumerate_irreps, factorized_character, irreps_by_sizes, w_mul
from .wreath import wreath_dimension, wreath_order

# Largest wreath group built element by element.  WreathGroup is the only
# code that allocates group elements, so this budget decides its feasibility.
MAX_ELEMENTS = 50000

# products of partial permutations the structure-constant check may
# compose: bound 7 makes 683 656 of them in 0.7-0.9 s on a shared 2-core Xeon
# (Python 3.11.7), bound 8 about 1.1e7
MAX_STRUCTURE_PRODUCTS = 10**6

# irreducible pairs times classes the orthogonality check may sum: G wr S_2
# has k(k + 3)/2 irreducibles and as many classes for k base irreducibles.
# cyclic:10 makes 65**3 = 274 625 terms, about 3.2 s on a shared 2-core Xeon
# (Python 3.11.7); cyclic:11 makes 77**3 and is skipped
MAX_ORTHOGONALITY_TERMS = 3 * 10**5


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


def phi_image(wg: WreathGroup, slot: int, pp) -> tuple[dict[int, object], int]:
    """Image of one partial permutation under the slot's twisted embedding.

    Returned as (numerators, denominator): an int or integer-coefficient
    numerator per element and one positive int dividing all of them.
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
    # numerators multiply first, the division comes once (a table with
    # rational coefficients puts their lcm into the denominator)
    split = [
        numerator_denominator(dim * conjugate_value(wg.ct.value(slot, g)))
        for g in range(group.order)
    ]
    common = lcm(*(d for _, d in split))
    numerators = [n * (common // d) for n, d in split]
    perm, mask = pp
    support = [a for a in range(wg.q) if mask >> a & 1]
    scale = dim ** (len(perm) - len(backward_cycles(perm)))
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
        out[wg.index[(tuple(colors), perm)]] = coeff
    return out, (common * group.order) ** len(support)


def indicator_image(wg: WreathGroup, slot: int, summ) -> tuple[dict[int, object], int]:
    """Image of an IndicatorSum (or plain rows tuple) as (numerators, denominator)."""
    parts = []
    for rows, coeff in IndicatorSum.of(summ).terms.items():
        # each partial permutation of rows counts multiplicity(rows) times
        weight = coeff * multiplicity(rows)
        for pp in expand_indicator(rows, wg.q):
            image, denominator = phi_image(wg, slot, pp)
            parts.append((image, Fraction(weight, denominator)))
    common = lcm(*(w.denominator for _, w in parts))
    out: dict[int, object] = {}
    for image, w in parts:
        factor = w.numerator * (common // w.denominator)
        for idx, c in image.items():
            out[idx] = out.get(idx, 0) + factor * c
    return out, common


def algebra_product(wg: WreathGroup, a, b) -> tuple[dict[int, object], int]:
    """Product of two (numerators, denominator) images: the denominators multiply once."""
    (left, da), (right, db) = a, b
    out: dict[int, object] = {}
    for i, ci in left.items():
        for j, cj in right.items():
            k = wg.mul(i, j)
            out[k] = out.get(k, 0) + ci * cj
    return out, da * db


def tensor_algebra_image(wg: WreathGroup, factors) -> tuple[dict[int, object], int]:
    """Image of a product of per-slot indicator sums, as (numerators, denominator)."""
    out = None
    for slot, summ in _normalize_factors(factors, wg.q).items():
        image = indicator_image(wg, slot, summ)
        # the first slot's image is the product so far: no identity product
        out = image if out is None else algebra_product(wg, out, image)
    return out or ({wg.identity: 1}, 1)


# ------------------------------------------------------------------ checks


def check_wreath_orthogonality(ct: CharacterTable, failures: list, wreath_group):
    """Dimensions and orthogonality of the irreducibles of G wr S_2.

    Returns the number of pairs checked, or None for a table past the
    orthogonality or the enumeration budget, which is left unchecked.
    """
    tuples = enumerate_irreps(ct, 2)
    if len(tuples) ** 3 > MAX_ORTHOGONALITY_TERMS or wreath_order(ct, 2) > MAX_ELEMENTS:
        return None
    wg = wreath_group(ct, 2)
    sizes = wg.class_sizes()
    chars = {t: wg.irreducible_character(t) for t in tuples}
    conjugates = {t: [conjugate_value(v) for v in chi] for t, chi in chars.items()}
    if sum(wreath_dimension(ct, t) ** 2 for t in tuples) != wg.order:
        failures.append({"check": "wreath-dimensions", "q": 2})
    for t1 in tuples:
        for t2 in tuples:
            dot = sum(size * a * b for size, a, b in zip(sizes, chars[t1], conjugates[t2]))
            if dot != (wg.order if t1 == t2 else 0):
                failures.append(
                    {
                        "check": "wreath-orthogonality",
                        "q": 2,
                        "pair": [list(map(list, t1)), list(map(list, t2))],
                    }
                )
    return len(tuples) ** 2


def check_factorization_lemma(ct: CharacterTable, bound: int, failures: list, wreath_group) -> int:
    """Factorized characters against explicit traces, every irreducible."""
    cases = 0
    factor_sets = [((0, (1,)),), ((0, (2,)),), ((0, (1, 1)),), ((0, (2,)), (0, (1,)))]
    if len(ct.irreps) > 1:
        factor_sets += [((0, (2,)), (1, (1,))), ((1, (2,)),)]
    for q in range(1, bound + 1):
        wg = wreath_group(ct, q)
        # the images' numerators, summed per class, do not depend on the
        # irreducible; each image divides once, by its denominator
        images = []
        for factors in factor_sets:
            numerators, denominator = tensor_algebra_image(wg, factors)
            per_class = {}
            for idx, coeff in numerators.items():
                k = wg.class_of[idx]
                per_class[k] = per_class.get(k, 0) + coeff
            images.append((per_class, denominator))
        for lam_tuple in enumerate_irreps(ct, q):
            chi = wg.irreducible_character(lam_tuple)
            dim = wreath_dimension(ct, lam_tuple)
            for factors, (image, denominator) in zip(factor_sets, images):
                cases += 1
                actual = 0
                for k, coeff in image.items():
                    actual = actual + coeff * chi[k]
                actual = value_as_fraction(actual) / (denominator * dim)
                expected = factorized_character(lam_tuple, factors)
                if actual != expected:
                    failures.append(
                        {
                            "check": "factorization-lemma",
                            "q": q,
                            "irrep": [list(l) for l in lam_tuple],
                            "factors": [[s, list(r)] for s, r in factors],
                            "expected": str(expected),
                            "actual": str(actual),
                        }
                    )
    return cases


def check_structure_budget(bound: int) -> None:
    """Refuse a bound past the budget before any indicator is expanded.

    A pair of sizes (a, t - a) composes every partial permutation with
    support a with every one with support t - a, on t points:
    falling(t, a) falling(t, t - a) = t! C(t, a) products.
    """
    products = sum(factorial(t) * (2**t - 2) for t in range(2, bound + 1))
    if products > MAX_STRUCTURE_PRODUCTS:
        raise Infeasible(
            f"--bound {bound}: {products} partial-permutation products pass the"
            f" structure-constant budget of {MAX_STRUCTURE_PRODUCTS}"
        )


def check_structure_constants(bound: int, failures: list) -> int:
    """Indicator products against explicit partial-permutation algebra."""

    @cache  # local to one check: one entry per rows up to its bound
    def expand(rows, q0):
        """The indicator, expanded once: (multiplicity, partial permutations).

        An indicator counts each of its partial permutations equally often."""
        return multiplicity(rows), list(expand_indicator(rows, q0))

    cases = 0
    for total in range(2, bound + 1):
        for size_mu in range(1, total):
            size_nu = total - size_mu
            for mu in partitions_of(size_mu):
                for nu in partitions_of(size_nu):
                    cases += 1
                    q0 = total
                    # every pair is composed once; Counter tallies the
                    # products, and the multiplicities come after
                    (m1, left), (m2, right) = expand(mu, q0), expand(nu, q0)
                    images, supports = zip(*left)
                    tally = Counter()
                    for p2 in right:
                        tally.update(compose_each(images, supports, p2))
                    weight = m1 * m2
                    lhs = {p: weight * n for p, n in tally.items()}
                    rhs = {}
                    for rho, coeff in product_coefficients(mu, nu).items():
                        # a partial permutation's cycle type on its support
                        # is its rho, so distinct rho fill disjoint keys; the
                        # coefficients are positive, so no count is zero
                        m, ps = expand(rho, q0)
                        rhs.update(dict.fromkeys(ps, coeff * m))
                    if lhs != rhs:
                        failures.append(
                            {
                                "check": "structure-constants",
                                "mu": list(mu),
                                "nu": list(nu),
                            }
                        )
    return cases
