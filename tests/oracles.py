"""Independent reference implementations used only by the test suite.

Everything here is deliberately written from different first principles
than the library (pentagonal-number recurrences, branching rules,
permutation modules, rim-hook removal, seminormal matrices, conjugation
orbits, induced characters, polynomial long division and exact linear
fits over small diagrams) so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import cache


# ---------------------------------------------------------------- partitions


@cache
def partition_count_pentagonal(n: int) -> int:
    """p(n) via Euler's pentagonal number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (partition_count_pentagonal(n - g1) + partition_count_pentagonal(n - g2))
        k += 1
    return total


def removable_corners(lam: tuple[int, ...]) -> list[int]:
    return [
        i
        for i in range(len(lam))
        if i == len(lam) - 1 or lam[i] > lam[i + 1]
    ]


@cache
def dimension_branching(lam: tuple[int, ...]) -> int:
    """Standard tableau count via the branching rule, no hook lengths."""
    if sum(lam) == 0:
        return 1
    total = 0
    for i in removable_corners(lam):
        if lam[i] == 1:
            smaller = lam[:i]
        else:
            smaller = lam[:i] + (lam[i] - 1,) + lam[i + 1 :]
        total += dimension_branching(smaller)
    return total


# ------------------------------------------------ Murnaghan-Nakayama route


def _beta_set(lam: tuple[int, ...]) -> tuple[int, ...]:
    # first-column hook lengths, ascending
    r = len(lam)
    return tuple(sorted(part + r - 1 - i for i, part in enumerate(lam)))


@cache
def _mn(betas: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu or mu[0] == 1:
        # only fixed points remain (mu is descending): the value is the
        # dimension of the remaining shape, read off its beta set
        num = math.factorial(len(mu))
        den = 1
        for j, b in enumerate(betas):
            den *= math.factorial(b)
            for a in betas[:j]:
                num *= b - a
        return num // den
    k, rest = mu[0], mu[1:]
    bset = set(betas)
    total = 0
    for b in betas:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        leg = sum(1 for x in betas if nb < x < b)
        replaced = tuple(sorted(bset - {b} | {nb}))
        total += (-1) ** leg * _mn(replaced, rest)
    return total


def character(lam, mu) -> int:
    """Irreducible character of shape ``lam`` at cycle type ``mu``, by rim-hook removal."""
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return _mn(_beta_set(tuple(lam)), tuple(sorted(mu, reverse=True)))


def indicator_scalar(lam, rows) -> Fraction:
    """falling(n, |rows|) chi^lam(rows, 1^(n - |rows|)) / dim lam, by rim-hook removal."""
    n = sum(lam)
    size = sum(rows)
    if size > n:
        return Fraction(0)
    full = tuple(rows) + (1,) * (n - size)
    return Fraction(math.perm(n, size) * character(lam, full), character(lam, (1,) * n))


def falling(x, k: int):
    """Falling factorial x(x-1)...(x-k+1); works for ints and Fractions."""
    out = 1
    for i in range(k):
        out = out * (x - i)
    return out


def sum_scalar(summ, lam) -> Fraction:
    """The scalar of an ``IndicatorSum`` on lam, term by term by rim-hook removal."""
    return sum((c * indicator_scalar(lam, rows) for rows, c in summ.terms.items()), Fraction(0))


# ------------------------------------------------- permutation-module route


def _cycle_multiplicities(mu: tuple[int, ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in mu:
        out[part] = out.get(part, 0) + 1
    return out


@cache
def permutation_module_character(nu: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Character of the Young permutation module M^nu at cycle type mu.

    Counts ordered assignments of the cycles of a type-mu permutation to
    blocks of sizes nu, each block's cycle lengths summing to its size.
    """
    if sum(nu) != sum(mu):
        raise ValueError("size mismatch")
    lengths = sorted(_cycle_multiplicities(mu).items())

    def assign(slot: int, remaining: tuple[tuple[int, int], ...]) -> int:
        if slot == len(nu):
            return 1 if all(m == 0 for _, m in remaining) else 0
        target = nu[slot]
        total = 0
        # choose how many cycles of each length go into this slot
        choices = [range(m + 1) for _, m in remaining]
        for take in itertools.product(*choices):
            if sum(t * length for t, (length, _) in zip(take, remaining)) != target:
                continue
            ways = 1
            for t, (_, m) in zip(take, remaining):
                ways *= math.comb(m, t)
            rest = tuple(
                (length, m - t) for t, (length, m) in zip(take, remaining)
            )
            total += ways * assign(slot + 1, rest)
        return total

    return assign(0, tuple(lengths))


def _all_partitions(n: int, max_part: int | None = None):
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in _all_partitions(n - first, first):
            yield (first,) + rest


@cache
def symmetric_character_table(n: int) -> dict[tuple, dict[tuple, int]]:
    """Full character table of the degree-n symmetric group, by Gram-Schmidt.

    Permutation-module characters are orthogonalized in lex-descending
    order (which refines dominance), peeling off previously found
    irreducibles; the leading term has coefficient one, so the result is
    exactly the irreducible character table.
    """
    shapes = list(_all_partitions(n))
    classes = shapes
    weights = {
        mu: Fraction(math.factorial(n), centralizer_order(mu)) for mu in classes
    }
    norm = Fraction(1, math.factorial(n))

    def inner(a: dict, b: dict) -> Fraction:
        return norm * sum(weights[mu] * a[mu] * b[mu] for mu in classes)

    table: dict[tuple, dict[tuple, int]] = {}
    for nu in shapes:  # lex-descending: dominating shapes come first
        psi = {mu: Fraction(permutation_module_character(nu, mu)) for mu in classes}
        for lam, chi in table.items():
            coeff = inner(psi, chi)
            if coeff:
                psi = {mu: psi[mu] - coeff * chi[mu] for mu in classes}
        assert inner(psi, psi) == 1, f"Gram-Schmidt residue not irreducible at {nu}"
        table[nu] = {mu: int(psi[mu]) for mu in classes}
        assert all(v.denominator == 1 for v in psi.values())
    return table


def centralizer_order(mu: tuple[int, ...]) -> int:
    z = 1
    for length, m in _cycle_multiplicities(mu).items():
        z *= length**m * math.factorial(m)
    return z


def class_size(mu: tuple[int, ...]) -> int:
    """Number of permutations of cycle type ``mu`` in the full symmetric group."""
    return math.factorial(sum(mu)) // centralizer_order(mu)


def multiplicity_constant(rows: tuple[int, ...]) -> int:
    """Fillings per partial permutation of the given type.

    A filled row may start at any of its points and equal rows may swap,
    so this is the centralizer order of the rows read as a cycle type.
    """
    return centralizer_order(tuple(rows))


# ------------------------------------------ partial permutations as pairs
#
# The reference encoding: a partial permutation is a sorted tuple of
# (point, image) pairs over its support, fixed points pinned as (a, a).


def to_pairs(pp) -> tuple[tuple[int, int], ...]:
    """The library's (images, support mask) pair as sorted (point, image) pairs."""
    images, support = pp
    return tuple((a, images[a]) for a in range(len(images)) if support >> a & 1)


def from_pairs(pairs, q: int):
    """Sorted (point, image) pairs as the library's (images, support mask) pair on q points."""
    images = list(range(q))
    support = 0
    for a, b in pairs:
        images[a] = b
        support |= 1 << a
    return tuple(images), support


def pair_compose(p1, p2):
    """Natural product of pair-encoded partial permutations: p2 first, then p1."""
    m1 = dict(p1)
    m2 = dict(p2)
    out = []
    for a in sorted(m1.keys() | m2.keys()):
        b = m2.get(a, a)
        out.append((a, m1.get(b, b)))
    return tuple(out)


def pair_cycle_type(pp) -> tuple[int, ...]:
    """Cycle lengths of a pair-encoded partial permutation, descending."""
    mapping = dict(pp)
    seen: set[int] = set()
    lengths = []
    for start in mapping:
        if start in seen:
            continue
        length = 0
        point = start
        while point not in seen:
            seen.add(point)
            point = mapping[point]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def pair_indicator(rows: tuple[int, ...], q: int) -> Counter:
    """The indicator on q points, by type rather than by filling.

    Every partial permutation on q points with support size |rows| and
    cycle type rows, each counted once per filling that produces it.
    """
    target = tuple(sorted(rows, reverse=True))
    count = multiplicity_constant(rows)
    out: Counter = Counter()
    for support in itertools.combinations(range(q), sum(rows)):
        for images in itertools.permutations(support):
            pairs = tuple(zip(support, images))
            if pair_cycle_type(pairs) == target:
                out[pairs] = count
    return out


# -------------------------------------------------------- seminormal route


@cache
def standard_tableaux(lam: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All standard Young tableaux of the given shape, as row tuples."""
    n = sum(lam)
    if n == 0:
        return ((),)
    out = []
    for i in removable_corners(lam):
        if lam[i] == 1:
            smaller = lam[:i]
        else:
            smaller = lam[:i] + (lam[i] - 1,) + lam[i + 1 :]
        for t in standard_tableaux(smaller):
            rows = [list(r) for r in t]
            while len(rows) <= i:
                rows.append([])
            rows[i].append(n)
            out.append(tuple(tuple(r) for r in rows))
    return tuple(sorted(out))


def _letter_position(t, letter: int) -> tuple[int, int]:
    for i, row in enumerate(t):
        for j, entry in enumerate(row):
            if entry == letter:
                return i, j
    raise ValueError(f"{letter} not in tableau")


def _swap_letters(t, a: int, b: int):
    return tuple(
        tuple(b if e == a else a if e == b else e for e in row) for row in t
    )


@cache
def seminormal_generator(lam: tuple[int, ...], m: int):
    """Matrix of the adjacent transposition (m, m+1) in seminormal form."""
    basis = standard_tableaux(lam)
    index = {t: k for k, t in enumerate(basis)}
    size = len(basis)
    mat = [[Fraction(0)] * size for _ in range(size)]
    for col, t in enumerate(basis):
        (ri, ci) = _letter_position(t, m)
        (rj, cj) = _letter_position(t, m + 1)
        axial = (cj - rj) - (ci - ri)
        if axial == 1 and ri == rj:
            mat[col][col] = Fraction(1)
        elif axial == -1 and ci == cj:
            mat[col][col] = Fraction(-1)
        else:
            other = index[_swap_letters(t, m, m + 1)]
            mat[col][col] = Fraction(1, axial)
            if axial > 0:
                mat[other][col] = Fraction(1)
            else:
                mat[other][col] = 1 - Fraction(1, axial**2)
    return tuple(tuple(row) for row in mat)


def matrix_multiply(a, b):
    size = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size))
        for i in range(size)
    )


def identity_matrix(size: int):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(size))
        for i in range(size)
    )


def seminormal_image(lam: tuple[int, ...], perm: tuple[int, ...]):
    """Matrix of a permutation (one-line, 0-indexed) in seminormal form."""
    word = []
    line = list(perm)
    # bubble sort records an adjacent-transposition word for the inverse
    changed = True
    while changed:
        changed = False
        for i in range(len(line) - 1):
            if line[i] > line[i + 1]:
                line[i], line[i + 1] = line[i + 1], line[i]
                word.append(i + 1)  # letters are 1-based
                changed = True
    # perm = product of the recorded transpositions in reverse order
    mat = identity_matrix(len(standard_tableaux(lam)))
    for m in reversed(word):
        mat = matrix_multiply(seminormal_generator(lam, m), mat)
    return mat


def matrix_trace(mat) -> Fraction:
    return sum(mat[i][i] for i in range(len(mat)))


# ------------------------------------------------------------ set partitions


def set_partitions_rgs(n: int):
    """All set partitions of range(n) via restricted growth strings."""
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def rec(i: int, maxval: int):
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(maxval + 1)]
            for pos, b in enumerate(rgs):
                blocks[b].append(pos)
            yield tuple(tuple(b) for b in blocks)
            return
        for v in range(maxval + 2):
            rgs[i] = v
            yield from rec(i + 1, max(maxval, v))

    yield from rec(1, 0)


def is_noncrossing(blocks) -> bool:
    for b1, b2 in itertools.combinations(blocks, 2):
        for a, c in itertools.combinations(sorted(b1), 2):
            inside = any(a < b < c for b in b2)
            outside = any(b < a or b > c for b in b2)
            if inside and outside:
                return False
    return True


def noncrossing_partitions(n: int):
    return [p for p in set_partitions_rgs(n) if is_noncrossing(p)]


# ------------------------------------------------------------ compositions


def compositions(total: int):
    """Ordered tuples of positive integers summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def composition_double_sum_bruteforce(c_of, l1: int, l2: int, weight=None):
    """Sum over equal-length composition pairs of (l1 l2 / r) prod c(a_i+b_i).

    Loops over every pair of compositions; weight, if given, maps the
    common length r to an extra factor.
    """
    by_length: dict[int, list] = {}
    for a in compositions(l1):
        by_length.setdefault(len(a), []).append(a)
    total = Fraction(0)
    for b in compositions(l2):
        r = len(b)
        for a in by_length.get(r, ()):
            term = Fraction(l1 * l2, r)
            for x, y in zip(a, b):
                term = term * c_of(x + y)
                if not term:
                    break
            if term and weight is not None:
                term = term * weight(r)
            total += term
    return total


def composition_double_sum_per_entry(c_of, l1: int, l2: int, weight=None):
    """The same double sum by a dynamic program bounded at (l1, l2).

    One run per entry, as limit tables computed it before they shared one
    run per slot: at length r, ways[(i, j)] sums prod c(a_k+b_k) over pairs
    of r-part compositions of i and j.
    """
    c = {m: c_of(m) for m in range(2, l1 + l2 + 1)}
    ways = {(0, 0): Fraction(1)}
    total = Fraction(0)
    for r in range(1, min(l1, l2) + 1):
        longer: dict = {}
        for (i, j), v in ways.items():
            for x in range(i + 1, l1 + 1):
                for y in range(j + 1, l2 + 1):
                    step = c[x - i + y - j]
                    if step:
                        longer[(x, y)] = longer.get((x, y), 0) + v * step
        ways = longer
        if ways.get((l1, l2)):
            term = Fraction(l1 * l2, r) * ways[(l1, l2)]
            total += term if weight is None else term * weight(r)
    return total


# ------------------------------------------------- limit tables per entry


def _table_depth(params) -> int:
    top = 2
    for _, i in params.c:
        top = max(top, i - 1)
    if params.cov:
        for _, l1, _, l2 in params.cov:
            top = max(top, l1, l2)
    return top


def _entry_keys(slots: int, top: int):
    for s1 in range(slots):
        for s2 in range(s1, slots):
            for l1 in range(1, top + 1):
                for l2 in range(l1 if s1 == s2 else 1, top + 1):
                    yield s1, l1, s2, l2


def _slot_double_sum(params, slot, l1, l2, weight=None):
    return composition_double_sum_per_entry(lambda m: params.c_value(slot, m), l1, l2, weight)


def per_entry_restrict_limits(params, p):
    from wreathprob.asymptotics import LimitParameters, example1_limits, half_power

    p = Fraction(p)
    if p == 0:
        weights = [params.c_value(z, 2) for z in range(params.slots)]
        return example1_limits(weights, max_l=_table_depth(params))
    c = {(z, i): half_power(p, i - 2) * v for (z, i), v in params.c.items() if v}
    cov = None
    if params.cov is not None:
        cov = {}
        for s1, l1, s2, l2 in _entry_keys(params.slots, _table_depth(params)):
            base = params.covariance(s1, l1, s2, l2)
            pin = l1 * l2 * params.c_value(s1, l1 + 1) * params.c_value(s2, l2 + 1) * (1 / p - 1)
            value = base - pin
            if s1 == s2:
                value = value + _slot_double_sum(params, s1, l1, l2, lambda r: p**-r - 1)
            value = half_power(p, l1 + l2) * value
            if value:
                cov[LimitParameters._key(s1, l1, s2, l2)] = value
    return LimitParameters(slots=params.slots, c=c, cov=cov)


def per_entry_outer_limits(left, right, p1):
    from wreathprob.asymptotics import LimitParameters, half_power

    p1 = Fraction(p1)
    p2 = 1 - p1
    top = max(_table_depth(left), _table_depth(right))
    c = {}
    for z in range(left.slots):
        for i in range(2, top + 2):
            # a side without the entry adds nothing, not a float zero
            value = sum(
                half_power(p, i) * side.c[(z, i)]
                for p, side in ((p1, left), (p2, right))
                if (z, i) in side.c
            )
            if value:
                c[(z, i)] = value
    out = LimitParameters(slots=left.slots, c=c, cov=None)
    if left.cov is None or right.cov is None:
        return out

    def disjoint(params, s1, l1, s2, l2):
        value = params.covariance(s1, l1, s2, l2)
        if s1 == s2:
            value = value - _slot_double_sum(params, s1, l1, l2)
        return value

    cov = {}
    for s1, l1, s2, l2 in _entry_keys(left.slots, top):
        # a side whose disjoint covariance is zero adds nothing, not a float zero
        value = sum(
            half_power(p, l1 + l2) * d
            for p, side in ((p1, left), (p2, right))
            if (d := disjoint(side, s1, l1, s2, l2))
        )
        if s1 == s2:
            value = value + _slot_double_sum(out, s1, l1, l2)
        if value:
            cov[LimitParameters._key(s1, l1, s2, l2)] = value
    out.cov = cov
    return out


def induce_limits(params, p, ct):
    """Means after inducing from size r_q with r_q/q -> p; covariance open."""
    from wreathprob.asymptotics import LimitParameters, half_power

    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("induction density must lie in [0, 1]")
    order = len(ct.group.mult)
    c = {}
    for z, irrep in enumerate(ct.irreps):
        fresh = Fraction(irrep.dim**2, order)
        value = p * params.c_value(z, 2) + (1 - p) * fresh
        if value:
            c[(z, 2)] = value
    for (z, i), v in params.c.items():
        if i >= 3 and v:
            scaled = half_power(p, i) * v
            if scaled:
                c[(z, i)] = scaled
    return LimitParameters(slots=params.slots, c=c, cov=None)


def per_entry_limits(family, max_index: int = 6):
    """A family's limit table with one composition dynamic program per entry.

    ``restricted`` and ``outer`` nodes run the per-entry loops that
    ``restrict_limits`` and ``outer_limits`` ran before they read one
    ``composition_sums`` per slot; ``induced`` recurses into its parent
    and applies ``induce_limits``, and every other kind asks the library,
    which builds no double sum for them.
    """
    if family.kind == "restricted":
        parent = per_entry_limits(family.parent, max_index)
        return per_entry_restrict_limits(parent, 1 / family.ratio)
    if family.kind == "outer":
        left = per_entry_limits(family.left, max_index)
        return per_entry_outer_limits(left, per_entry_limits(family.right, max_index), family.ratio)
    if family.kind == "induced":
        return induce_limits(per_entry_limits(family.parent, max_index), family.ratio, family.ct)
    return family.limits(max_index)


def tensor_fibre_weights(left, right) -> list[Fraction]:
    """Slot weights of the product of two independent-box fibres, summed over elements.

    Slot weights w give the normalized fibre character f = sum_i (w_i / dim_i)
    chi_i; the product fibre f1 f2 gives irreducible z the weight
    dim_z / |G| sum_g f1(g) f2(g) conj chi_z(g).  Either factor may itself
    be a tensor of independent-box families, whose fibre is its factors'
    product.
    """
    from wreathprob.cyclotomics import conjugate_value, value_as_fraction

    ct = left.ct
    elements = range(ct.group.order)

    def fibre(family, g):
        if family.kind == "tensor":
            return fibre(family.left, g) * fibre(family.right, g)
        return sum(
            Fraction(w, irrep.dim) * ct.value(i, g)
            for i, (w, irrep) in enumerate(zip(family.weights, ct.irreps))
        )

    product = [fibre(left, g) * fibre(right, g) for g in elements]
    return [
        value_as_fraction(
            sum(f * conjugate_value(ct.value(z, g)) for f, g in zip(product, elements))
        )
        * irrep.dim
        / ct.group.order
        for z, irrep in enumerate(ct.irreps)
    ]


def independent_box_weights(family) -> list[Fraction]:
    """Slot weights of the example1 family that an independent-box tree equals."""
    if family.kind == "example1":
        return list(family.weights)
    return tensor_fibre_weights(family.left, family.right)


def example1_probability(family, q: int, lam_tuple) -> Fraction:
    """Closed-form mass of one partition tuple under an example1 family's size-q measure.

    Slot sizes are multinomial in the slot weights, and each slot's shape
    is Plancherel given its size: q! prod_z w_z^n_z (dim lam^z / n_z!)^2.
    """
    if sum(sum(lam) for lam in lam_tuple) != q:
        return Fraction(0)
    out = Fraction(math.factorial(q))
    for w, lam in zip(family.weights, lam_tuple):
        n = sum(lam)
        out *= w**n * Fraction(dimension_branching(tuple(lam)), math.factorial(n)) ** 2
    return out


def outer_joint_moment_every_split(family, q: int, items) -> Fraction:
    """An outer family's joint moment, walking every split of the rows between its blocks.

    Each row goes to the left block, on floor(ratio * q) points, or to the
    right one, on the rest; rows are told apart by position, so equal rows
    need no binomial weight.  A block given more points than it has is 0.
    """
    q1 = math.floor(family.ratio * q)
    q2 = q - q1
    per_slot = []
    for slot, rows in items:
        per_slot.append([])
        for sides in itertools.product((0, 1), repeat=len(rows)):
            left = tuple(r for r, side in zip(rows, sides) if side == 0)
            right = tuple(r for r, side in zip(rows, sides) if side == 1)
            per_slot[-1].append((slot, left, right))
    total = Fraction(0)
    for combo in itertools.product(*per_slot):
        left = tuple((slot, rows) for slot, rows, _ in combo if rows)
        right = tuple((slot, rows) for slot, _, rows in combo if rows)
        if sum(sum(r) for _, r in left) > q1 or sum(sum(r) for _, r in right) > q2:
            continue
        total += family.left.joint_moment(q1, left) * family.right.joint_moment(q2, right)
    return total


# ------------------------------------------------------- cyclotomic numbers


def poly_divmod(num, den):
    """Quotient and remainder of rational polynomials, low degree first."""
    num = [Fraction(c) for c in num]
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for shift in range(len(num) - len(den), -1, -1):
        factor = num[shift + len(den) - 1] / den[-1]
        quot[shift] = factor
        if not factor:
            continue
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
    rem = num[: len(den) - 1]
    return quot, rem


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _mobius(m: int) -> int:
    sign = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


@cache
def cyclotomic_polynomial_mobius(n: int) -> tuple[Fraction, ...]:
    """Phi_n as the product of (x^d - 1)^mu(n/d) over the divisors d of n."""
    num = [Fraction(1)]
    den = [Fraction(1)]
    for d in range(1, n + 1):
        if n % d:
            continue
        factor = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
        mu = _mobius(n // d)
        if mu == 1:
            num = _poly_mul(num, factor)
        elif mu == -1:
            den = _poly_mul(den, factor)
    quot, rem = poly_divmod(num, den)
    assert not any(rem)
    return tuple(quot)


def reduce_by_division(coeffs: dict[int, Fraction], order: int) -> tuple[Fraction, ...]:
    """Exponent dict folded mod x^order - 1, then long-divided by Phi_order."""
    dense = [Fraction(0)] * order
    for e, c in coeffs.items():
        dense[e % order] += Fraction(c)
    phi = list(cyclotomic_polynomial_mobius(order))
    if len(dense) < len(phi):
        dense += [Fraction(0)] * (len(phi) - len(dense))
    _, rem = poly_divmod(dense, phi)
    return tuple(rem)


# ------------------------------------------------------------ wreath groups


def projection_coefficients(ct, irrep_index: int) -> list:
    """Group-algebra coefficients of the central projection onto one isotype.

    The coefficient at g is dim/|G| times the conjugated character.
    """
    from wreathprob.cyclotomics import conjugate_value

    dim = ct.irreps[irrep_index].dim
    scale = Fraction(dim, ct.group.order)
    return [
        scale * conjugate_value(ct.value(irrep_index, g))
        for g in range(ct.group.order)
    ]


def _splits(ct, t, room):
    """Every way to share the cycles of type t among the slots, within room.

    Yields (ways, lengths, picked): equal cycles are split at once, and
    ``ways`` is the multinomial number of cycle-to-slot assignments behind
    the split; ``lengths[rho]`` lists the cycle lengths slot rho receives
    and ``picked`` one (slot, G-class) per cycle.  A slot takes no cycle of
    a G-class its irreducible vanishes on.  The lists are reused.
    """
    irreps = ct.irreps
    cells = sorted(Counter(t).items())
    room = list(room)
    lengths: list[list[int]] = [[] for _ in irreps]
    picked: list[tuple[int, int]] = []

    def split(i, slot, left, ways):
        if not left:
            i, slot = i + 1, 0
            if i == len(cells):
                yield ways, lengths, picked
                return
            left = cells[i][1]
        if slot == len(irreps):
            return
        (length, g_class), _ = cells[i]
        most = room[slot] // length if irreps[slot].values[g_class] != 0 else 0
        for take in range(min(left, most) + 1):
            room[slot] -= take * length
            lengths[slot] += [length] * take
            picked.extend([(slot, g_class)] * take)
            yield from split(i, slot + 1, left - take, ways * math.comb(left, take))
            del picked[len(picked) - take :]
            del lengths[slot][len(lengths[slot]) - take :]
            room[slot] += take * length

    yield from split(-1, 0, 0, 1)


def class_value_per_irreducible(ct, lam_tuple, t):
    """One irreducible's value on the class of type t, by its own split walk.

    The per-irreducible route that the library's class-value columns
    replaced: a depth-first walk over every split of t's cycles that fills
    slot rho with |lam^rho| points, the integer part of each split summed
    per sorted product of slot characters (zero parts skipped), and each
    product's value multiplied out afresh.
    """
    terms: dict[tuple, int] = {}
    for ways, lengths, picked in _splits(ct, t, map(sum, lam_tuple)):
        coeff = ways * math.prod(map(character, lam_tuple, lengths))
        if coeff:
            product = tuple(sorted(picked))
            terms[product] = terms.get(product, 0) + coeff
    return sum(
        coeff * math.prod(ct.irreps[slot].values[g] for slot, g in product)
        for product, coeff in terms.items()
    )


def w_inv(group, a):
    """Inverse of (colors, perm) in the wreath product over ``group``."""
    v, p = a
    q = len(p)
    pinv = [0] * q
    for i, image in enumerate(p):
        pinv[image] = i
    colors = tuple(group.inverse[v[p[j]]] for j in range(q))
    return colors, tuple(pinv)


def _w_mul(gmult, a, b):
    # the same law as the library's w_mul, written out again
    v, p = a
    w, s = b
    pinv = {image: i for i, image in enumerate(p)}
    colors = tuple(gmult[v[i]][w[pinv[i]]] for i in range(len(p)))
    return colors, tuple(p[i] for i in s)


class OrbitWreathGroup:
    """A wreath product with classes from conjugation orbits, characters induced.

    Elements are enumerated in the library's order (colors outer, permutations
    inner).  Classes are breadth-first orbits under conjugation by the
    generators; an irreducible is the induced character of a block subgroup,
    summed over every conjugate of each class representative.
    """

    def __init__(self, ct, q: int):
        self.ct = ct
        self.q = q
        group = ct.group
        perms = list(itertools.permutations(range(q)))
        self.elements = [
            (colors, perm)
            for colors in itertools.product(range(group.order), repeat=q)
            for perm in perms
        ]
        self.order = len(self.elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.identity = self.index[((group.identity,) * q, tuple(range(q)))]
        self.classes = self._orbit_classes()
        self._conjugates: dict[int, Counter] = {}

    def mul(self, a: int, b: int) -> int:
        return self.index[_w_mul(self.ct.group.mult, self.elements[a], self.elements[b])]

    def conjugate(self, y: int, x: int) -> int:
        """y * x * y^-1."""
        inverse = self.index[w_inv(self.ct.group, self.elements[y])]
        return self.mul(self.mul(y, x), inverse)

    def conjugates_of_class(self, class_index: int) -> Counter:
        """Counter of y * rep * y^-1 over all y, for the class representative."""
        if class_index not in self._conjugates:
            rep = self.classes[class_index][0]
            self._conjugates[class_index] = Counter(
                self.conjugate(y, rep) for y in range(self.order)
            )
        return self._conjugates[class_index]

    def _generators(self) -> list[int]:
        group = self.ct.group
        q = self.q
        gens = []
        for g in range(group.order):
            if g != group.identity:
                colors = (g,) + (group.identity,) * (q - 1)
                gens.append(self.index[(colors, tuple(range(q)))])
        for i in range(q - 1):
            perm = list(range(q))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            gens.append(self.index[((group.identity,) * q, tuple(perm))])
        return gens

    def _orbit_classes(self):
        gens = self._generators()
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
                for s in gens:
                    y = self.conjugate(s, x)
                    if not seen[y]:
                        seen[y] = True
                        orbit.add(y)
                        frontier.append(y)
            classes.append(tuple(sorted(orbit)))
        classes.sort(key=lambda cls: (self.identity not in cls, min(cls)))
        return tuple(classes)

    def _block_character(self, element, blocks, lam_tuple):
        """Character of the block subgroup: one twisted irreducible per block."""
        colors, perm = element
        group = self.ct.group
        value = 1
        for slot, (start, end) in enumerate(blocks):
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
            mu = tuple(sorted(lengths, reverse=True))
            value = value * symmetric_character_table(end - start)[lam_tuple[slot]][mu]
        return value

    def irreducible_character(self, lam_tuple) -> list:
        """Induced from prod_rho G wr S_{|lam^rho|} on consecutive point blocks."""
        blocks = []
        start = 0
        subgroup_order = 1
        for lam in lam_tuple:
            n = sum(lam)
            blocks.append((start, start + n))
            start += n
            subgroup_order *= self.ct.group.order**n * math.factorial(n)
        values = []
        for k in range(len(self.classes)):
            total = 0
            for idx, count in self.conjugates_of_class(k).items():
                colors, perm = self.elements[idx]
                if all(lo <= perm[i] < hi for lo, hi in blocks for i in range(lo, hi)):
                    block_value = self._block_character((colors, perm), blocks, lam_tuple)
                    total = total + count * block_value
            values.append(Fraction(1, subgroup_order) * total)
        return values


# ------------------------------------------------- element-level families
#
# The normalized character of every family, element by element, on the
# enumerated wreath group: restriction embeds elements, induction and the
# outer product sum over every conjugate of a class representative.  The
# library's class-level formulas are checked against these.


@cache
def enumerated_group(ct, q: int):
    from wreathprob.bruteforce import WreathGroup

    return WreathGroup(ct, q)


def conjugates_of_class(wg, class_index: int) -> dict[int, int]:
    """How often y * rep * y^-1 lands on each element of ``wg``, over all y.

    Every conjugate of the representative is hit |centralizer| =
    order / class size times.
    """
    cls = wg.classes[class_index]
    return dict.fromkeys(cls, wg.order // len(cls))


def family_values(family, q: int, memo=None) -> list:
    """Normalized character of the family's representation, per element."""
    memo = {} if memo is None else memo
    key = (id(family), q)
    if key not in memo:
        memo[key] = _FAMILY_VALUES[family.kind](family, q, memo)
    return memo[key]


def enumerated_sizes(family, q: int) -> set[int]:
    """The q of every wreath group ``family_values(family, q)`` enumerates."""
    if family.kind in ("restricted", "induced"):
        return {q} | enumerated_sizes(family.parent, _inner_size(family, q))
    if family.kind == "outer":
        q1, q2 = family.split_of(q)
        return {q} | enumerated_sizes(family.left, q1) | enumerated_sizes(family.right, q2)
    if family.kind == "tensor":
        return {q} | enumerated_sizes(family.left, q) | enumerated_sizes(family.right, q)
    return {q}


def _inner_size(family, q: int) -> int:
    """The parent's size floor(ratio * q) under restriction or induction."""
    return math.floor(family.ratio * q)


def _example1_values(family, q, memo):
    # the fibre character over its dimension, per group element: slot i
    # carries weight w_i spread over an irreducible of dimension dim_i
    ct = family.ct
    scales = [Fraction(w) / r.dim for w, r in zip(family.weights, ct.irreps)]
    fibre_char = [
        sum(scale * ct.value(slot, g) for slot, scale in enumerate(scales))
        for g in range(ct.group.order)
    ]
    identity_perm = tuple(range(q))
    values = []
    for colors, perm in enumerated_group(ct, q).elements:
        if perm != identity_perm:
            values.append(Fraction(0))
            continue
        value = Fraction(1)
        for g in colors:
            value = value * fibre_char[g]
        values.append(value)
    return values


def _irreducible_values(family, q, memo):
    from wreathprob.wreath import wreath_dimension

    wg = enumerated_group(family.ct, q)
    shapes = family.shapes(q)
    chi = wg.irreducible_character(shapes)
    dim = wreath_dimension(family.ct, shapes)
    return [chi[wg.class_of[i]] * Fraction(1, dim) for i in range(wg.order)]


def _restricted_values(family, q, memo):
    r = _inner_size(family, q)
    parent_values = family_values(family.parent, r, memo)
    parent_wg = enumerated_group(family.ct, r)
    identity = family.ct.group.identity
    out = []
    for colors, perm in enumerated_group(family.ct, q).elements:
        embedded = (colors + (identity,) * (r - q), perm + tuple(range(q, r)))
        out.append(parent_values[parent_wg.index[embedded]])
    return out


def _induced_values(family, q, memo):
    wg = enumerated_group(family.ct, q)
    r = _inner_size(family, q)
    parent_values = family_values(family.parent, r, memo)
    parent_wg = enumerated_group(family.ct, r)
    identity = family.ct.group.identity
    per_class = []
    for k in range(len(wg.classes)):
        total = 0
        for idx, count in conjugates_of_class(wg, k).items():
            colors, perm = wg.elements[idx]
            if any(perm[i] != i or colors[i] != identity for i in range(r, q)):
                continue
            total = total + count * parent_values[parent_wg.index[(colors[:r], perm[:r])]]
        per_class.append(total * Fraction(1, wg.order))
    return [per_class[k] for k in wg.class_of]


def _outer_values(family, q, memo):
    wg = enumerated_group(family.ct, q)
    q1, q2 = family.split_of(q)
    left_values = family_values(family.left, q1, memo)
    right_values = family_values(family.right, q2, memo)
    left_wg = enumerated_group(family.ct, q1)
    right_wg = enumerated_group(family.ct, q2)
    per_class = []
    for k in range(len(wg.classes)):
        total = 0
        for idx, count in conjugates_of_class(wg, k).items():
            colors, perm = wg.elements[idx]
            if any(perm[i] >= q1 for i in range(q1)):
                continue
            first = (colors[:q1], perm[:q1])
            second = (colors[q1:], tuple(p - q1 for p in perm[q1:]))
            total = total + count * (
                left_values[left_wg.index[first]] * right_values[right_wg.index[second]]
            )
        per_class.append(total * Fraction(1, wg.order))
    return [per_class[k] for k in wg.class_of]


def _tensor_values(family, q, memo):
    left = family_values(family.left, q, memo)
    right = family_values(family.right, q, memo)
    return [a * b for a, b in zip(left, right)]


_FAMILY_VALUES = {
    "example1": _example1_values,
    "irreducible": _irreducible_values,
    "restricted": _restricted_values,
    "induced": _induced_values,
    "outer": _outer_values,
    "tensor": _tensor_values,
}


def full_table_measure(wg, values) -> dict:
    """Inner products of per-element values with every irreducible over every class."""
    from wreathprob.cyclotomics import conjugate_value, value_as_fraction
    from wreathprob.wreath import enumerate_irreps, wreath_dimension

    sizes = wg.class_sizes()
    out = {}
    for lam_tuple in enumerate_irreps(wg.ct, wg.q):
        chi = wg.irreducible_character(lam_tuple)
        total = 0
        for k, size in enumerate(sizes):
            total = total + size * values[wg.classes[k][0]] * conjugate_value(chi[k])
        mass = value_as_fraction(total * Fraction(1, wg.order))
        mass *= wreath_dimension(wg.ct, lam_tuple)
        if mass:
            out[lam_tuple] = mass
    return out


def enumerated_measure(family, q: int) -> dict:
    return full_table_measure(enumerated_group(family.ct, q), family_values(family, q))


def brute_moment(family, q: int, factors) -> Fraction:
    """Family moment from the per-element character and the group-algebra image."""
    from wreathprob.bruteforce import tensor_algebra_image
    from wreathprob.cyclotomics import value_as_fraction

    values = family_values(family, q)
    numerators, denominator = tensor_algebra_image(enumerated_group(family.ct, q), factors)
    total = 0
    for idx, coeff in numerators.items():
        total = total + coeff * values[idx]
    return value_as_fraction(total) / denominator


# ------------------------------------------ group-algebra images by Fractions
#
# The route the library's integer images replaced: every coefficient a
# Fraction (or a Fraction-coefficient cyclotomic), the projection taken
# from its definition, partial permutations by type, and the product by
# the group law written out again.


def fraction_phi_image(wg, slot: int, pairs) -> dict:
    """The twisted embedding of one pair-encoded partial permutation.

    A support point coloured g carries the projection coefficient at g,
    and each k-cycle a factor dim**(k-1).
    """
    coeffs = projection_coefficients(wg.ct, slot)
    dim = wg.ct.irreps[slot].dim
    perm, _ = from_pairs(pairs, wg.q)
    scale = Fraction(dim) ** (len(pairs) - len(pair_cycle_type(pairs)))
    support = [a for a, _ in pairs]
    identity = wg.ct.group.identity
    out = {}
    for assignment in itertools.product(range(wg.ct.group.order), repeat=len(support)):
        colors = [identity] * wg.q
        coeff = scale
        for point, g in zip(support, assignment):
            colors[point] = g
            coeff = coeff * coeffs[g]
        if coeff != 0:
            out[wg.index[(tuple(colors), perm)]] = coeff
    return out


def fraction_indicator_image(wg, slot: int, summ) -> dict:
    """Image of an IndicatorSum (or rows tuple), each coefficient exact."""
    from wreathprob.indicators import IndicatorSum

    out = {}
    for rows, coeff in IndicatorSum.of(summ).terms.items():
        for pairs, count in pair_indicator(rows, wg.q).items():
            for idx, c in fraction_phi_image(wg, slot, pairs).items():
                out[idx] = out.get(idx, 0) + coeff * count * c
    return out


def fraction_algebra_product(wg, a: dict, b: dict) -> dict:
    out = {}
    for i, ci in a.items():
        for j, cj in b.items():
            k = wg.index[_w_mul(wg.ct.group.mult, wg.elements[i], wg.elements[j])]
            out[k] = out.get(k, 0) + ci * cj
    return out


def fraction_tensor_algebra_image(wg, factors) -> dict:
    """Image of a product of per-slot indicator sums, slots in increasing order."""
    from wreathprob.indicators import IndicatorSum

    per_slot = {}
    for slot, item in factors:
        item = IndicatorSum.of(item)
        per_slot[slot] = per_slot[slot] * item if slot in per_slot else item
    out = {wg.identity: Fraction(1)}
    for slot in sorted(per_slot):
        out = fraction_algebra_product(wg, out, fraction_indicator_image(wg, slot, per_slot[slot]))
    return out


# ------------------------------------------------ cumulants by the measure


def measure_r_cumulant(family, q: int, args) -> Fraction:
    """Joint cumulant of the free cumulants R_n of the slot diagrams.

    args: list of (slot, n).  Averages the diagram functionals over the
    family's canonical measure and sums the moments over set partitions
    with Moebius weights (-1)^(k-1) (k-1)!.
    """
    from wreathprob.diagrams import free_cumulants

    measure = family.canonical_measure(q)
    values = [{t: free_cumulants(t[slot], n)[n - 1] for t in measure} for slot, n in args]

    def moment(block):
        return sum(p * math.prod(values[i][t] for i in block) for t, p in measure.items())

    total = Fraction(0)
    for blocks in set_partitions_rgs(len(args)):
        k = len(blocks)
        total += (-1) ** (k - 1) * math.factorial(k - 1) * math.prod(map(moment, blocks))
    return total


# ----------------------------------------------- class functions of families
#
# The class-level description of every family kind that the library's
# measures replaced with the moment inversion: a normalized character as
# {class type: value} on its support, its cost, and the decomposition of a
# class function into the measure it induces.

def class_types(ct, q: int) -> list[tuple]:
    """Every class type of G wr S_q, one per tuple of partitions over the G-classes.

    Each part l of the c-th partition is one cycle (l, c).
    """
    from wreathprob.wreath import _multipartitions

    return [
        tuple(sorted((part, c) for c, lam in enumerate(lams) for part in lam))
        for lams in _multipartitions(len(ct.group.conjugacy_classes), q)
    ]


def centralizer(ct, t) -> int:
    """z(t) = prod (l |G| / |c|)^m m!; the class has |G|^q q! / z(t) elements."""
    group = ct.group
    out = 1
    for (length, g_class), m in Counter(t).items():
        size = len(group.conjugacy_classes[g_class])
        out *= (length * group.order // size) ** m * math.factorial(m)
    return out


def example1_fibre(family) -> list:
    """The normalized fibre character per G-class: sum_i (w_i / dim_i) chi_i."""
    scales = [w / r.dim for w, r in zip(family.weights, family.ct.irreps)]
    columns = zip(*(r.values for r in family.ct.irreps))
    return [sum(s * v for s, v in zip(scales, col)) for col in columns]


def class_cost(family, q: int) -> tuple[int, int]:
    """(support, work) of ``class_function(family, q)``, counted without building it.

    ``support`` bounds the class types it is nonzero on, ``work`` the
    class values and pairs of class types it computes.
    """
    from wreathprob.wreath import _capped_count

    kind, ct = family.kind, family.ct
    if kind == "example1":
        # fixed-point types over the G-classes the fibre character is nonzero on
        nonzero = sum(1 for v in example1_fibre(family) if v)
        fixed_point_types = math.comb(q + nonzero - 1, q)
        return fixed_point_types, fixed_point_types
    if kind == "irreducible":
        # a class value walks the splits of its type among the slots, which
        # grow like the irreducibles: each is counted as that many
        types = _capped_count(len(ct.group.conjugacy_classes), q)
        return types, types * _capped_count(ct.num_irreps, q)
    if kind == "restricted":
        return class_cost(family.parent, family.r_of(q))
    if kind == "tensor":
        (s1, w1), (s2, w2) = class_cost(family.left, q), class_cost(family.right, q)
        return min(s1, s2), w1 + w2
    # outer, and induced, which is outer with the regular right block
    q1, q2 = family.split_of(q)
    (s1, w1), (s2, w2) = class_cost(family.left, q1), class_cost(family.right, q2)
    types = _capped_count(len(ct.group.conjugacy_classes), q)
    return min(s1 * s2, types), w1 + w2 + s1 * s2


def class_function(family, q: int) -> dict:
    """Normalized character at size q: {class type: value} on its support."""
    from wreathprob.wreath import class_values, wreath_dimension

    kind, ct = family.kind, family.ct
    if kind == "example1":
        # the tensor power lives on the base group's q-fold product: only
        # fixed-point types, each point contributing the normalized fibre character
        fibre, one = example1_fibre(family), Fraction(1)
        nonzero = [c for c, v in enumerate(fibre) if v]
        return {
            tuple((1, c) for c in classes): math.prod((fibre[c] for c in classes), start=one)
            for classes in itertools.combinations_with_replacement(nonzero, q)
        }
    if kind == "irreducible":
        shapes = family.shapes(q)
        scale = Fraction(1, wreath_dimension(ct, shapes))
        values = {t: class_values(ct, [shapes], t)[0] for t in class_types(ct, q)}
        return {t: v * scale for t, v in values.items() if v}
    if kind == "restricted":
        from wreathprob.wreath import FIXED

        # x at q embeds at r with r - q more identity fixed points
        fixed = family.r_of(q) - q
        return {
            t[fixed:]: v
            for t, v in class_function(family.parent, q + fixed).items()
            if t[:fixed] == (FIXED,) * fixed
        }
    if kind == "tensor":
        # class functions keep nonzero values only, so no product vanishes
        right = class_function(family.right, q)
        return {t: v * right[t] for t, v in class_function(family.left, q).items() if t in right}
    # outer and induced: Frobenius over the splits t = t1 + t2 into the two
    # blocks, each weighted z(t) / (C(q, q1) z(t1) z(t2))
    q1, q2 = family.split_of(q)
    right = class_function(family.right, q2)
    out: dict[tuple, object] = {}
    for t1, v1 in class_function(family.left, q1).items():
        w1 = v1 * Fraction(1, math.comb(q, q1) * centralizer(ct, t1))
        for t2, v2 in right.items():
            t = tuple(sorted(t1 + t2))
            term = w1 * v2 * Fraction(centralizer(ct, t), centralizer(ct, t2))
            out[t] = out.get(t, 0) + term
    return {t: v for t, v in out.items() if v}


def measure_from_class_function(ct, q: int, values: dict) -> dict:
    """Decompose a normalized class function into the probability it induces.

    The mass of one irreducible is its dimension times the inner product
    sum_t values[t] conj(chi(t)) / z(t) over the support.  The weights
    values[t] / z(t) are brought to one denominator first, so the inner
    products run on integer coefficients and divide once.
    """
    from wreathprob.cyclotomics import conjugate_value, numerator_denominator, value_as_fraction
    from wreathprob.wreath import class_values, enumerate_irreps, irreps_by_sizes, wreath_dimension

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


def class_function_measure(family, q: int) -> dict:
    """The size-q measure decomposed from the family's class function.

    Charged as the class route was: the class work plus every supported
    class type paired with every irreducible.
    """
    from wreathprob.wreath import _capped_count, check_class_budget

    support, work = class_cost(family, q)
    check_class_budget(q, work + support * _capped_count(family.ct.num_irreps, q))
    return measure_from_class_function(family.ct, q, class_function(family, q))


# ----------------------------------------------- characters by the class function
#
# The routes the library's moment rules replaced: a tensor moment and a
# condition-1 cumulant read off the family's whole class function at q, each
# charged the class budget its route was charged.


def class_function_tensor_moment(family, q: int, items) -> Fraction:
    """A tensor family's joint moment read off its class function by column orthogonality."""
    from wreathprob.cyclotomics import conjugate_value, value_as_fraction
    from wreathprob.wreath import FIXED, _capped_count, check_class_budget

    # charged as the measure this class function decomposes into
    support, work = class_cost(family, q)
    check_class_budget(q, work + support * _capped_count(family.ct.num_irreps, q))
    cycles = [(z, length) for z, rows in items for length in rows]
    pinned = sum(length for _, length in cycles)
    if pinned > q:
        return Fraction(0)
    values, irreps = class_function(family, q), family.ct.irreps
    classes = family.ct.group.conjugacy_classes
    # a cycle of length l in slot z at G-class c weighs |c| conj chi_z(c) d_z^l
    choices = [
        [
            ((length, c), len(classes[c]) * conjugate_value(chi) * irreps[z].dim**length)
            for c, chi in enumerate(irreps[z].values)
            if chi
        ]
        for z, length in cycles
    ]
    fixed, total = (FIXED,) * (q - pinned), 0
    for combo in itertools.product(*choices):
        t = fixed + tuple(sorted(cycle for cycle, _ in combo))
        if t in values:
            total += values[t] * math.prod(w for _, w in combo)
    scale = Fraction(math.perm(q, pinned), family.ct.group.order ** len(cycles))
    return value_as_fraction(total * scale)


def class_function_element_cumulant(family, q: int, elements):
    """Cumulant of group elements: each block's product read off the class function at q."""
    from wreathprob.asymptotics import cumulant_from_moments
    from wreathprob.errors import InputError
    from wreathprob.wreath import backward_cycles, check_class_budget, class_type, w_mul

    group = family.ct.group
    if any(len(perm) > q for _, perm in elements):
        raise InputError(f"an element has more than q={q} points")
    elements = [
        (tuple(c) + (group.identity,) * (q - len(p)), tuple(p) + tuple(range(len(p), q)))
        for c, p in elements
    ]
    check_class_budget(q, class_cost(family, q)[1])
    values = class_function(family, q)
    identity = ((group.identity,) * q, tuple(range(q)))

    def moment(block):
        colors, perm = identity
        for i in block:
            colors, perm = w_mul(group.mult, (colors, perm), elements[i])
        return values.get(class_type(group, colors, backward_cycles(perm)), Fraction(0))

    return cumulant_from_moments(moment, len(elements))


# ------------------------------------- free-cumulant polynomials by interpolation


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
        out.extend(lam for lam in _all_partitions(w) if all(part >= 2 for part in lam))
    return out


def interpolate_in_free_cumulants(values, max_weight: int, max_size: int) -> dict:
    """Express a diagram functional exactly in free-cumulant monomials.

    ``values`` maps a diagram to a Fraction; the fit runs over all
    diagrams of size at most ``max_size`` and demands a unique exact
    solution among monomials of weight at most ``max_weight``.
    """
    from wreathprob.diagrams import free_cumulants

    monomials = _monomials_up_to_weight(max_weight)
    diagrams = [lam for n in range(max_size + 1) for lam in _all_partitions(n)]
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


def indicator_in_free_cumulants_by_fit(l: int) -> dict:
    """The one-row indicator of length l, fitted on diagrams of size <= l + 2."""
    if l == 0:
        return {(): Fraction(1)}
    return interpolate_in_free_cumulants(lambda lam: indicator_scalar(lam, (l,)), l + 1, l + 2)


def profile_moment_in_free_cumulants_by_fit(k: int) -> dict:
    """The k-th profile power sum, fitted on diagrams of size <= k + 2."""
    from wreathprob.diagrams import profile_moment

    return interpolate_in_free_cumulants(lambda lam: profile_moment(lam, k), k, k + 2)


# ------------------------------------------------------------- growth steps


def growth_weights(lam):
    """Exact growth-step law: (content, grown diagram, probability) triples.

    Each addable corner is weighted by the transition measure of ``lam`` at
    its content; the triples come in ascending content order.
    """
    from wreathprob.diagrams import transition_measure

    lam = tuple(lam)
    tm = transition_measure(lam)
    by_content = dict(zip(tm.atoms, tm.weights))
    out = [(-len(lam), lam + (1,), by_content[-len(lam)])]
    for r in range(len(lam)):
        if r == 0 or lam[r - 1] > lam[r]:
            content = lam[r] - r
            grown = lam[:r] + (lam[r] + 1,) + lam[r + 1 :]
            out.append((content, grown, by_content[content]))
    out.sort()
    return out
