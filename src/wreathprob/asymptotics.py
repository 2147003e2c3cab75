"""Cumulant scalings, limit constants, and covariance formulas for families.

The four equivalent boundedness conditions on a family of representations
are expressed through classical cumulants of three kinds of observables:
group-algebra elements (condition 1), disjoint products of embedded
indicator sums (condition 2), natural products of the same (condition 3),
and free cumulants of the slot diagrams (condition 4).  Each condition
carries its own power-of-q normalization; the scaled values stay bounded
and, for the first two cumulant orders, converge to limits assembled from
the constant table c_{slot, index}.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomics import conjugate_value, value_as_fraction
from .diagrams import free_cumulants
from .errors import InputError, NoLimitTable
from .indicators import IndicatorSum, free_cumulant_as_indicators
from .wreath import Example1Family, IrreducibleFamily, RepFamily, backward_cycles, class_type, w_mul


_ZERO = Fraction(0)  # shared: a Fraction(0) per table lookup is measurable


def set_partitions(n: int):
    """All partitions of {0..n-1} into nonempty blocks, as tuples of tuples."""
    if n == 0:
        yield ()
        return
    for rest in set_partitions(n - 1):
        last = n - 1
        yield rest + ((last,),)
        for i, block in enumerate(rest):
            yield rest[:i] + (block + (last,),) + rest[i + 1 :]


def _mobius(blocks: int) -> int:
    return (-1) ** (blocks - 1) * math.factorial(blocks - 1)


def cumulant_from_moments(moment, n: int):
    """Classical joint cumulant of n variables from a subset-moment oracle.

    moment receives a tuple of argument indices (a block) and must return
    the expectation of the product of those variables.  Each distinct
    block is asked for once.
    """
    seen = {}
    total = Fraction(0)
    for pi in set_partitions(n):
        term = Fraction(_mobius(len(pi)))
        for block in pi:
            if block not in seen:
                seen[block] = moment(block)
            term *= seen[block]
        total += term
    return total


def natural_cumulant(family: RepFamily, q: int, args):
    """Cumulant of embedded indicator sums under the algebra product.

    args: list of (slot, rows-or-IndicatorSum).  Same-slot factors inside
    one moment block multiply through the structure constants.
    """
    items = [(slot, IndicatorSum.of(rows)) for slot, rows in args]

    def moment(block):
        return family.moment(q, [items[i] for i in block])

    return cumulant_from_moments(moment, len(items))


def disjoint_cumulant(family: RepFamily, q: int, args):
    """Cumulant under the disjoint product: same-slot rows concatenate."""
    items = [(slot, IndicatorSum.of(rows)) for slot, rows in args]

    def moment(block):
        merged: dict[int, IndicatorSum] = {}
        for i in block:
            slot, summ = items[i]
            merged[slot] = merged[slot].disjoint(summ) if slot in merged else summ
        return family.moment(q, sorted(merged.items()))

    return cumulant_from_moments(moment, len(items))


def r_cumulant(family: RepFamily, q: int, args):
    """Cumulant of free cumulants of the random slot diagrams.

    args: list of (slot, n) with n >= 2 the free-cumulant index.  Each R_n
    is rewritten as a sum of conjugacy indicators, so the moment oracle
    answers without enumerating the measure.
    """
    converted = [(slot, free_cumulant_as_indicators(n)) for slot, n in args]
    return natural_cumulant(family, q, converted)


def element_cumulant(family: RepFamily, q: int, elements):
    """Cumulant of group elements under the normalized family character.

    Each moment reads the family's class function at the class type of the
    product element; the elements should have disjoint supports so that
    products are order-independent.
    """
    values = family.checked_class_function(q)
    group = family.ct.group
    identity = ((group.identity,) * q, tuple(range(q)))

    def moment(block):
        colors, perm = identity
        for i in block:
            colors, perm = w_mul(group.mult, (colors, perm), elements[i])
        return values.get(class_type(group, colors, backward_cycles(perm)), Fraction(0))

    return cumulant_from_moments(moment, len(elements))


def condition_exponent(condition: int, args) -> int:
    """Twice the exponent of q applied to the raw cumulant."""
    n = len(args)
    if condition == 1:
        # each permutation's length: size minus cycle count
        lengths = sum(len(perm) - len(backward_cycles(perm)) for _, perm in args)
        return lengths + 2 * (n - 1)
    if condition in (2, 3):
        total = sum(l for _, l in args)
        return -(total - n + 2)
    if condition == 4:
        total = sum(l for _, l in args)
        return -(total - 2 * (n - 1))
    raise ValueError("condition must be 1, 2, 3, or 4")


def raw_cumulant(family: RepFamily, condition: int, q: int, args):
    """The unscaled cumulant behind one scaled quantity.

    args per condition: 1 -> list of (colors, perm) elements at size q;
    2 and 3 -> list of (slot, row length); 4 -> list of (slot, R-index).
    """
    if condition == 1:
        return element_cumulant(family, q, list(args))
    if condition == 2:
        return disjoint_cumulant(family, q, [(s, (l,)) for s, l in args])
    if condition == 3:
        return natural_cumulant(family, q, [(s, (l,)) for s, l in args])
    if condition == 4:
        return r_cumulant(family, q, list(args))
    raise ValueError("condition must be 1, 2, 3, or 4")


def _scale(raw, q: int, condition: int, args):
    # a float power turns the product into float(raw) * power
    return raw * half_power(q, condition_exponent(condition, args))


def scaled_quantity(family: RepFamily, condition: int, q: int, args):
    """One scaled cumulant (args as for ``raw_cumulant``); exact when possible."""
    return _scale(raw_cumulant(family, condition, q, args), q, condition, args)


def composition_sums(c_of, top: int) -> dict:
    """{(l1, l2): [(r, ways), ...]} for l1, l2 <= top, nonzero ways only, r ascending.

    ways sums prod c(a_k+b_k) over pairs of r-part compositions of l1 and l2.
    A path to (l1, l2) only visits smaller prefixes, so top does not matter.
    """
    c = {m: c_of(m) for m in range(2, 2 * top + 1)}
    ways = {(0, 0): Fraction(1)}
    sums: dict = {}
    for r in range(1, top + 1):
        longer: dict = {}
        for (i, j), v in ways.items():
            for x in range(i + 1, top + 1):
                for y in range(j + 1, top + 1):
                    step = c[x - i + y - j]
                    if step:
                        longer[(x, y)] = longer.get((x, y), 0) + v * step
        ways = longer
        for key, v in ways.items():
            if v:
                sums.setdefault(key, []).append((r, v))
    return sums


@dataclass
class LimitParameters:
    """Limit constants of a family: the c table and scaled covariances.

    c maps (slot, index >= 2) to the limit of E[R_index] q^{-index/2};
    cov maps symmetrized (slot1, l1, slot2, l2) to the limit of
    Cov(R_{l1+1}, R_{l2+1}) q^{-(l1+l2)/2}.  Missing keys mean zero.
    cov=None means the covariance table is not determined (the induction
    transform only propagates means).
    """

    slots: int
    c: dict = field(default_factory=dict)
    cov: dict | None = field(default_factory=dict)
    _sums: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def c_value(self, slot: int, index: int):
        if index < 2:
            raise ValueError("free-cumulant limits start at index 2")
        return self.c.get((slot, index), _ZERO)

    @staticmethod
    def _key(s1, l1, s2, l2):
        return min((s1, l1, s2, l2), (s2, l2, s1, l1))

    def covariance(self, s1: int, l1: int, s2: int, l2: int):
        """Limit of Cov(R_{l1+1}(slot s1), R_{l2+1}(slot s2)) q^{-(l1+l2)/2}."""
        if self.cov is None:
            raise ValueError("covariance table not available for this family")
        return self.cov.get(self._key(s1, l1, s2, l2), _ZERO)

    def double_sum(self, slot: int, l1: int, l2: int, weight=None):
        """Sum over equal-length composition pairs of (l1 l2 / r) prod c(a_i+b_i) on this slot.

        weight, if given, maps the common length r to an extra factor.  The
        slot's ``composition_sums`` runs on first use, at the table's depth or
        deeper if asked: c must not change after."""
        top, sums = self._sums.get(slot, (0, None))
        if max(l1, l2) > top:
            top = max(_max_l(self), l1, l2)
            sums = composition_sums(lambda m: self.c_value(slot, m), top)
            self._sums[slot] = (top, sums)
        total = _ZERO
        for r, ways in sums.get((l1, l2), ()):
            term = Fraction(l1 * l2, r) * ways
            total += term if weight is None else term * weight(r)
        return total

    def disjoint_covariance(self, s1: int, l1: int, s2: int, l2: int):
        """Same limit for the disjoint covariance of indicator sums."""
        value = self.covariance(s1, l1, s2, l2)
        if s1 == s2:
            value = value - self.double_sum(s1, l1, l2)
        return value

    def to_json(self) -> dict:
        cov = None if self.cov is None else sorted(self.cov.items())
        return {
            "slots": self.slots,
            "c": [[s, i, str(v)] for (s, i), v in sorted(self.c.items()) if v],
            "cov": None if cov is None else [[*key, str(v)] for key, v in cov if v],
        }


def _check_quantity(condition: int, args) -> None:
    """Refuse a scaled quantity no condition defines, before any cumulant is computed."""
    if condition == 4 and any(l < 2 for _, l in args):
        raise InputError("condition 4 indices start at 2")


def predicted_limit(params: LimitParameters | None, condition: int, args):
    """The table's limit of one scaled quantity: a mean or a covariance entry.

    args as for ``raw_cumulant`` at conditions 2-4.  None where the table
    has no entry: no table, no covariances, or more than two factors.
    """
    _check_quantity(condition, args)
    if params is None or len(args) > 2:
        return None
    if condition == 4:
        # R_l of a slot diagram scales as the row-(l - 1) quantity
        args = [(slot, l - 1) for slot, l in args]
    if len(args) == 1:
        slot, l = args[0]
        return params.c_value(slot, l + 1)
    if params.cov is None:
        return None
    (s1, l1), (s2, l2) = args
    if condition == 2:
        return params.disjoint_covariance(s1, l1, s2, l2)
    return params.covariance(s1, l1, s2, l2)


def limit_covariance_rhs(params: LimitParameters, s1, l1, s2, l2, disjoint_cov_limit):
    """Natural-covariance limit from a disjoint one plus the double sum."""
    if s1 != s2:
        return disjoint_cov_limit
    return disjoint_cov_limit + params.double_sum(s1, l1, l2)


def example1_limits(weights, max_l: int = 6) -> LimitParameters:
    """Limit table of the independent-box family with the given slot weights."""
    weights = [Fraction(w) for w in weights]
    c = {}
    cov = {}
    for z, w in enumerate(weights):
        if w:
            c[(z, 2)] = w
            cov[(z, 1, z, 1)] = w * (1 - w)
            for l in range(2, max_l + 1):
                cov[(z, l, z, l)] = l * w**l
        for z2 in range(z + 1, len(weights)):
            if w and weights[z2]:
                cov[(z, 1, z2, 1)] = -w * weights[z2]
    return LimitParameters(slots=len(weights), c=c, cov=cov)


def half_power(p, k: int):
    """p**(k/2) exactly when possible, else as a float."""
    p = Fraction(p)
    if p < 0:
        raise ValueError("negative base")
    if k == 0:
        return Fraction(1)
    if p == 0:
        return Fraction(0)
    if k % 2 == 0:
        return p ** (k // 2)
    rn, rd = math.isqrt(p.numerator), math.isqrt(p.denominator)
    if rn * rn == p.numerator and rd * rd == p.denominator:
        return Fraction(rn, rd) ** k
    return float(p) ** (k / 2)


def irreducible_limits(family: IrreducibleFamily, max_index: int = 7) -> LimitParameters:
    """Deterministic-shape limits: dilated base cumulants, zero covariance."""
    c = {}
    for z, (w, base) in enumerate(zip(family.weights, family.bases)):
        if not w:
            continue
        rs = free_cumulants(base, max_index)
        ratio = Fraction(w) / sum(base)
        for i in range(2, max_index + 1):
            value = rs[i - 1]
            if value:
                c[(z, i)] = half_power(ratio, i) * value
    return LimitParameters(slots=family.ct.num_irreps, c=c, cov={})


def restrict_limits(params: LimitParameters, p) -> LimitParameters:
    """Limits after restricting from size r_q with q/r_q -> p."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("restriction density must lie in [0, 1]")
    top = _max_l(params)
    if p == 0:
        # only terms whose q powers cancel exactly survive the limit, and
        # they reassemble the independent-box table at the same weights
        weights = [params.c_value(z, 2) for z in range(params.slots)]
        return example1_limits(weights, max_l=top)
    power = {k: half_power(p, k) for k in range(2 * top + 1)}
    c = {(z, i): power[i - 2] * v for (z, i), v in params.c.items() if v}
    weight = {r: p**-r - 1 for r in range(1, top + 1)}.__getitem__

    def entry(s1, l1, s2, l2):
        value = params.covariance(s1, l1, s2, l2)
        c1, c2 = params.c_value(s1, l1 + 1), params.c_value(s2, l2 + 1)
        # skip only an exact-zero pin: a float zero makes the entry a float
        if (c1 and c2) or isinstance(c1, float) or isinstance(c2, float):
            value = value - l1 * l2 * c1 * c2 * (1 / p - 1)
        if s1 == s2:
            value = value + params.double_sum(s1, l1, l2, weight)
        return power[l1 + l2] * value

    cov = None if params.cov is None else _cov_table(params.slots, top, entry)
    return LimitParameters(slots=params.slots, c=c, cov=cov)


def _max_l(params: LimitParameters) -> int:
    top = 2
    for _, i in params.c:
        top = max(top, i - 1)
    if params.cov:
        for _, l1, _, l2 in params.cov:
            top = max(top, l1, l2)
    return top


def _cov_table(slots: int, top: int, entry) -> dict:
    """The nonzero entry(s1, l1, s2, l2) at symmetrized keys, l1, l2 <= top."""
    cov = {}
    for s1 in range(slots):
        for s2 in range(s1, slots):
            for l1 in range(1, top + 1):
                # l2 descends, so each slot's first double sum asks for depth top
                for l2 in reversed(range(l1 if s1 == s2 else 1, top + 1)):
                    value = entry(s1, l1, s2, l2)
                    if value:
                        cov[LimitParameters._key(s1, l1, s2, l2)] = value
    return cov


def induce_limits(params: LimitParameters, p, ct) -> LimitParameters:
    """Means after inducing from size r_q with r_q/q -> p; covariance open."""
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


def outer_limits(left: LimitParameters, right: LimitParameters, p1) -> LimitParameters:
    """Limits of the size-split juxtaposition with left share p1."""
    p1 = Fraction(p1)
    if not 0 <= p1 <= 1:
        raise ValueError("left share must lie in [0, 1]")
    p2 = 1 - p1
    slots = left.slots
    if right.slots != slots:
        raise ValueError("slot counts differ")
    top = max(_max_l(left), _max_l(right))
    power1, power2 = ({k: half_power(p, k) for k in range(2, 2 * top + 1)} for p in (p1, p2))
    c = {
        (z, i): power1[i] * left.c_value(z, i) + power2[i] * right.c_value(z, i)
        for z in range(slots)
        for i in range(2, top + 2)
    }
    out = LimitParameters(slots=slots, c={key: v for key, v in c.items() if v}, cov=None)
    if left.cov is None or right.cov is None:
        return out

    def entry(s1, l1, s2, l2):
        d1 = left.disjoint_covariance(s1, l1, s2, l2)
        d2 = right.disjoint_covariance(s1, l1, s2, l2)
        disjoint = power1[l1 + l2] * d1 + power2[l1 + l2] * d2
        return limit_covariance_rhs(out, s1, l1, s2, l2, disjoint)

    out.cov = _cov_table(slots, top, entry)
    return out


def tensor_limits(
    left: Example1Family, right: Example1Family, max_l: int = 6
) -> LimitParameters:
    """Pointwise product of two independent-box families: the product fibre's table.

    The product of the two normalized fibres is the normalized product
    fibre, so irreducible i weighs dim_i times its class-size-weighted
    inner product with it.
    """
    for fam in (left, right):
        if not isinstance(fam, Example1Family):
            raise NoLimitTable(f"no tensor limit table for family kind {fam.kind!r}")
    ct = left.ct
    sizes = [len(cls) for cls in ct.group.conjugacy_classes]
    weighted = [n * a * b for n, a, b in zip(sizes, left._fibre(), right._fibre())]
    weights = [
        irrep.dim
        * value_as_fraction(sum(w * conjugate_value(v) for w, v in zip(weighted, irrep.values)))
        / ct.group.order
        for irrep in ct.irreps
    ]
    return example1_limits(weights, max_l)


@dataclass
class ConvergenceReport:
    """Grid evaluation of one scaled quantity with an optional limit check."""

    description: str
    rows: list  # (q, raw, scaled, limit, abs_err)
    verdict: bool | None

    def to_json(self) -> dict:
        def show(x):
            if x is None:
                return None
            if isinstance(x, Fraction):
                return str(x)
            return float(x)

        return {
            "description": self.description,
            "rows": [
                {
                    "q": q,
                    "raw": show(raw),
                    "scaled": show(scaled),
                    "limit": show(limit),
                    "abs_err": show(err),
                }
                for q, raw, scaled, limit, err in self.rows
            ],
            "verdict": self.verdict,
        }

    def to_csv(self) -> str:
        lines = ["# schema_version=1", "q,raw,scaled,limit,abs_err,scaled_float"]
        for q, raw, scaled, limit, err in self.rows:
            cells = [str(q)]
            for x in (raw, scaled, limit, err):
                if x is None:
                    cells.append("")
                elif isinstance(x, Fraction):
                    cells.append(str(x))
                else:
                    cells.append(repr(float(x)))
            cells.append(repr(float(scaled)))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def convergence_report(
    family: RepFamily,
    condition: int,
    args,
    q_grid,
    limit=None,
    tolerance: Fraction = Fraction(15, 100),
) -> ConvergenceReport:
    """Evaluate one scaled cumulant over a q grid and judge the trend.

    The verdict (only when a limit is supplied) passes when the absolute
    error strictly decreases along the grid, allowing consecutive exact
    zeros, and the relative error at the largest q is within tolerance.
    A repeated grid point is refused: its tied error is no decrease.
    """
    _check_quantity(condition, args)
    q_grid = sorted(q_grid)
    if len(set(q_grid)) < len(q_grid):
        raise InputError(f"q grid {q_grid} repeats a point")
    description = f"condition {condition} at {list(args)}"
    args = tuple(args)
    rows = []
    for q in q_grid:
        raw = raw_cumulant(family, condition, q, args)
        scaled = _scale(raw, q, condition, args)
        err = None
        if limit is not None:
            err = abs(scaled - limit)
        rows.append((q, raw, scaled, limit, err))
    verdict = None
    if limit is not None:
        errors = [row[4] for row in rows]
        decreasing = all(
            b < a or (a == 0 and b == 0) for a, b in zip(errors, errors[1:])
        )
        last = errors[-1]
        if limit == 0:
            close = last <= tolerance
        else:
            close = last <= tolerance * abs(limit)
        verdict = bool(decreasing and close)
    return ConvergenceReport(description=description, rows=rows, verdict=verdict)
