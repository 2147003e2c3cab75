"""Finite groups given by multiplication tables, with character data.

Elements are integers indexing a square multiplication table.  A
character table pairs the group with one row of class values per
irreducible; values are ints, Fractions, or cyclotomic numbers.
Everything can round-trip through a plain JSON document, and validators
report structural problems instead of silently accepting bad input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cyclotomics import Cyclotomic, conjugate_value
from .errors import Infeasible

# k^2 (k + 1) orthogonality products for k classes; dihedral:53 (22736) validates in about 1.0 s
MAX_ORTHOGONALITY_PRODUCTS = 30_000
# every group's largest order, checked before any table loop; `family` on cyclic:128: 1.2 s
MAX_GROUP_ORDER = 128


class GroupTable:
    """A finite group as a multiplication table over range(order)."""

    def __init__(self, mult):
        if len(mult) > MAX_GROUP_ORDER:
            raise Infeasible(f"order {len(mult)} passes the order budget of {MAX_GROUP_ORDER}")
        self.mult = tuple(tuple(int(v) for v in row) for row in mult)
        self.order = len(self.mult)
        if any(len(row) != self.order for row in self.mult):
            raise ValueError("multiplication table must be square")
        if any(not (0 <= v < self.order) for row in self.mult for v in row):
            raise ValueError("table entries must index elements")
        self.identity = self._find_identity()
        if any(self.identity not in row for row in self.mult):
            raise ValueError("an element has no inverse")
        self.inverse = tuple(row.index(self.identity) for row in self.mult)

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(
                self.mult[e][g] == g and self.mult[g][e] == g
                for g in range(self.order)
            ):
                return e
        raise ValueError("no identity element")

    def validate_group(self) -> list[str]:
        problems = []
        n = self.order
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.mult[self.mult[a][b]][c] != self.mult[a][self.mult[b][c]]:
                        problems.append(f"associativity fails at ({a},{b},{c})")
                        break
                else:
                    continue
                break
        for g in range(n):
            row = set(self.mult[g])
            col = {self.mult[h][g] for h in range(n)}
            if len(row) != n or len(col) != n:
                problems.append(f"element {g} is not cancellable")
        return problems

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes sorted with the identity class first, then by least element."""
        seen: set[int] = set()
        classes = []
        for g in range(self.order):
            if g in seen:
                continue
            cls = {
                self.mult[self.mult[h][g]][self.inverse[h]]
                for h in range(self.order)
            }
            seen |= cls
            classes.append(tuple(sorted(cls)))
        classes.sort(key=lambda cls: (self.identity not in cls, min(cls)))
        return tuple(classes)

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        out = [0] * self.order
        for k, cls in enumerate(self.conjugacy_classes):
            for g in cls:
                out[g] = k
        return tuple(out)


@dataclass(frozen=True)
class Irrep:
    dim: int
    values: tuple  # one entry per conjugacy class
    label: str


class CharacterTable:
    """A group together with its full list of irreducible characters."""

    def __init__(self, group: GroupTable, irreps, name: str = "group"):
        self.group = group
        self.irreps = tuple(irreps)
        self.name = name

    @property
    def num_irreps(self) -> int:
        return len(self.irreps)

    def value(self, irrep_index: int, element: int):
        return self.irreps[irrep_index].values[self.group.class_of[element]]

    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.irreps)

    def __eq__(self, other) -> bool:
        # the same group and characters, whatever the names and labels
        if not isinstance(other, CharacterTable):
            return NotImplemented
        return self.group.mult == other.group.mult and [
            (r.dim, r.values) for r in self.irreps
        ] == [(r.dim, r.values) for r in other.irreps]

    def __hash__(self) -> int:
        return hash(self.group.mult)


def validate_character_table(ct: CharacterTable) -> list[str]:
    """All structural problems with the table; empty means valid."""
    problems = list(ct.group.validate_group())
    group = ct.group
    classes = group.conjugacy_classes
    if len(ct.irreps) != len(classes):
        problems.append(
            f"{len(ct.irreps)} irreps for {len(classes)} conjugacy classes"
        )
        return problems
    if sum(r.dim**2 for r in ct.irreps) != group.order:
        problems.append("squared dimensions do not sum to the group order")
    identity_class = group.class_of[group.identity]
    for i, irrep in enumerate(ct.irreps):
        if len(irrep.values) != len(classes):
            problems.append(f"irrep {i} has wrong number of values")
            return problems
        if irrep.dim < 1:
            problems.append(f"irrep {i} has nonpositive dimension")
        if irrep.values[identity_class] != irrep.dim:
            problems.append(f"irrep {i} value at identity differs from dim")
    if (products := len(classes) ** 2 * (len(classes) + 1)) > MAX_ORTHOGONALITY_PRODUCTS:
        raise Infeasible(f"{products} orthogonality products pass {MAX_ORTHOGONALITY_PRODUCTS}")
    # row orthogonality
    for i in range(len(ct.irreps)):
        for j in range(i, len(ct.irreps)):
            total = sum(
                len(cls) * ct.irreps[i].values[k] * conjugate_value(ct.irreps[j].values[k])
                for k, cls in enumerate(classes)
            )
            expected = group.order if i == j else 0
            if total != expected:
                problems.append(f"row orthogonality fails for irreps {i},{j}")
    # column orthogonality
    for k1 in range(len(classes)):
        for k2 in range(k1, len(classes)):
            total = sum(
                r.values[k1] * conjugate_value(r.values[k2]) for r in ct.irreps
            )
            expected = (
                Fraction(group.order, len(classes[k1])) if k1 == k2 else 0
            )
            if total != expected:
                problems.append(f"column orthogonality fails for classes {k1},{k2}")
    return problems


def _simplify(v):
    if isinstance(v, Cyclotomic) and v.is_rational():
        f = v.as_fraction()
        return int(f) if f.denominator == 1 else f
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


# ------------------------------------------------------------------ builtins


def cyclic_group(n: int) -> CharacterTable:
    if n < 1:
        raise ValueError("order must be positive")
    if n > MAX_GROUP_ORDER:
        raise Infeasible(f"cyclic:{n} passes the group order budget of {MAX_GROUP_ORDER}")
    mult = [[(i + j) % n for j in range(n)] for i in range(n)]
    group = GroupTable(mult)
    # classes are singletons {0},{1},..., already in element order
    irreps = []
    for j in range(n):
        values = tuple(
            _simplify(Cyclotomic.root(n, (j * k) % n)) for k in range(n)
        )
        irreps.append(Irrep(1, values, f"chi{j}"))
    return CharacterTable(group, irreps, name=f"cyclic{n}")


def symmetric3_group() -> CharacterTable:
    import itertools

    elements = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(elements)}
    mult = [
        [index[tuple(a[b[i]] for i in range(3))] for b in elements]
        for a in elements
    ]
    group = GroupTable(mult)
    # a class's fixed-point count f gives both nontrivial characters: the
    # sign is -1 exactly on transpositions (f = 1), the standard one is f - 1
    reps = [elements[cls[0]] for cls in group.conjugacy_classes]
    fixed = [sum(p[i] == i for i in range(3)) for p in reps]
    irreps = [
        Irrep(1, tuple(1 for _ in fixed), "triv"),
        Irrep(1, tuple(-1 if f == 1 else 1 for f in fixed), "sign"),
        Irrep(2, tuple(f - 1 for f in fixed), "std"),
    ]
    return CharacterTable(group, irreps, name="sym3")


def dihedral_group(n: int) -> CharacterTable:
    """Symmetries of the regular n-gon, order 2n, for n >= 3."""
    if n < 3:
        raise ValueError("dihedral groups start at n = 3 here")
    order = 2 * n
    if order > MAX_GROUP_ORDER:
        raise Infeasible(f"dihedral:{n} has order {order}, past the budget of {MAX_GROUP_ORDER}")

    def idx(i, j):
        return i % n + n * (j % 2)

    mult = [[0] * order for _ in range(order)]
    for i in range(n):
        for j in range(2):
            for i2 in range(n):
                for j2 in range(2):
                    sign = -1 if j2 == 1 else 1
                    # (r^i s^j)(r^i2 s^j2): pull r^i past s^j2
                    mult[idx(i2, j2)][idx(i, j)] = idx(i2 + sign * i, j + j2)
    group = GroupTable(mult)
    irreps = []

    def lin(label, fn):
        values = tuple(
            fn(cls[0] % n, cls[0] // n) for cls in group.conjugacy_classes
        )
        irreps.append(Irrep(1, values, label))

    lin("triv", lambda i, j: 1)
    lin("det", lambda i, j: -1 if j else 1)
    if n % 2 == 0:
        lin("alt", lambda i, j: (-1) ** i)
        lin("altdet", lambda i, j: (-1) ** (i + j))
    for h in range(1, n // 2 + n % 2):
        values = []
        for cls in group.conjugacy_classes:
            i, j = cls[0] % n, cls[0] // n
            if j:
                values.append(0)
            else:
                z = Cyclotomic.root(n, (h * i) % n) + Cyclotomic.root(n, (-h * i) % n)
                values.append(_simplify(z))
        irreps.append(Irrep(2, tuple(values), f"rot{h}"))
    return CharacterTable(group, irreps, name=f"dihedral{n}")


class UnknownGroup(ValueError):
    """A spec that names no builtin group."""


def builtin_group(spec: str) -> CharacterTable:
    """Named groups: 'S3', 'cyclic:<n>' (alias 'Z/<n>'), 'dihedral:<n>'."""
    s = spec.strip()
    low = s.lower()
    if low in ("s3", "sym3"):
        return symmetric3_group()
    for prefix in ("cyclic:", "z/"):
        if low.startswith(prefix):
            return cyclic_group(int(s[len(prefix) :]))
    if low.startswith("dihedral:"):
        return dihedral_group(int(s[len("dihedral:") :]))
    raise UnknownGroup(f"unknown group spec: {spec!r}")


# ---------------------------------------------------------------------- JSON


def _coeff_to_json(c):
    """A rational as JSON: an int when integral, else a "p/q" string."""
    return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _value_to_json(v):
    v = _simplify(v)
    if isinstance(v, (int, Fraction)):
        return _coeff_to_json(v)
    triples = [[v.order, e, _coeff_to_json(c)] for e, c in enumerate(v.coeffs) if c]
    return triples if triples else 0


def _coeff_from_json(c) -> Fraction:
    """The rational an int or a "p/q" string stands for; anything else is refused."""
    if isinstance(c, str):
        num, _, den = c.partition("/")
        return Fraction(int(num), int(den or 1))
    if isinstance(c, int) and not isinstance(c, bool):  # JSON true is no number
        return Fraction(c)
    raise ValueError(f"bad rational literal: {c!r}")


def _value_from_json(v):
    if isinstance(v, (int, str)):
        return _simplify(_coeff_from_json(v))
    if isinstance(v, list):
        triples = [(int(t[0]), int(t[1]), _coeff_from_json(t[2])) for t in v]
        return _simplify(Cyclotomic.from_triples(triples))
    raise ValueError(f"bad character value: {v!r}")


def character_table_to_json(ct: CharacterTable) -> dict:
    return {
        "name": ct.name,
        "order": ct.group.order,
        "mult": [list(row) for row in ct.group.mult],
        "character_table": {
            "classes": [list(cls) for cls in ct.group.conjugacy_classes],
            "irreps": [
                {
                    "dim": r.dim,
                    "label": r.label,
                    "values": [_value_to_json(v) for v in r.values],
                }
                for r in ct.irreps
            ],
        },
    }


def character_table_from_json(data) -> CharacterTable:
    if isinstance(data, str):
        data = json.loads(data)
    group = GroupTable(data["mult"])
    if data.get("order") not in (None, group.order):
        raise ValueError("declared order does not match the table")
    table = data["character_table"]
    declared = [tuple(sorted(cls)) for cls in table["classes"]]
    if sorted(declared) != sorted(group.conjugacy_classes):
        raise ValueError("declared conjugacy classes do not match the table")
    # reorder declared class data into computed class order
    position = {cls: k for k, cls in enumerate(declared)}
    perm = [position[cls] for cls in group.conjugacy_classes]
    irreps = []
    for k, entry in enumerate(table["irreps"]):
        raw = entry["values"]
        values = tuple(_value_from_json(raw[p]) for p in perm)
        irreps.append(Irrep(int(entry["dim"]), values, entry.get("label", f"chi{k}")))
    return CharacterTable(group, irreps, name=data.get("name", "group"))
