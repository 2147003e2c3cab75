"""Group tables, character tables, validation, JSON round trips."""

import json
from fractions import Fraction

import pytest
from oracles import projection_coefficients

from wreathprob import groups
from wreathprob.cyclotomics import Cyclotomic
from wreathprob.errors import Infeasible
from wreathprob.groups import (
    CharacterTable,
    GroupTable,
    Irrep,
    builtin_group,
    character_table_from_json,
    character_table_to_json,
    cyclic_group,
    dihedral_group,
    symmetric3_group,
    validate_character_table,
)


def test_builtin_groups_validate_clean():
    tables = [cyclic_group(n) for n in range(1, 7)]
    tables += [symmetric3_group()]
    tables += [dihedral_group(n) for n in range(3, 7)]
    for ct in tables:
        assert validate_character_table(ct) == [], ct.name


def _no_table(*args):
    raise AssertionError("a table was built")


def test_builtin_groups_past_the_order_budget_are_refused_before_building(monkeypatch):
    # the largest orders are MAX_GROUP_ORDER = 128: cyclic:128 and dihedral:64
    monkeypatch.setattr(groups, "GroupTable", _no_table)
    for spec in ("cyclic:129", "Z/129", "z/200", "dihedral:65", " Dihedral:100 "):
        with pytest.raises(Infeasible, match="budget of 128"):
            builtin_group(spec)
    for spec in ("cyclic:128", "Z/128", "dihedral:64"):
        with pytest.raises(AssertionError, match="a table was built"):
            builtin_group(spec)
    # bad orders stay usage errors
    with pytest.raises(ValueError, match="order must be positive"):
        builtin_group("cyclic:0")
    with pytest.raises(ValueError, match="start at n = 3"):
        builtin_group("dihedral:2")


def test_tables_past_the_order_budget_are_refused_before_any_loop(monkeypatch):
    def no_loop(*args):
        raise AssertionError("a loop over the table ran")

    monkeypatch.setattr(GroupTable, "_find_identity", no_loop)
    monkeypatch.setattr(GroupTable, "validate_group", no_loop)
    for n in (129, 200):
        rows = [[(i + j) % n for j in range(n)] for i in range(n)]
        with pytest.raises(Infeasible, match=f"order {n} passes the order budget of 128"):
            GroupTable(rows)
        with pytest.raises(Infeasible, match="budget of 128"):
            character_table_from_json({"mult": rows, "character_table": {}})
    # MAX_GROUP_ORDER = 128 itself is admitted, up to the first loop
    with pytest.raises(AssertionError, match="loop over the table ran"):
        GroupTable([[(i + j) % 128 for j in range(128)] for i in range(128)])


def test_validation_past_the_budget_is_refused_before_orthogonality(monkeypatch):
    def no_products(value):
        raise AssertionError("an orthogonality loop ran")

    ct = cyclic_group(31)  # 31 classes: 31^2 * 32 = 30752 products
    monkeypatch.setattr(groups, "conjugate_value", no_products)
    with pytest.raises(Infeasible, match="30752 orthogonality products pass 30000"):
        validate_character_table(ct)
    # k classes take k^2 (k + 1) products: 80 for k = 4, 150 for k = 5
    monkeypatch.setattr(groups, "MAX_ORTHOGONALITY_PRODUCTS", 80)
    with pytest.raises(AssertionError, match="loop ran"):
        validate_character_table(cyclic_group(4))
    with pytest.raises(Infeasible, match="150 orthogonality products pass 80"):
        validate_character_table(cyclic_group(5))
    # a table with too few irreducibles is reported, not refused
    short = CharacterTable(ct.group, ct.irreps[:3])
    assert validate_character_table(short) == ["3 irreps for 31 conjugacy classes"]


def test_cyclic_group_structure():
    ct = cyclic_group(4)
    assert ct.group.order == 4
    assert ct.group.identity == 0
    assert len(ct.group.conjugacy_classes) == 4
    assert ct.dims() == (1, 1, 1, 1)
    i = Cyclotomic.root(4)
    assert ct.value(1, 1) == i
    assert ct.value(1, 2) == -1
    assert ct.value(2, 1) == -1
    assert ct.value(3, 1) == i.conjugate()


def test_symmetric3_table_frozen():
    ct = symmetric3_group()
    sizes = tuple(len(c) for c in ct.group.conjugacy_classes)
    assert sizes == (1, 3, 2)
    assert tuple(r.label for r in ct.irreps) == ("triv", "sign", "std")
    assert ct.irreps[0].values == (1, 1, 1)
    assert ct.irreps[1].values == (1, -1, 1)
    assert ct.irreps[2].values == (2, 0, -1)


def test_dihedral_tables():
    d3 = dihedral_group(3)
    assert tuple(sorted(len(c) for c in d3.group.conjugacy_classes)) == (1, 2, 3)
    assert sorted(d3.dims()) == [1, 1, 2]
    d4 = dihedral_group(4)
    assert sorted(d4.dims()) == [1, 1, 1, 1, 2]
    d5 = dihedral_group(5)
    assert sorted(d5.dims()) == [1, 1, 2, 2]
    # rotation character value is a real cyclotomic, reflections vanish
    rot = next(r for r in d5.irreps if r.dim == 2)
    assert all(isinstance(v, (int, Fraction)) or v == v.conjugate() for v in rot.values)


def test_validate_group_catches_broken_table():
    mult = [list(row) for row in cyclic_group(3).group.mult]
    mult[1][1] = 1  # 1*1 = 1 breaks cancellation/associativity
    with_problems = GroupTable.__new__(GroupTable)
    with_problems.mult = tuple(tuple(r) for r in mult)
    with_problems.order = 3
    with_problems.identity = 0
    with_problems.inverse = (0, 0, 0)
    assert with_problems.validate_group() != []


def test_validate_character_table_catches_bad_value():
    ct = symmetric3_group()
    broken = CharacterTable(
        ct.group,
        [
            ct.irreps[0],
            Irrep(1, (1, -1, 0), "sign"),  # corrupted value
            ct.irreps[2],
        ],
        name="broken",
    )
    assert validate_character_table(broken) != []


def test_json_round_trip():
    for ct in (cyclic_group(4), symmetric3_group(), dihedral_group(4), dihedral_group(5)):
        doc = character_table_to_json(ct)
        text = json.dumps(doc)
        back = character_table_from_json(text)
        assert validate_character_table(back) == []
        assert back.group.mult == ct.group.mult
        assert back.dims() == ct.dims()
        for i in range(ct.num_irreps):
            for g in range(ct.group.order):
                assert back.value(i, g) == ct.value(i, g), (ct.name, i, g)


def test_json_rejects_inconsistent_classes():
    doc = character_table_to_json(cyclic_group(3))
    doc["character_table"]["classes"] = [[0], [1, 2]]
    with pytest.raises(ValueError):
        character_table_from_json(doc)


def test_json_rejects_a_table_without_inverses():
    # 0 is the identity, but nothing times 1 gives it
    doc = character_table_to_json(cyclic_group(2))
    doc["mult"] = [[0, 1], [1, 1]]
    with pytest.raises(ValueError, match="no inverse"):
        character_table_from_json(doc)


def test_projection_coefficients_are_orthogonal_idempotents():
    for ct in (cyclic_group(3), symmetric3_group(), dihedral_group(4)):
        group = ct.group
        projections = [
            projection_coefficients(ct, i) for i in range(ct.num_irreps)
        ]

        def convolve(p, q):
            out = [Fraction(0)] * group.order
            for g in range(group.order):
                total = 0
                for h in range(group.order):
                    total = total + p[h] * q[group.mult[group.inverse[h]][g]]
                out[g] = total
            return out

        for i, p in enumerate(projections):
            assert p[group.identity] == Fraction(ct.irreps[i].dim ** 2, group.order)
            for j, q in enumerate(projections):
                prod = convolve(p, q)
                expected = p if i == j else [0] * group.order
                assert all(a == b for a, b in zip(prod, expected)), (ct.name, i, j)


def test_builtin_group_specs():
    assert builtin_group("S3").name == "sym3"
    assert builtin_group("Z/2").group.order == 2
    assert builtin_group("cyclic:5").group.order == 5
    assert builtin_group("dihedral:4").group.order == 8
    with pytest.raises(ValueError):
        builtin_group("monster")
