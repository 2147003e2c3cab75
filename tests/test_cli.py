import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathprob import bruteforce, cli, groups, sampling
from wreathprob.cli import main
from wreathprob.groups import (
    GroupTable,
    builtin_group,
    character_table_to_json,
    cyclic_group,
    symmetric3_group,
)
from wreathprob.wreath import Example1Family, enumerate_irreps

from family_trees import PROPERTY_GROUPS, one_per_kind, stray_keys
from oracles import example1_probability

LEFT_REGULAR = '{"kind":"example1","group":"cyclic:2"}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_diagram_single_box(capsys):
    code, out, _ = run(capsys, "diagram", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["transition_measure"]["atoms"] == [-1, 1]
    assert [w["exact"] for w in doc["transition_measure"]["weights"]] == ["1/2", "1/2"]


def test_diagram_empty_and_hook(capsys):
    code, out, _ = run(capsys, "diagram", "")
    assert code == 0
    doc = json.loads(out)
    assert doc["transition_measure"]["atoms"] == [0]
    assert doc["p_tilde"]["2"]["exact"] == "0"

    code, out, _ = run(capsys, "diagram", "2,1")
    doc = json.loads(out)
    assert [c["exact"] for c in doc["free_cumulants"]][:3] == ["0", "3", "0"]


def test_diagram_csv_format(capsys):
    code, out, _ = run(capsys, "diagram", "2,1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "quantity,index,exact,float"
    assert "atom,-2,3/8,0.375" in lines


def test_diagram_malformed_literal(capsys):
    code, _, err = run(capsys, "diagram", "1,3")
    assert code == 2
    assert "usage error" in err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def _parse_outcome(parse, argv):
    """(exit code or return value, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


PARSER_ARGVS = (
    [[], ["--help"], ["frobnicate"], ["--frobnicate"], ["diagram"]]
    + [[name, "--help"] for name in cli.COMMANDS]
    + [[name, "--frobnicate"] for name in cli.COMMANDS]
    + [[name, "extra", "--out"] for name in cli.COMMANDS]
    + [["moments", "--q", "x"], ["limits", "--condition", "5"], ["verify", "--scope", "bogus"]]
)


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_help_and_errors_are_the_full_parsers(argv):
    # compared in this interpreter: argparse's wording varies between versions
    full = _parse_outcome(cli._build_parser().parse_args, argv)
    assert full[0] in (0, 2)
    assert _parse_outcome(main, argv) == full


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_one_command_parser_parses_as_the_full_parser(name):
    sub = cli._build_parser(name)._subparsers._group_actions[0]
    assert list(sub.choices) == [name]
    argv = [name, "1"] if name == "diagram" else [name, "--out", "x", "--workers", "2"]
    assert cli._build_parser(name).parse_args(argv) == cli._build_parser().parse_args(argv)


def test_family_weight_with_zero_denominator(capsys):
    fam = '{"kind":"example1","group":"cyclic:2","weights":["1/0","1"]}'
    code, _, err = run(capsys, "moments", "--family", fam, "--rows", "0:1", "--q", "4")
    assert code == 2
    assert "bad family descriptor" in err


@pytest.mark.parametrize(
    "fam, value",
    [
        ('{"kind":"outer","ratio":0.3,"left":%s,"right":%s}' % (LEFT_REGULAR, LEFT_REGULAR), "0.3"),
        ('{"kind":"example1","group":"cyclic:2","weights":[0.5,"1/2"]}', "0.5"),
        ('{"kind":"irreducible","group":"cyclic:2","weights":["1/2",0.5]}', "0.5"),
        ('{"kind":"restricted","ratio":true,"parent":%s}' % LEFT_REGULAR, "True"),
        # JSON true is an int to isinstance, but no partition part
        ('{"kind":"irreducible","group":"cyclic:2","weights":["1/2","1/2"],"bases":[[true],[1]]}', "True"),
    ],
)
def test_non_rational_number_in_a_descriptor_is_a_usage_error(fam, value, capsys):
    # a float is no exact rational: 0.3 would be read as its binary expansion
    code, out, err = run(capsys, "family", "--family", fam, "--q", "10")
    assert code == 2 and out == ""
    assert "bad family descriptor" in err and value in err and "Traceback" not in err


@settings(max_examples=30, deadline=None)
@given(stray_keys())
def test_unknown_descriptor_key_is_a_usage_error(case):
    doc, key = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["family", "--family", json.dumps(doc)])
    assert code == 2 and out.getvalue() == ""
    assert "bad family descriptor" in err.getvalue() and repr(key) in err.getvalue()


@pytest.mark.parametrize(
    "fam, key",
    [
        ('{"kind":"example1","group":"cyclic:2","multiplicites":[1,0]}', "'multiplicites'"),
        ('{"kind":"induced","ratio":"1/2","parent":%s,"left":%s}' % ((LEFT_REGULAR,) * 2), "'left'"),
        ('{"kind":"irreducible","group":"cyclic:2"}', "'weights'"),
    ],
)
def test_stray_and_missing_descriptor_keys_are_named(fam, key, capsys):
    code, out, err = run(capsys, "family", "--family", fam)
    assert code == 2 and out == ""
    assert "bad family descriptor" in err and key in err and "Traceback" not in err


def test_group_builtin(capsys):
    code, out, _ = run(capsys, "group", "--group", "S3")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 6
    assert sorted(doc["dimensions"]) == [1, 1, 2]
    assert doc["valid"]


# sha256 prefixes of `group --group G` stdout and of the table's JSON
# (indent 2), recorded when cyclotomic coefficients were still all Fractions:
# the canonical int coefficients change neither the validation nor the table
GROUP_DIGESTS = {
    "cyclic:2": ("90ad60e8ad1cfc4c8afe875f", "a37fb3a556e92e98fafbd3f5"),
    "cyclic:3": ("3214b9fd997064cc5e18e294", "f459f937e6083a37c681094b"),
    "S3": ("29921d72731bb906c19f954e", "5e54567d2c26b268fdb30176"),
    "dihedral:4": ("67ede65ca3c2119ed3d4b01b", "c96243624d99072d9b607a8f"),
    "cyclic:4": ("bf80349762e26e9cbb6963f4", "5c27ec1c8004627d4cf5b67b"),
    "cyclic:5": ("c6838ca4e2a0b1bdc93f2d9c", "b4f461cb80b92bf85e9ef0ab"),
    "cyclic:6": ("06022f60a4e7c08c11999f50", "f61d71a5c224531e8b83ca68"),
    "cyclic:7": ("6365f18d524108def9eb2503", "f867a6d117d1f99b6daf9e54"),
    "cyclic:8": ("54f7d350e45d7eb753d48457", "0e979c038827b7e14bc3e434"),
    "cyclic:9": ("106683d86f8b85af5534cfc5", "3a3013b7a2d0d9c4f9260995"),
    "cyclic:10": ("8d9f72441a47e3167c08956d", "e6349f8bccc69aa48fd2fa16"),
    "cyclic:11": ("4e039d88d000d1dec154df9a", "e0943a59aeafa59d5d635c6a"),
    "cyclic:12": ("850812600c2c1e3f8c16030a", "82f19d4a711429e3420848ff"),
}


@pytest.mark.parametrize("spec", GROUP_DIGESTS)
def test_group_json_is_byte_identical(spec, capsys):
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()[:24]

    code, out, _ = run(capsys, "group", "--group", spec)
    assert code == 0
    table = json.dumps(character_table_to_json(builtin_group(spec)), indent=2)
    assert (digest(out), digest(table)) == GROUP_DIGESTS[spec]


@pytest.mark.parametrize(
    "spec, reason",
    [("cyclic:0", "order must be positive"), ("dihedral:2", "dihedral groups start at n = 3")],
)
def test_group_builtin_keeps_its_reason(spec, reason, capsys):
    # a builtin name is not read again as a file path
    code, _, err = run(capsys, "group", "--group", spec)
    assert code == 2
    assert reason in err and "No such file" not in err


def test_group_corrupted_table(capsys, tmp_path):
    doc = character_table_to_json(cyclic_group(2))
    doc["character_table"]["irreps"][1]["values"][1] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "group", "--group", str(path))
    assert code == 1
    assert not json.loads(out)["valid"]


@pytest.mark.parametrize("command", ["group", "verify"])
@pytest.mark.parametrize("text", ["[1]", '"S3"', '{"order": 2}'])
def test_group_file_that_is_no_table_is_a_usage_error(command, text, capsys, tmp_path):
    path = tmp_path / "notatable.json"
    path.write_text(text)
    code, out, err = run(capsys, command, "--group", str(path))
    assert code == 2 and out == ""
    assert "cannot load group" in err


def test_groups_past_their_budgets_exit_3_before_any_table(capsys, monkeypatch, tmp_path):
    def no_work(*args):
        raise AssertionError("a table was built or validated")

    table = character_table_to_json(cyclic_group(31))  # 30752 orthogonality products
    path = tmp_path / "c31.json"
    path.write_text(json.dumps(table))
    monkeypatch.setattr(groups, "GroupTable", no_work)
    monkeypatch.setattr(groups, "conjugate_value", no_work)
    inline = json.dumps({"kind": "example1", "group": table})
    for argv in (
        ["group", "--group", "cyclic:129"],
        ["group", "--group", "dihedral:65"],
        ["verify", "--scope", "characters", "--group", "Z/129"],
        ["family", "--family", '{"kind":"example1","group":"cyclic:129"}'],
        ["sample", "--family", '{"kind":"example1","group":"dihedral:65"}', "--q", "5"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert "budget of 128" in err and "Traceback" not in err, argv
    monkeypatch.setattr(groups, "GroupTable", GroupTable)
    for argv in (
        ["group", "--group", str(path)],
        ["verify", "--scope", "characters", "--group", str(path)],
        ["family", "--family", inline],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert "30752 orthogonality products pass 30000" in err and "Traceback" not in err, argv


def test_tables_past_the_group_order_budget_exit_3_before_any_loop(capsys, monkeypatch, tmp_path):
    def no_loop(*args):
        raise AssertionError("a loop over the table ran")

    # order 129 as plain int rows; the budget reads the row count alone
    rows = [[(i + j) % 129 for j in range(129)] for i in range(129)]
    table = {"order": 129, "mult": rows, "character_table": {"classes": [], "irreps": []}}
    path = tmp_path / "c129.json"
    path.write_text(json.dumps(table))
    monkeypatch.setattr(GroupTable, "_find_identity", no_loop)
    monkeypatch.setattr(GroupTable, "validate_group", no_loop)
    inline = json.dumps({"kind": "example1", "group": table})
    for argv in (
        ["group", "--group", str(path)],
        ["verify", "--scope", "characters", "--group", str(path)],
        ["verify", "--scope", "lemma", "--group", str(path), "--bound", "2"],
        ["family", "--family", inline],
        ["family", "--family", inline, "--q", "2"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert "order 129 passes the order budget of 128" in err and "Traceback" not in err, argv


def test_family_report_with_measure(capsys):
    code, out, _ = run(capsys, "family", "--family", LEFT_REGULAR, "--q", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "example1"
    assert doc["num_slots"] == 2
    c_rows = {(s, i): v for s, i, v in doc["limits"]["c"]}
    assert c_rows[(0, 2)] == "1/2" and c_rows[(1, 2)] == "1/2"
    atoms = {
        tuple(tuple(l) for l in a["shapes"]): a["probability"]["exact"]
        for a in doc["measure"]["atoms"]
    }
    assert atoms[((1,), (1,))] == "1/2"
    assert atoms[((2,), ())] == "1/8"
    assert len(atoms) == 5


def test_family_measure_infeasible(capsys):
    code, _, err = run(capsys, "family", "--family", LEFT_REGULAR, "--q", "50")
    assert code == 3
    assert "infeasible" in err


def measure_atoms(out):
    return {
        tuple(tuple(l) for l in atom["shapes"]): Fraction(atom["probability"]["exact"])
        for atom in json.loads(out)["measure"]["atoms"]
    }


def example1_closed_form(ct, q, multiplicities=None):
    """The multinomial-times-Plancherel masses of an example1 family."""
    fam = Example1Family(ct, multiplicities)
    masses = {t: example1_probability(fam, q, t) for t in enumerate_irreps(ct, q)}
    return {t: p for t, p in masses.items() if p}


@pytest.mark.parametrize("ct", PROPERTY_GROUPS, ids=lambda ct: ct.name)
def test_sample_refuses_every_kind_without_boxes_before_any_draw(capsys, monkeypatch, ct):
    def no_draw(root_seed, index):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(sampling, "_seed_rng", no_draw)
    refused = [fam for fam in one_per_kind(ct) if fam.boxes is None]
    # restricting or inducing the left-regular family gives it back
    assert {fam.kind for fam in refused} == {"irreducible", "outer", "tensor"}
    for fam in refused:
        family = json.dumps(fam.to_json())
        code, _, err = run(capsys, "sample", "--family", family, "--q", "4", "--n-samples", "3")
        assert code == 3, fam.kind
        assert f"family kind {fam.kind!r} has no direct sampler" in err


def test_family_measure_past_enumeration_budget(capsys):
    # the restricted parent lives on 2q points: S3 wr S8 has about 6.8e10
    # elements, but example1's class function reads only its fixed-point
    # types, which fit the class budget, and restricting example1 gives
    # example1 back
    fam = '{"kind":"restricted","ratio":"2","parent":{"kind":"example1","group":"S3"}}'
    for q in (4, 5):
        code, out, _ = run(capsys, "family", "--family", fam, "--q", str(q))
        assert code == 0
        assert measure_atoms(out) == example1_closed_form(symmetric3_group(), q)


def test_moments_csv(capsys):
    code, out, _ = run(
        capsys,
        "moments",
        "--family",
        LEFT_REGULAR,
        "--rows",
        "0:1",
        "--q-grid",
        "4,6,8",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "q,exact,float"
    assert lines[2:] == ["4,2,2.0", "6,3,3.0", "8,4,4.0"]


def test_moments_requires_rows(capsys):
    code, _, err = run(capsys, "moments", "--family", LEFT_REGULAR, "--q", "4")
    assert code == 2
    assert "rows" in err


def test_cumulants_natural_and_free(capsys):
    code, out, _ = run(
        capsys,
        "cumulants",
        "--family",
        LEFT_REGULAR,
        "--rows",
        "0:2;0:2",
        "--q",
        "10",
        "--format",
        "csv",
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "10,45,45.0"

    code, out, _ = run(
        capsys,
        "cumulants",
        "--family",
        LEFT_REGULAR,
        "--rows",
        "0:2",
        "--kind",
        "free",
        "--q",
        "10",
        "--format",
        "csv",
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "10,5,5.0"


def test_free_cumulant_factors_take_one_index(capsys):
    # a second row used to be dropped, giving the cumulant of R_3 alone
    code, out, err = run(
        capsys, "cumulants", "--family", LEFT_REGULAR, "--kind", "free", "--rows", "0:3,2",
        "--q", "6",
    )
    assert code == 2 and out == ""
    assert "single-row factors" in err


def test_limits_constant_mean(capsys):
    code, out, _ = run(
        capsys,
        "limits",
        "--family",
        LEFT_REGULAR,
        "--rows",
        "0:1",
        "--condition",
        "3",
        "--q-grid",
        "4,8,12",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert all(row["scaled"] == "1/2" for row in doc["rows"])


def test_limits_covariance_grid(capsys):
    code, out, _ = run(
        capsys,
        "limits",
        "--family",
        LEFT_REGULAR,
        "--rows",
        "0:2;0:2",
        "--condition",
        "3",
        "--q-grid",
        "10,20,30",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    errors = [Fraction(line.split(",")[4]) for line in lines[2:]]
    assert errors == sorted(errors, reverse=True)
    assert lines[2].split(",")[2] == "9/20"


def test_limits_auto_limit_beyond_default_table_depth(capsys):
    # the order-8 free cumulant of the one-box measure is -5; a table
    # built only to the default depth used to predict 0 here
    one_box = '{"kind":"irreducible","group":"cyclic:2","weights":["1","0"]}'
    code, out, _ = run(
        capsys,
        "limits",
        "--family",
        one_box,
        "--rows",
        "0:8",
        "--condition",
        "4",
        "--q-grid",
        "6,8",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[2].split(",")[3] == "-5"


C2_TENSOR = json.dumps(
    {
        "kind": "tensor",
        "left": {"kind": "example1", "group": "cyclic:2", "multiplicities": [1, 1]},
        "right": {"kind": "example1", "group": "cyclic:2", "multiplicities": [2, 1]},
    }
)


@pytest.mark.parametrize("family", [C2_TENSOR, LEFT_REGULAR])
def test_limits_auto_tensor_table_beyond_default_depth(family, capsys):
    # the product fibre is three copies of the regular one, so the tensor
    # shares the left-regular covariance 8 (1/2)^8; its table used to stop
    # at the default depth and predict 0
    code, out, _ = run(
        capsys, "limits", "--family", family, "--rows", "0:8;0:8", "--q-grid", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out.strip().splitlines()[2].split(",")[3] == "1/32"


def test_family_without_a_limit_table_prints_null(capsys):
    irreducible = {"kind": "irreducible", "group": "cyclic:2", "weights": ["1/2", "1/2"]}
    tensor = json.dumps({"kind": "tensor", "left": irreducible, "right": json.loads(LEFT_REGULAR)})
    code, out, _ = run(capsys, "family", "--family", tensor)
    assert code == 0
    assert json.loads(out)["limits"] is None


def test_a_fault_in_a_limit_table_is_not_printed_as_null(monkeypatch, capsys):
    from wreathprob import asymptotics

    def broken(params, p):
        raise ValueError("a fault, not a missing table")

    monkeypatch.setattr(asymptotics, "restrict_limits", broken)
    parent = json.loads(LEFT_REGULAR)
    restricted = json.dumps({"kind": "restricted", "ratio": "2", "parent": parent})
    with pytest.raises(ValueError, match="a fault"):
        main(["family", "--family", restricted])
    assert capsys.readouterr().out == ""


ONE_IRREP_C2 = {
    "mult": [[0, 1], [1, 0]],
    "character_table": {"classes": [[0], [1]], "irreps": [{"dim": 1, "values": [1, 1]}]},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--q", "3"],
        ["moments", "--rows", "0:2", "--q", "3"],
        ["limits", "--rows", "0:2", "--q-grid", "2,4"],
    ],
)
def test_invalid_inline_table_is_a_bad_family_descriptor(capsys, argv):
    fam = json.dumps({"kind": "example1", "group": ONE_IRREP_C2})
    code, out, err = run(capsys, argv[0], "--family", fam, *argv[1:])
    assert code == 2 and out == ""
    assert "bad family descriptor: invalid character table: 1 irreps for 2" in err
    assert "Traceback" not in err


def test_sample_prediction_beyond_default_table_depth(capsys):
    code, out, _ = run(
        capsys,
        "sample",
        "--family",
        LEFT_REGULAR,
        "--q",
        "10",
        "--n-samples",
        "4",
        "--seed",
        "1",
        "--stats",
        "R:0:9",
    )
    assert code == 0
    lines = out.splitlines()
    summary = json.loads("\n".join(line[2:] for line in lines[lines.index("# {") :]))
    assert summary["predicted_covariance"][0][0] == pytest.approx(8 * 0.5**8)


def test_limits_condition_one_rejected(capsys):
    code, _, err = run(
        capsys,
        "limits",
        "--family",
        LEFT_REGULAR,
        "--rows",
        "0:1",
        "--condition",
        "1",
        "--q-grid",
        "4,8",
    )
    assert code == 2
    assert "--condition" in err and "Traceback" not in err


def test_limits_condition_four_floor_with_an_explicit_limit(capsys):
    # the floor is refused where the conditions live, with or without
    # a predicted limit
    base = ["limits", "--family", LEFT_REGULAR, "--condition", "4", "--q-grid", "4,8"]
    for extra in (["--rows", "0:1", "--limit", "1/2"], ["--rows", "0:2;0:1"]):
        code, out, err = run(capsys, *base, *extra)
        assert code == 2 and out == ""
        assert "start at 2" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["limits", "--rows", "0:2;0:2"],
        ["report"],
    ],
)
def test_repeated_grid_point_is_a_usage_error(argv, capsys):
    # on 10,20,40 the covariance verdict is true; listing 20 twice used to
    # flip it, since the tied error at 20 is no strict decrease
    code, out, _ = run(capsys, *argv, "--family", LEFT_REGULAR, "--q-grid", "10,20,40")
    assert code == 0
    if argv[0] == "limits":
        assert json.loads(out)["verdict"] is True
    code, out, err = run(capsys, *argv, "--family", LEFT_REGULAR, "--q-grid", "10,20,20,40")
    assert code == 2 and out == ""
    assert "repeats" in err and "Traceback" not in err


def test_infeasible_brute_family(capsys):
    # the tensor square of the regular fibre is the fibre with
    # multiplicities [2, 2]: E[slot-0 fixed points] = 9 * 1/2 at q = 9
    tensor = json.dumps(
        {
            "kind": "tensor",
            "left": {"kind": "example1", "group": "cyclic:2", "multiplicities": [1, 1]},
            "right": {"kind": "example1", "group": "cyclic:2", "multiplicities": [1, 1]},
        }
    )
    code, out, _ = run(
        capsys, "moments", "--family", tensor, "--rows", "0:1", "--q", "9"
    )
    assert code == 0
    moment = Fraction(json.loads(out)["rows"][0]["moment"]["exact"])
    assert moment == Fraction(9, 2)
    assert moment == Example1Family(cyclic_group(2), (2, 2)).moment(9, [(0, (1,))])
    # C2 wr S20 has 24842 irreducibles, more than the class budget, but a
    # tensor moment pairs none of them with a class
    code, out, _ = run(
        capsys, "moments", "--family", tensor, "--rows", "0:1", "--q", "20"
    )
    assert code == 0
    assert Fraction(json.loads(out)["rows"][0]["moment"]["exact"]) == 10


def test_sample_deterministic_outputs(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        code = main(
            [
                "sample",
                "--family",
                LEFT_REGULAR,
                "--q",
                "30",
                "--n-samples",
                "60",
                "--seed",
                "5",
                "--stats",
                "R:0:3;R:1:2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    summary_a = json.loads((tmp_path / "a.csv.summary.json").read_text())
    summary_b = json.loads((tmp_path / "b.csv.summary.json").read_text())
    assert summary_a == summary_b
    assert summary_a["n_samples"] == 60
    assert summary_a["insufficient_data"] is True
    assert {e["name"] for e in summary_a["statistics"]} == {"R[0,3]", "R[1,2]"}
    assert "covariance_abs_error" in summary_a
    lines = out_a.read_text().strip().splitlines()
    assert lines[1] == "sample,statistic,raw,centered_scaled"
    assert len(lines) == 2 + 60 * 2


def test_sample_empty_batch(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    code = main(
        [
            "sample",
            "--family",
            LEFT_REGULAR,
            "--q",
            "10",
            "--n-samples",
            "0",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    assert out.read_text().strip().splitlines() == [
        "# schema_version=1",
        "sample,statistic,raw,centered_scaled",
    ]
    summary = json.loads((tmp_path / "empty.csv.summary.json").read_text())
    assert summary["n_samples"] == 0
    assert summary["insufficient_data"] is True


def test_sample_rejects_bad_stats(capsys):
    base = ["sample", "--family", LEFT_REGULAR, "--q", "10", "--n-samples", "2"]
    assert main(base + ["--stats", "R:0:1"]) == 2
    assert main(base + ["--stats", "sigma:0:2"]) == 2
    assert main(["sample", "--family", LEFT_REGULAR, "--n-samples", "2"]) == 2
    capsys.readouterr()


def test_sample_rejects_bad_slot_before_sampling(capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "sample_shapes", no_sampling)
    base = ["sample", "--family", LEFT_REGULAR, "--q", "10", "--n-samples", "3"]
    for stats in ("R:5:2", "R:0:2;character:2:2"):
        code, _, err = run(capsys, *base, "--stats", stats)
        assert code == 2, stats
        assert "slot" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "stats", ["R:0:1", "p:0:1", "character:0:0", "sigma:0:2", "R:-1:2", "R:2:2"]
)
def test_sample_rejects_bad_stats_before_sampling(stats, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "sample_shapes", no_sampling)
    base = ["sample", "--family", LEFT_REGULAR, "--q", "10", "--n-samples", "3"]
    code, out, err = run(capsys, *base, "--stats", stats)
    assert code == 2 and out == ""
    assert "usage error" in err and "Traceback" not in err


def test_sample_summary_key_order(tmp_path, capsys):
    base = ["sample", "--family", LEFT_REGULAR, "--q", "12", "--seed", "3"]
    out = tmp_path / "s.csv"
    assert main(base + ["--n-samples", "5", "--stats", "R:0:2", "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "s.csv.summary.json").read_text())
    assert list(doc) == [
        "n_samples",
        "statistics",
        "covariance",
        "predicted_covariance",
        "covariance_abs_error",
        "schema_version",
        "q",
        "root_seed",
        "insufficient_data",
    ]
    assert main(base + ["--n-samples", "5", "--stats", "p:0:2", "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "s.csv.summary.json").read_text())
    assert list(doc)[3:] == ["schema_version", "q", "root_seed", "insufficient_data"]
    assert main(base + ["--n-samples", "0", "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "s.csv.summary.json").read_text())
    assert doc == {
        "schema_version": 1,
        "q": 12,
        "root_seed": 3,
        "n_samples": 0,
        "insufficient_data": True,
    }
    assert list(doc) == ["schema_version", "q", "root_seed", "n_samples", "insufficient_data"]
    capsys.readouterr()


def test_sample_output_same_for_any_worker_count(capsys):
    base = ["sample", "--family", '{"kind":"example1","group":"S3"}', "--q", "30",
            "--n-samples", "12", "--seed", "9", "--stats", "R:2:2;p:0:3;character:1:2"]
    outputs = [run(capsys, *base, "--workers", w) for w in ("1", "2")]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]


def test_sampled_stream_is_pinned(capsys):
    # the draws, the slot each goes to and every shape reach stdout: any
    # change to the stream or to the insertion changes this digest
    code, out, _ = run(
        capsys, "sample", "--family", '{"kind":"example1","group":"cyclic:2"}', "--q", "300",
        "--n-samples", "20", "--seed", "3", "--stats", "R:0:2;R:0:3;character:0:2",
        "--workers", "1",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "5640fa19d215346574a59d1f58a134c60c406cb814ccf708a28edc43829d87dd"


def test_sample_rejects_negative_seed(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "sample_shapes", no_sampling)
    base = ["sample", "--family", LEFT_REGULAR, "--q", "10", "--n-samples", "2"]
    code, _, err = run(capsys, *base, "--seed", "-1")
    assert code == 2
    assert "seed" in err and "Traceback" not in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "sample", "seed": -1}))
    code, _, err = run(capsys, *base, "--config", str(cfg))
    assert code == 2
    assert "seed" in err


def test_sample_rejects_q_below_one(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before checking q")

    monkeypatch.setattr(cli, "sample_shapes", refuse)
    code, _, err = run(
        capsys, "sample", "--family", LEFT_REGULAR, "--q", "0", "--n-samples", "3"
    )
    assert code == 2
    assert "--q of at least 1" in err and "Traceback" not in err


def test_sample_non_samplable_family(capsys):
    fam = '{"kind":"irreducible","group":"cyclic:2","weights":["1/2","1/2"]}'
    code, _, err = run(capsys, "sample", "--family", fam, "--q", "10")
    assert code == 3


def test_sample_non_samplable_family_refused_before_sampling(capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(sampling, "_sample_range", no_sampling)
    monkeypatch.setattr(cli, "_limit_table", no_sampling)
    fam = '{"kind":"irreducible","group":"cyclic:2","weights":["1/2","1/2"]}'
    code, out, err = run(capsys, "sample", "--family", fam, "--q", "10")
    assert code == 3 and out == ""
    assert "no direct sampler" in err and "Traceback" not in err
    # bad input is refused first, whatever the family
    code, _, err = run(capsys, "sample", "--family", fam, "--q", "10", "--stats", "character:0:0")
    assert code == 2 and "Traceback" not in err


def test_verify_structure_constants_reports_a_wrong_coefficient(capsys, monkeypatch):
    original = bruteforce.product_coefficients

    def perturbed(mu, nu):
        coeffs = dict(original(mu, nu))
        if (mu, nu) == ((2,), (1,)):
            rho = next(iter(coeffs))
            coeffs[rho] += 1
        return coeffs

    monkeypatch.setattr(bruteforce, "product_coefficients", perturbed)
    code, out, _ = run(capsys, "verify", "--scope", "structure-constants", "--bound", "4")
    assert code == 1
    doc = json.loads(out)
    assert not doc["passed"]
    assert doc["failures"] == [{"check": "structure-constants", "mu": [2], "nu": [1]}]


@pytest.fixture
def expansions(monkeypatch):
    """How often each (rows, q) indicator is expanded."""
    calls = Counter()
    original = bruteforce.expand_indicator

    def counting(rows, q):
        calls[rows, q] += 1
        return original(rows, q)

    monkeypatch.setattr(bruteforce, "expand_indicator", counting)
    return calls


def test_structure_constants_expand_each_indicator_once(expansions):
    failures = []
    assert bruteforce.check_structure_constants(6, failures) > 0
    assert failures == []
    assert expansions and set(expansions.values()) == {1}


def test_structure_constants_budget_decided_before_any_expansion(capsys, expansions):
    # bound 7 composes 683 656 partial permutations in 0.7-0.9 s on a shared
    # 2-core Xeon (Python 3.11.7); bound 8 would compose about 1.1e7
    bruteforce.check_structure_budget(7)
    code, out, err = run(capsys, "verify", "--scope", "structure-constants", "--bound", "8")
    assert code == 3 and out == ""
    assert "structure-constant budget" in err
    assert not expansions


def test_verify_scopes_pass(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "structure-constants", "--bound", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and not doc["failures"]

    code, out, _ = run(capsys, "verify", "--scope", "lemma", "--bound", "2")
    assert code == 0
    assert json.loads(out)["passed"]

    code, out, _ = run(capsys, "verify", "--scope", "characters")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    assert any(c["check"] == "wreath-orthogonality" for c in doc["checks"])


def test_verify_corrupted_table_fails(capsys, tmp_path):
    doc = character_table_to_json(cyclic_group(2))
    doc["character_table"]["irreps"][1]["values"][1] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys, "verify", "--scope", "lemma", "--group", str(path), "--bound", "1"
    )
    assert code == 1
    report = json.loads(out)
    assert not report["passed"]
    assert report["failures"]


def test_config_supplies_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "command": "moments",
                "family": json.loads(LEFT_REGULAR),
                "rows": "0:1",
                "q_grid": [4, 6],
                "format": "csv",
            }
        )
    )
    code, out, _ = run(capsys, "moments", "--config", str(cfg))
    assert code == 0
    assert out.strip().splitlines()[2:] == ["4,2,2.0", "6,3,3.0"]

    code, out, _ = run(capsys, "moments", "--config", str(cfg), "--q-grid", "8")
    assert code == 0
    assert out.strip().splitlines()[2:] == ["8,4,4.0"]


def test_abbreviated_flag_is_refused(tmp_path, capsys):
    # flags are spelled in full, as config keys are: an abbreviation unique
    # today would change meaning once its command gains a flag sharing it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"family": json.loads(LEFT_REGULAR), "rows": "0:1", "q_grid": [4, 6]})
    )
    code, out, err = run(capsys, "moments", "--config", str(cfg), "--q-gr", "8")
    assert code == 2 and out == ""
    assert "--q-gr" in err


@pytest.mark.parametrize("kind", ["outer", "tensor"])
def test_constructor_factors_share_the_base_group(kind, capsys):
    def descriptor(right_group):
        doc = {
            "kind": kind,
            "left": {"kind": "example1", "group": "cyclic:3"},
            "right": {"kind": "example1", "group": right_group},
        }
        if kind == "outer":
            doc["ratio"] = "1/2"
        return json.dumps(doc)

    # S3 has three slots too, but its class indices are not C3's
    code, out, err = run(capsys, "family", "--family", descriptor("S3"))
    assert code == 2 and out == ""
    assert "bad family descriptor" in err and "share the base group" in err
    # a separately built table of the same group, under another name
    c3 = dict(character_table_to_json(cyclic_group(3)), name="C3")
    code, _, _ = run(capsys, "family", "--family", descriptor(c3), "--q", "2")
    assert code == 0


@pytest.fixture
def wreath_builds(monkeypatch):
    """(base group order, q) of every WreathGroup built."""
    from wreathprob import bruteforce

    built = []
    original = bruteforce.WreathGroup.__init__

    def counting_init(self, ct, q):
        built.append((ct.group.order, q))
        original(self, ct, q)

    monkeypatch.setattr(bruteforce.WreathGroup, "__init__", counting_init)
    return built


@pytest.fixture
def measure_calls(monkeypatch):
    """(name, q) of every joint moment computed, and (name, None) of every S_n
    character and class-value column that ``wreath`` reads."""
    from wreathprob import wreath

    calls = []

    def counting(name, fn, moment):
        def wrapper(*args, **kwargs):
            calls.append((name, args[1] if moment else None))
            return fn(*args, **kwargs)

        return wrapper

    for cls in wreath.FAMILY_KINDS.values():
        if "_joint_moment" in vars(cls):  # induced inherits outer's rule
            name = f"{cls.kind}._joint_moment"
            monkeypatch.setattr(cls, "_joint_moment", counting(name, cls._joint_moment, True))
    for name in ("sym_character", "class_values"):
        monkeypatch.setattr(wreath, name, counting(name, getattr(wreath, name), False))
    return calls


S3_EXAMPLE1 = {"kind": "example1", "group": "S3"}
S3_FIBRE_201 = {"kind": "example1", "group": "S3", "multiplicities": [2, 0, 1]}
S3_IRREDUCIBLE = {"kind": "irreducible", "group": "S3", "weights": ["1/3", "1/3", "1/3"]}


def test_family_budget_decided_before_any_group_is_built(capsys, wreath_builds, measure_calls):
    # the left block reads S3 wr S16 at q = 8 (restriction by 4 at q1 = 4);
    # the regular fibre vanishes off the identity, so each block has one
    # supported type; an outer product of example1 blocks is example1 again
    fam = {
        "kind": "outer",
        "ratio": "1/2",
        "left": {"kind": "restricted", "ratio": "4", "parent": S3_EXAMPLE1},
        "right": S3_EXAMPLE1,
    }
    for q in (4, 8):
        code, out, _ = run(capsys, "family", "--family", json.dumps(fam), "--q", str(q))
        assert code == 0
        atoms = measure_atoms(out)
        assert sum(atoms.values()) == 1
        assert atoms == example1_closed_form(symmetric3_group(), q)
    assert wreath_builds == []
    # the family is the left-regular one (its ``boxes``), so the counter sees
    # that family's moment rule, down to the S_n characters, and no
    # class-value column: no family kind states a class function
    names = {name for name, _ in measure_calls}
    assert {"example1._joint_moment", "sym_character"} <= names
    assert "class_values" not in names
    from wreathprob.wreath import FAMILY_KINDS

    assert not any(hasattr(cls, "class_function") for cls in FAMILY_KINDS.values())


def test_family_induced_s3_at_q6(capsys, wreath_builds):
    # S3 wr S6 has about 3.4e7 elements; its 221 class types do not
    fam = {"kind": "induced", "ratio": "1/2", "parent": S3_EXAMPLE1}
    code, out, _ = run(capsys, "family", "--family", json.dumps(fam), "--q", "6")
    assert code == 0
    atoms = measure_atoms(out)
    assert sum(atoms.values()) == 1 and all(p > 0 for p in atoms.values())
    assert wreath_builds == []


def _workload_jobs(name, seed=11):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.WORKLOADS[name](seed)


@pytest.mark.parametrize("workload", ["enumeration", "exact"])
def test_benchmark_family_jobs_build_no_group(capsys, wreath_builds, workload):
    jobs = [
        job
        for job in _workload_jobs(workload)
        if job.argv[0] in ("family", "moments", "cumulants")
    ]
    assert jobs
    for job in jobs:
        code, _, err = run(capsys, *job.argv)
        assert code == 0, (job.key, err)
        assert wreath_builds == [], job.key


@pytest.mark.parametrize(
    "fam, q, computed",
    [
        # S3 wr S14 has more irreducibles than the budget: no moment is asked
        ({"kind": "restricted", "ratio": "2", "parent": S3_IRREDUCIBLE}, 14, set()),
        # a tensor of two example1 families: the measure counts S3 wr S40's
        # irreducibles before any moment, even the one-box moments at q = 1
        # that name the tensor's product fibre family
        ({"kind": "tensor", "left": S3_EXAMPLE1, "right": S3_EXAMPLE1}, 40, set()),
    ],
)
def test_family_past_the_irreducible_count_refused_before_any_moment(
    capsys, wreath_builds, measure_calls, fam, q, computed
):
    code, _, err = run(capsys, "family", "--family", json.dumps(fam), "--q", str(q))
    assert code == 3
    assert "class budget" in err
    assert set(measure_calls) == computed
    assert wreath_builds == []


def test_family_past_the_pair_count_refused_before_any_character(
    capsys, wreath_builds, measure_calls
):
    # C2 wr S14 has 2665 irreducibles, but the point mass of ((4,3), (4,3))
    # has 121 nonzero pinning moments in a block of 225 irreducibles; the
    # 89th of them takes the pair count to 89 * 225 = 20025, past the budget
    irreducible = {"kind": "irreducible", "group": "cyclic:2", "weights": ["1/2", "1/2"]}
    fam = {"kind": "restricted", "ratio": "1", "parent": irreducible}
    code, _, err = run(capsys, "family", "--family", json.dumps(fam), "--q", "14")
    assert code == 3
    assert "q=14: class work 20025 passes the class budget" in err
    # the charge runs as the moments come, so it stops at that one: the 1220
    # moments of the slot-size blocks before (7, 7) and 183 of that block's
    # 225, each the parent's moment at the same size
    assert measure_calls.count(("restricted._joint_moment", 14)) == 1220 + 183
    assert not [name for name, _ in measure_calls if name in ("sym_character", "class_values")]
    assert wreath_builds == []


@pytest.mark.parametrize(
    "group, weights, multiplicities",
    [
        ("S3", ["1/3", "1/3", "1/3"], [2, 2, 1]),
        ("cyclic:3", ["1/2", "1/4", "1/4"], [2, 1, 1]),
        ("cyclic:2", ["1/3", "2/3"], [1, 2]),
    ],
)
def test_weights_only_example1_served_before_any_group_is_built(
    group, weights, multiplicities, capsys, wreath_builds
):
    # the weights fix the fibre character over its dimension, so the parent
    # at r = 4 is read at the class level like the multiplicity family with
    # the same weights: no wreath group is built
    def restricted(leaf):
        parent = {"kind": "example1", "group": group, **leaf}
        return json.dumps({"kind": "restricted", "ratio": "2", "parent": parent})

    code, out, _ = run(capsys, "family", "--family", restricted({"weights": weights}), "--q", "2")
    assert code == 0
    code, same, _ = run(
        capsys, "family", "--family", restricted({"multiplicities": multiplicities}), "--q", "2"
    )
    assert code == 0
    assert json.loads(out)["measure"] == json.loads(same)["measure"]
    assert wreath_builds == []


def _fresh_python(code):
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_cli_import_leaves_numpy_unloaded():
    # start-up cost: every command imports the CLI, none needs numpy
    proc = _fresh_python("import sys, wreathprob.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_root_loads_no_submodule():
    # the root re-exports nothing: each name comes from the module that owns it
    proc = _fresh_python(
        "import sys, wreathprob; print(sorted(m for m in sys.modules if m.startswith('wreathprob.')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sample_runs_without_numpy():
    proc = _fresh_python(
        "import sys; sys.modules['numpy'] = None\n"
        "from wreathprob.cli import main\n"
        f"sys.exit(main(['sample', '--family', {LEFT_REGULAR!r}, '--q', '60',"
        " '--n-samples', '30', '--seed', '5', '--stats', 'R:0:2;character:0:2']))"
    )
    assert proc.returncode == 0, proc.stderr
    assert '"n_samples": 30' in proc.stdout


def test_example1_weights_must_match_multiplicities(capsys):
    # the enumerated character follows the multiplicities [1, 0] (all mass
    # on slot 0), so weights 1/2, 1/2 beside them describe another family
    fam = {
        "kind": "example1",
        "group": "cyclic:2",
        "multiplicities": [1, 0],
        "weights": ["1/2", "1/2"],
    }
    code, _, err = run(capsys, "family", "--family", json.dumps(fam), "--q", "2")
    assert code == 2
    assert "weights must equal multiplicity times dim" in err
    fam["weights"] = ["1", "0"]
    code, out, _ = run(capsys, "family", "--family", json.dumps(fam), "--q", "2")
    assert code == 0
    atoms = {
        tuple(tuple(l) for l in a["shapes"]): a["probability"]["exact"]
        for a in json.loads(out)["measure"]["atoms"]
    }
    assert atoms == {((1, 1), ()): "1/2", ((2,), ()): "1/2"}


@pytest.mark.parametrize(
    "multiplicities", [[1.5, 0.9], ["1", 0], [True, 0], [2, -1], [0, 0], [1, 0, 5], 3]
)
def test_example1_multiplicities_must_be_non_negative_integers(multiplicities, capsys):
    # int() used to truncate [1.5, 0.9] to the family [1, 0], and zip() to
    # drop the third multiplicity of [1, 0, 5] over the two irreducibles of C2
    fam = {"kind": "example1", "group": "cyclic:2", "multiplicities": multiplicities}
    code, out, err = run(capsys, "family", "--family", json.dumps(fam))
    assert code == 2 and out == ""
    assert "multiplicities must be non-negative integers" in err


@pytest.mark.parametrize(
    "fam",
    [
        # a string's characters used to be read as weights [1, 0] and [0, 1]
        {"kind": "example1", "group": "cyclic:2", "weights": "10"},
        {"kind": "irreducible", "group": "cyclic:2", "weights": "01"},
        {"kind": "irreducible", "group": "cyclic:2", "weights": {"0": "1/2", "1": "1/2"}},
        {
            "kind": "restricted",
            "ratio": "2",
            "parent": {"kind": "example1", "group": "cyclic:2", "weights": "1"},
        },
    ],
)
def test_family_weights_must_be_a_list(fam, capsys):
    code, out, err = run(capsys, "family", "--family", json.dumps(fam), "--q", "2")
    assert code == 2 and out == ""
    assert "weights must be a list" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, key",
    [("diagram", "partition"), ("group", "group")],
)
def test_config_non_string_value_is_a_usage_error(command, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": command, key: 5}))
    argv = [command, "--config", str(cfg)]
    if command == "diagram":
        argv.insert(1, "1")  # the positional is given here: it is no config key
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert key in err and "Traceback" not in err


def _deep_restricted(depth):
    # written as text: json.dumps itself recurses too deep at this depth
    head = '{"kind":"restricted","ratio":"1","parent":'
    return head * depth + LEFT_REGULAR + "}" * depth


def test_deep_family_descriptor_is_a_usage_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(_deep_restricted(3000))
    code, _, err = run(capsys, "family", "--family", str(deep), "--q", "2")
    assert code == 2
    assert "family" in err and "Traceback" not in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"command":"family","family":' + _deep_restricted(3000) + "}")
    code, _, err = run(capsys, "family", "--config", str(cfg), "--q", "2")
    assert code == 2
    assert "config" in err and "Traceback" not in err
    # a list read whole but nested too deep to be spelled as a flag
    cfg.write_text('{"q":' + "[" * 500 + "]" * 500 + "}")
    code, _, err = run(capsys, "family", "--family", LEFT_REGULAR, "--config", str(cfg))
    assert code == 2
    assert "config" in err


@pytest.mark.parametrize(
    "argv, key, value, text",
    [
        (["moments", "--q", "5"], "rows", [[0, [2, 1]], [2, [1]]], "0:2,1;2:1"),
        (
            ["sample", "--q", "6", "--n-samples", "3"],
            "stats",
            [["R", 2, 3], ["p", 0, 2]],
            "R:2:3;p:0:2",
        ),
    ],
)
def test_config_lists_are_spelled_as_their_flags(argv, key, value, text, tmp_path, capsys):
    argv = [*argv, "--family", json.dumps(S3_EXAMPLE1)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    from_config = run(capsys, *argv, "--config", str(cfg))
    assert from_config[0] == 0, from_config[2]
    assert from_config == run(capsys, *argv, "--" + key.replace("_", "-"), text)


def test_config_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "moments", "familyy": "x"}))
    assert main(["moments", "--config", str(bad)]) == 2
    mismatched = tmp_path / "mismatch.json"
    mismatched.write_text(json.dumps({"command": "limits"}))
    assert main(["moments", "--config", str(mismatched)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key", ["q", "n_samples", "workers", "bound", "seed"])
def test_config_non_integer_value_is_a_usage_error(key, tmp_path, capsys):
    command = "verify" if key == "bound" else "sample"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": command, key: "x"}))
    argv = [command, "--config", str(cfg)]
    if command == "sample":
        argv += ["--family", LEFT_REGULAR]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "--" + key.replace("_", "-") in err and "Traceback" not in err


LIMITS_FLAGS = {"family": LEFT_REGULAR, "rows": "0:2", "q_grid": "4,8", "condition": "3"}
SAMPLE_FLAGS = {"family": LEFT_REGULAR, "q": "4", "n_samples": "3", "stats": "R:0:2"}


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("limits", "condition", "x"),
        ("limits", "tolerance", "x"),
        ("limits", "q_grid", [4, "x"]),
        ("limits", "rows", [[0, ["x"]]]),
        ("sample", "stats", [["R", 0, "x"]]),
    ],
)
def test_config_malformed_value_is_a_usage_error(command, key, value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": command, key: value}))
    flags = LIMITS_FLAGS if command == "limits" else SAMPLE_FLAGS
    argv = [command, "--config", str(cfg)]
    for name, flag_value in flags.items():
        if name != key:
            argv += ["--" + name.replace("_", "-"), flag_value]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "--" + key.replace("_", "-") in err and "Traceback" not in err


def test_limits_malformed_tolerance_flag(capsys):
    argv = ["limits", "--tolerance", "x"]
    for name, value in LIMITS_FLAGS.items():
        argv += ["--" + name.replace("_", "-"), value]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "tolerance" in err


def test_config_rejects_keys_of_other_commands(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "moments", "bound": 3}))
    code, _, err = run(capsys, "moments", "--config", str(cfg))
    assert code == 2
    assert "bound" in err


def test_report_aggregates(capsys):
    code, out, _ = run(
        capsys, "report", "--family", LEFT_REGULAR, "--q-grid", "6,10,14"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert len(doc["reports"]) == 9
    assert doc["limits"]["cov"] is not None


def test_report_output_same_for_any_worker_count(capsys):
    # report reads no --workers, but the flag stays accepted
    base = ["report", "--family", LEFT_REGULAR, "--q-grid", "6,10"]
    outputs = [run(capsys, *base, "--workers", w) for w in ("1", "2")]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]
    descriptions = [r["description"] for r in json.loads(outputs[0][1])["reports"]]
    assert descriptions[3] == "condition 3 at [(0, 1), (0, 1)]"


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--rows", "5:1", "--q", "4"],
        ["moments", "--rows", "5:2", "--q", "4"],
        ["cumulants", "--rows", "2:1;0:1", "--q", "4"],
        ["limits", "--rows", "5:2;5:2", "--q-grid", "4,8"],
    ],
)
def test_out_of_range_factor_slot_is_a_usage_error(argv, capsys):
    code, out, err = run(capsys, *argv, "--family", LEFT_REGULAR)
    assert code == 2
    assert "slot" in err and "Traceback" not in err
    assert out == ""


def test_limits_rejects_negative_tolerance(capsys):
    argv = ["limits", "--tolerance", "-1"]
    for name, value in LIMITS_FLAGS.items():
        argv += ["--" + name.replace("_", "-"), value]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "tolerance" in err


def _c2_irreducible(bases):
    return json.dumps(
        {"kind": "irreducible", "group": "cyclic:2", "weights": ["1/2", "1/2"], "bases": bases}
    )


# a base of zero boxes, a base that is no partition, one base too many
MALFORMED_IRREDUCIBLE = [
    _c2_irreducible([[1], [0]]),
    _c2_irreducible([[1], [1, 2]]),
    _c2_irreducible([[1], [1], [1]]),
]


@pytest.mark.parametrize("fam", MALFORMED_IRREDUCIBLE)
@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--q", "3"],
        ["moments", "--rows", "0:1", "--q", "4"],
        ["limits", "--rows", "0:2", "--q-grid", "4,8"],
    ],
)
def test_malformed_irreducible_bases_are_a_usage_error(fam, argv, capsys):
    code, _, err = run(capsys, *argv, "--family", fam)
    assert code == 2
    assert "bad family descriptor" in err and "Traceback" not in err


@pytest.mark.parametrize("group", [None, "cyclic:3", "S3"])
def test_verify_builds_each_wreath_group_once(group, capsys, wreath_builds):
    argv = ["verify", "--scope", "all"] + (["--group", group] if group else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["passed"]
    # orthogonality and the lemma both read q = 2
    assert (builtin_group(group or "cyclic:2").group.order, 2) in wreath_builds
    assert len(wreath_builds) == len(set(wreath_builds)), wreath_builds


@pytest.mark.parametrize("scope", ["characters", "lemma", "structure-constants", "all"])
@pytest.mark.parametrize("group", [None, "S3", "dihedral:4"])
def test_verify_loads_each_group_spec_once(scope, group, capsys, monkeypatch):
    loads = Counter()
    original = cli._load_group

    def counting(spec):
        loads[spec] += 1
        return original(spec)

    monkeypatch.setattr(cli, "_load_group", counting)
    argv = ["verify", "--scope", scope, "--bound", "2"] + (["--group", group] if group else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["passed"]
    assert set(loads.values()) <= {1}, loads
    if scope != "structure-constants":
        assert loads[group or "cyclic:2"] == 1


def _orthogonality_entry(capsys, group):
    code, out, _ = run(capsys, "verify", "--scope", "characters", "--group", group)
    doc = json.loads(out)
    assert code == 0 and doc["passed"]
    (entry,) = [c for c in doc["checks"] if c["check"] == "wreath-orthogonality"]
    return entry


def test_verify_orthogonality_checks_groups_inside_its_budget(capsys):
    # dihedral:6 has order 12 but six irreducibles: 27 of G wr S_2, 27**3 terms
    entry = _orthogonality_entry(capsys, "dihedral:6")
    assert entry["cases"] == 27**2 and "skipped" not in entry
    # cyclic:10 was the largest cyclic group checked by order; it still is
    assert len(enumerate_irreps(builtin_group("cyclic:10"), 2)) ** 3 <= (
        bruteforce.MAX_ORTHOGONALITY_TERMS
    )


@pytest.mark.parametrize("group", ["cyclic:11", "dihedral:6"])
def test_verify_orthogonality_names_the_groups_it_skips(group, capsys, monkeypatch, wreath_builds):
    # cyclic:11 passes the term budget; dihedral:6 (288 elements) passes a
    # lowered enumeration budget
    monkeypatch.setattr(bruteforce, "MAX_ELEMENTS", 100)
    entry = _orthogonality_entry(capsys, group)
    assert entry == {"check": "wreath-orthogonality", "cases": 0, "skipped": [group]}
    assert wreath_builds == []


@pytest.mark.parametrize("scope", ["lemma", "all"])
def test_verify_budget_decided_before_any_group_is_built(scope, capsys, wreath_builds):
    code, out, err = run(capsys, "verify", "--scope", scope, "--group", "S3", "--bound", "5")
    assert code == 3
    assert "enumeration budget" in err
    assert out == ""
    assert wreath_builds == []


FAMILY_POOL = [
    LEFT_REGULAR,
    json.dumps(S3_EXAMPLE1),
    _c2_irreducible([[2, 1], [1]]),
    json.dumps({"kind": "restricted", "ratio": "2", "parent": json.loads(LEFT_REGULAR)}),
    json.dumps(
        {
            "kind": "outer",
            "ratio": "1/2",
            "left": json.loads(_c2_irreducible([[1], [1]])),
            "right": json.loads(LEFT_REGULAR),
        }
    ),
    *MALFORMED_IRREDUCIBLE,
]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["family", "moments", "cumulants", "limits"]))
    argv = [command, "--family", draw(st.sampled_from(FAMILY_POOL))]
    factors = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)), min_size=1, max_size=3)
    rows = ";".join(f"{slot}:{length}" for slot, length in draw(factors))
    q = str(draw(st.integers(0, 6)))
    grid = ",".join(map(str, draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))))
    if command == "family":
        return argv + (["--q", q] if draw(st.booleans()) else [])
    argv += ["--rows", rows]
    if command == "cumulants":
        argv += ["--kind", draw(st.sampled_from(["natural", "disjoint", "free"]))]
    if command == "limits":
        return argv + ["--condition", str(draw(st.integers(2, 4))), "--q-grid", grid]
    return argv + (["--q-grid", grid] if draw(st.booleans()) else ["--q", q])


@st.composite
def sample_report_argv(draw):
    family = draw(st.sampled_from(FAMILY_POOL))
    if draw(st.booleans()):
        grid = ",".join(map(str, draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))))
        return ["report", "--family", family, "--q-grid", grid]
    # "mean" is no statistic kind
    stat = st.tuples(
        st.sampled_from(["R", "p", "character", "mean"]), st.integers(0, 3), st.integers(0, 4)
    )
    stats = ";".join(f"{k}:{s}:{i}" for k, s, i in draw(st.lists(stat, min_size=1, max_size=2)))
    q, n = draw(st.integers(0, 6)), draw(st.integers(0, 5))
    return ["sample", "--family", family, "--q", str(q), "--n-samples", str(n), "--stats", stats]


@st.composite
def verify_argv(draw):
    # "everything" is no scope, and "no-such-group" is neither builtin nor a file
    scope = draw(st.sampled_from(["characters", "lemma", "structure-constants", "all", "everything"]))
    argv = ["verify", "--scope", scope]
    if draw(st.booleans()):
        group = draw(st.sampled_from(["cyclic:2", "cyclic:3", "S3", "cyclic:0", "no-such-group"]))
        argv += ["--group", group]
    if draw(st.booleans()):
        argv += ["--bound", str(draw(st.one_of(st.integers(0, 3), st.integers(8, 10))))]
    return argv


def _assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@settings(max_examples=200, deadline=None)
@given(cli_argv())
def test_cli_never_raises(argv):
    _assert_clean_exit(argv)


@settings(max_examples=100, deadline=None)
@given(sample_report_argv())
def test_sample_and_report_never_raise(argv):
    _assert_clean_exit(argv)


@settings(max_examples=100, deadline=None)
@given(verify_argv())
def test_verify_never_raises(argv):
    """Bounds 0-3 run (0 is refused as a usage error), 8-10 are past the
    structure-constant and enumeration budgets (exit 3 wherever a scope
    reads the bound), and no bound at all takes the defaults: 6 for
    structure constants, 3 for the lemma."""
    _assert_clean_exit(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--family", LEFT_REGULAR, "--rows", "0:1", "--q", "2"],
        ["sample", "--family", LEFT_REGULAR, "--q", "3", "--n-samples", "2"],
    ],
)
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    path = str(tmp_path / "missing" / "out.txt")
    code, out, err = run(capsys, *argv, "--out", path)
    assert code == 2 and out == ""
    assert path in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["family", "--family", LEFT_REGULAR, "--format", "csv"], "--format"),
        (["group", "--group", "S3", "--format", "json"], "--format"),
        (["verify", "--scope", "characters", "--format", "csv"], "--format"),
        (["report", "--family", LEFT_REGULAR, "--q-grid", "4", "--format", "csv"], "--format"),
        (["report", "--family", LEFT_REGULAR, "--q-grid", "4", "--q", "4"], "--q"),
        (["limits", "--family", LEFT_REGULAR, "--rows", "0:2", "--q-grid", "4", "--q", "5"], "--q"),
        (["family", "--family", LEFT_REGULAR, "--q-grid", "4"], "--q-grid"),
        (["sample", "--family", LEFT_REGULAR, "--q", "3", "--q-grid", "4"], "--q-grid"),
    ],
)
def test_flags_a_command_does_not_read_are_refused(argv, flag, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag}" in err


# each config is checked as the same flags typed on the command line would be
CONFIG_PROBES = [
    (["family"], {"q": 4.9}, "--q"),
    (["family"], {"q": True}, "--q"),
    (["moments"], {"rows": "0:1", "q_grid": [4.9, 6.2]}, "--q-grid"),
    (["moments"], {"q": 3, "rows": [[0.5, [1.9]]]}, "--rows"),
    (["sample"], {"q": 3, "n_samples": 2, "stats": [["R", 0.7, 2.5]]}, "--stats"),
    (["sample"], {"q": 3, "n_samples": 2, "seed": 1.5}, "--seed"),
    (["sample"], {"q": 3, "n_samples": 2, "workers": 1.9}, "--workers"),
    (["sample"], {"q": 3, "n_samples": 2, "help": 1}, "help"),
    (["sample"], {"q": 3, "n_samples": 2, "config": "cfg.json"}, "config"),
    (["limits"], {"rows": "0:2", "q_grid": "4,8", "condition": 2.0}, "--condition"),
    (["limits"], {"rows": "0:2", "q_grid": "4,8", "tolerance": "1/0"}, "--tolerance"),
    (["limits"], {"rows": "0:2", "q_grid": "4,8", "format": "xml"}, "--format"),
    # the positional is no config key: it used to override the one given
    (["diagram", "1"], {"partition": "2,1"}, "partition"),
    (["diagram", "1"], {"partition": None}, "partition"),
]


@pytest.mark.parametrize("argv, doc, flag", CONFIG_PROBES)
def test_config_values_are_checked_as_flags(argv, doc, flag, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    if argv[0] != "diagram":
        argv = [*argv, "--family", LEFT_REGULAR]
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert flag in err


def test_config_null_leaves_the_flag_unset(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": None, "out": None, "workers": None}))
    argv = ["family", "--family", LEFT_REGULAR]
    from_config = run(capsys, *argv, "--config", str(cfg))
    assert from_config[0] == 0
    assert from_config == run(capsys, *argv)


def test_config_number_as_out_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({"out": 5}))
    code, out, _ = run(capsys, "family", "--family", LEFT_REGULAR, "--config", "cfg.json")
    assert code == 0 and out == ""
    assert json.loads(Path("5").read_text())["kind"] == "example1"


# the keys each command reads, besides --out and --workers; the first
# ones are those the command needs
COMMAND_KEYS = {
    "diagram": ["format"],
    "group": ["group"],
    "family": ["family", "q"],
    "moments": ["family", "rows", "q", "q_grid", "format"],
    "cumulants": ["family", "rows", "q", "q_grid", "format", "kind"],
    "limits": ["family", "rows", "q_grid", "format", "condition", "limit", "tolerance"],
    "sample": ["family", "q", "n_samples", "stats", "seed"],
    "verify": ["scope", "group", "bound"],
    "report": ["family", "q_grid"],
}
NEEDED_KEYS = {"family": 1, "moments": 3, "cumulants": 3, "limits": 3, "sample": 3, "report": 2}
# no digit but 0 and no path separator: a string never asks for much work
# and never names a path outside the working directory
JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(0, 3)
    | st.floats(-10, 10)
    | st.text("x0:,;- ", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("x0", max_size=2), inner, max_size=2),
    max_leaves=6,
)
_FACTORS = st.lists(
    st.tuples(st.integers(0, 3), st.lists(st.integers(1, 3), min_size=1, max_size=2)),
    min_size=1,
    max_size=3,
)
MEANINGFUL = {
    "format": st.sampled_from(["csv", "json"]),
    "group": st.sampled_from(["cyclic:2", "S3", "cyclic:0", "no-such-group"]),
    "family": st.sampled_from(FAMILY_POOL) | st.sampled_from(FAMILY_POOL).map(json.loads),
    "q": st.integers(0, 6),
    "q_grid": st.lists(st.integers(1, 8), min_size=1, max_size=3),
    "rows": _FACTORS.map(lambda factors: [[slot, rows] for slot, rows in factors]),
    "kind": st.sampled_from(["natural", "disjoint", "free", "classical"]),
    "condition": st.integers(2, 4),
    "limit": st.sampled_from(["auto", "none", "1/2", 0]),
    "tolerance": st.sampled_from(["1/10", 0.15, -1]),
    "stats": st.lists(
        st.tuples(
            st.sampled_from(["R", "p", "character", "mean"]), st.integers(0, 3), st.integers(0, 4)
        ).map(list),
        min_size=1,
        max_size=2,
    ),
    "n_samples": st.integers(0, 5),
    "seed": st.integers(0, 5),
    "scope": st.sampled_from(["characters", "lemma", "structure-constants", "all", "everything"]),
    "bound": st.integers(0, 3) | st.integers(8, 10),
    "out": st.text("ab.", max_size=3),
    "workers": st.integers(1, 2),
}


@st.composite
def config_file(draw):
    """A config for one command: its needed keys, some others, perhaps one
    key that is no flag of it, and perhaps one junk value."""
    command = draw(st.sampled_from(sorted(COMMAND_KEYS)))
    flags = [*COMMAND_KEYS[command], "out", "workers"]
    needed = NEEDED_KEYS.get(command, 0)
    keys = flags[:needed] + draw(st.lists(st.sampled_from(flags[needed:]), unique=True))
    doc = {key: draw(MEANINGFUL[key]) for key in keys}
    doc["command"] = command
    # middle values: hypothesis favours the ends of a range
    if draw(st.integers(0, 5)) == 2:
        doc[draw(st.sampled_from(["help", "partition", "config", "bogus"]))] = draw(JUNK)
    if draw(st.integers(0, 3)) == 2:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JUNK)
    return command, doc


@settings(max_examples=150, deadline=None)
@given(config_file())
def test_random_config_files_never_raise(case):
    command, doc = case
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # "out" may be any string
        try:
            Path("cfg.json").write_text(json.dumps(doc))
            argv = [command, "--config", "cfg.json"]
            if command == "diagram":
                argv.insert(1, "1")
            _assert_clean_exit(argv)
        finally:
            os.chdir(cwd)
