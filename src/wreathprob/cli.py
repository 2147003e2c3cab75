"""Batch command-line frontend emitting machine-readable reports.

Subcommands: diagram, group, family, moments, cumulants, limits, sample,
verify, report.  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 infeasible request.  Every command is deterministic given its
flags (seeds included); CSV cells carry exact rationals as "p/q" with a
float companion where plotting needs one.
"""

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from .asymptotics import convergence_report, disjoint_cumulant, natural_cumulant
from .asymptotics import DEFAULT_TOLERANCE, predicted_limit, r_cumulant
from .bruteforce import WreathGroup, check_enumeration_budget, check_factorization_lemma
from .bruteforce import check_structure_budget, check_structure_constants
from .bruteforce import check_wreath_orthogonality
from .diagrams import free_cumulants, minima_maxima, profile_moment, transition_measure
from .errors import InputError, NoLimitTable, WreathprobError
from .groups import (
    UnknownGroup,
    builtin_group,
    character_table_from_json,
    validate_character_table,
)
from .partitions import is_partition
from .sampling import SCHEMA_VERSION, check_specs, normality_check, predicted_r_covariance
from .sampling import sample_shapes, spec_name, statistic_columns
from .wreath import family_from_json


# ------------------------------------------------------------ configuration


def _at_least(low, convert=int, what="an integer"):
    """argparse type: ``convert(text)``, refused below ``low``."""

    def number(text):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"want {what}, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    return number


def _flag_text(value, separators=None):
    """A config value as the text of its flag: lists are spelled as the flag is."""
    if isinstance(value, str):
        return value
    if not isinstance(value, list):
        return json.dumps(value)  # numbers, booleans and objects
    if separators is None:
        # [4, 6] -> 4,6; [[0, [2, 1]], [1, [3]]] -> 0:2,1;1:3; [["R", 0, 3]] -> R:0:3
        separators = ";:," if any(isinstance(item, list) for item in value) else ","
    return separators[0].join(_flag_text(item, separators[1:] or ",") for item in value)


def _config_argv(ns, argv):
    """argv with the --config file's keys as flags between the command and the rest.

    Each key becomes its flag and each value that flag's text; null leaves
    the flag unset.  argparse then checks them as typed flags, and the
    explicit flags, parsed later, win.
    """
    try:
        doc = json.loads(Path(ns.config).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read config: {exc}")
    if not isinstance(doc, dict):
        raise InputError("config must be a JSON object")
    if doc.get("command", ns.command) != ns.command:
        raise InputError(f"config is for command {doc['command']!r}, invoked {ns.command!r}")
    # the namespace holds the command name, its flags, the diagram positional and --config
    unknown = set(doc) - (set(vars(ns)) - {"partition", "config"})
    if unknown:
        raise InputError(f"unknown config keys for {ns.command!r}: {sorted(unknown)}")
    try:
        flags = [
            f"--{key.replace('_', '-')}={_flag_text(value)}"
            for key, value in doc.items()
            if key != "command" and value is not None
        ]
    except RecursionError:
        raise InputError("config nests too deep")
    start = argv.index(ns.command) + 1
    return argv[:start] + flags + argv[start:]


# ----------------------------------------------------------------- parsing


def _parse_partition(text):
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InputError(f"malformed partition literal {text!r}")
    if not is_partition(parts):
        raise InputError(f"not a partition (weakly decreasing, positive): {text!r}")
    return parts


def _parse_grid(text):
    """--q-grid '30,10,20' -> [10, 20, 30]."""
    if text is None:
        raise InputError("need --q-grid")
    try:
        grid = sorted(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise InputError(f"malformed --q-grid {text!r}")
    if not grid or grid[0] < 1:
        raise InputError("--q-grid needs positive integers")
    return grid


def _parse_rows(text):
    """Factor list: 'slot:r1,r2;slot:r' -> [(slot, (r1, r2)), (slot, (r,))]."""
    if text is None:
        raise InputError("missing factor rows (--rows)")
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            slot_text, rows_text = chunk.split(":")
            out.append((int(slot_text), tuple(int(r) for r in rows_text.split(","))))
        except ValueError:
            raise InputError(f"malformed --rows factor {chunk!r}; expected slot:r1,r2")
    for slot, rows in out:
        if slot < 0 or not rows or any(r < 1 for r in rows):
            factor = f"{slot}:{','.join(map(str, rows))}"
            raise InputError(f"--rows factor {factor!r} needs slot >= 0 and rows >= 1")
    if not out:
        raise InputError("empty --rows")
    return out


def _parse_indices(value, command):
    """Single-row factors 'slot:l;slot:l' -> [(slot, l), (slot, l)]."""
    factors = _parse_rows(value)
    if any(len(rows) != 1 for _, rows in factors):
        raise InputError(f"{command} wants single-row factors like 0:2")
    return [(slot, rows[0]) for slot, rows in factors]


def _parse_stats(text):
    """Statistic list 'kind:slot:i;kind:slot:i' -> spec triples; sampling checks them."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            kind, slot, index = chunk.split(":")
            out.append((kind, int(slot), int(index)))
        except ValueError:
            raise InputError(f"malformed --stats entry {chunk!r}; expected kind:slot:i")
    if not out:
        raise InputError("empty --stats")
    return out


def _parse_limit(text):
    """argparse type of --limit: 'auto', 'none' (no verdict) or an exact rational."""
    if text in ("auto", "none"):
        return None if text == "none" else text
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"want 'auto', 'none' or p/q, got {text!r}")


def _load_group(spec):
    if spec is None:
        raise InputError("missing group (--group)")
    try:
        return builtin_group(spec)
    except UnknownGroup:
        pass  # not a builtin name: read it as a path
    except WreathprobError:
        raise
    except ValueError as exc:
        raise InputError(f"bad group {spec!r}: {exc}")
    try:
        return character_table_from_json(json.loads(Path(spec).read_text()))
    except WreathprobError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot load group {spec!r}: {exc}")


def _load_family(text):
    if text is None:
        raise InputError("missing family descriptor (--family)")
    text = text.strip()
    if text.startswith("{"):
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"malformed family JSON: {exc}")
    else:
        try:
            doc = json.loads(Path(text).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise InputError(f"cannot load family {text!r}: {exc}")
    try:
        return family_from_json(doc)
    except WreathprobError:
        raise
    except (ValueError, KeyError, TypeError, ZeroDivisionError, RecursionError) as exc:
        raise InputError(f"bad family descriptor: {exc}")


# ---------------------------------------------------------------- rendering


def _num(x):
    """Exact-plus-float rendering of one exact number."""
    frac = Fraction(x)
    return {"exact": str(frac), "float": float(frac)}


def _emit(text, out):
    if out:
        try:
            Path(out).write_text(text)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise InputError(f"cannot write --out {out!r}: {exc}")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _grid_csv(header, rows):
    lines = [f"# schema_version={SCHEMA_VERSION}", header, *map(",".join, rows)]
    return "\n".join(lines) + "\n"


def _value_cells(value):
    frac = Fraction(value)
    return [str(frac), repr(float(frac))]


def _emit_grid(ns, evaluate, name, **fields):
    """One value per q of --q or --q-grid: CSV cells, or JSON rows after ``fields``."""
    if ns.q_grid:
        grid = _parse_grid(ns.q_grid)
    elif ns.q is None:
        raise InputError("need --q or --q-grid")
    else:
        grid = [ns.q]
    rows = [(q, evaluate(q)) for q in grid]
    if ns.format == "csv":
        text = _grid_csv("q,exact,float", [[str(q)] + _value_cells(v) for q, v in rows])
    else:
        doc = {"schema_version": SCHEMA_VERSION, **fields}
        doc["rows"] = [{"q": q, name: _num(v)} for q, v in rows]
        text = json.dumps(doc, indent=2)
    _emit(text, ns.out)
    return 0


def _show(x):
    """A report value: a rational as "p/q", a float as a float, no value as None."""
    if x is None:
        return None
    return str(x) if isinstance(x, Fraction) else float(x)


def _report_json(report):
    columns = ("q", "raw", "scaled", "limit", "abs_err")
    return {
        "description": report.description,
        "rows": [dict(zip(columns, (q, *map(_show, values)))) for q, *values in report.rows],
        "verdict": report.verdict,
    }


def _report_csv(report):
    rows = []
    for q, raw, scaled, limit, err in report.rows:
        # str and repr agree on a float
        cells = ["" if x is None else str(x) for x in map(_show, (raw, scaled, limit, err))]
        rows.append([str(q), *cells, str(float(scaled))])
    return _grid_csv("q,raw,scaled,limit,abs_err,scaled_float", rows)


# ----------------------------------------------------------------- commands


def cmd_diagram(ns):
    lam = _parse_partition(ns.partition)
    order = 6
    tm = transition_measure(lam)
    minima, maxima = minima_maxima(lam)
    cums = free_cumulants(lam, order)
    p_tilde = {n: profile_moment(lam, n) for n in range(2, order + 1)}
    if ns.format == "csv":
        rows = []
        for atom, w in zip(tm.atoms, tm.weights):
            rows.append(["atom", str(atom)] + _value_cells(w))
        for n, c in enumerate(cums, start=1):
            rows.append(["free_cumulant", str(n)] + _value_cells(c))
        for n, p in p_tilde.items():
            rows.append(["p_tilde", str(n)] + _value_cells(p))
        _emit(_grid_csv("quantity,index,exact,float", rows), ns.out)
        return 0
    doc = {
        "schema_version": SCHEMA_VERSION,
        "partition": list(lam),
        "profile": {"minima": list(minima), "maxima": list(maxima)},
        "transition_measure": {
            "atoms": list(tm.atoms),
            "weights": [_num(w) for w in tm.weights],
        },
        "moments": [_num(tm.moment(n)) for n in range(1, order + 1)],
        "free_cumulants": [_num(c) for c in cums],
        "p_tilde": {str(n): _num(p) for n, p in p_tilde.items()},
    }
    _emit(json.dumps(doc, indent=2), ns.out)
    return 0


def cmd_group(ns):
    ct = _load_group(ns.group)
    problems = validate_character_table(ct)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "order": ct.group.order,
        "num_classes": len(ct.group.conjugacy_classes),
        "class_sizes": [len(c) for c in ct.group.conjugacy_classes],
        "dimensions": list(ct.dims()),
        "problems": problems,
        "valid": not problems,
    }
    _emit(json.dumps(doc, indent=2), ns.out)
    return 1 if problems else 0


def _limit_table(fam, need=0):
    """The family's limit table to index ``max(6, need)``, or None where it has none."""
    try:
        return fam.limits(max(6, need))
    except NoLimitTable:
        return None


def cmd_family(ns):
    fam = _load_family(ns.family)
    q = ns.q
    # a refused measure builds no class, and no limit table builds one
    measure = None if q is None else fam.canonical_measure(q)
    params = _limit_table(fam)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": fam.kind,
        "descriptor": fam.to_json(),
        "num_slots": fam.ct.num_irreps,
        "limits": params.to_json() if params else None,
    }
    if q is not None:
        doc["measure"] = {
            "q": q,
            "atoms": [
                {"shapes": [list(l) for l in shapes], "probability": _num(p)}
                for shapes, p in sorted(measure.items())
            ],
        }
    _emit(json.dumps(doc, indent=2), ns.out)
    return 0


def cmd_moments(ns):
    fam = _load_family(ns.family)
    factors = _parse_rows(ns.rows)
    evaluate = lambda q: fam.moment(q, factors)
    return _emit_grid(ns, evaluate, "moment", factors=[[s, list(r)] for s, r in factors])


def cmd_cumulants(ns):
    fam = _load_family(ns.family)
    kind = ns.kind
    if kind == "free":
        args = _parse_indices(ns.rows, "cumulants --kind free")
        evaluate = lambda q: r_cumulant(fam, q, args)
    else:
        cumulant = disjoint_cumulant if kind == "disjoint" else natural_cumulant
        args = _parse_rows(ns.rows)
        evaluate = lambda q: cumulant(fam, q, args)
    return _emit_grid(ns, evaluate, "cumulant", kind=kind)


def cmd_limits(ns):
    fam = _load_family(ns.family)
    condition = ns.condition
    args = _parse_indices(ns.rows, "limits")
    grid = _parse_grid(ns.q_grid)
    limit = ns.limit
    if limit == "auto":
        # the limit table only answers up to its build depth; size it to the
        # requested orders or high-order rows would silently predict zero
        need = max(l for _, l in args) + 1
        limit = predicted_limit(_limit_table(fam, need), condition, args)
    report = convergence_report(
        fam,
        condition,
        args,
        grid,
        limit=limit,
        tolerance=ns.tolerance,
    )
    if ns.format == "csv":
        text = _report_csv(report)
    else:
        text = json.dumps({**_report_json(report), "schema_version": SCHEMA_VERSION}, indent=2)
    _emit(text, ns.out)
    return 0


def _sample_texts(fam, q, root_seed, n, shapes, specs, predicted_cov=None):
    """The CSV of n samples, raw and centered-scaled per statistic, and its JSON summary."""
    rows = []
    summary = {"schema_version": SCHEMA_VERSION, "q": q, "root_seed": root_seed}
    if n:
        names = [spec_name(spec) for spec in specs]
        columns = statistic_columns(fam, q, shapes, specs)
        for i in range(n):
            rows += ([str(i), name, repr(r[i]), repr(c[i])] for name, (r, c) in zip(names, columns))
        stats = list(zip(*(c for _, c in columns)))
        summary = {**normality_check(stats, names, predicted_cov), **summary}
    else:
        summary["n_samples"] = 0
    summary["insufficient_data"] = n < 1000
    return _grid_csv("sample,statistic,raw,centered_scaled", rows), json.dumps(summary, indent=2)


def cmd_sample(ns):
    fam = _load_family(ns.family)
    if ns.q is None:
        raise InputError("need --q")
    q, n = ns.q, ns.n_samples
    if q < 1:
        raise InputError(f"sample needs --q of at least 1, got {q}")
    slots = fam.ct.num_irreps
    specs = _parse_stats(ns.stats) if ns.stats else [("R", slot, 3) for slot in range(slots)]
    check_specs(specs, slots)
    shapes = sample_shapes(fam, q, n, ns.seed, {slot for _, slot, _ in specs}, ns.workers)
    predicted = None
    if n and all(spec[0] == "R" for spec in specs):
        table = _limit_table(fam, max(i for _, _, i in specs))
        predicted = predicted_r_covariance(table, specs)
    csv_text, summary_text = _sample_texts(fam, q, ns.seed, n, shapes, specs, predicted)
    if ns.out:
        _emit(csv_text, ns.out)
        _emit(summary_text, str(ns.out) + ".summary.json")
    else:
        commented = "\n".join("# " + line for line in summary_text.splitlines())
        _emit(csv_text + commented + "\n", None)
    return 0


# ------------------------------------------------------------------- verify


def cmd_verify(ns):
    scope = ns.scope
    characters = scope in ("characters", "all")
    lemma = scope in ("lemma", "all")
    failures = []
    checks = []
    group_specs = [ns.group] if ns.group else ["cyclic:2", "cyclic:3", "S3"]
    structure_bound = ns.bound or 6
    lemma_bound = ns.bound or 3
    if scope in ("structure-constants", "all"):
        check_structure_budget(structure_bound)
    # each spec loads once; the lemma reads the first, cyclic:2 by default
    tables = {}
    for spec in group_specs if characters else group_specs[:1] if lemma else []:
        ct = tables[spec] = _load_group(spec)
        if characters and (problems := validate_character_table(ct)):
            failures.append({"check": "character-table", "group": spec, "problems": problems})
    if lemma:
        # the lemma's largest group is refused before any scope builds one
        check_enumeration_budget(tables[group_specs[0]], lemma_bound)
    # one group per (table, q): the scopes share it and its characters
    wreath_group = cache(WreathGroup)
    if characters:
        checks.append({"check": "character-table", "cases": len(tables)})
        if not failures:
            cases = {
                spec: check_wreath_orthogonality(ct, failures, wreath_group)
                for spec, ct in tables.items()
            }
            entry = {"check": "wreath-orthogonality", "cases": sum(filter(None, cases.values()))}
            if skipped := [spec for spec, n in cases.items() if n is None]:
                entry["skipped"] = skipped
            checks.append(entry)
    if lemma:
        try:
            cases = check_factorization_lemma(
                tables[group_specs[0]], lemma_bound, failures, wreath_group
            )
        except (ValueError, ZeroDivisionError, AssertionError) as exc:
            # an inconsistent table breaks the wreath character construction
            cases = 0
            failures.append({"check": "factorization-lemma", "error": str(exc)})
        checks.append({"check": "factorization-lemma", "cases": cases})
    if scope in ("structure-constants", "all"):
        cases = check_structure_constants(structure_bound, failures)
        checks.append({"check": "structure-constants", "cases": cases})
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scope": scope,
        "checks": checks,
        "failures": failures,
        "passed": not failures,
    }
    _emit(json.dumps(doc, indent=2), ns.out)
    return 0 if not failures else 1


def cmd_report(ns):
    fam = _load_family(ns.family)
    grid = _parse_grid(ns.q_grid)
    slots = fam.ct.num_irreps
    quantities = []
    for slot in range(slots):
        quantities.append((3, [(slot, 1)]))
        quantities.append((3, [(slot, 2)]))
        quantities.append((4, [(slot, 2)]))
        quantities.append((3, [(slot, 1), (slot, 1)]))
    if slots > 1:
        quantities.append((3, [(0, 1), (1, 1)]))
    params = _limit_table(fam)
    reports = [
        convergence_report(
            fam, condition, args, grid, limit=predicted_limit(params, condition, args)
        )
        for condition, args in quantities
    ]
    verdicts = [r.verdict for r in reports if r.verdict is not None]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "family": fam.to_json(),
        "q_grid": grid,
        "reports": [_report_json(r) for r in reports],
        "all_pass": all(verdicts) if verdicts else None,
        "limits": params.to_json() if params else None,
    }
    _emit(json.dumps(doc, indent=2), ns.out)
    return 0


# -------------------------------------------------------------------- main


def _build_parser(invoked=None):
    """The CLI parser; for a known ``invoked`` command, its subparser alone.

    One subparser builds in about half the time of nine.  Its usage names
    every command, so each help, usage and error text is the full parser's.
    """
    # flags are spelled in full, as config keys are: an abbreviation unique
    # today would change meaning once its command gains a flag sharing it
    parser = argparse.ArgumentParser(
        prog="wreathprob",
        description="Exact asymptotics of canonical partition measures.",
        allow_abbrev=False,
    )
    if invoked in COMMANDS:
        names, metavar = [invoked], "{" + ",".join(COMMANDS) + "}"
    else:
        names, metavar = list(COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def command(name, help_text, *, fmt=False, family=False, q=False, grid=False):
        if name not in names:
            return None
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON file supplying these flags")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--workers", type=_at_least(1), default=1)
        if fmt:
            p.add_argument(
                "--format", choices=("csv", "json"), default="json", help="output format"
            )
        if family:
            p.add_argument("--family", help="family JSON: path or inline object")
        if q:
            p.add_argument("--q", type=_at_least(0))
        if grid:
            p.add_argument("--q-grid", dest="q_grid", help="comma list, e.g. 10,20,30")
        return p

    if p := command("diagram", "profile, measure, and cumulants of one partition", fmt=True):
        p.add_argument(
            "partition", help="comma literal like 4,3,1; empty string for the empty diagram"
        )

    if p := command("group", "validate and print a character table"):
        p.add_argument("--group", help="builtin name (cyclic:N, S3, dihedral:N) or JSON path")

    command("family", "describe a family: descriptor, limits, small-q measure", family=True, q=True)

    if p := command(
        "moments", "exact moments of per-slot indicators", fmt=True, family=True, q=True, grid=True
    ):
        p.add_argument("--rows", help="factors like 0:2,1;1:3")

    if p := command(
        "cumulants", "joint cumulants of indicator data", fmt=True, family=True, q=True, grid=True
    ):
        p.add_argument("--rows", help="factors like 0:2;0:1")
        p.add_argument("--kind", choices=("natural", "disjoint", "free"), default="natural")

    if p := command(
        "limits", "scaled-cumulant convergence over a q grid", fmt=True, family=True, grid=True
    ):
        p.add_argument("--rows", help="single-row factors like 0:2;0:2")
        p.add_argument(
            "--condition", type=int, choices=(2, 3, 4), default=3, help="scaling condition"
        )
        p.add_argument(
            "--limit",
            type=_parse_limit,
            default="auto",
            help="expected limit: 'auto', 'none', or p/q",
        )
        p.add_argument(
            "--tolerance",
            type=_at_least(0, Fraction, "a rational number"),
            default=DEFAULT_TOLERANCE,
            help="relative tolerance at the last grid point",
        )

    if p := command("sample", "Monte Carlo canonical-measure fluctuations", family=True, q=True):
        p.add_argument("--stats", help="statistics like R:0:3;character:0:2;p:0:2")
        p.add_argument("--n-samples", dest="n_samples", type=_at_least(0), default=1000)
        p.add_argument("--seed", type=_at_least(0), default=0)

    if p := command("verify", "brute-force oracle identities"):
        p.add_argument(
            "--scope",
            choices=("characters", "lemma", "structure-constants", "all"),
            default="all",
        )
        p.add_argument("--group", help="builtin name or JSON path")
        p.add_argument("--bound", type=_at_least(1), help="size bound for brute enumeration")

    command("report", "aggregate limit report for one family", family=True, grid=True)

    return parser


COMMANDS = {
    "diagram": cmd_diagram,
    "group": cmd_group,
    "family": cmd_family,
    "moments": cmd_moments,
    "cumulants": cmd_cumulants,
    "limits": cmd_limits,
    "sample": cmd_sample,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        ns = parser.parse_args(argv)
        if ns.config:
            ns = parser.parse_args(_config_argv(ns, argv))
        return COMMANDS[ns.command](ns)
    except SystemExit as exc:  # argparse's usage errors and --help
        return int(exc.code or 0)
    except WreathprobError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
