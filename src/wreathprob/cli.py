"""Batch command-line frontend emitting machine-readable reports.

Subcommands: diagram, group, family, moments, cumulants, limits, sample,
verify, report.  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 infeasible request.  Every command is deterministic given its
flags (seeds included); CSV cells carry exact rationals as "p/q" with a
float companion where plotting needs one.
"""

import argparse
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path

from .asymptotics import convergence_report, disjoint_cumulant, natural_cumulant
from .asymptotics import predicted_limit, r_cumulant
from .bruteforce import WreathGroup, check_enumeration_budget, tensor_algebra_image
from .cyclotomics import conjugate_value, value_as_fraction
from .diagrams import free_cumulants, minima_maxima, profile_moment, transition_measure
from .errors import Infeasible, InputError, NoLimitTable, WreathprobError
from .groups import (
    UnknownGroup,
    builtin_group,
    character_table_from_json,
    validate_character_table,
)
from .indicators import compose_each, expand_indicator, multiplicity, product_coefficients
from .partitions import is_partition, partitions_of
from .sampling import SCHEMA_VERSION, batch_csv, check_specs, predicted_r_covariance
from .sampling import require_direct_sampler, sample_batch, summary_json
from .wreath import (
    enumerate_irreps,
    factorized_character,
    family_from_json,
    wreath_dimension,
)


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
    except ValueError as exc:
        raise InputError(f"bad group {spec!r}: {exc}")
    try:
        return character_table_from_json(json.loads(Path(spec).read_text()))
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
    except (ValueError, KeyError, TypeError, ZeroDivisionError, RecursionError) as exc:
        raise InputError(f"bad family descriptor: {exc}")


# ---------------------------------------------------------------- rendering


def _num(x):
    """Exact-plus-float rendering of one number."""
    if isinstance(x, float):
        return {"exact": None, "float": x}
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
    lines = [f"# schema_version={SCHEMA_VERSION}", header]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _value_cells(value):
    if isinstance(value, float):
        return ["", repr(value)]
    frac = Fraction(value)
    return [str(frac), repr(float(frac))]


# ----------------------------------------------------------------- commands


def cmd_diagram(ns):
    lam = _parse_partition(ns.partition)
    order = 6
    tm = transition_measure(lam)
    minima, maxima = minima_maxima(lam)
    cums = free_cumulants(lam, order)
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
        "p_tilde": {str(n): _num(profile_moment(lam, n)) for n in range(2, order + 1)},
    }
    if ns.format == "csv":
        rows = []
        for atom, w in zip(tm.atoms, tm.weights):
            rows.append(["atom", str(atom)] + _value_cells(w))
        for n, c in enumerate(cums, start=1):
            rows.append(["free_cumulant", str(n)] + _value_cells(c))
        for n in range(2, order + 1):
            rows.append(["p_tilde", str(n)] + _value_cells(profile_moment(lam, n)))
        _emit(_grid_csv("quantity,index,exact,float", rows), ns.out)
    else:
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


def _limit_table(fam, max_index=6):
    """The family's limit table, or None where its constructor tree has none."""
    try:
        return fam.limits(max_index)
    except NoLimitTable:
        return None


def cmd_family(ns):
    fam = _load_family(ns.family)
    params = _limit_table(fam)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": fam.kind,
        "descriptor": fam.to_json(),
        "num_slots": fam.ct.num_irreps,
        "limits": params.to_json() if params else None,
    }
    q = ns.q
    if q is not None:
        measure = fam.canonical_measure(q)
        doc["measure"] = {
            "q": q,
            "atoms": [
                {"shapes": [list(l) for l in shapes], "probability": _num(p)}
                for shapes, p in sorted(measure.items())
            ],
        }
    _emit(json.dumps(doc, indent=2), ns.out)
    return 0


def _grid_values(ns, evaluate):
    if ns.q_grid:
        grid = _parse_grid(ns.q_grid)
    elif ns.q is None:
        raise InputError("need --q or --q-grid")
    else:
        grid = [ns.q]
    return [(q, evaluate(q)) for q in grid]


def cmd_moments(ns):
    fam = _load_family(ns.family)
    factors = _parse_rows(ns.rows)
    rows = _grid_values(ns, lambda q: fam.moment(q, factors))
    if ns.format == "csv":
        csv_rows = [[str(q)] + _value_cells(v) for q, v in rows]
        _emit(_grid_csv("q,exact,float", csv_rows), ns.out)
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "factors": [[s, list(r)] for s, r in factors],
            "rows": [{"q": q, "moment": _num(v)} for q, v in rows],
        }
        _emit(json.dumps(doc, indent=2), ns.out)
    return 0


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
    rows = _grid_values(ns, evaluate)
    if ns.format == "csv":
        csv_rows = [[str(q)] + _value_cells(v) for q, v in rows]
        _emit(_grid_csv("q,exact,float", csv_rows), ns.out)
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": kind,
            "rows": [{"q": q, "cumulant": _num(v)} for q, v in rows],
        }
        _emit(json.dumps(doc, indent=2), ns.out)
    return 0


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
        limit = predicted_limit(_limit_table(fam, max(6, need)), condition, args)
    report = convergence_report(
        fam,
        condition,
        args,
        grid,
        limit=limit,
        tolerance=ns.tolerance,
    )
    if ns.format == "csv":
        _emit(report.to_csv(), ns.out)
    else:
        doc = report.to_json()
        doc["schema_version"] = SCHEMA_VERSION
        _emit(json.dumps(doc, indent=2), ns.out)
    return 0


def cmd_sample(ns):
    fam = _load_family(ns.family)
    if ns.q is None:
        raise InputError("need --q")
    q = ns.q
    if q < 1:
        raise InputError(f"sample needs --q of at least 1, got {q}")
    n = ns.n_samples
    seed = ns.seed
    slots = fam.ct.num_irreps
    specs = _parse_stats(ns.stats) if ns.stats else [("R", slot, 3) for slot in range(slots)]
    check_specs(specs, slots)
    require_direct_sampler(fam)
    batch = sample_batch(fam, q, n, root_seed=seed, workers=ns.workers)
    predicted = None
    if n and all(spec[0] == "R" for spec in specs):
        depth = max(6, *(i for _, _, i in specs))
        predicted = predicted_r_covariance(fam.limits(depth), specs)
    csv_text = batch_csv(batch, specs)
    summary_text = summary_json(batch, specs, predicted)
    if ns.out:
        _emit(csv_text, ns.out)
        _emit(summary_text, str(ns.out) + ".summary.json")
    else:
        commented = "\n".join("# " + line for line in summary_text.splitlines())
        _emit(csv_text + commented + "\n", None)
    return 0


# ------------------------------------------------------------------- verify


def _check_character_tables(group_specs, failures):
    cases = 0
    for spec in group_specs:
        ct = _load_group(spec)
        cases += 1
        problems = validate_character_table(ct)
        if problems:
            failures.append({"check": "character-table", "group": spec, "problems": problems})
    return cases


def _check_wreath_orthogonality(ct, q, failures):
    wg = WreathGroup(ct, q)
    tuples = enumerate_irreps(ct, q)
    sizes = wg.class_sizes()
    chars = {t: wg.irreducible_character(t) for t in tuples}
    cases = 0
    if sum(wreath_dimension(ct, t) ** 2 for t in tuples) != wg.order:
        failures.append({"check": "wreath-dimensions", "q": q})
    for t1 in tuples:
        for t2 in tuples:
            cases += 1
            dot = 0
            for k, size in enumerate(sizes):
                dot = dot + size * chars[t1][k] * conjugate_value(chars[t2][k])
            expected = wg.order if t1 == t2 else 0
            if dot != expected:
                failures.append(
                    {
                        "check": "wreath-orthogonality",
                        "q": q,
                        "pair": [list(map(list, t1)), list(map(list, t2))],
                    }
                )
    return cases


def _check_factorization_lemma(ct, bound, failures):
    """Factorized characters against explicit traces, every irreducible."""
    cases = 0
    slots = len(ct.irreps)
    factor_sets = [
        ((0, (1,)),),
        ((0, (2,)),),
        ((0, (1, 1)),),
        ((0, (2,)), (0, (1,))),
    ]
    if slots > 1:
        factor_sets.append(((0, (2,)), (1, (1,))))
        factor_sets.append(((1, (2,)),))
    for q in range(1, bound + 1):
        wg = WreathGroup(ct, q)
        # the images, summed per class, do not depend on the irreducible
        images = []
        for factors in factor_sets:
            per_class = {}
            for idx, coeff in tensor_algebra_image(wg, factors).items():
                k = wg.class_of[idx]
                per_class[k] = per_class.get(k, 0) + coeff
            images.append(per_class)
        for lam_tuple in enumerate_irreps(ct, q):
            chi = wg.irreducible_character(lam_tuple)
            dim = wreath_dimension(ct, lam_tuple)
            for factors, image in zip(factor_sets, images):
                cases += 1
                actual = 0
                for k, coeff in image.items():
                    actual = actual + coeff * chi[k]
                actual = value_as_fraction(actual) / dim
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


# products of partial permutations the structure-constant check may
# compose: bound 7 makes 683 656 of them in 0.7-0.9 s on a shared 2-core Xeon
# (Python 3.11.7), bound 8 about 1.1e7
MAX_STRUCTURE_PRODUCTS = 10**6


def _check_structure_budget(bound):
    """Refuse a bound past the budget before any indicator is expanded.

    A pair of sizes (a, t - a) composes every partial permutation with
    support a with every one with support t - a, on t points:
    falling(t, a) falling(t, t - a) = t! C(t, a) products.
    """
    products = sum(math.factorial(t) * (2**t - 2) for t in range(2, bound + 1))
    if products > MAX_STRUCTURE_PRODUCTS:
        raise Infeasible(
            f"--bound {bound}: {products} partial-permutation products pass the"
            f" structure-constant budget of {MAX_STRUCTURE_PRODUCTS}"
        )


def _check_structure_constants(bound, failures):
    """Indicator products against explicit partial-permutation algebra."""

    @cache
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
                        m, ps = expand(rho, q0)
                        # structure constants are integers: summed as ints
                        # they skip Fraction arithmetic on every term
                        count = (coeff.numerator if coeff.denominator == 1 else coeff) * m
                        for p in ps:
                            rhs[p] = rhs.get(p, 0) + count
                    # counts of zero mean absent; lhs has none, its weights
                    # being positive
                    rhs = {p: n for p, n in rhs.items() if n}
                    if lhs != rhs:
                        failures.append(
                            {
                                "check": "structure-constants",
                                "mu": list(mu),
                                "nu": list(nu),
                            }
                        )
    return cases


def cmd_verify(ns):
    scope = ns.scope
    failures = []
    checks = []
    group_specs = [ns.group] if ns.group else ["cyclic:2", "cyclic:3", "S3"]
    structure_bound = ns.bound or 6
    if scope in ("structure-constants", "all"):
        _check_structure_budget(structure_bound)
    if scope in ("lemma", "all"):
        # the lemma's largest group is refused before any scope builds one
        lemma_ct = _load_group(ns.group) if ns.group else builtin_group("cyclic:2")
        lemma_bound = ns.bound or 3
        check_enumeration_budget(lemma_ct, lemma_bound)
    if scope in ("characters", "all"):
        cases = _check_character_tables(group_specs, failures)
        checks.append({"check": "character-table", "cases": cases})
        if not failures:
            total = 0
            for spec in group_specs:
                ct = _load_group(spec)
                if ct.group.order**2 * 2 <= 200:
                    total += _check_wreath_orthogonality(ct, 2, failures)
            checks.append({"check": "wreath-orthogonality", "cases": total})
    if scope in ("lemma", "all"):
        try:
            cases = _check_factorization_lemma(lemma_ct, lemma_bound, failures)
        except (ValueError, ZeroDivisionError, AssertionError) as exc:
            # an inconsistent table breaks the wreath character construction
            cases = 0
            failures.append({"check": "factorization-lemma", "error": str(exc)})
        checks.append({"check": "factorization-lemma", "cases": cases})
    if scope in ("structure-constants", "all"):
        cases = _check_structure_constants(structure_bound, failures)
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
        "reports": [r.to_json() for r in reports],
        "all_pass": all(verdicts) if verdicts else None,
        "limits": params.to_json() if params else None,
    }
    _emit(json.dumps(doc, indent=2), ns.out)
    return 0


# -------------------------------------------------------------------- main


def _build_parser():
    # flags are spelled in full, as config keys are: an abbreviation unique
    # today would change meaning once its command gains a flag sharing it
    parser = argparse.ArgumentParser(
        prog="wreathprob",
        description="Exact asymptotics of canonical partition measures.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, *, fmt=False, family=False, q=False, grid=False):
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

    p = command("diagram", "profile, measure, and cumulants of one partition", fmt=True)
    p.add_argument("partition", help="comma literal like 4,3,1; empty string for the empty diagram")

    p = command("group", "validate and print a character table")
    p.add_argument("--group", help="builtin name (cyclic:N, S3, dihedral:N) or JSON path")

    command("family", "describe a family: descriptor, limits, small-q measure", family=True, q=True)

    p = command(
        "moments", "exact moments of per-slot indicators", fmt=True, family=True, q=True, grid=True
    )
    p.add_argument("--rows", help="factors like 0:2,1;1:3")

    p = command(
        "cumulants", "joint cumulants of indicator data", fmt=True, family=True, q=True, grid=True
    )
    p.add_argument("--rows", help="factors like 0:2;0:1")
    p.add_argument(
        "--kind", choices=("natural", "disjoint", "free"), default="natural"
    )

    p = command(
        "limits", "scaled-cumulant convergence over a q grid", fmt=True, family=True, grid=True
    )
    p.add_argument("--rows", help="single-row factors like 0:2;0:2")
    p.add_argument("--condition", type=int, choices=(2, 3, 4), default=3, help="scaling condition")
    p.add_argument(
        "--limit", type=_parse_limit, default="auto", help="expected limit: 'auto', 'none', or p/q"
    )
    p.add_argument(
        "--tolerance",
        type=_at_least(0, Fraction, "a rational number"),
        default=Fraction(15, 100),
        help="relative tolerance at the last grid point",
    )

    p = command("sample", "Monte Carlo canonical-measure fluctuations", family=True, q=True)
    p.add_argument("--stats", help="statistics like R:0:3;character:0:2;p:0:2")
    p.add_argument("--n-samples", dest="n_samples", type=_at_least(0), default=1000)
    p.add_argument("--seed", type=_at_least(0), default=0)

    p = command("verify", "brute-force oracle identities")
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
    parser = _build_parser()
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
