"""Correctness of one job's output, and the failure count of a pass.

Exact jobs are compared with the output recorded from the parent commit
in ``reference.json``, value by value after parsing, and must also satisfy
identities that hold whatever the code does.  Monte Carlo jobs are checked
statistically only: the sampled values themselves may legitimately change.
"""

import json
import math
from fractions import Fraction
from statistics import NormalDist, variance

OK = "ok"
EXIT = "exit"  # non-zero exit code
TIMEOUT = "timeout"  # hit its time cap, or never started before the deadline
WRONG = "wrong"  # a value differs from the reference or breaks an identity
INEXACT = "inexact"  # an exact value on the parent commit is now a float


def failed_fraction(statuses):
    """Failed jobs divided by attempted jobs."""
    if not statuses:
        raise ValueError("no jobs attempted")
    return sum(1 for s in statuses if s != OK) / len(statuses)


# --------------------------------------------------------- exact outputs


def _as_exact(value):
    """The rational a JSON leaf spells, or None for non-numeric text."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        return None
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        return None


def _close(a, b):
    return isinstance(b, (int, float)) and not isinstance(b, bool) and math.isclose(
        a, b, rel_tol=1e-9, abs_tol=1e-12
    )


def compare(ref, new, path=""):
    """Yield ``(status, path)`` for every value of ``new`` that differs from ``ref``.

    Rendered numbers ``{"exact": ..., "float": ...}`` and rational strings
    compare as fractions.  A value exact in ``ref`` but null or a float in
    ``new`` is INEXACT; any other difference is WRONG.
    """
    if isinstance(ref, dict):
        if not isinstance(new, dict) or set(ref) != set(new):
            yield WRONG, path
        elif set(ref) == {"exact", "float"}:
            if ref["exact"] is None:
                if not _close(ref["float"], new["float"]):
                    yield WRONG, path
            elif new["exact"] is None:
                yield INEXACT, path
            elif Fraction(new["exact"]) != Fraction(ref["exact"]):
                yield WRONG, path
        else:
            for key in ref:
                yield from compare(ref[key], new[key], f"{path}/{key}")
    elif isinstance(ref, list):
        if not isinstance(new, list) or len(ref) != len(new):
            yield WRONG, path
        else:
            for i, (r, n) in enumerate(zip(ref, new)):
                yield from compare(r, n, f"{path}/{i}")
    elif isinstance(ref, float):
        if not _close(ref, new):
            yield WRONG, path
    elif _as_exact(ref) is not None:
        if isinstance(new, float):
            yield INEXACT, path
        elif _as_exact(new) != _as_exact(ref):
            yield WRONG, path
    elif type(ref) is not type(new) or ref != new:
        yield WRONG, path


def _zero_cumulant(doc):
    return all(Fraction(row["cumulant"]["exact"]) == 0 for row in doc["rows"])


def _measure_sums_to_one(doc):
    atoms = doc["measure"]["atoms"]
    return sum(Fraction(a["probability"]["exact"]) for a in atoms) == 1


def _verify_passed(doc):
    return doc["passed"] is True and not doc["failures"]


IDENTITIES = {
    "zero_cumulant": _zero_cumulant,
    "measure_sums_to_one": _measure_sums_to_one,
    "verify_passed": _verify_passed,
}


def check_exact(job, text, reference):
    doc = json.loads(text)
    diffs = list(compare(reference[job.key], doc))
    if diffs:
        status = INEXACT if all(s == INEXACT for s, _ in diffs) else WRONG
        return status, f"{len(diffs)} value(s) differ, first at {diffs[0][1]}"
    if job.identity:
        try:
            holds = IDENTITIES[job.identity](doc)
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            holds = False
        if not holds:
            return WRONG, f"identity {job.identity} fails"
    return OK, ""


# ----------------------------------------------------- Monte Carlo outputs

# Per-side probability that a correct sampler's variance leaves its band.
BAND_FAILURE = 1e-9
# Excess kurtosis allowed for the scaled statistic.  R_2 is a binomial box
# count, whose excess kurtosis is O(1/q); 0.5 is a wide margin.
BAND_KURTOSIS = 0.5


def variance_band(n, limit):
    """Band that the sample variance of ``n`` draws with variance ``limit`` stays in.

    The sample variance over ``limit`` is close to chi-square over its
    degrees of freedom; excess kurtosis ``BAND_KURTOSIS`` lowers the
    effective degrees of freedom.  The Wilson-Hilferty cube-root normal
    approximation gives quantiles at ``BAND_FAILURE`` on each side.
    Depends on ``n`` and ``limit`` only, never on data.
    """
    if n < 2:
        raise ValueError("a variance needs at least two samples")
    z = NormalDist().inv_cdf(1 - BAND_FAILURE)
    dof = 2 / (2 / (n - 1) + BAND_KURTOSIS / n)
    a = 2 / (9 * dof)
    low = max(0.0, 1 - a - z * math.sqrt(a)) ** 3
    high = (1 - a + z * math.sqrt(a)) ** 3
    return low * limit, high * limit


def parse_sample_output(text):
    """``(rows, summary)``: CSV rows as (sample, statistic, raw) and the summary."""
    rows, summary_lines = [], []
    for line in text.splitlines():
        if line.startswith("# schema_version="):
            continue
        if line.startswith("#"):
            summary_lines.append(line[2:])
        elif line and not line.startswith("sample,"):
            # statistic names such as R[0,2] contain a comma
            sample, rest = line.split(",", 1)
            statistic, raw, _ = rest.rsplit(",", 2)
            rows.append((int(sample), statistic, float(raw)))
    return rows, json.loads("\n".join(summary_lines))


def check_sample(job, text):
    rows, summary = parse_sample_output(text)
    if summary.get("n_samples") != job.n_samples:
        return WRONG, f"n_samples is {summary.get('n_samples')}, not {job.n_samples}"
    if len({sample for sample, _, _ in rows}) != job.n_samples:
        return WRONG, "CSV rows do not cover every sample"
    for sample, statistic, raw in rows:
        if statistic.startswith("R[") and statistic.endswith(",2]"):
            if raw != int(raw) or not 0 <= raw <= job.q:
                return WRONG, f"{statistic} of sample {sample} is {raw}, not a count in [0, q]"
    for statistic, limit in job.variance_limits:
        scaled = [raw / math.sqrt(job.q) for _, s, raw in rows if s == statistic]
        low, high = variance_band(len(scaled), float(Fraction(limit)))
        var = variance(scaled)
        if not low <= var <= high:
            return WRONG, f"{statistic} variance {var:.4f} outside [{low:.4f}, {high:.4f}]"
    return OK, ""


def judge(job, rc, timed_out, text, reference):
    """``(status, detail)`` of one finished job."""
    if timed_out:
        return TIMEOUT, "hit its time cap"
    if rc != 0:
        return EXIT, f"exit code {rc}"
    try:
        if job.check == "sample":
            return check_sample(job, text)
        return check_exact(job, text, reference)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return WRONG, f"unreadable output: {exc!r}"
