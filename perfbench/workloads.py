"""The benchmark's workloads: lists of ``wreathprob`` CLI jobs.

Each job is one CLI invocation.  Input sizes are fixed; the seed only
shuffles the factor order of ``cumulants`` jobs (cumulants are symmetric,
so their values do not change) and becomes ``--seed`` of ``sample`` jobs.
"""

import json
import random
from dataclasses import dataclass


def _inline(doc):
    return json.dumps(doc, separators=(",", ":"))


C2 = {"kind": "example1", "group": "cyclic:2"}
S3 = {"kind": "example1", "group": "S3"}
IRR = {
    "kind": "irreducible",
    "group": "S3",
    "weights": ["1/6", "2/3", "1/6"],
    "bases": [[2, 1], [3, 1], [1]],
}
RO = {
    "kind": "restricted",
    "ratio": "3",
    "parent": {
        "kind": "outer",
        "ratio": "1/2",
        "left": S3,
        "right": {"kind": "example1", "group": "S3", "multiplicities": [1, 0, 2]},
    },
}
NEST = {
    "kind": "outer",
    "ratio": "1/3",
    "left": {
        "kind": "induced",
        "ratio": "1/2",
        "parent": {"kind": "restricted", "ratio": "2", "parent": S3},
    },
    "right": IRR,
}
RESTRICTED_C2 = {"kind": "restricted", "ratio": "2", "parent": C2}
OUTER_C3 = {
    "kind": "outer",
    "ratio": "1/2",
    "left": {"kind": "example1", "group": "cyclic:3"},
    "right": {
        "kind": "irreducible",
        "group": "cyclic:3",
        "weights": ["1/3", "1/3", "1/3"],
    },
}
TENSOR_C2 = {
    "kind": "tensor",
    "left": {"kind": "example1", "group": "cyclic:2", "multiplicities": [1, 1]},
    "right": {"kind": "example1", "group": "cyclic:2", "multiplicities": [2, 1]},
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must satisfy.

    ``key`` names the job's entry in ``reference.json``.  ``check`` is
    ``"reference"`` (exact values against the parent's recorded output) or
    ``"sample"`` (statistical checks of a Monte Carlo run).  ``identity``
    names an extra exact identity from ``checks.IDENTITIES``.
    """

    key: str
    argv: tuple
    check: str = "reference"
    identity: str | None = None
    q: int | None = None
    n_samples: int | None = None
    variance_limits: tuple = ()


def _cli(*args):
    # jobs run one at a time: parallel timings on shared cores would
    # measure the scheduler
    return args + ("--workers", "1")


def _shuffled_rows(rows, rng):
    factors = rows.split(";")
    rng.shuffle(factors)
    return ";".join(factors)


def exact_jobs(seed):
    rng = random.Random(seed)
    return [
        Job(
            "exact/cumulants-C2-natural-5",
            _cli("cumulants", "--family", _inline(C2), "--kind", "natural",
             "--rows", _shuffled_rows("0:2;0:2;0:2;0:2;0:2", rng), "--q", "40"),
        ),
        Job(
            "exact/limits-C2-condition3",
            _cli("limits", "--family", _inline(C2), "--condition", "3",
             "--rows", "0:4;0:4", "--q-grid", "10,20,30,40", "--limit", "auto"),
        ),
        Job(
            "exact/cumulants-IRR-q120",
            _cli("cumulants", "--family", _inline(IRR), "--kind", "natural",
             "--rows", _shuffled_rows("1:2;1:3", rng), "--q", "120"),
            identity="zero_cumulant",
        ),
        Job(
            "exact/limits-RO-condition2",
            _cli("limits", "--family", _inline(RO), "--condition", "2",
             "--rows", "0:8;0:8", "--q-grid", "20,40,80", "--limit", "auto"),
        ),
        Job(
            "exact/report-NEST",
            _cli("report", "--family", _inline(NEST), "--q-grid", "20,40,60"),
        ),
    ]


def enumeration_jobs(seed):
    return [
        Job("enumeration/verify-all", _cli("verify", "--scope", "all"),
            identity="verify_passed"),
        Job("enumeration/verify-all-C3",
            _cli("verify", "--scope", "all", "--group", "cyclic:3", "--bound", "3"),
            identity="verify_passed"),
        Job("enumeration/verify-lemma-S3",
            _cli("verify", "--scope", "lemma", "--group", "S3", "--bound", "3"),
            identity="verify_passed"),
        Job("enumeration/family-restricted-C2-q3",
            _cli("family", "--family", _inline(RESTRICTED_C2), "--q", "3"),
            identity="measure_sums_to_one"),
        Job("enumeration/family-outer-C3-q4",
            _cli("family", "--family", _inline(OUTER_C3), "--q", "4"),
            identity="measure_sums_to_one"),
        Job("enumeration/moments-tensor-C2",
            _cli("moments", "--family", _inline(TENSOR_C2), "--rows", "0:2;1:1",
             "--q-grid", "2,3,4,5")),
    ]


N_SAMPLES = 100


def montecarlo_jobs(seed):
    # Limits of the scaled R_2 variances: R_2 of a slot is its box count, a
    # binomial(q, w) draw for slot weight w, so the limit is w(1 - w).
    return [
        Job("montecarlo/sample-C2-q2500",
            _cli("sample", "--family", _inline(C2), "--q", "2500",
             "--n-samples", str(N_SAMPLES), "--seed", str(seed),
             "--stats", "R:0:2;R:0:3;character:0:2"),
            check="sample", q=2500, n_samples=N_SAMPLES,
            variance_limits=(("R[0,2]", "1/4"),)),
        Job("montecarlo/sample-S3-q1000",
            _cli("sample", "--family", _inline(S3), "--q", "1000",
             "--n-samples", str(N_SAMPLES), "--seed", str(seed),
             "--stats", "R:2:2;R:2:4;p:2:3"),
            check="sample", q=1000, n_samples=N_SAMPLES,
            variance_limits=(("R[2,2]", "2/9"),)),
    ]


WORKLOADS = {
    "exact": exact_jobs,
    "enumeration": enumeration_jobs,
    "montecarlo": montecarlo_jobs,
}

# Layers whose per-layer metrics should move an end-to-end metric on each
# workload (the table in NOTES.md); the traced run requires calls there.
HEAVY_LAYERS = {
    "exact": ("indicators", "partitions", "asymptotics", "wreath", "cli"),
    "enumeration": ("bruteforce", "cyclotomics", "groups", "cli"),
    "montecarlo": ("sampling", "diagrams", "cli"),
}


