"""The benchmark's exact and enumeration outputs, pinned in the test suite.

Every ``exact`` and ``enumeration`` job of ``perfbench/workloads.py`` runs
through ``cli.main`` in this process and is compared with the output
recorded in ``perfbench/reference.json`` by ``perfbench/checks.check_exact``.
The files under ``perfbench/`` are read, never written.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from wreathprob.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
JOBS = [
    (seed, job)
    for seed in (11, 29)
    for name in ("exact", "enumeration")
    for job in workloads.WORKLOADS[name](seed)
]


@pytest.mark.parametrize("seed, job", JOBS, ids=[f"{job.key}@{seed}" for seed, job in JOBS])
def test_benchmark_job_matches_its_reference(seed, job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(job.argv))
    assert code == 0, job.argv
    assert checks.check_exact(job, out.getvalue(), REFERENCE) == (checks.OK, "")
