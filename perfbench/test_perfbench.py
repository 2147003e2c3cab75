"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

import json
import random
import subprocess
import sys

import pytest

import checks
import run
import spans
import workloads


def _doc(span_list, counts=None, caches=None):
    """A traced job document from (name, start, end, parent) tuples."""
    names = sorted({s[0] for s in span_list})
    return {
        "job": "synthetic",
        "names": names,
        "fid": [names.index(s[0]) for s in span_list],
        "start": [s[1] for s in span_list],
        "end": [s[2] for s in span_list],
        "parent": [s[3] for s in span_list],
        "error": [s[4] if len(s) > 4 else 0 for s in span_list],
        "counts": counts or {},
        "caches": caches or {},
    }


def test_self_time_subtracts_nested_spans_of_other_layers_once():
    doc = _doc(
        [
            ("cli.cmd", 0.0, 10.0, -1),
            ("indicators.outer", 1.0, 9.0, 0),
            ("indicators.inner", 2.0, 5.0, 1),
            ("partitions.character", 3.0, 4.0, 2),
            ("indicators.outer", 6.0, 7.0, 1),
            ("cli.import", -1.0, 0.0, -1),
        ]
    )
    self_s = spans.layer_self_times(doc)
    assert self_s["cli"] == pytest.approx(3.0)
    # indicators covers [1, 9] and loses only the partitions span [3, 4]
    assert self_s["indicators"] == pytest.approx(7.0)
    assert self_s["partitions"] == pytest.approx(1.0)
    assert sum(self_s.values()) == pytest.approx(11.0)


def test_summary_counts_calls_errors_and_moment_oracle_calls():
    doc = _doc(
        [
            ("cli.cmd", 0.0, 10.0, -1),
            ("asymptotics.natural_cumulant", 1.0, 9.0, 0),
            (spans.MOMENT, 2.0, 3.0, 1),
            (spans.MOMENT, 3.0, 4.0, 1, 1),
            (spans.MOMENT, 5.0, 6.0, 0),
            (spans.TUPLE, 6.0, 6.5, 0),
        ],
        counts={"sampling.boxes": 7},
        caches={"indicators": {"product_coefficients": [3, 1, 1]}},
    )
    totals, tuple_s = spans.summarize_job(doc)
    assert {k: v for k, v in totals.items() if k.endswith(".calls") and v} == {
        "cli.calls": 1,
        "asymptotics.calls": 1,
        "wreath.calls": 3,
        "sampling.calls": 1,
        "wreath.moment.calls": 2,
    }
    assert totals["wreath.errors"] == 1
    assert tuple_s == [0.5]
    assert totals["sampling.boxes"] == 7
    assert totals["indicators.product_coefficients.hits"] == 3
    assert totals["indicators.product_coefficients.misses"] == 1
    assert totals["indicators.cache_entries"] == 1


def _job(check="reference", identity=None):
    return workloads.Job("k", ("x",), check=check, identity=identity)


REF = {"k": {"rows": [{"q": 4, "cumulant": {"exact": "1/2", "float": 0.5}}], "raw": "6"}}


def _out(cumulant, raw="6"):
    return json.dumps({"rows": [{"q": 4, "cumulant": cumulant}], "raw": raw})


def test_failed_fraction_counts_every_kind_of_failure():
    good = _out({"exact": "2/4", "float": 0.5})
    statuses = [
        checks.judge(_job(), 0, False, good, REF)[0],
        checks.judge(_job(), 1, False, good, REF)[0],
        checks.judge(_job(), 0, True, "", REF)[0],
        checks.judge(_job(), 0, False, _out({"exact": "1/3", "float": 0.3}), REF)[0],
        checks.judge(_job(), 0, False, _out({"exact": None, "float": 0.5}), REF)[0],
        checks.judge(_job(), 0, False, _out({"exact": "1/2", "float": 0.5}, 6.0), REF)[0],
        checks.judge(_job(), 0, False, "not json", REF)[0],
    ]
    assert statuses == [
        checks.OK,
        checks.EXIT,
        checks.TIMEOUT,
        checks.WRONG,
        checks.INEXACT,
        checks.INEXACT,
        checks.WRONG,
    ]
    assert checks.failed_fraction(statuses) == pytest.approx(6 / 7)
    assert checks.failed_fraction([checks.OK] * 3) == 0


def test_identities_are_checked_after_the_reference():
    ref = {"k": {"rows": [{"cumulant": {"exact": "1", "float": 1.0}}]}}
    text = json.dumps(ref["k"])
    assert checks.judge(_job(), 0, False, text, ref)[0] == checks.OK
    status, detail = checks.judge(_job(identity="zero_cumulant"), 0, False, text, ref)
    assert status == checks.WRONG and "zero_cumulant" in detail


def test_variance_band_depends_on_n_only_and_holds_for_gaussian_draws():
    low, high = checks.variance_band(100, 0.25)
    assert 0 < low < 0.25 < high
    narrow = checks.variance_band(10_000, 0.25)
    assert low < narrow[0] < 0.25 < narrow[1] < high
    rng = random.Random(12345)
    for _ in range(2000):
        draws = [rng.gauss(0.0, 0.5) for _ in range(100)]
        mean = sum(draws) / 100
        var = sum((x - mean) ** 2 for x in draws) / 99
        assert low <= var <= high
    with pytest.raises(ValueError):
        checks.variance_band(1, 0.25)


def _sample_text(raws, n_samples=None):
    lines = ["# schema_version=1", "sample,statistic,raw,centered_scaled"]
    for i, raw in enumerate(raws):
        lines.append(f"{i},R[0,2],{float(raw)!r},0.0")
    summary = json.dumps({"n_samples": len(raws) if n_samples is None else n_samples}, indent=2)
    return "\n".join(lines + ["# " + l for l in summary.splitlines()]) + "\n"


def test_sample_checks():
    q, n = 400, 100
    rng = random.Random(7)
    raws = [sum(rng.random() < 0.5 for _ in range(q)) for _ in range(n)]
    job = workloads.Job("k", (), check="sample", q=q, n_samples=n,
                        variance_limits=(("R[0,2]", "1/4"),))
    assert checks.judge(job, 0, False, _sample_text(raws), {}) == (checks.OK, "")
    assert checks.judge(job, 0, False, _sample_text(raws, n - 1), {})[0] == checks.WRONG
    assert checks.judge(job, 0, False, _sample_text(raws[:-1] + [q + 1]), {})[0] == checks.WRONG
    assert checks.judge(job, 0, False, _sample_text(raws[:-1] + [2.5]), {})[0] == checks.WRONG
    assert checks.judge(job, 0, False, _sample_text([q // 2] * n), {})[0] == checks.WRONG


def test_seed_changes_only_sample_seeds_and_cumulant_factor_order():
    for make in workloads.WORKLOADS.values():
        for a, b in zip(make(3), make(8)):
            assert a.key == b.key and len(a.argv) == len(b.argv)
            for flag, x, y in zip(a.argv, a.argv[1:], b.argv[1:]):
                if x != y:
                    assert flag == "--seed" or (
                        flag == "--rows"
                        and a.argv[0] == "cumulants"
                        and sorted(x.split(";")) == sorted(y.split(";"))
                    )
    assert len({workloads.exact_jobs(seed)[2].argv for seed in range(20)}) == 2


def test_coverage_check_flags_heavy_layers_without_calls():
    metrics = {f"{layer}.calls": 1 for layer in spans.LAYERS}
    assert run.coverage_problems("exact", metrics) == []
    metrics["partitions.calls"] = 0
    assert run.coverage_problems("exact", metrics) == [
        "layer partitions made no wrapped call on exact"
    ]
    assert run.coverage_problems("montecarlo", metrics) == []


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_child_reaches_layers_through_rebound_names(tmp_path):
    marks, spans_path = tmp_path / "marks", tmp_path / "spans"
    proc = subprocess.run(
        [sys.executable, str(run.CHILD), str(run.SRC), str(marks), str(spans_path),
         "job-1", "diagram", "3,1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    m = json.loads(marks.read_text())
    assert m["rc"] == 0 and m["end"] >= m["ready"]
    doc = json.loads(spans_path.read_text())
    assert doc["job"] == "job-1"
    assert spans.summarize_job(doc)[0]["diagrams.calls"] > 0
    names = [doc["names"][f] for f in doc["fid"]]
    # cli.main -> cmd_diagram, reached through the COMMANDS table
    cmd = names.index("cli.cmd_diagram")
    assert names[doc["parent"][cmd]] == "cli.main"
    assert "indicators.compose" not in doc["names"]
    assert "wreath.RepFamily.moment" in doc["wrapped"]["wreath"]
