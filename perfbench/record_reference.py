"""Record the outputs that exact and enumeration jobs are checked against.

    python3 perfbench/record_reference.py

Run it on the commit whose outputs are the reference; it rewrites
``reference.json`` with every job's parsed JSON output.
"""

import json
import shutil
import tempfile
from pathlib import Path

import run
import workloads


def main():
    reference = {}
    work = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=run.ROOT))
    try:
        for name in ("exact", "enumeration"):
            for i, job in enumerate(workloads.WORKLOADS[name](0)):
                tag = f"{name}-{i}"
                rc, timed_out, *_ = run.launch(work, tag, job.argv, None, run.JOB_CAP_S)
                if rc != 0 or timed_out:
                    raise SystemExit(f"{job.key} failed: {(work / f'{tag}.err').read_text()}")
                reference[job.key] = json.loads((work / f"{tag}.out").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
