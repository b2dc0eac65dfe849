"""Every job of the benchmark (perfbench/jobs.py) runs against the package
and passes its oracle check, so a renamed attribute or a changed output
fails here rather than as a failed share of a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A new interpreter, as the benchmark uses for each pass; -B keeps it from
# writing bytecode next to the benchmark's files. Each job list runs
# twice, so that the second pass runs on the tables the first one built
# once per process (the CLI parser, the atlas members, the class tables)
# and must pass every oracle as well.
TWO_PASSES = """
import json, random, sys, traceback
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import jobs
import lgplucker.cli
lg = sys.modules["lgplucker"]
ran, failures = {}, []
for workload, make in jobs.WORKLOADS.items():
    job_list = make(random.Random(1), Path(sys.argv[3]))
    for pass_no in (1, 2):
        ran.setdefault(workload, []).append(len(job_list))
        for job in job_list:
            try:
                why = job.check(job.run(lg))
            except Exception:
                why = traceback.format_exc(limit=3)
            if why is not None:
                failures.append(f"{workload} pass {pass_no} {job.name}: {why}")
print(json.dumps({"ran": ran, "failures": failures}))
"""


def test_one_pass_of_every_workload_passes_its_oracles(tmp_path):
    out = subprocess.run(
        [sys.executable, "-B", "-c", TWO_PASSES, str(ROOT / "src"), str(ROOT / "perfbench"), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    doc = json.loads(out.splitlines()[-1])
    assert sorted(doc["ran"]) == ["points", "relations", "verify-gfq"]
    assert all(runs[0] == runs[1] > 0 and len(runs) == 2 for runs in doc["ran"].values())
    assert doc["failures"] == []
