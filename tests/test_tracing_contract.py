"""The benchmark's tracer (perfbench/tracing.py) wraps package functions
by module and attribute path; a rename inside the package must not leave
one of them dangling."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Run in a new interpreter so the package is imported fresh, as the
# benchmark imports it, and the tracer module stays out of this process.
RESOLVE = """
import importlib, importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[2])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
missing = []
for module, path, _name, _counter in tracing.SPECS:
    owner = importlib.import_module("lgplucker." + module)
    try:
        for part in path.split("."):
            owner = getattr(owner, part)
    except AttributeError:
        owner = None
    if not callable(owner):
        missing.append(module + "." + path)
print(json.dumps({"specs": len(tracing.SPECS), "missing": missing}))
"""


def test_every_traced_path_resolves():
    out = subprocess.run(
        [sys.executable, "-c", RESOLVE, str(ROOT / "src"), str(ROOT / "perfbench" / "tracing.py")],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    doc = json.loads(out)
    assert doc["specs"] > 0
    assert doc["missing"] == []
