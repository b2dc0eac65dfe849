"""Benchmark for lgplucker: one closed-loop client, one job at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-gfq --seed 1 --seconds 35 --trace 0

The package is imported from ``src/`` of the checkout; nothing is
installed. Each pass of a run starts from a fresh import of the package
(as a new command-line process would), runs the workload's job list
once, timing every job from outside, and then checks every output
against an oracle that does not use the package. Passes repeat until the
next one would end after ``--seconds``. Metrics are medians over passes.
Because a shared host's CPU speed drifts by up to about 2x, every job is
also timed in units of a tiny reference kernel sampled while it runs
(see yardstick.py; ``wall_ref`` sums them). That ratio is the gated
end-to-end time; the plain seconds are reported beside it. Set-up time
(``setup_s``) is the time a new interpreter takes to import lgplucker,
with numpy and all else it imports, and build the CLI parser. It is
taken SETUP_REPS times, each over the time new interpreters take to
import numpy alone just before and after, and the median ratio is given
in seconds at the reference time REFERENCE_IMPORT_S; ``setup_raw_s`` is
the plain median.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: self time and work counts at each layer boundary
(see tracing.py), plus the tracing overhead; self times plus overhead
add up to the traced wall time. The spans of the traced
passes are written to ``perfbench/results/`` when the run ends, next to
a JSON record of every metric with the run's provenance.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import jobs
import tracing
import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPS = 7  # new interpreters timed at the start of a run
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import lgplucker.cli
lgplucker.cli.build_parser()
print(time.perf_counter() - t0, lgplucker.__file__)
"""
# Yardstick for set-up time: importing numpy alone is the same kind of
# work (file reads, unmarshalling, loading extension modules). The CPU
# kernel of yardstick.py tracks it poorly: on the shared 2-vCPU Xeon
# host the benchmark was defined on, set-up time normalised by that
# kernel spread by 21-25% of its median from run to run, by this
# yardstick by 3-7%.
IMPORT_REF_CODE = """
import time
t0 = time.perf_counter()
import numpy
print(time.perf_counter() - t0)
"""
# Median numpy import time on the 2-vCPU Xeon host the benchmark was
# defined on; converts set-up ratios back into seconds.
REFERENCE_IMPORT_S = 0.08
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_output(code: str) -> List[str]:
    """Words printed by ``code`` run in a new interpreter; the child times itself,
    so interpreter start-up is left out."""
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=120, check=True)
    return out.stdout.split(maxsplit=1)


def setup_times() -> List[Tuple[float, float]]:
    """(set-up seconds, reference seconds) for each of SETUP_REPS new
    interpreters; the reference is the mean numpy import time of the new
    interpreters run just before and just after."""
    rows = []
    before = float(child_output(IMPORT_REF_CODE)[0])
    for _ in range(SETUP_REPS):
        took, where = child_output(SETUP_CODE)
        if Path(where.strip()).resolve().parent != SRC / "lgplucker":
            raise RuntimeError(f"set-up imported lgplucker from {where.strip()}, not from this checkout")
        after = float(child_output(IMPORT_REF_CODE)[0])
        rows.append((float(took), (before + after) / 2))
        before = after
    return rows


def fresh_import():
    """Import lgplucker and its CLI module from scratch.

    Returns the package and its loaded modules by name. Module-level
    caches from earlier passes are dropped with the old modules.
    """
    for name in [m for m in sys.modules if m == "lgplucker" or m.startswith("lgplucker.")]:
        del sys.modules[name]
    importlib.import_module("lgplucker.cli")
    lg = sys.modules["lgplucker"]
    if Path(lg.__file__).resolve().parent != SRC / "lgplucker":
        raise RuntimeError(f"imported lgplucker from {lg.__file__}, not from this checkout")
    modules = {m: mod for m, mod in sys.modules.items() if m == "lgplucker" or m.startswith("lgplucker.")}
    return lg, modules


def run_pass(lg, job_list, tracer=None, pass_id=""):
    """Run the jobs in order; returns [(job, seconds, reference_s, payload, error)].

    An untraced pass runs under the yardstick sampler: each job's seconds
    leave out the sampler's own time, and reference_s is the kernel time
    sampled while it ran. A traced pass runs without it (reference_s is
    None), so that every span holds only the package's work.
    """
    rows, intervals = [], []
    with contextlib.nullcontext() if tracer is not None else yardstick.Sampler() as sampler:
        for job in job_list:
            if tracer is not None:
                tracer.job = f"{pass_id}.{job.name}"
                idx = tracer.open(tracing.ROOT_SPAN)
            payload = error = None
            t0 = time.perf_counter()
            try:
                payload = job.run(lg)
            except Exception:
                error = traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(idx)
                t0, t1 = tracer.starts[idx], tracer.ends[idx]
            seconds = t1 - t0 - (sampler.time_within(t0, t1) if sampler else 0.0)
            intervals.append((t0, t1))
            rows.append([job, seconds, None, payload, error])
    if sampler is not None:
        for row, ref in zip(rows, yardstick.references(intervals, sampler.samples)):
            row[2] = ref
    return rows


def check_pass(done):
    """Oracle checks; returns the failures as (job name, reason)."""
    failures = []
    for job, _seconds, _ref, payload, error in done:
        if error is None:
            try:
                error = job.check(payload)
            except Exception:
                error = "oracle check raised: " + traceback.format_exc(limit=3)
        if error:
            failures.append((job.name, error))
    return failures


def provenance(seed):
    def git_commit():
        if not (ROOT / ".git").exists():
            return None
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() or None

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


@dataclass
class PassResult:
    timings: List[Tuple[str, float, Optional[float]]]  # (command, seconds, reference_s) per job
    tracer: Optional[tracing.Tracer] = None
    wrapper_costs: Tuple[float, float] = (0.0, 0.0)  # traced passes: see tracing.wrapper_costs

    @property
    def wall(self) -> float:
        return sum(seconds for _cmd, seconds, _ref in self.timings)

    @property
    def ratio(self) -> float:
        return sum(seconds / ref for _cmd, seconds, ref in self.timings)

    @property
    def reference_s(self) -> float:
        """The kernel time that would turn the pass's ratio back into its wall time."""
        return self.wall / self.ratio

    def command_times(self, suffix="_s", scaled=False) -> dict:
        out = {}
        for cmd in ("wall",) + jobs.COMMANDS:
            total = sum(s / ref if scaled else s for c, s, ref in self.timings if cmd in ("wall", c))
            if total:
                out[cmd + suffix] = total
        return out


def medians(rows) -> dict:
    keys = sorted({k for row in rows for k in row})
    return {k: statistics.median(row.get(k, 0) for row in rows) for k in keys}


def end_to_end(passes: List[PassResult]) -> dict:
    """Medians over untraced passes, in seconds and in reference units."""
    out = medians([p.command_times() for p in passes])
    out.update(medians([p.command_times("_ref", scaled=True) for p in passes]))
    out["reference_s"] = statistics.median(p.reference_s for p in passes)
    return out


def layer_metrics(tracer, wall, wrapper_costs):
    """Self time per span name, the tracing overhead and the work counts
    of one traced pass; self times plus overhead add up to its wall time."""
    call_cost, step_cost = wrapper_costs

    def cost(name):
        return step_cost if name in tracer.generator_names else call_cost

    selfs = tracing.self_times(tracer.spans, cost)
    overhead = sum(cost(name) for name, parent in zip(tracer.names, tracer.parents) if parent >= 0)
    accounted = sum(selfs.values()) + overhead
    if abs(accounted - wall) > 1e-6 * wall + 1e-9:
        raise RuntimeError(f"self times and overhead sum to {accounted} s of a {wall} s traced pass")
    out = {f"{name}.self_s": v for name, v in selfs.items()}
    out["trace.overhead_s"] = overhead
    out.update(tracer.counts)
    return out


def traced_metrics(traced: List[PassResult]) -> dict:
    """Per-layer metrics of the traced pass with the median wall time."""
    chosen = sorted(traced, key=lambda p: p.wall)[(len(traced) - 1) // 2]
    out = layer_metrics(chosen.tracer, chosen.wall, chosen.wrapper_costs)
    out["trace.wall_s"] = chosen.wall
    return out


def write_spans(path, tracers):
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "job"], "computed_counts": list(tracing.COMPUTED)}) + "\n")
        offset = 0
        for tracer in tracers:
            for idx, (name, start, end, parent, job) in enumerate(tracer.spans):
                fh.write(json.dumps([offset + idx, name, start, end, parent + offset if parent >= 0 else -1, job]) + "\n")
            offset += len(tracer.spans)


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "lgplucker" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no lgplucker sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads(spec_path.read_text())

    workdir = RESULTS / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    untraced, traced, failures = [], [], []
    attempted = 0
    cycle = {False: [], True: []}
    start = time.perf_counter()
    setup = setup_times()
    while True:
        use_trace = bool(args.trace) and len(untraced) > len(traced)
        t_cycle = time.perf_counter()
        job_list = jobs.WORKLOADS[args.workload](rng, workdir)
        gc.collect()
        lg, modules = fresh_import()
        tracer = None
        if use_trace:
            tracer = tracing.Tracer()
            tracing.install(tracer, modules)
        pass_id = f"p{len(untraced) + len(traced)}"
        done = run_pass(lg, job_list, tracer, pass_id)
        timings = [(job.command, seconds, ref) for job, seconds, ref, _p, _e in done]
        if use_trace:
            traced.append(PassResult(timings, tracer, tracing.wrapper_costs()))
        else:
            untraced.append(PassResult(timings))
        attempted += len(done)
        failures += [(pass_id, name, why) for name, why in check_pass(done)]
        del lg, modules, done
        cycle[use_trace].append(time.perf_counter() - t_cycle)
        next_trace = bool(args.trace) and len(untraced) > len(traced)
        guess = max(cycle[next_trace] or cycle[not next_trace])
        enough = not args.trace or traced
        if enough and time.perf_counter() - start + guess > args.seconds:
            break
    info = provenance(args.seed)

    found = end_to_end(untraced)
    found["setup_s"] = statistics.median(t / ref for t, ref in setup) * REFERENCE_IMPORT_S
    found["setup_raw_s"] = statistics.median(t for t, _ref in setup)
    found["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    found["failed_frac"] = len(failures) / attempted
    if args.trace:
        found.update({f"command.{k}": v for k, v in medians([p.command_times() for p in untraced]).items()})
        found.update(traced_metrics(traced))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": found.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "passes": {
            kind: [{"wall_s": p.wall, "reference_s": None if p.tracer else p.reference_s} for p in passes]
            for kind, passes in (("untraced", untraced), ("traced", traced))
        },
        "provenance": info,
        "attempted": attempted,
        "failures": failures,
        "metrics": found,
        "computed_counts": list(tracing.COMPUTED),
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        write_spans(RESULTS / f"{stem}-spans.jsonl.gz", [p.tracer for p in traced])
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()

    print(f"# {args.workload} seed {args.seed}: {len(untraced)} untraced + {len(traced)} traced passes, "
          f"{attempted} jobs, {len(failures)} failed; python {info['python']}, numpy {info['numpy']}, "
          f"nproc {info['nproc']}, commit {info['git_commit'] or 'n/a'}, src {info['src_sha256'][:12]}")
    for pass_id, name, why in failures[:20]:
        print(f"# FAILED {pass_id} {name}: {why.strip()}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key in sorted(found):
        unit = units.get(key) or ("s" if key.endswith("_s") else "ref" if key.endswith("_ref") else "fraction" if key.endswith("_frac") else "count")
        print(f"# {key:<55} {found[key]:>16.6f} {unit}{'  (computed)' if key in tracing.COMPUTED else ''}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
