"""Span recording around the public calls of lgplucker, from outside it.

The traced run replaces selected functions of a freshly imported
``lgplucker`` with wrappers that open a span on entry and close it on
exit. Every module attribute, package export and dispatch table that
holds the original function is repointed, so calls made between the
package's own modules are caught too. Spans (name, start, end, parent,
job) live in memory and are written out once the run ends.

A layer's self time is its spans' duration minus the part of each
interval covered by the spans it caused. The functions listed in
``SPECS`` are the layer boundaries; every other function (the leaf
arithmetic of ``fields`` and ``combinatorics``, ``wedge``, ``_det``,
``to_exact`` ...) is charged to the self time of the traced caller.
The wrappers' own time, measured per call on no-op stand-ins by
``wrapper_costs``, is taken out of the self times and reported as the
tracing overhead, so that self times plus overhead add up to the traced
wall time.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import Counter
from math import comb
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT_SPAN = "bench.job"


class Tracer:
    """Keeps spans and work counters in memory; single-threaded.

    Span fields live in parallel lists of plain values so that recording
    allocates no containers the garbage collector would have to track.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.jobs: List[Optional[str]] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.job: Optional[str] = None
        self.generator_names: set = set()  # span names recorded per next()

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.jobs.append(self.job)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was innermost")

    @property
    def spans(self) -> List[Tuple[str, float, float, int, Optional[str]]]:
        """Recorded spans as (name, start, end, parent index, job id)."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.jobs))


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Sequence], child_cost: Callable[[str], float] = lambda name: 0.0) -> Dict[str, float]:
    """Total self time per span name: duration minus the cover of its
    children, and minus child_cost(child name) for each child, the time
    the child's wrapper spent in the parent's interval."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    wrappers: Dict[int, float] = {}
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
            wrappers[parent] = wrappers.get(parent, 0.0) + child_cost(name)
    out: Dict[str, float] = {}
    for idx, (name, start, end, _parent, _job) in enumerate(spans):
        own = (end - start) - covered_length(children.get(idx, ()), start, end) - wrappers.get(idx, 0.0)
        out[name] = out.get(name, 0.0) + own
    return out


def wrapper_costs(rounds: int = 5, repeats: int = 20000) -> Tuple[float, float]:
    """Seconds that one wrapped call and one wrapped generator step add to
    the caller's time over the bare call or step.

    Measured on no-op stand-ins: the median over ``rounds`` of the wrapped
    loop's time minus the bare loop's, divided by ``repeats``. Nearly all
    of a wrapper's own time lies outside the span it records (the span
    opens and closes at the innermost clock reads), so it falls in the
    parent span.
    """
    def noop():
        return None

    def items():
        yield from range(repeats)

    tracer = Tracer()
    wrapped_call = wrap(tracer, noop, "call")
    wrapped_items = wrap(tracer, items, "items")
    clock = time.perf_counter
    calls, steps = [], []
    for _ in range(rounds):
        t0 = clock()
        for _ in range(repeats):
            noop()
        t1 = clock()
        for _ in range(repeats):
            wrapped_call()
        t2 = clock()
        for _ in items():
            pass
        t3 = clock()
        for _ in wrapped_items():
            pass
        t4 = clock()
        calls.append(((t2 - t1) - (t1 - t0)) / repeats)
        steps.append(((t4 - t3) - (t3 - t2)) / repeats)
    return statistics.median(calls), statistics.median(steps)


# --- layer boundaries ------------------------------------------------------

def _rank_name(m, *_args, **_kw) -> str:
    return "linalg.rank.gfp" if m.field.char else "linalg.rank.qq"


def _count_calls(name: str):
    def count(counts, args, kwargs, result):
        counts[f"{name}.calls"] += 1
    return count


def _count_relations(counts, args, kwargs, result):
    n = args[0].n
    counts["symplectic.satisfies_plucker_relations.calls"] += 1
    counts["symplectic.satisfies_plucker_relations.pairs"] += comb(2 * n, n - 1) * comb(2 * n, n + 1)


def _count_wedge(counts, args, kwargs, result):
    basis = args[0]
    counts["symplectic.plucker_vector.calls"] += 1
    counts["symplectic.plucker_vector.minors"] += comb(2 * basis.n, basis.dim)


def _count_rank(counts, args, kwargs, result):
    counts[f"{_rank_name(*args)}.calls"] += 1


def _count_result(key: str, size: Callable):
    def count(counts, args, kwargs, result):
        counts[key] += size(args, result)
    return count


# (module, attribute path, span name or naming function, counter or None).
# Generator functions are detected and timed inside next() only.
SPECS = [
    ("cli", "main", "cli.main", _count_calls("cli.main")),
    ("symplectic", "satisfies_plucker_relations", "symplectic.satisfies_plucker_relations", _count_relations),
    ("symplectic", "lagrangian_subspaces", "symplectic.lagrangian_subspaces", None),
    ("symplectic", "plucker_vector", "symplectic.plucker_vector", _count_wedge),
    ("symplectic", "random_lagrangian", "symplectic.random_lagrangian", None),
    ("symplectic", "contract", "symplectic.contract", None),
    ("frlc", "build_plucker_matrix", "frlc.build_plucker_matrix",
     _count_result("frlc.build_plucker_matrix.nnz", lambda a, r: r.nnz)),
    ("frlc", "PlueckerMatrix.apply", "frlc.PlueckerMatrix.apply", _count_calls("frlc.PlueckerMatrix.apply")),
    ("frlc", "vanishing_space", "frlc.vanishing_space",
     _count_result("frlc.vanishing_space.points", lambda a, r: len(a[0]))),
    ("linalg", "rank", _rank_name, _count_rank),
    ("linalg", "nullspace", "linalg.nullspace", None),
    ("linalg", "row_space_equal", "linalg.row_space_equal", None),
    ("linalg", "rank_report", "linalg.rank_report", None),
    ("blocks", "decompose", "blocks.decompose",
     _count_result("blocks.decompose.blocks", lambda a, r: len(r.blocks))),
    ("blocks", "check_regularity", "blocks.check_regularity", None),
    ("blocks", "incidence_matrix", "blocks.incidence_matrix", None),
] + [
    ("formats", f"write_{fmt}", "formats.write", _count_result("formats.write.bytes", lambda a, r: len(r)))
    for fmt in ("coord", "alist", "json")
] + [
    ("formats", f"parse_{fmt}", "formats.parse", _count_result("formats.parse.bytes", lambda a, r: len(a[0])))
    for fmt in ("coord", "alist", "json")
]

# Work counts derived from argument sizes rather than observed inside the program.
COMPUTED = (
    "symplectic.satisfies_plucker_relations.pairs",
    "symplectic.plucker_vector.minors",
    "formats.write.bytes",
    "formats.parse.bytes",
)

GENERATOR_COUNTS = {"symplectic.lagrangian_subspaces": "symplectic.lagrangian_subspaces.points"}


def wrap(tracer: Tracer, func: Callable, name, counter=None) -> Callable:
    """A stand-in for func that records one span per call.

    For a generator function the span covers each next() separately, so
    the consumer's work between items is not charged to the generator.
    """
    if inspect.isgeneratorfunction(func):
        item_key = GENERATOR_COUNTS.get(name)
        tracer.generator_names.add(name)

        def gen_wrapper(*args, **kwargs):
            gen = func(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                if item_key:
                    tracer.counts[item_key] += 1
                yield item

        gen_wrapper.__wrapped__ = func
        return gen_wrapper

    def wrapper(*args, **kwargs):
        idx = tracer.open(name if isinstance(name, str) else name(*args, **kwargs))
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            counter(tracer.counts, args, kwargs, result)
        return result

    wrapper.__wrapped__ = func
    return wrapper


def install(tracer: Tracer, modules: Dict[str, object]) -> None:
    """Wrap every function in SPECS inside a freshly imported package.

    ``modules`` maps the names of all loaded ``lgplucker`` modules
    (the package itself included) to the module objects.
    """
    for mod_name, path, name, counter in SPECS:
        owner = modules[f"lgplucker.{mod_name}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        orig = getattr(owner, attr)
        stand_in = wrap(tracer, orig, name, counter)
        setattr(owner, attr, stand_in)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, stand_in)
                elif isinstance(value, dict) and key.isupper():
                    for k, v in value.items():
                        if v is orig:
                            value[k] = stand_in
