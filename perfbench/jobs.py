"""The three workloads as job lists, each job with its own oracle check.

A job's ``run`` is the timed part: one call into the package's public
surface, ``lgplucker.cli.main([...])`` for commands inside the CLI caps
and the exported library functions past them. Its ``check`` runs after
the pass, untimed, and compares the output with ``oracles``; it returns
a description of the first mismatch, or None.

Workloads (why each was chosen is also recorded in BENCHMARK.json):

* verify-gfq: ``verify`` at six small (n, q). Dominated by the quadratic
  check ``symplectic.satisfies_plucker_relations``.
* points: point production without the quadratic check: ``count`` at
  (3, 5), a library minimality job at (4, 2) (enumerate, wedge,
  vanishing space over GF(2), rank of B mod 2) and QQ sampling at n = 5
  and 6. No (n, q) is enumerated twice in a pass, so an in-process cache
  cannot win where a command-line user would not gain.
* relations: the matrix pipeline with no point work: build in three
  formats with read-back, decompose, rank over QQ and four primes, and
  the LDPC export with read-back.

``verify --n 4 --q 2`` is not a job: it takes about 87 s, 83 s of it in
the quadratic check, and it exits 2 on the known minimality defect
(vanishing dimension 28 against rank 27).
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable, List, Optional

import oracles

VERIFY_SIZES = ((2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3))
COUNT_SIZE = (3, 5)
MINIMALITY_SIZE = (4, 2)
# True at (4, 2): one characteristic-2 functional beyond the 27 rows of B.
MINIMALITY_VANISHING_DIM = 28
SAMPLES = ((5, 4), (6, 2))  # (n, samples per pass)
MINORS_CHECKED = 8
BUILD_SIZES = range(2, 8)
FORMATS = ("coord", "alist", "json")
CLI_SIZES = range(2, 7)  # decompose and rank cap
LIBRARY_SIZE = 7
CHARS = (0, 2, 3, 5, 7)
EXPORT_SIZES = range(2, 13, 2)

COMMANDS = ("verify", "count", "minimality", "sample", "build", "roundtrip", "decompose", "rank", "export")


@dataclass
class Job:
    name: str
    command: str
    run: Callable[[object], object]
    check: Callable[[object], Optional[str]]


def cli_call(lg, argv: List[str]):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lg.cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _exit_ok(payload) -> Optional[str]:
    code, _out, err = payload
    return None if code == 0 else f"exit code {code}: {err.strip()[:200]}"


@lru_cache(maxsize=None)
def _relation_entries(n):
    return frozenset(oracles.relation_entries(n))


@lru_cache(maxsize=None)
def _incidence_entries(m):
    return frozenset(oracles.incidence_entries(m))


# --- verify-gfq ------------------------------------------------------------

def verify_job(n: int, q: int, seed: int) -> Job:
    def check(payload):
        bad = _exit_ok(payload)
        if bad:
            return bad
        doc = json.loads(payload[1])
        if doc.get("pass") is not True or (doc.get("n"), doc.get("q")) != (n, q):
            return f"report does not pass for ({n}, {q})"
        checks = {c["name"]: c for c in doc["checks"]}
        if checks["point_count"]["observed"] != oracles.lagrangian_count(n, q):
            return f"point count {checks['point_count']['observed']}"
        vanishing = checks.get("vanishing_dimension")
        if vanishing and vanishing["observed"] != oracles.relation_rank(n, q):
            return f"vanishing dimension {vanishing['observed']}"
        return None

    return Job(f"verify-{n}-{q}", "verify", lambda lg: cli_call(lg, ["verify", "--n", n, "--q", q, "--seed", seed]), check)


def verify_gfq(rng: random.Random, workdir: Path) -> List[Job]:
    return [verify_job(n, q, rng.randrange(2**31)) for n, q in VERIFY_SIZES]


# --- points ----------------------------------------------------------------

def count_job(n: int, q: int) -> Job:
    def check(payload):
        bad = _exit_ok(payload)
        if bad:
            return bad
        want = oracles.lagrangian_count(n, q)
        got = dict(line.split(" ", 1) for line in payload[1].splitlines())
        if got.get("formula") != str(want) or got.get("enumerated") != str(want):
            return f"count output {got}, expected {want}"
        return None

    return Job(f"count-{n}-{q}", "count", lambda lg: cli_call(lg, ["count", "--n", n, "--q", q]), check)


def minimality_job(n: int, q: int) -> Job:
    def run(lg):
        field = lg.GF(q)
        points = [lg.plucker_vector(lag) for lag in lg.lagrangian_subspaces(n, q)]
        vanishing = lg.vanishing_space(points, field)
        rank_b = lg.rank(lg.build_plucker_matrix(n).to_exact(field))
        return len(points), [h.coeffs for h in vanishing], rank_b

    def check(payload):
        npoints, functionals, rank_b = payload
        if npoints != oracles.lagrangian_count(n, q):
            return f"{npoints} points"
        if rank_b != oracles.relation_rank(n, q):
            return f"rank of B mod {q} is {rank_b}"
        if len(functionals) != MINIMALITY_VANISHING_DIM:
            return f"vanishing dimension {len(functionals)}"
        # Over GF(2) signs vanish, so coefficient parity gives the functional.
        col = {t: j for j, t in enumerate(combinations(range(1, 2 * n + 1), n))}
        basis = oracles.gf2_basis(sum(1 << col[t] for t, v in h.items() if v % 2) for h in functionals)
        if len(basis) != len(functionals):
            return "vanishing functionals are dependent"
        rows = {}
        for i, j in _relation_entries(n):
            rows[i] = rows.get(i, 0) | (1 << j)
        if any(oracles.gf2_reduce(basis, r) for r in rows.values()):
            return "a row of B lies outside the vanishing space"
        return None

    return Job(f"minimality-{n}-{q}", "minimality", run, check)


def sample_job(n: int, seed: int) -> Job:
    def run(lg):
        lag = lg.random_lagrangian(n, lg.QQ, seed=seed)
        w = lg.plucker_vector(lag)
        contraction_zero = lg.contract(w).is_zero()
        values = lg.build_plucker_matrix(n).apply(w)
        return lag.rows, dict(w.coords), contraction_zero, values

    def check(payload):
        rows, coords, contraction_zero, values = payload
        if not contraction_zero:
            return "contract(w) is not zero"
        if len(values) != comb(2 * n, n - 2) or any(values):
            return "apply(w) is not all zero"
        if len(rows) != n or any(len(r) != 2 * n for r in rows) or oracles.fraction_rank(rows) != n:
            return "sample basis is not n independent rows"
        if any(oracles.symplectic_pairing(a, b, n) for a in rows for b in rows):
            return "sample basis is not isotropic"
        rng = random.Random(seed)
        for alpha in rng.sample(list(combinations(range(1, 2 * n + 1), n)), MINORS_CHECKED):
            minor = oracles.fraction_det([[r[a - 1] for a in alpha] for r in rows])
            if coords.get(alpha, 0) != minor:
                return f"coordinate {alpha} is {coords.get(alpha, 0)}, minor is {minor}"
        if not oracles.wedge_identity_holds(rows, coords, [rng.randrange(1, 10**6) for _ in range(2 * n)]):
            return "coordinates are not the minors of the basis (Cauchy-Binet check)"
        return None

    return Job(f"sample-{n}-{seed}", "sample", run, check)


def points(rng: random.Random, workdir: Path) -> List[Job]:
    jobs = [count_job(*COUNT_SIZE), minimality_job(*MINIMALITY_SIZE)]
    for n, reps in SAMPLES:
        jobs.extend(sample_job(n, rng.randrange(2**31)) for _ in range(reps))
    return jobs


# --- relations -------------------------------------------------------------

def _check_file(path: Path, fmt: str, shape, entries) -> Optional[str]:
    rows, cols, got = oracles.READERS[fmt](path.read_text(encoding="ascii"))
    if (rows, cols) != shape:
        return f"{path.name}: shape {(rows, cols)}, expected {shape}"
    if got != entries:
        return f"{path.name}: entries differ from the definition"
    return None


def build_job(n: int, fmt: str, path: Path) -> Job:
    def check(payload):
        return _exit_ok(payload) or _check_file(path, fmt, oracles.relation_shape(n), _relation_entries(n))

    argv = ["build", "--n", n, "--format", fmt, "--out", path]
    return Job(f"build-{n}-{fmt}", "build", lambda lg: cli_call(lg, argv), check)


def roundtrip_job(path: Path, fmt: str, shape) -> Job:
    def run(lg):
        text = path.read_text(encoding="ascii")
        data = lg.formats.PARSERS[fmt](text)
        return text, lg.formats.WRITERS[fmt](data), (data.rows, data.cols)

    def check(payload):
        text, again, parsed_shape = payload
        if parsed_shape != shape:
            return f"{path.name}: parsed shape {parsed_shape}, expected {shape}"
        return None if again == text else f"{path.name}: re-serialization differs"

    return Job(f"roundtrip-{path.name}", "roundtrip", run, check)


_CENSUS_PART = re.compile(r"(\d+)×(L\d+)")


def _census_expected(n: int):
    return {oracles.block_label(m): c for m, c in oracles.census(n).items()}


def decompose_cli_job(n: int) -> Job:
    def check(payload):
        bad = _exit_ok(payload)
        if bad:
            return bad
        lines = payload[1].splitlines()
        got = {label: int(c) for c, label in _CENSUS_PART.findall(lines[0])}
        zero = re.search(r"zero-cols (\d+)", lines[0])
        if got != _census_expected(n) or not zero or int(zero.group(1)) != oracles.zero_columns(n):
            return f"census line {lines[0]!r}"
        blocks = sum(oracles.census(n).values())
        if not lines[1].startswith(f"regularity: all {blocks} blocks pass"):
            return f"regularity line {lines[1]!r}"
        return None

    return Job(f"decompose-{n}", "decompose", lambda lg: cli_call(lg, ["decompose", "--n", n]), check)


def decompose_library_job(n: int) -> Job:
    def run(lg):
        dec = lg.decompose(lg.build_plucker_matrix(n))
        return dec.census(), len(dec.zero_columns), [(blk.m, blk.matrix.shape) for blk in dec.blocks]

    def check(payload):
        census, zero, shapes = payload
        if census != _census_expected(n) or zero != oracles.zero_columns(n):
            return f"census {census}, zero columns {zero}"
        if any(shape != oracles.incidence_shape(m) for m, shape in shapes):
            return "a block has the wrong shape"
        return None

    return Job(f"decompose-{n}-lib", "decompose", run, check)


def _check_rank(n: int, c: int, doc: dict) -> Optional[str]:
    rank = oracles.relation_rank(n, c)
    rows, cols = oracles.relation_shape(n)
    want = {"n": n, "characteristic": c, "rank": rank, "expected": rows, "surjective": rank == rows, "embedding_rank": cols - rank}
    got = {k: doc.get(k) for k in want}
    return None if got == want else f"rank report {got}, expected {want}"


def rank_cli_job(n: int, c: int) -> Job:
    def check(payload):
        return _exit_ok(payload) or _check_rank(n, c, json.loads(payload[1]))

    return Job(f"rank-{n}-{c}", "rank", lambda lg: cli_call(lg, ["rank", "--n", n, "--char", c, "--json"]), check)


def rank_library_job(n: int, c: int) -> Job:
    return Job(f"rank-{n}-{c}-lib", "rank", lambda lg: vars(lg.rank_report(n, c)), lambda doc: _check_rank(n, c, doc))


def export_job(m: int, path: Path) -> Job:
    def check(payload):
        return _exit_ok(payload) or _check_file(path, "alist", oracles.incidence_shape(m), _incidence_entries(m))

    return Job(f"export-{m}", "export", lambda lg: cli_call(lg, ["export-ldpc", "--m", m, "--out", path]), check)


def relations(rng: random.Random, workdir: Path) -> List[Job]:
    jobs = []
    for n in BUILD_SIZES:
        for fmt in FORMATS:
            path = workdir / f"b{n}.{fmt}"
            jobs += [build_job(n, fmt, path), roundtrip_job(path, fmt, oracles.relation_shape(n))]
    jobs += [decompose_cli_job(n) for n in CLI_SIZES] + [decompose_library_job(LIBRARY_SIZE)]
    jobs += [rank_cli_job(n, c) for c in CHARS for n in CLI_SIZES]
    jobs += [rank_library_job(LIBRARY_SIZE, c) for c in CHARS]
    for m in EXPORT_SIZES:
        path = workdir / f"l{m}.alist"
        jobs += [export_job(m, path), roundtrip_job(path, "alist", oracles.incidence_shape(m))]
    return jobs


WORKLOADS = {"verify-gfq": verify_gfq, "points": points, "relations": relations}
