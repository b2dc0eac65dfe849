"""Command line surface: build, decompose, verify, rank, count, export-ldpc.

Exit codes: 0 success, 1 usage error, 2 verification failure,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field as dataclass_field
from math import comb
from typing import Any, List, Optional

from . import blocks, formats, frlc, linalg, symplectic
from .errors import DECOMPOSE_CAP, EXPORT_CAP, RANK_CAP, ResourceCapError
from .fields import GF, QQ
from .symplectic import ExteriorVector, contract, coordinate_vector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_CAP = 3


@dataclass
class CheckResult:
    name: str
    expected: Any
    observed: Any
    passed: bool
    witness: Any = None

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "expected": self.expected,
            "observed": self.observed,
            "pass": self.passed,
        }
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


@dataclass
class VerificationReport:
    n: int
    q: int
    checks: List[CheckResult] = dataclass_field(default_factory=list)
    timings: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "checks": [c.to_dict() for c in self.checks],
            "timings": self.timings,
            "pass": self.passed,
        }


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit with code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_output(text: str, out: Optional[str], summary: str) -> None:
    """text on stdout and the summary on stderr, or text to the file out
    and the summary on stdout."""
    if out is None or out == "-":
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(summary)


def cmd_build(args) -> int:
    b = frlc.build_plucker_matrix(args.n)
    summary = f"B(n={args.n}): {b.shape[0]} x {b.shape[1]}, nnz {b.nnz}"
    _write_output(formats.WRITERS[args.format](b), args.out, summary)
    return EXIT_OK


def cmd_decompose(args) -> int:
    if args.n > DECOMPOSE_CAP:
        raise ResourceCapError(f"n = {args.n} exceeds the decompose cap {DECOMPOSE_CAP}")
    b = frlc.build_plucker_matrix(args.n)
    try:
        dec = blocks.decompose(b)
    except blocks.DecompositionError as exc:
        print(f"decomposition failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    census = dec.census()
    parts = [f"{count}×{label}" for label, count in census.items()]
    parts.append(f"zero-cols {len(dec.zero_columns)}")
    print(", ".join(parts))
    # each block is its atlas member up to row and column permutations,
    # which keep regularity, so each member is checked once for its blocks
    bad = 0
    for m in sorted(dec.counts, reverse=True):
        report = blocks.check_regularity(dec.references[m])
        bad += not report.ok
        for failure in report.failures:
            print(f"FAIL L{blocks.r_value(m)} ({dec.counts[m]} blocks): {failure}")
    if bad == 0:
        detail = ", ".join(
            f"L{blocks.r_value(m)}: rows {blocks.r_value(m)}, cols {blocks.r_value(m) - 1}, overlap <= 1"
            for m in sorted(dec.counts, reverse=True)
        )
        print(f"regularity: all {sum(dec.counts.values())} blocks pass ({detail})")
    if args.n % 2:
        largest = f"L{blocks.r_value(args.n - 1)}"
        print(
            f"NOTE: odd case: the largest block {largest} appears "
            f"{census.get(largest, 0)} = 2n times (one class per free index), not n"
        )
    return EXIT_VERIFY if bad else EXIT_OK


def _verification_checks(n: int, q: int, seed: int) -> VerificationReport:
    report = VerificationReport(n=n, q=q)
    field = GF(q)
    timings = {}

    t0 = time.perf_counter()
    points = [symplectic.plucker_vector(lag) for lag in symplectic.lagrangian_subspaces(n, q)]
    timings["enumerate_s"] = time.perf_counter() - t0
    formula = symplectic.lagrangian_count(n, q)
    report.checks.append(
        CheckResult("point_count", expected=formula, observed=len(points), passed=len(points) == formula)
    )

    t0 = time.perf_counter()
    bad_rel = [w for w in points if not symplectic.satisfies_plucker_relations(w)]
    timings["plucker_relations_s"] = time.perf_counter() - t0
    witness = None
    if bad_rel:
        alpha, beta = symplectic.failing_plucker_relation(bad_rel[0])
        witness = {"point": sorted(bad_rel[0].coords), "alpha": alpha, "beta": beta}
    report.checks.append(
        CheckResult("plucker_relations", expected=0, observed=len(bad_rel), passed=not bad_rel, witness=witness)
    )

    b = frlc.build_plucker_matrix(n)
    t0 = time.perf_counter()
    bad_ann = [w for w in points if any(b.apply(w))]
    timings["annihilation_s"] = time.perf_counter() - t0
    report.checks.append(
        CheckResult(
            "annihilation",
            expected=0,
            observed=len(bad_ann),
            passed=not bad_ann,
            witness=sorted(bad_ann[0].coords) if bad_ann else None,
        )
    )

    # The functionals vanishing on every GF(q) point are the saturation of
    # the integer row lattice of B, reduced mod q: a space of dimension
    # rank_QQ(B) that contains the rows of B mod q and equals their span
    # exactly when B keeps full rank mod q, i.e. q >= floor((n + 2) / 2).
    t0 = time.perf_counter()
    vanishing = frlc.vanishing_space(points, field)
    vanishing_m = frlc.functional_matrix(vanishing, n, field)
    b_exact = b.to_exact(field)
    rank_qq = blocks.decompose(b).rank(QQ)
    # One greedy pass over the rows of B and then the vanishing rows: the
    # vanishing rows it picks are a basis of the vanishing space modulo B.
    picked = linalg.independent_rows(b_exact.stacked(vanishing_m))
    rows_inside = len(picked) == len(vanishing)
    extra = [vanishing[i - b_exact.nrows] for i in picked if i >= b_exact.nrows]
    span_expected = q >= (n + 2) // 2
    span_ok = rows_inside and not extra
    timings["vanishing_s"] = time.perf_counter() - t0
    report.checks.append(
        CheckResult("vanishing_dimension", expected=rank_qq, observed=len(vanishing), passed=len(vanishing) == rank_qq)
    )
    report.checks.append(
        CheckResult("relation_rows_vanish", expected=True, observed=rows_inside, passed=rows_inside)
    )
    report.checks.append(
        CheckResult(
            "vanishing_row_space",
            expected=span_expected,
            observed=span_ok,
            passed=span_ok == span_expected,
            witness=[{str(k): v for k, v in sorted(h.coeffs.items())} for h in extra] or None,
        )
    )

    t0 = time.perf_counter()
    rng = random.Random(seed)
    mismatches = 0
    witness = None
    cols = b.col_tuples
    for _ in range(25):
        coords = {}
        for t in rng.sample(cols, min(8, len(cols))):
            coords[t] = rng.randrange(q)
        w = ExteriorVector(n, n, field, coords)
        if b.apply(w) != coordinate_vector(contract(w)):
            mismatches += 1
            if witness is None:
                witness = {str(k): v for k, v in sorted(w.coords.items())}
    timings["commuting_square_s"] = time.perf_counter() - t0
    report.checks.append(
        CheckResult(
            "commuting_square",
            expected=0,
            observed=mismatches,
            passed=mismatches == 0,
            witness=witness,
        )
    )

    report.timings = timings
    return report


def cmd_verify(args) -> int:
    if args.n < 2:
        print("verify needs n >= 2", file=sys.stderr)
        return EXIT_USAGE
    report = _verification_checks(args.n, args.q, args.seed)
    print(json.dumps(report.to_dict(), indent=2, default=str))
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_rank(args) -> int:
    if args.n > RANK_CAP:
        raise ResourceCapError(f"n = {args.n} exceeds the rank cap {RANK_CAP}")
    try:
        report = linalg.rank_report(args.n, args.char)
    except linalg.RankCriterionViolation as exc:
        print(f"characteristic criterion falsified: {exc.report}", file=sys.stderr)
        return EXIT_VERIFY
    if args.json:
        print(json.dumps(report.__dict__, indent=2))
    else:
        verdict = "surjective" if report.surjective else "NOT surjective"
        fieldname = "QQ" if report.characteristic == 0 else f"GF({report.characteristic})"
        print(
            f"rank B(n={report.n}) over {fieldname}: {report.rank} of {report.expected} ({verdict}); "
            f"embedding rank {report.embedding_rank}"
        )
    return EXIT_OK


def cmd_count(args) -> int:
    formula = symplectic.lagrangian_count(args.n, args.q)
    # the cells check n and q before the cap and build nothing above it,
    # so a count above the cap still rejects an invalid n or q
    try:
        enumerated = sum(len(cell) for cell in symplectic.lagrangian_cells(args.n, args.q))
    except ResourceCapError:
        enumerated = None
    lines = {"n": args.n, "q": args.q, "formula": formula, "enumerated": enumerated}
    ok = enumerated in (None, formula)
    if args.json:
        print(json.dumps(lines))
    else:
        print(f"formula {formula}")
        if lines["enumerated"] is not None:
            print(f"enumerated {lines['enumerated']}")
        else:
            print("enumerated (skipped: above cap)")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_export_ldpc(args) -> int:
    if args.m % 2 or args.m < 2:
        print("export-ldpc needs an even m >= 2", file=sys.stderr)
        return EXIT_USAGE
    if args.m > EXPORT_CAP:
        raise ResourceCapError(f"m = {args.m} exceeds the export cap {EXPORT_CAP}")
    mat = blocks.incidence_matrix(args.m)
    r = blocks.r_value(args.m)
    summary = (
        f"{mat.label}: code length {comb(args.m, args.m // 2)}, "
        f"parity rows {comb(args.m, (args.m - 2) // 2)}, "
        f"row weight {r}, column weight {r - 1}"
    )
    _write_output(formats.write_alist(mat), args.out, summary)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="lgplucker", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write the relation matrix to a file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("coord", "alist", "json"), default="coord")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("decompose", help="block census and regularity report")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="run the verification suite over GF(q)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rank", help="rank of the relation matrix over one field")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--char", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("count", help="point count: formula vs enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("export-ldpc", help="alist export of one atlas member")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_ldpc)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # --out names a missing directory, a directory or an unwritable file
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
