"""Command-line interface: construct structures, run verification suites,
export JSON/LaTeX, and compare against the embedded worked examples.

Exit codes: 0 success, 1 verification or comparison failure (or a failed
construction step), 2 invalid invocation (an unwritable --out path
included), 3 internal error (an exception that is not an arithmetic or
value error, reported on stderr).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from .exactalg import Poly
from .fixtures import FIXTURES, Fixture, terms_to_poly
from .frobenius import CHECKS, FrobeniusStructure, build_structure
from .rootdata import InvalidSpec, RootSystemSpec
from .serialize import document_chunks, document_json, structure_document, structure_latex

CHECK_NAMES = list(CHECKS)

# the largest rank at which the first-principles oracle runs
ORACLE_MAX_RANK = 3


def run_check(name: str, struct: FrobeniusStructure, oracle_max_rank: int) -> Dict:
    """Run one named check of ``frobenius.CHECKS``; returns {check, passed,
    detail}.  The oracle is skipped, as passed, above oracle_max_rank."""
    if name not in CHECKS:
        return _result(name, False, f"unknown check {name!r}")
    rank = struct.spec.rank
    if name == "oracle" and rank > oracle_max_rank:
        return _result(name, True, f"skipped (rank {rank} > bound {oracle_max_rank})")
    try:
        return _result(name, True, CHECKS[name](struct))
    except ArithmeticError as exc:
        return _result(name, False, str(exc))


def _result(name: str, passed: bool, detail: str) -> Dict:
    return {"check": name, "passed": passed, "detail": detail}


def run_checks(struct: FrobeniusStructure, checks: List[str],
               oracle_max_rank: int) -> List[Dict]:
    return [run_check(name, struct, oracle_max_rank) for name in checks]


# ---------------------------------------------------------------------------
# Fixture comparison
# ---------------------------------------------------------------------------

def _flip_sign_map(struct: FrobeniusStructure) -> Poly:
    """The branch flip s -> -s acts on the flat chart as t^m -> -t^m for
    k+1 <= m <= l; returns the potential with flipped arguments."""
    cspec = struct.cspec
    chart = struct.potential.chart
    flipped = {}
    for m in range(cspec.vertex + 1, cspec.rank + 1):
        flipped[f"t{m}"] = -Poly.variable(chart, f"t{m}")
    return struct.potential.poly.substitute(flipped, chart)


def compare_fixture(struct: FrobeniusStructure, fixture: Fixture) -> List[str]:
    """Exact diff between the constructed structure and a worked example."""
    problems: List[str] = []
    flat = struct.flat
    y_chart = struct.pencil.chart
    w_chart = flat.w_map.target
    t_chart = flat.t_map.target

    for j, terms in fixture.p_terms.items():
        expected = terms_to_poly(y_chart, terms)
        if flat.p_list[j - 1] != expected:
            problems.append(f"p_{j}: got {flat.p_list[j - 1]!r}, expected {expected!r}")
    for j, terms in fixture.z_terms.items():
        got = flat.z_map.forward[f"z{j}"]
        expected = terms_to_poly(y_chart, terms)
        if got != expected:
            problems.append(f"z^{j}: got {got!r}, expected {expected!r}")
    for j, terms in fixture.h_terms.items():
        got = flat.h_polys.get(j, Poly.const(w_chart, 0))
        expected = terms_to_poly(w_chart, terms)
        if got != expected:
            problems.append(f"h_{j}: got {got!r}, expected {expected!r}")

    expected_f = terms_to_poly(t_chart, fixture.potential_terms)
    if struct.potential.poly != expected_f and _flip_sign_map(struct) != expected_f:
        diff = struct.potential.poly - expected_f
        for exps, coeff in diff.sorted_terms():
            problems.append(
                f"potential term {diff.exponents_as_dict(exps)}: "
                f"constructed - expected = {coeff}")

    dt = [Fraction(x) for x in fixture.euler_dtilde]
    if list(struct.euler.dtilde) != dt:
        problems.append(f"euler dtilde: got {struct.euler.dtilde}, expected {dt}")
    if struct.euler.last_component != Fraction(fixture.euler_last):
        problems.append(f"euler last component: got {struct.euler.last_component}, "
                        f"expected {fixture.euler_last}")

    for (i, j), terms in fixture.g_spot.items():
        expected = terms_to_poly(t_chart, terms)
        if struct.g_t.mat[i - 1][j - 1] != expected:
            problems.append(f"g^{i}{j}: got {struct.g_t.mat[i - 1][j - 1]!r}, "
                            f"expected {expected!r}")
    return problems


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _add_spec_args(sub):
    sub.add_argument("--family", required=True, choices=["B", "C"])
    sub.add_argument("--rank", required=True, type=int)
    sub.add_argument("--vertex", required=True, type=int)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except Exception as exc:  # a fault in the program, not a failed verification
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _main(argv: Optional[List[str]]) -> int:
    parser = argparse.ArgumentParser(
        prog="weylfrob",
        description="Frobenius manifolds on extended affine Weyl orbit spaces "
                    "of type B/C, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build a structure and export it")
    _add_spec_args(p_con)
    p_con.add_argument("--out", default=None, help="output path (default: stdout)")
    p_con.add_argument("--format", default="json", choices=["json", "latex"])

    p_ver = sub.add_parser("verify", help="run verification suites")
    _add_spec_args(p_ver)
    p_ver.add_argument("--checks", default=",".join(CHECK_NAMES),
                       help="comma-separated subset of " + ",".join(CHECK_NAMES))

    p_cmp = sub.add_parser("compare", help="diff against an embedded worked example")
    p_cmp.add_argument("--fixture", required=True, choices=sorted(FIXTURES))

    args = parser.parse_args(argv)

    if args.command == "compare":
        fixture = FIXTURES[args.fixture]
        spec = RootSystemSpec(fixture.family, fixture.rank, fixture.vertex)
        try:
            struct = build_structure(spec)
        except (ArithmeticError, ValueError) as exc:
            print(f"construction failed: {exc}", file=sys.stderr)
            return 1
        problems = compare_fixture(struct, fixture)
        if problems:
            print(f"fixture {fixture.identifier}: MISMATCH", file=sys.stderr)
            for p in problems:
                print("  " + p, file=sys.stderr)
            return 1
        print(f"fixture {fixture.identifier}: match")
        return 0

    try:
        spec = RootSystemSpec(args.family, args.rank, args.vertex)
    except InvalidSpec as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 2

    if args.command == "construct":
        try:
            struct = build_structure(spec)
            report = run_checks(struct, CHECK_NAMES, ORACLE_MAX_RANK)
        except (ArithmeticError, ValueError) as exc:
            print(f"construction failed: {exc}", file=sys.stderr)
            return 1
        if any(not r["passed"] for r in report):
            for r in report:
                if not r["passed"]:
                    print(f"check {r['check']} failed: {r['detail']}", file=sys.stderr)
            return 1
        if args.format == "json":
            chunks = document_chunks(structure_document(struct, report))
        else:
            chunks = [structure_latex(struct)]
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.writelines(chunks)
            except OSError as exc:
                print(f"cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
                return 2
        else:
            sys.stdout.writelines(chunks)
        return 0

    if args.command == "verify":
        wanted = [c.strip() for c in args.checks.split(",") if c.strip()]
        unknown = [c for c in wanted if c not in CHECK_NAMES]
        if not wanted:
            print(f"no checks named in {args.checks!r}", file=sys.stderr)
            return 2
        if unknown:
            print(f"unknown checks: {', '.join(unknown)}", file=sys.stderr)
            return 2
        try:
            struct = build_structure(spec)
            report = run_checks(struct, wanted, ORACLE_MAX_RANK)
        except (ArithmeticError, ValueError) as exc:
            print(f"construction failed: {exc}", file=sys.stderr)
            return 1
        sys.stdout.write(document_json({"spec": {"family": spec.family, "rank": spec.rank,
                                                 "vertex": spec.vertex},
                                        "checks": report}))
        return 0 if all(r["passed"] for r in report) else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
