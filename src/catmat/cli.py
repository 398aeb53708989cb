"""Command line interface.

Commands
    decide   print EXISTS or ABSENT for a matrix (optionally a whole directory)
    report   print the status of every condition the decider evaluates
    witness  build a category and emit its JSON certificate
    verify   replay a certificate against a matrix with the exhaustive verifier
    oracle   brute-force search, independent of the decision procedure

Exit codes: 0 category exists / certificate verified, 1 no category / failed
verification, 2 bad input or usage, 3 oracle budget exhausted, 4 internal
error (any other exception, reported on stderr and never read as a verdict).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .certificate import build_certificate, dump_certificate, load_certificate
from .decider import condition_report, decide, decide_by_submatrices, explain
from .errors import CertificateError, ParseError, Rejected, ShapeError, TripleBudgetError
from .matrix import HomMatrix, parse_matrix, too_long
from .oracle import SearchBudget, oracle_decide
from .reduction import reduce
from .verifier import verify_category
from .witness import build_witness

EXIT_EXISTS = 0
EXIT_ABSENT = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path!r} is not UTF-8 text: {exc}") from None


def _budget(text: str) -> int:
    """The oracle's --budget: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _load_matrix(path: str) -> HomMatrix:
    return parse_matrix(_read_text(path))


def _print_report(entries: list[dict]) -> None:
    for entry in entries:
        details = f"  {entry['details']}" if entry["details"] else ""
        print(f"{entry['status'].upper():7s} {entry['condition']}{details}")


def _verdict(verdict) -> tuple[str, dict]:
    """The text line and the JSON fields of a verdict, for one file or a batch."""
    fields = {
        "decision": "exists" if verdict.exists else "absent",
        "reason": verdict.reason.to_json() if verdict.reason else None,
    }
    if verdict.subset is not None:
        fields["subset"] = list(verdict.subset)
    if verdict.rmap is not None:
        fields["reduced_size"] = verdict.rmap.m
    if verdict.exists:
        line = "EXISTS"
    elif verdict.subset is not None:
        line = f"ABSENT ({verdict.reason}; submatrix {fields['subset']})"
    else:
        line = f"ABSENT ({verdict.reason})"
    return line, fields


def _print_verdict(verdict, as_json: bool, report: list[dict] | None) -> None:
    line, fields = _verdict(verdict)
    if as_json:
        if report is not None:
            fields["conditions"] = report
        print(json.dumps(fields, indent=2))
        return
    print(line)
    if report is not None:
        _print_report(report)


def cmd_decide(args) -> int:
    if args.batch and (args.explain or args.matrix is not None):
        clash = "--explain" if args.explain else "a matrix file"
        print(f"decide: --batch cannot be combined with {clash}", file=sys.stderr)
        return EXIT_USAGE
    if args.batch:
        return _decide_batch(args)
    if args.matrix is None:
        print("decide: a matrix file or --batch is required", file=sys.stderr)
        return EXIT_USAGE
    M = _load_matrix(args.matrix)
    if args.explain and not args.via_submatrices:
        verdict, report = explain(M)
    else:
        verdict = decide_by_submatrices(M) if args.via_submatrices else decide(M)
        report = condition_report(M) if args.explain else None
    _print_verdict(verdict, args.json, report)
    return EXIT_EXISTS if verdict.exists else EXIT_ABSENT


def _decide_batch(args) -> int:
    try:
        names = sorted(
            name
            for name in os.listdir(args.batch)
            if os.path.isfile(os.path.join(args.batch, name))
        )
    except OSError as exc:
        print(f"cannot read batch directory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    any_absent = False
    any_error = False
    results = []
    for name in names:
        try:
            M = _load_matrix(os.path.join(args.batch, name))
            verdict = decide_by_submatrices(M) if args.via_submatrices else decide(M)
        except (ParseError, ShapeError, TripleBudgetError, OSError) as exc:
            any_error = True
            results.append({"file": name, "error": str(exc)})
            if not args.json:
                print(f"{name}: ERROR {exc}")
            continue
        if not verdict.exists:
            any_absent = True
        line, fields = _verdict(verdict)
        results.append({"file": name, **fields})
        if not args.json:
            print(f"{name}: {line}")
    if args.json:
        print(json.dumps(results, indent=2))
    if any_error:
        return EXIT_USAGE
    return EXIT_ABSENT if any_absent else EXIT_EXISTS


def cmd_report(args) -> int:
    M = _load_matrix(args.matrix)
    verdict, report = explain(M)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_report(report)
    return EXIT_EXISTS if verdict.exists else EXIT_ABSENT


def cmd_witness(args) -> int:
    M = _load_matrix(args.matrix)
    try:
        C = build_witness(M)
    except Rejected as exc:
        print(f"ABSENT ({exc.verdict.reason})", file=sys.stderr)
        return EXIT_ABSENT
    chunks = dump_certificate(build_certificate(C, M, reduce(M)[1]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
            fh.write("\n")
        print(f"certificate written to {args.out} ({C.morphism_count()} morphisms)")
    else:
        sys.stdout.writelines(chunks)
        print()
    return EXIT_EXISTS


def cmd_verify(args) -> int:
    text = _read_text(args.certificate)
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        print(f"certificate is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError:  # an integer over the digit limit
        raise too_long("certificate") from None
    claimed, C = load_certificate(data)
    M = _load_matrix(args.matrix) if args.matrix else claimed
    report = verify_category(C, M)
    if args.json:
        payload = {"passed": report.passed}
        for _, name, entries in report.failures():
            payload[name] = [list(map(str, e)) for e in entries]
        payload["triples_checked"] = report.triples_checked
        print(json.dumps(payload))
    elif report.passed:
        print(
            f"VERIFIED ({C.n} objects, {C.morphism_count()} morphisms, "
            f"{report.triples_checked} triples checked)"
        )
    else:
        print(f"FAILED {report.summary()}")
        for kind, _, entries in report.failures():
            for entry in entries[:4]:
                print(f"  {kind}: {entry}")
    return EXIT_EXISTS if report.passed else EXIT_ABSENT


def cmd_oracle(args) -> int:
    M = _load_matrix(args.matrix)
    result = oracle_decide(M, SearchBudget(args.budget))
    if args.json:
        print(json.dumps({"decision": result.decision, "assignments": result.assignments}))
    elif result.decision == "yes":
        print(f"EXISTS (assignments={result.assignments})")
    elif result.decision == "no":
        print(f"ABSENT (assignments={result.assignments})")
    else:
        print(f"UNKNOWN (budget exhausted after {result.assignments} assignments)")
    if result.decision == "unknown":
        return EXIT_UNKNOWN
    return EXIT_EXISTS if result.exists else EXIT_ABSENT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; each `parse_args` call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="catmat",
        description="Decide whether a matrix of hom-set sizes is realized by a "
        "finite category; build and verify explicit witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide one matrix file or a directory of them")
    p.add_argument("matrix", nargs="?", help="matrix file (text rows or JSON), - for stdin")
    p.add_argument("--explain", action="store_true", help="also print the condition report")
    p.add_argument(
        "--via-submatrices",
        action="store_true",
        help="decide through principal submatrices of size <= 4",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--batch", metavar="DIR", help="decide every file in DIR")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("report", help="print the status of every decision condition")
    p.add_argument("matrix", help="matrix file, - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("witness", help="build a category and emit its certificate")
    p.add_argument("matrix", help="matrix file, - for stdin")
    p.add_argument("--out", metavar="FILE", help="write the certificate here instead of stdout")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("verify", help="replay a certificate with the exhaustive verifier")
    p.add_argument("certificate", help="certificate file produced by witness")
    p.add_argument("matrix", nargs="?", help="matrix to verify against (default: the certificate's)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force search independent of the decider")
    p.add_argument("matrix", help="matrix file, - for stdin")
    p.add_argument("--budget", type=_budget, default=SearchBudget().max_assignments,
                   help="assignment budget before giving up (default %(default)s)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ShapeError, CertificateError, TripleBudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
