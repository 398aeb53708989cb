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

`decide --batch` is run by catmat.batch, which decides its files on every
CPU in the process's affinity mask, in forked workers.

Each command imports the modules it runs when it starts, so importing this
module, or building its parser, loads no package module but catmat.errors
and no json: only `decide --batch` loads catmat.batch, and only --json
output and JSON input load json.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import (DEFAULT_MAX_ASSIGNMENTS, CertificateError, ParseError, Rejected,
                     ShapeError, TripleBudgetError)

EXIT_EXISTS = 0
EXIT_ABSENT = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4


def _read_text(path: str) -> str:
    """The UTF-8 text of a file, or of stdin for "-", read as bytes and
    decoded once, its line endings kept: the parsers take LF, CRLF and CR.
    One leading byte-order mark is dropped, as the utf-8-sig codec would."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        return data.removeprefix(b"\xef\xbb\xbf").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path!r} is not UTF-8 text: {exc}") from None


def _budget(text: str) -> int:
    """The oracle's --budget: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _load_matrix(path: str):
    from .matrix import parse_matrix

    return parse_matrix(_read_text(path))


def _print_json(value, indent: int | None = None) -> None:
    """Print `value` as JSON. Only --json output needs json, so only it loads it."""
    import json

    print(json.dumps(value, indent=indent))


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
        _print_json(fields, indent=2)
        return
    print(line)
    if report is not None:
        _print_report(report)


def cmd_decide(args) -> int:
    # Imported before --batch forks, so that no worker imports them again.
    from .decider import condition_report, decide, decide_by_submatrices, explain

    if args.batch and (args.explain or args.matrix is not None):
        clash = "--explain" if args.explain else "a matrix file"
        print(f"decide: --batch cannot be combined with {clash}", file=sys.stderr)
        return EXIT_USAGE
    if args.batch:
        from .batch import decide_batch

        return decide_batch(args)
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


def cmd_report(args) -> int:
    from .decider import explain

    M = _load_matrix(args.matrix)
    verdict, report = explain(M)
    if args.json:
        _print_json(report, indent=2)
    else:
        _print_report(report)
    return EXIT_EXISTS if verdict.exists else EXIT_ABSENT


def cmd_witness(args) -> int:
    from .certificate import dump_certificate
    from .witness import build_witness

    M = _load_matrix(args.matrix)
    try:
        C = build_witness(M)
    except Rejected as exc:
        print(f"ABSENT ({exc.verdict.reason})", file=sys.stderr)
        return EXIT_ABSENT
    chunks = dump_certificate(C, M)
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
    from .certificate import load_certificate
    from .matrix import read_json
    from .verifier import verify_category

    claimed, C = load_certificate(read_json(_read_text(args.certificate), "certificate"))
    M = _load_matrix(args.matrix) if args.matrix else claimed
    report = verify_category(C, M)
    if args.json:
        payload = {"passed": report.passed}
        for _, name, entries in report.failures():
            payload[name] = [list(map(str, e)) for e in entries]
        payload["triples_checked"] = report.triples_checked
        _print_json(payload)
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
    from .oracle import oracle_decide

    M = _load_matrix(args.matrix)
    result = oracle_decide(M, args.budget)
    if args.json:
        _print_json({"decision": result.decision, "assignments": result.assignments})
    elif result.decision == "yes":
        print(f"EXISTS (assignments={result.assignments})")
    elif result.decision == "no":
        print(f"ABSENT (assignments={result.assignments})")
    else:
        print(f"UNKNOWN (budget exhausted after {result.assignments} assignments)")
    if result.decision == "unknown":
        return EXIT_UNKNOWN
    return EXIT_EXISTS if result.exists else EXIT_ABSENT


def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; each `parse_args` call returns a fresh namespace."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The process's one parser and its map from command name to subparser."""
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
    p.add_argument("--budget", type=_budget, default=DEFAULT_MAX_ASSIGNMENTS,
                   help="assignment budget before giving up (default %(default)s)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_oracle)
    return parser, sub.choices


def main(argv=None) -> int:
    """Run one command: argv that starts with a command name is parsed by that
    command's subparser alone, any other argv (none, -h, no command) by the whole parser."""
    parser, commands = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:  # the text and exit code of argparse's own top-level pass
            parser.error("unrecognized arguments: " + " ".join(extras))
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
