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

`decide --batch` decides its files on every CPU in the process's affinity
mask (`taskset` limits them), in forked workers, and decides a worker's share
itself when the fork fails; it prints once every file is decided, in the
order and with the text of a one-CPU run, and its peak memory is up to one
file's per worker.

Each command imports the modules it runs when it starts, so importing this
module, or building its parser, loads no package module but catmat.errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading

from .errors import (DEFAULT_MAX_ASSIGNMENTS, CertificateError, ParseError, Rejected,
                     ShapeError, TripleBudgetError)

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


def _load_matrix(path: str):
    from .matrix import parse_matrix

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
    # Imported before --batch forks, so that no worker imports them again.
    from .decider import condition_report, decide, decide_by_submatrices, explain

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
    k = _batch_workers(len(names))
    shares = _decide_shares(args, names, k)
    verdicts = set()
    entries = []
    for i, name in enumerate(names):
        # A share ends before its first file whose decision raised an
        # unexpected error; deciding that file again here lets main report it.
        share = shares[i % k]
        _, exists, line, fields = share[i // k] if i // k < len(share) else _batch_record(args, name)
        verdicts.add(exists)
        entries.append({"file": name, **fields})
        if not args.json:
            print(f"{name}: {line}")
    if args.json:
        print(json.dumps(entries, indent=2))
    if None in verdicts:
        return EXIT_USAGE
    return EXIT_ABSENT if False in verdicts else EXIT_EXISTS


def _batch_workers(count: int) -> int:
    """One worker per CPU in the process's affinity mask, at most one per
    file. One, with no fork, where fork is missing or another thread runs,
    since a forked child gets only the thread that forked it."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(count, cpus or 1))


def _batch_record(args, name: str) -> list:
    """[name, exists, line, fields] of one batch file. exists is None, and
    line an ERROR line, when the file cannot be read or parsed or its window
    scan is over the budget."""
    from .decider import decide, decide_by_submatrices

    try:
        M = _load_matrix(os.path.join(args.batch, name))
        verdict = decide_by_submatrices(M) if args.via_submatrices else decide(M)
    except (ParseError, ShapeError, TripleBudgetError, OSError) as exc:
        return [name, None, f"ERROR {exc}", {"error": str(exc)}]
    return [name, verdict.exists, *_verdict(verdict)]


def _decide_share(args, names: list[str]) -> list[list]:
    """The records of `names` in order, up to the first file whose decision
    raises an unexpected error."""
    records = []
    for name in names:
        try:
            records.append(_batch_record(args, name))
        except Exception:
            break
    return records


def _decide_shares(args, names: list[str], k: int) -> list[list[list]]:
    """Share w of k is names[w::k]. This process decides share 0, and each
    share it cannot fork a child for; a forked child decides each other share
    and sends its records back as JSON through a pipe. Every child is reaped
    before this returns or raises."""
    from .matrix import read_json

    children = []  # (w, pid, read end of its pipe), for each child not yet reaped
    try:
        here = [0]  # the shares this process decides
        for w in range(1, k):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # EAGAIN or ENOMEM, say: decide this share here
                os.close(r)
                os.close(wr)
                here.append(w)
                continue
            if pid == 0:  # the child: send its share, and never return
                status = 1
                try:
                    os.close(r)
                    with open(wr, "wb") as pipe:
                        pipe.write(json.dumps(_decide_share(args, names[w::k])).encode())
                    status = 0
                finally:
                    os._exit(status)
            os.close(wr)
            children.append((w, pid, open(r, "rb")))
        shares = [None] * k
        for w in here:
            shares[w] = _decide_share(args, names[w::k])
        while children:
            w, pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            try:  # a child that failed may have sent nothing, or part of its share
                shares[w] = read_json(data if status == 0 else b"", "a batch share")
            except ParseError:
                raise RuntimeError(
                    f"batch worker {pid} ended with status {status} without sending its share"
                ) from None
        return shares
    finally:
        if children:
            from signal import SIGKILL

            for _, pid, pipe in children:
                pipe.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def cmd_report(args) -> int:
    from .decider import explain

    M = _load_matrix(args.matrix)
    verdict, report = explain(M)
    if args.json:
        print(json.dumps(report, indent=2))
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
    from .oracle import oracle_decide

    M = _load_matrix(args.matrix)
    result = oracle_decide(M, args.budget)
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
    p.add_argument("--budget", type=_budget, default=DEFAULT_MAX_ASSIGNMENTS,
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
