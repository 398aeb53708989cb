"""`catmat decide --batch DIR`: decide every file in a directory.

The CLI imports this module only for `--batch`, so no other command, and
no `import catmat.cli`, compiles it or loads the `json` it needs.  Its
files are decided on every CPU in the process's affinity mask (`taskset`
limits them), in forked workers, and a worker's share is decided here when
the fork fails; it prints once every file is decided, in the order and with
the text of a one-CPU run, and its peak memory is up to one file's per worker.
"""

from __future__ import annotations

import json
import os
import sys
import threading

from .cli import EXIT_ABSENT, EXIT_EXISTS, EXIT_USAGE, _load_matrix, _verdict
from .errors import ParseError, ShapeError, TripleBudgetError


def decide_batch(args) -> int:
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
