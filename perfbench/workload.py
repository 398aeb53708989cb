"""Run one workload's plan in a fresh interpreter and measure it.

    PYTHONPATH=src python3 perfbench/workload.py PLAN --seconds S --trace 0|1

The plan (written by run.py) lists CLI commands with the output each must
produce.  A repetition runs the whole list through `catmat.cli.main(argv)`,
capturing stdout, and then checks every output.  Repetitions go on until the
one that ends nearest to S seconds; timings are summarised by their median,
so a slow stretch of the host moves one repetition, not the result.  While
the commands run (--trace 0), a timer signal times the host-speed kernel
(hostspeed.py) every SAMPLE_EVERY seconds, and each command's time, less the
samples taken inside it, is scaled to the reference host speed by the
samples taken around it.

With --trace 1 each repetition also replays the same commands as the public
calls the CLI makes, twice: once bare, and once with a span around every call
into a package module (plus a few probe calls that split a call into its
parts).  Spans and counters are kept in memory and written to trace.json next
to the plan when the run ends.

The last line of stdout is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter

import catmat.cli
import hostspeed
from catmat.certificate import build_certificate, load_certificate
from catmat.decider import condition_report, decide, decide_by_submatrices
from catmat.matrix import HomMatrix, parse_matrix
from catmat.oracle import SearchBudget, oracle_decide
from catmat.partition import build_partition, check_acceptable
from catmat.reduction import inflate, reduce
from catmat.verifier import verify_category
from catmat.witness import build_hom_labels, build_witness

ORACLE_LINE = re.compile(r"^(EXISTS|ABSENT) \(assignments=(\d+)\)\n$")
SAMPLE_EVERY = 0.05  # seconds between two host-speed samples
NEAR = 0.25  # a command is scaled by the samples within this many seconds of it


class HostSpeed:
    """Times hostspeed.kernel() from a SIGALRM handler every SAMPLE_EVERY
    seconds.  The handler runs in the main thread between bytecodes, so the
    samples land inside long commands too, spread evenly over time.  Each
    sample runs the kernel once untimed first, so that what the program left
    in the caches does not move the reading."""

    def __init__(self):
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self.busy_s: list[float] = []

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        hostspeed.kernel()  # warms the caches the program left cold
        k = time.perf_counter()
        hostspeed.kernel()
        self.kernel_s.append(time.perf_counter() - k)
        self.starts.append(t)
        self.busy_s.append(time.perf_counter() - t)

    def __enter__(self):
        self._sample(None, None)  # so that even the shortest run has one
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """The time from t0 to t1, less the samples taken in it, at the
        reference host speed."""
        starts = self.starts
        i, j = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
        net = t1 - t0 - sum(self.busy_s[i:j])
        a, b = bisect.bisect_left(starts, t0 - NEAR), bisect.bisect_right(starts, t1 + NEAR)
        if a == b:  # no sample near: take the next one, or the last
            a = max(0, min(a, len(starts) - 1))
            b = a + 1
        return net * hostspeed.REF_MS / (statistics.fmean(self.kernel_s[a:b]) * 1000)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ------------------------------------------------------------------- trace


class Trace:
    """Spans [name, start, end, parent, probe] and counters, in memory."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack = [-1]

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1], probe]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, probe: bool = False, **kwargs):
        with self.span(name, probe):
            return fn(*args, **kwargs)

    def last(self) -> float:
        """Duration of the span opened last: the leaf call that just returned."""
        rec = self.spans[-1]
        return rec[2] - rec[1]


class NullTrace:
    """The same calls with nothing recorded and no probes."""

    enabled = False

    def __init__(self):
        self.counters: Counter = Counter()

    def span(self, name: str, probe: bool = False):
        return contextlib.nullcontext()

    def call(self, name: str, fn, *args, probe: bool = False, **kwargs):
        return fn(*args, **kwargs)


# ---------------------------------------------------------------- CLI pass


def run_list(commands: list[dict], fault: str | None, trace: Trace | None = None):
    """Run every command through catmat.cli.main and return each command's
    (start, end) and each (exit code, stdout).

    With a trace, each command is followed at once by its replay, bare and
    then traced, so the three see the same host speed; the bare replays'
    total time and the traced replays' problems are returned too."""
    spans, outputs, problems = [], [], []
    bare = 0.0
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = catmat.cli.main(cmd["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "crash: " + traceback.format_exc(limit=3)
        spans.append((t, time.perf_counter()))
        outputs.append((code, out.getvalue()))
        if fault == "cert" and cmd["kind"] == "witness":
            corrupt_certificate(cmd["argv"][3])
        if trace is not None:
            t = time.perf_counter()
            replay(cmd, NullTrace())
            bare += time.perf_counter() - t
            problems += replay(cmd, trace)
    return spans, outputs, bare, problems


def corrupt_certificate(path: str) -> None:
    """Point one composite at a label no hom-set holds (self-test fault)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data["table"][0][2] += "~"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")


def check(commands: list[dict], outputs: list[tuple], truth: dict) -> tuple[int, int, list[str]]:
    """Compare every output with the plan; returns (attempted, failed,
    messages).  A batch counts one output per matrix."""
    attempted = failed = 0
    messages = []

    def expect(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            if len(messages) < 20:
                messages.append(what)

    for cmd, (code, out) in zip(commands, outputs):
        kind = cmd["kind"]
        argv = " ".join(cmd["argv"])
        if kind == "batch":
            files = sorted(cmd["files"], key=lambda f: os.path.basename(f["path"]))
            lines = out.splitlines()
            for pos, f in enumerate(files):
                want = f"{os.path.basename(f['path'])}: {f['expect']['line']}"
                got = lines[pos] if pos < len(lines) else None
                expect(got == want, f"{argv}: {f['key']} printed {got!r}, expected {want!r}")
            absent = any(f["expect"]["line"] != "EXISTS" for f in files)
            expect(code == (1 if absent else 0) and len(lines) == len(files),
                   f"{argv}: exit {code!r} with {len(lines)} lines")
            continue
        f = cmd["file"]
        if kind == "witness":
            cert = cmd["argv"][3]
            morphisms = sum(map(sum, f["matrix"]))
            ok = code == 0 and out == f"certificate written to {cert} ({morphisms} morphisms)\n"
            if ok:
                with open(cert, "rb") as fh:
                    ok = sha(fh.read()) == f["expect"]["sha256"]
            expect(ok, f"{argv}: exit {code!r}, {out[:200]!r} or certificate digest differs")
        elif kind == "verify":
            want = (f"VERIFIED ({len(f['matrix'])} objects, {cmd['morphisms']} morphisms, "
                    f"{cmd['triples']} triples checked)\n")
            expect(code == 0 and out == want, f"{argv}: exit {code!r}, {out[:200]!r}, expected {want!r}")
        elif kind in ("explain", "report"):
            want = 0 if f["expect"]["line"] == "EXISTS" else 1
            ok = code == want and sha(out.encode())[:16] == f["expect"][kind]
            expect(ok, f"{argv}: exit {code!r} or output differs from the recorded one")
        elif kind == "via":
            want = f["expect"]["via"]
            expect(code == (0 if want == "EXISTS" else 1) and out == want + "\n",
                   f"{argv}: exit {code!r}, {out[:200]!r}, expected {want!r}")
        elif kind == "oracle":
            exists = truth[f["key"]]
            m = ORACLE_LINE.match(out)
            ok = m is not None and code == (0 if exists else 1) and (m.group(1) == "EXISTS") == exists
            expect(ok, f"{argv}: exit {code!r}, {out[:200]!r}; decide says exists={exists}")
    return attempted, failed, messages


# ------------------------------------------------------------------ replay


def replay(cmd: dict, trace) -> list[str]:
    """The public calls one command makes, in the CLI's order.  Probes (only
    when tracing) time the parts a derived self time needs."""
    problems = []
    c = trace.counters
    kind = cmd["kind"]
    with trace.span("cli." + kind):
        if kind == "batch":
            for f in sorted(cmd["files"], key=lambda f: os.path.basename(f["path"])):
                M = trace.call("matrix.parse_matrix", parse_matrix, read(f["path"]))
                trace.call("decider.decide", decide, M)
                if trace.enabled:
                    decide_parts(M, trace)
        else:
            f = cmd["file"]
            if kind == "witness":
                M = trace.call("matrix.parse_matrix", parse_matrix, read(f["path"]))
                C = trace.call("witness.build_witness", build_witness, M)
                N, rmap = trace.call("reduction.reduce", reduce, M)
                cert = trace.call("certificate.build_certificate", build_certificate, C, M, rmap)
                text = trace.call("certificate.dump", json.dumps, cert, indent=2)
                c["witness.morphisms"] += C.morphism_count()
                c["witness.table_entries"] += len(C.table)
                size = len(text.encode()) + 1
                c["certificate.bytes"] += size
                if size != f["expect"]["bytes"]:
                    problems.append(f"replayed witness of {f['key']}: {size} certificate bytes, "
                                    f"recorded {f['expect']['bytes']}")
                c["reduction.objects_in"] += rmap.n
                c["reduction.objects_out"] += rmap.m
                if trace.enabled:
                    witness_parts(N, rmap, M, trace)
            elif kind == "verify":
                data = trace.call("certificate.parse", json.loads, read(cmd["argv"][1]))
                _, C = trace.call("certificate.load_certificate", load_certificate, data)
                M = trace.call("matrix.parse_matrix", parse_matrix, read(f["path"]))
                report = trace.call("verifier.verify_category", verify_category, C, M)
                c["verifier.triples"] += report.triples_checked
                c["verifier.failed"] += not report.passed
                c["verifier.blocks"] += count_blocks(C)
                if not report.passed or report.triples_checked != cmd["triples"]:
                    problems.append(f"replayed verify of {f['key']}: {report.summary()}")
            elif kind in ("explain", "report"):
                M = trace.call("matrix.parse_matrix", parse_matrix, read(f["path"]))
                calls = [("decider.decide", decide), ("decider.condition_report", condition_report)]
                for name, fn in calls if kind == "explain" else reversed(calls):
                    trace.call(name, fn, M)
            elif kind == "via":
                M = trace.call("matrix.parse_matrix", parse_matrix, read(f["path"]))
                trace.call("decider.decide_by_submatrices", decide_by_submatrices, M)
            elif kind == "oracle":
                M = trace.call("matrix.parse_matrix", parse_matrix, read(f["path"]))
                result = trace.call("oracle.oracle_decide", oracle_decide, M, SearchBudget())
                c["oracle.attempted"] += 1
                if result.decision == "unknown":
                    problems.append(f"replayed oracle of {f['key']} ran out of budget")
                else:
                    c["oracle.resolved"] += 1
                    c["oracle.assignments." + result.decision] += result.assignments
    return problems


def decide_parts(M: HomMatrix, trace: Trace) -> None:
    """Time the reduce and partition calls decide(M) makes, on the same input."""
    c = trace.counters
    whole = trace.last()
    N, rmap = trace.call("reduction.reduce", reduce, M, probe=True)
    parts = trace.last()
    c["reduction.objects_in"] += rmap.n
    c["reduction.objects_out"] += rmap.m
    if all(N[a][a] for a in range(N.n)):
        cex = trace.call("partition.check_acceptable", check_acceptable, N, probe=True)
        parts += trace.last()
        if cex is None:
            part = trace.call("partition.build_partition", build_partition, N, probe=True)
            parts += trace.last()
            c["partition.classes"] += len(part.classes)
    c["decider.decide.self_s"] += whole - parts


def witness_parts(N: HomMatrix, rmap, M: HomMatrix, trace: Trace) -> None:
    """Split build_witness into decide, hom labels, the table and inflation."""
    c = trace.counters
    verdict = trace.call("decider.decide", decide, N, probe=True)
    parts = trace.last()
    c["partition.classes"] += len(verdict.partition.classes)
    trace.call("witness.build_hom_labels", build_hom_labels, N, verdict.partition, probe=True)
    parts += trace.last()
    B = trace.call("witness.build_witness.reduced", build_witness, N, probe=True)
    c["witness.table.self_s"] += trace.last() - parts
    if rmap.m < rmap.n:
        trace.call("reduction.inflate", inflate, B, rmap, M, probe=True)


def count_blocks(C) -> int:
    """Non-empty (x, y, z, w) hom-set blocks the associativity walk visits."""
    out = {}
    for x, y in C.homs:
        out.setdefault(x, []).append(y)
    return sum(len(out.get(z, ())) for x, y in C.homs for z in out.get(y, ()))


# --------------------------------------------------------------- summaries

LAYER_TIMES = (
    "matrix.parse_matrix",
    "reduction.reduce",
    "reduction.inflate",
    "partition.check_acceptable",
    "partition.build_partition",
    "decider.decide",
    "decider.condition_report",
    "decider.decide_by_submatrices",
    "witness.build_hom_labels",
    "witness.build_witness",
    "certificate.build_certificate",
    "certificate.dump",
    "certificate.parse",
    "certificate.load_certificate",
    "verifier.verify_category",
    "oracle.oracle_decide",
)
COUNTS = (
    "reduction.objects_in",
    "reduction.objects_out",
    "partition.classes",
    "witness.morphisms",
    "witness.table_entries",
    "certificate.bytes",
    "verifier.triples",
    "verifier.blocks",
    "verifier.failed",
    "oracle.assignments.yes",
    "oracle.assignments.no",
)


def layer_metrics(trace: Trace, cli_time: float, bare: float) -> dict:
    """Per-layer values of one repetition, given the time its CLI commands
    took and the time their bare replays took."""
    busy = Counter()
    probe_time = cli_layers = traced = 0.0
    for name, start, end, _parent, probe in trace.spans:
        busy[name] += end - start
        if probe:
            probe_time += end - start
        elif name.startswith("cli."):
            traced += end - start
        else:
            cli_layers += end - start
    c = trace.counters
    m = {f"{name}.s": busy[name] for name in LAYER_TIMES}
    m.update({name: c[name] for name in COUNTS})
    m["decider.decide.self_s"] = c["decider.decide.self_s"]
    m["witness.table.self_s"] = c["witness.table.self_s"]
    m["verifier.ns_per_triple"] = busy["verifier.verify_category"] * 1e9 / max(1, c["verifier.triples"])
    assignments = c["oracle.assignments.yes"] + c["oracle.assignments.no"]
    m["oracle.ns_per_assignment"] = busy["oracle.oracle_decide"] * 1e9 / max(1, assignments)
    m["oracle.resolved_ratio"] = c["oracle.resolved"] / max(1, c["oracle.attempted"])
    m["cli.rest.s"] = cli_time - cli_layers
    m["trace.overhead_ratio"] = (traced - probe_time) / bare - 1
    return m


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank q-quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    commands, fault = plan["commands"], plan.get("fault")

    calib = [hostspeed.kernel_ms(20) for _ in range(5)]
    reps, raw_reps, per_layer = [], [], []
    cmd_times: list[list[float]] = [[] for _ in commands]
    attempted = failed = 0
    messages: list[str] = []
    truth: dict = {}
    spans: list = []
    speed = HostSpeed() if not args.trace else None
    start = time.perf_counter()
    with speed or contextlib.nullcontext():
        while True:
            trace = Trace() if args.trace else None
            cmd_spans, outputs, bare, problems = run_list(commands, fault, trace)
            if speed is None:
                times = [t1 - t0 for t0, t1 in cmd_spans]
            else:
                times = [speed.scaled(t0, t1) for t0, t1 in cmd_spans]
            if not truth and plan["workload"] == "oracle-search":
                truth = {cmd["file"]["key"]: decide(HomMatrix.from_rows(cmd["file"]["matrix"])).exists
                         for cmd in commands}
            a, f, msgs = check(commands, outputs, truth)
            attempted, failed = attempted + a, failed + f
            messages += msgs[: 20 - len(messages)]
            reps.append(sum(times))
            raw_reps.append(sum(t1 - t0 for t0, t1 in cmd_spans))
            for samples, t in zip(cmd_times, times):
                samples.append(t)
            if trace is not None:
                attempted += 1
                if problems:
                    failed += 1
                    messages += problems[:5]
                per_layer.append((layer_metrics(trace, sum(times), bare), trace.counters))
                spans = trace.spans
            # Stop at the repetition boundary nearest to --seconds, so every
            # run of a workload makes the same number of repetitions.
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(reps) / 2 > args.seconds:
                break
    calib += [hostspeed.kernel_ms(20) for _ in range(5)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    per_cmd = [statistics.median(samples) for samples in cmd_times]

    result = {
        "reps": len(reps),
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "calib_ms": calib,
        "raw_wall_s": statistics.median(raw_reps),
        "end_to_end": {
            "wall_s": statistics.median(reps),
            "cmd_p50_ms": statistics.median(per_cmd) * 1000,
            "cmd_p90_ms": quantile(per_cmd, 0.9) * 1000,
            "peak_rss_mb": peak_kb / 1024,
        },
        "commands": len(commands),
    }
    if args.trace:
        names = per_layer[0][0].keys()
        result["per_layer"] = {k: statistics.median(m[k] for m, _ in per_layer) for k in names}
        counts = [tuple(c[k] for k in COUNTS + ("oracle.resolved",)) for _, c in per_layer]
        result["attempted"] += 1
        if len(set(counts)) != 1:
            result["failed"] += 1
            result["messages"].append("counters differ between repetitions")
        out = os.path.join(os.path.dirname(args.plan), "trace.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"spans": ["name start end parent probe".split()] + spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
