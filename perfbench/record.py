"""Record the outputs the benchmark's correctness gate expects.

    PYTHONPATH=src python3 perfbench/record.py

For every certify item, and every decide item in every one of its
relabelings, run the CLI once and store what it printed in perfbench/expected/:
the certificate's sha256 and size for certify items, and the verdict line
(with its Reason) plus digests of the --explain, report and --via-submatrices
outputs for decide items.  Certificates must stay byte-identical, so these
files are written once, when the corpus is defined, and never to absorb a
change in the program.  Recording also checks the corpus: every certificate verifies with
the expected triple count, and every decide item is rejected for exactly the
condition it was built to fail.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
from catmat.cli import main as catmat  # noqa: E402

WORK = os.path.join(".perfbench_work", "record")


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = catmat(argv)
    return code, out.getvalue()


def record_certify(workload: str) -> dict:
    expected = {}
    items = corpus.items(workload) + corpus.items(workload, quick=True)
    for name, M, _ in items:
        path = os.path.join(WORK, "m.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(corpus.to_text(M))
        cert = os.path.join(WORK, "c.json")
        code, _ = run(["witness", path, "--out", cert])
        assert code == 0, (name, code)
        code, out = run(["verify", cert, path])
        assert out.endswith(f" {corpus.m3_total(M)} triples checked)\n"), (name, out)
        with open(cert, "rb") as fh:
            data = fh.read()
        expected[f"{name}/0"] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return expected


def record_decide() -> dict:
    kinds = {name: kind for name, _, kind, _ in corpus.decide_items()}
    extras: dict[str, set] = {}
    for quick in (False, True):
        for name, _, _, extra in corpus.decide_items(quick):
            extras.setdefault(name, set()).update(extra)
    expected = {}
    bdir = os.path.join(WORK, "batch")
    os.makedirs(bdir)
    for name, M, _, _ in corpus.decide_items():
        for v in range(corpus.VARIANTS):
            key = f"{name}/{v}"
            Mv = corpus.permuted(M, corpus.variant_perm(name, v, len(M)))
            fname = key.replace("/", "_") + ".txt"
            path = os.path.join(bdir, fname)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(corpus.to_text(Mv))
            entry = {}
            for extra in sorted(extras[name]):
                _, out = run(corpus.EXTRA_ARGV[extra] + [path])
                entry[extra] = out.rstrip("\n") if extra == "via" else hashlib.sha256(out.encode()).hexdigest()[:16]
            expected[key] = entry
    _, out = run(["decide", "--batch", bdir])
    for line in out.splitlines():
        fname, verdict = line.split(": ", 1)
        key = fname[:-4].replace("_", "/")
        expected[key]["line"] = verdict
        kind = "accept" if verdict == "EXISTS" else verdict[len("ABSENT ("):].split()[0].rstrip(")")
        assert kind == kinds[key.split("/")[0]], (key, verdict)
    return expected


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    out_dir = os.path.join(HERE, "expected")
    os.makedirs(out_dir, exist_ok=True)
    for workload, fn in (
        ("certify-dense", lambda: record_certify("certify-dense")),
        ("certify-sparse", lambda: record_certify("certify-sparse")),
        ("decide-batch", record_decide),
    ):
        expected = fn()
        with open(os.path.join(out_dir, workload + ".json"), "w", encoding="utf-8") as fh:
            rows = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(expected.items()))
            fh.write("{\n" + ",\n".join(rows) + "\n}\n")
        print(f"{workload}: {len(expected)} recorded outputs")
    shutil.rmtree(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
