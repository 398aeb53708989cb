"""Seeded corpus generator for the four benchmark workloads.

Every workload is a fixed list of items built from BASE_SEED, so its size and
its cost do not depend on the run's seed.  The run's seed shuffles the order
of the items and the names of their files, and for decide-batch it also picks,
for each item, one of VARIANTS relabelings of its objects (a permutation of
rows and columns).  A relabeled matrix has the same verdict kind and hom-set
sizes as the original, but different object indices.  Certify and oracle
items always keep their own labels: a relabeling changes the size of a
certificate and the order of an oracle search, and these exact counters must
repeat in every run.  The expected outputs of every certify item and of every
decide (item, variant) pair are recorded in perfbench/expected/ by record.py.

The matrices are built from the realizability conditions directly (class
chains with basepoint legs, padded floors and one targeted perturbation per
failing item), so the corpus does not depend on the program it measures.

    python3 perfbench/corpus.py --seed 3 --out DIR

writes the matrix files of every workload under DIR/<workload>/ and prints
the CLI commands each workload runs on them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random

BASE_SEED = 1007
VARIANTS = 6
WORKLOADS = ("certify-dense", "certify-sparse", "decide-batch", "oracle-search")

# The eight conditions the decider evaluates, named by the Reason kind a
# matrix failing only that condition is rejected with.
FAIL_KINDS = (
    "ZeroDiagonal",
    "NotAcceptable",
    "MultipleUnits",
    "UDiagonalFail",
    "UOffDiagonalFail",
    "CrossColFail",
    "CrossRowFail",
    "CrossQuadrantFail",
)


# ---------------------------------------------------------------- matrices


def m3_total(M) -> int:
    """Sum of the entries of M cubed: the number of composable triples."""
    n = len(M)
    sq = [[sum(M[i][k] * M[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return sum(sq[i][k] * M[k][j] for i in range(n) for k in range(n) for j in range(n))


def permuted(M, sigma):
    return [[M[sigma[i]][sigma[j]] for j in range(len(M))] for i in range(len(M))]


def variant_perm(name: str, v: int, n: int) -> list[int]:
    """Relabeling v of item `name`; variant 0 keeps the original order."""
    sigma = list(range(n))
    if v:
        random.Random(f"{BASE_SEED}/{name}/{v}").shuffle(sigma)
    return sigma


def to_text(M, as_json: bool = False) -> str:
    if as_json:
        return json.dumps({"n": len(M), "entries": M}) + "\n"
    return "".join(" ".join(map(str, row)) + "\n" for row in M)


class Blocks:
    """A realizable matrix built class by class, with the structure kept.

    Objects are numbered class by class.  A "U" class has a basepoint (its
    first member, with one endomorphism); a "V" class has none.  Classes
    belong to chains; within a chain, class c lies above class d when c < d,
    and classes of different chains are unrelated.
    """

    def __init__(self, rng, sizes, kinds, chains, leg=3, pad=2, cross=3):
        self.classes = []
        start = 0
        for s in sizes:
            self.classes.append(list(range(start, start + s)))
            start += s
        self.kinds = list(kinds)
        self.chain = [rng.randrange(chains) for _ in sizes]
        n = start
        M = [[0] * n for _ in range(n)]
        for c, members in enumerate(self.classes):
            if self.kinds[c] == "U":
                bp = members[0]
                M[bp][bp] = 1
                for x in members[1:]:
                    M[x][bp] = rng.randint(1, leg)
                    M[bp][x] = rng.randint(1, leg)
                for x in members[1:]:
                    for y in members[1:]:
                        floor = M[x][bp] * M[bp][y] + (x == y)
                        M[x][y] = floor + rng.randint(0, pad)
            else:
                for x in members:
                    for y in members:
                        M[x][y] = (2 if x == y else 1) + rng.randint(0, pad)
        for c, d in self.ordered_pairs():
            bc, bd = self.basepoint(c), self.basepoint(d)
            if bc is not None and bd is not None:
                M[bc][bd] = rng.randint(1, cross)
            for x in self.classes[c]:
                if bd is not None and x != bc:
                    M[x][bd] = (M[bc][bd] if bc is not None else 1) + rng.randint(0, cross - 1)
            for y in self.classes[d]:
                if bc is not None and y != bd:
                    M[bc][y] = (M[bc][bd] if bd is not None else 1) + rng.randint(0, cross - 1)
            for x in self.classes[c]:
                for y in self.classes[d]:
                    if x == bc or y == bd:
                        continue
                    floor = 1
                    if bd is not None:
                        floor = max(floor, M[x][bd])
                    if bc is not None:
                        floor = max(floor, M[bc][y])
                    if bc is not None and bd is not None:
                        floor = max(floor, M[bc][y] + M[x][bd] - M[bc][bd])
                    M[x][y] = floor + rng.randint(0, cross - 1)
        self.M = M

    def basepoint(self, c):
        return self.classes[c][0] if self.kinds[c] == "U" else None

    def ordered_pairs(self):
        k = len(self.classes)
        return [(c, d) for c in range(k) for d in range(c + 1, k) if self.chain[c] == self.chain[d]]

    def perturb(self, rng, kind: str) -> bool:
        """Break exactly the named condition at one entry; False if this
        matrix has no place to do so."""
        M = self.M
        U = [c for c, k in enumerate(self.kinds) if k == "U"]
        options = []
        if kind == "ZeroDiagonal":
            options = [(x, x, 0) for x in range(len(M))]
        elif kind == "NotAcceptable":
            for c, d in self.ordered_pairs():
                for e in range(c + 1, d):
                    if self.chain[e] == self.chain[c]:
                        options += [(x, y, 0) for x in self.classes[c] for y in self.classes[d]]
            for members in self.classes:
                if len(members) >= 3:
                    options += [(x, y, 0) for x in members for y in members if x != y]
        elif kind == "MultipleUnits":
            options = [(x, x, 1) for c in U for x in self.classes[c][1:]]
        elif kind == "UDiagonalFail":
            for c in U:
                bp = self.basepoint(c)
                for x in self.classes[c][1:]:
                    need = M[x][bp] * M[bp][x]
                    if need >= 2:
                        options.append((x, x, need))
        elif kind == "UOffDiagonalFail":
            for c in U:
                bp = self.basepoint(c)
                for x in self.classes[c][1:]:
                    for y in self.classes[c][1:]:
                        need = M[x][bp] * M[bp][y]
                        if x != y and need >= 2:
                            options.append((x, y, need - 1))
        else:
            for c, d in self.ordered_pairs():
                bc, bd = self.basepoint(c), self.basepoint(d)
                for x in self.classes[c]:
                    for y in self.classes[d]:
                        if kind == "CrossColFail" and bd is not None and y != bd and M[x][bd] >= 2:
                            options.append((x, y, M[x][bd] - 1))
                        if (
                            kind == "CrossRowFail"
                            and bc is not None
                            and x != bc
                            and (bd is None or y == bd)
                            and M[bc][y] >= 2
                        ):
                            options.append((x, y, M[bc][y] - 1))
                        if (
                            kind == "CrossQuadrantFail"
                            and bc is not None
                            and bd is not None
                            and x != bc
                            and y != bd
                            and M[x][bd] > M[bc][bd]
                            and M[bc][y] > M[bc][bd]
                        ):
                            options.append((x, y, M[bc][y] + M[x][bd] - M[bc][bd] - 1))
        if not options:
            return False
        x, y, value = rng.choice(options)
        M[x][y] = value
        return True


def with_duplicates(rng, M, count: int):
    """Append `count` clones of random objects (same row and column)."""
    M = [row[:] for row in M]
    for _ in range(count):
        x = rng.randrange(len(M))
        for row in M:
            row.append(row[x])
        M.append(M[x][:])
    return M


def random_blocks(rng, n: int, chains: int, **fill) -> Blocks:
    """Blocks on n objects in classes of 1 to 4, U twice as likely as V."""
    sizes = []
    while n:
        sizes.append(min(n, rng.randint(1, 4)))
        n -= sizes[-1]
    kinds = [rng.choice("UUV") for _ in sizes]
    return Blocks(rng, sizes, kinds, chains, **fill)


# ------------------------------------------------------------------ items


def certify_dense_items(quick: bool = False):
    """(name, matrix): two or three objects, hom-sets of 50 to 200."""
    if quick:
        return [("tiny2", [[1, 2], [3, 7]]), ("tinydup3", [[1, 1, 1], [1, 3, 3], [1, 3, 3]])]
    return [
        ("grid2", [[1, 2], [3, 100]]),
        ("uclass3", [[1, 3, 2], [2, 60, 14], [3, 12, 70]]),
        ("dup3", [[1, 1, 1], [1, 40, 40], [1, 40, 40]]),
        ("vchain2", [[55, 9], [0, 60]]),
    ]


def certify_sparse_items(quick: bool = False):
    """(name, matrix): 30 to 50 objects in chains of classes of 1 to 4, some
    of them duplicated."""
    if quick:
        rng = random.Random(f"{BASE_SEED}/sparse/tiny")
        return [("tiny9", with_duplicates(rng, random_blocks(rng, 8, chains=2).M, 1))]
    small = {"leg": 2, "pad": 1, "cross": 2}
    rng = random.Random(f"{BASE_SEED}/sparse/triads")
    triads = Blocks(rng, [3] * 15, ["U", "V", "U"] * 5, chains=3, **small).M
    rng = random.Random(f"{BASE_SEED}/sparse/mixed")
    mixed = with_duplicates(rng, random_blocks(rng, 33, chains=4, **small).M, 3)
    rng = random.Random(f"{BASE_SEED}/sparse/wide")
    wide = with_duplicates(rng, random_blocks(rng, 44, chains=5, **small).M, 4)
    return [("triads45", triads), ("mixed36", mixed), ("wide48", wide)]


DECIDE_ITEMS = 400
EXTRA_ARGV = {"explain": ["decide", "--explain"], "report": ["report"], "via": ["decide", "--via-submatrices"]}
DECIDE_KINDS = ("accept", "accept", "accept", "accept") + FAIL_KINDS


def decide_matrix(rng, n: int, kind: str):
    """A matrix on n objects (more if the kind needs them) that is accepted,
    or fails exactly the condition `kind`; a quarter carry duplicates."""
    tries = 0
    while True:
        dups = min(n - 1, rng.randint(1, 3)) if rng.random() < 0.25 else 0
        chains = 1 if n < 12 else rng.randint(1, 3)
        b = random_blocks(rng, n - dups, chains)
        if kind == "accept" or b.perturb(rng, kind):
            return with_duplicates(rng, b.M, dups)
        tries += 1
        if tries % 20 == 0:
            n += 1


def decide_items(quick: bool = False):
    """(name, matrix, kind, extra): the batch, each item with the commands
    ("explain", "report", "via") it also runs on its own."""
    rng = random.Random(f"{BASE_SEED}/decide")
    items = []
    for idx in range(DECIDE_ITEMS):
        kind = DECIDE_KINDS[idx % len(DECIDE_KINDS)]
        tier = rng.random()
        n = rng.randint(33, 64) if tier < 0.25 else rng.randint(9, 32) if tier < 0.55 else rng.randint(2, 8)
        M = decide_matrix(random.Random(f"{BASE_SEED}/decide/{idx}"), n, kind)
        extra = ("explain", "report") if idx % 4 == 0 else ()
        items.append([f"d{idx:03d}", M, kind, extra])
    via = [it for it in items if it[2] == "accept" and 16 <= len(it[1]) <= 24][:2]
    via += [it for it in items if it[2] in FAIL_KINDS and 12 <= len(it[1]) <= 24][:2]
    for it in via:
        it[3] += ("via",)
    if quick:
        items = [it for it in items if len(it[1]) <= 6][:16]
        items[0][3] = ("explain", "report", "via")
    return [tuple(it) for it in items]


def oracle_items(quick: bool = False):
    """(name, matrix): every reduced acceptable 3x3 matrix with entries <= 2,
    then the [[1,2],[3,k]] family.  k=6, the 4.5 M assignment "no", is left
    out: at about 13 s on its own it would take half of a run."""
    items = []
    for vals in itertools.product(range(3), repeat=9):
        M = [list(vals[0:3]), list(vals[3:6]), list(vals[6:9])]
        if any(M[i][i] == 0 for i in range(3)):
            continue
        if any(M[i][j] and M[j][k] and not M[i][k] for i in range(3) for j in range(3) for k in range(3)):
            continue
        if any(M[i] == M[j] and [r[i] for r in M] == [r[j] for r in M] for i in range(3) for j in range(i)):
            continue
        items.append((f"o{len(items):04d}", M))
    if quick:
        items = items[:24]
    return items + [(f"k{k}", [[1, 2], [3, k]]) for k in ((4,) if quick else (4, 5, 7))]


def items(workload: str, quick: bool = False):
    """(name, matrix, extra) for every item of the workload, in base order."""
    if workload == "certify-dense":
        return [(name, M, ()) for name, M in certify_dense_items(quick)]
    if workload == "certify-sparse":
        return [(name, M, ()) for name, M in certify_sparse_items(quick)]
    if workload == "decide-batch":
        return [(name, M, extra) for name, M, _, extra in decide_items(quick)]
    if workload == "oracle-search":
        return [(name, M, ()) for name, M in oracle_items(quick)]
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------------- plans


def write_plan(workload: str, seed: int, out: str, quick: bool = False) -> dict:
    """Write the workload's matrix files under `out` and return the plan:
    the CLI commands to run, in order, with the inputs their checks need."""
    rng = random.Random(f"{workload}/{seed}")
    chosen = []
    for name, M, extra in items(workload, quick):
        v = rng.randrange(VARIANTS) if workload == "decide-batch" else 0
        chosen.append((f"{name}/{v}", permuted(M, variant_perm(name, v, len(M))), extra))
    rng.shuffle(chosen)
    mdir = os.path.join(out, "matrices")
    os.makedirs(mdir, exist_ok=True)
    files = []
    for pos, (key, M, extra) in enumerate(chosen):
        path = os.path.join(mdir, f"m{pos:04d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_text(M, as_json=pos % 7 == 3))
        files.append({"key": key, "path": path, "matrix": M, "extra": list(extra)})
    commands = []
    if workload.startswith("certify"):
        for f in files:
            cert = os.path.join(out, os.path.basename(f["path"])[:-4] + ".json")
            commands.append({"kind": "witness", "argv": ["witness", f["path"], "--out", cert], "file": f})
            commands.append({"kind": "verify", "argv": ["verify", cert, f["path"]], "file": f,
                             "morphisms": sum(map(sum, f["matrix"])), "triples": m3_total(f["matrix"])})
    elif workload == "decide-batch":
        commands.append({"kind": "batch", "argv": ["decide", "--batch", mdir], "files": files})
        for f in files:
            for extra in f["extra"]:
                commands.append({"kind": extra, "argv": EXTRA_ARGV[extra] + [f["path"]], "file": f})
    else:
        for f in files:
            commands.append({"kind": "oracle", "argv": ["oracle", f["path"]], "file": f})
    return {"workload": workload, "seed": seed, "quick": quick, "commands": commands}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the matrix files")
    args = parser.parse_args(argv)
    for workload in WORKLOADS:
        plan = write_plan(workload, args.seed, os.path.join(args.out, workload))
        for cmd in plan["commands"]:
            print("catmat " + " ".join(cmd["argv"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
