import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import sweep_4x4
from catmat import HomMatrix, Rejected, build_witness, decide, verify_category
from catmat.category import composable
from catmat.errors import CountError
from catmat.partition import build_partition
from catmat import witness
from catmat.witness import _block_rows, _block_shape, build_hom_labels, cross_part_sizes
from test_decider import window_cases


def setup_for(rows):
    verdict = decide(HomMatrix.from_rows(rows))
    assert verdict.exists
    return verdict.reduced, verdict.partition


def composer(rows):
    """g after f in the witness of rows, which has no duplicate objects."""
    table = build_witness(HomMatrix.from_rows(rows)).table
    return lambda g, f: table[(g, f)]


def count(labels, kind):
    return sum(l.startswith(kind + "(") for l in labels)


def test_hom_labels_u_class():
    N, part = setup_for([[1, 2], [3, 7]])
    homs = build_hom_labels(N, part)
    assert list(homs[(0, 0)]) == ["Identity(0,0)"]
    assert len(homs[(0, 1)]) == 2 and len(homs[(1, 0)]) == 3
    diag = homs[(1, 1)]
    assert count(diag, "Identity") == 1
    assert count(diag, "Pair") == 6
    assert count(diag, "Pad") == 0

    N, part = setup_for([[1, 2], [3, 9]])
    diag = build_hom_labels(N, part)[(1, 1)]
    assert count(diag, "Identity") == 1
    assert count(diag, "Pair") == 6
    assert count(diag, "Pad") == 2


def test_hom_labels_cross_parts():
    M = [[1, 1, 1, 2], [1, 2, 2, 3], [0, 0, 1, 1], [0, 0, 1, 2]]
    N, part = setup_for(M)
    labels = build_hom_labels(N, part)[(1, 3)]  # upper non-basepoint to lower non-basepoint
    counts = {kind: count(labels, "Cross" + kind) for kind in ("Base", "Row", "Col", "Extra")}
    assert counts == {"Base": 1, "Row": 1, "Col": 1, "Extra": 0}
    assert len(labels) == 3
    assert cross_part_sizes(N, part, 1, 3) == (1, 1, 1, 0)


def test_cross_part_sizes_match_the_closed_form_by_kind():
    """The anchor formula against one closed form per pair of class kinds,
    on seeded chains of U and V classes, relabeled."""
    rng = random.Random(17)
    seen = Counter()
    for _ in range(300):
        kinds = "".join(rng.choice("UV") for _ in range(rng.randint(2, 3)))
        rows = helpers.class_chain(rng, kinds, [rng.randint(1, 3) for _ in kinds])
        sigma = list(range(len(rows)))
        rng.shuffle(sigma)
        verdict = decide(helpers.permute(HomMatrix.from_rows(rows), sigma))
        assert verdict.exists
        N, part = verdict.reduced, verdict.partition
        for x in range(N.n):
            for y in range(N.n):
                c, d = part.local_of[x][0], part.local_of[y][0]
                if (c, d) in part.order:
                    want = helpers.cross_parts_by_kind(N, part, x, y)
                    assert cross_part_sizes(N, part, x, y) == want, (N, x, y)
                    seen["UV"[not part.is_u(c)] + "UV"[not part.is_u(d)]] += 1
                    seen["row"] += want[1] > 0
                    seen["col"] += want[2] > 0
                    seen["extra"] += want[3] > 0
    assert min(seen.values()) >= 50, seen


def test_hom_labels_sizes_always_match():
    for rows in ([[1, 2], [3, 7]], [[2, 2], [0, 2]], [[2, 2, 2], [0, 1, 1], [0, 1, 2]]):
        N, part = setup_for(rows)
        homs = build_hom_labels(N, part)
        for x in range(N.n):
            for y in range(N.n):
                assert len(homs.get((x, y), ())) == N[x][y]


def test_count_tripwires_catch_every_failed_floor():
    """The builders' two CountError sites, fed what the decider rejects: the
    size tripwire in build_hom_labels and the range check in _block_rows,
    which build_witness raises as CountError (see the test below)."""
    H = HomMatrix.from_rows

    def labels(rows):
        build_hom_labels(H(rows), build_partition(H(rows)))

    # U-diagonal floor: identity and 6 Pairs leave a Pad count of -1.
    with pytest.raises(CountError, match=r"hom\(1,1\) got 7 labels, the matrix says 6"):
        labels([[1, 2], [3, 6]])
    # Quadrant floor (CrossQuadrantFail): a negative Extra part.
    with pytest.raises(CountError, match=r"hom\(1,3\) got 7 labels, the matrix says 6"):
        labels([[1, 3, 2, 4], [1, 6, 5, 6], [0, 0, 1, 2], [0, 0, 3, 9]])
    # A composite past the end of hom(1, 1).
    shape = _block_shape(H([[1, 2], [3, 1]]), build_partition(H([[1, 2], [3, 7]])), 1, 0, 1)
    assert _block_rows(*shape) is None


def test_build_witness_names_the_block_whose_rows_leave_hom_xz(monkeypatch):
    """When _block_rows finds a composite outside hom(x, z), build_witness
    raises CountError naming the block and hom(x, z)."""
    N, part = setup_for([[1, 2], [3, 7]])
    bad = _block_shape(N, part, 1, 0, 1)
    rows_of = witness._block_rows
    monkeypatch.setattr(witness, "_block_rows", lambda *s: None if s == bad else rows_of(*s))
    message = r"^a composite of block \(1, 0, 1\) falls outside hom\(1,1\)=7$"
    with pytest.raises(CountError, match=message):
        build_witness(N)


def accepted_corpus():
    """(source, reduced matrix, partition) of every accepted window_cases()
    matrix, of the accepted matrices of 40 quadrant families, and of a
    seeded sample of 500 yeses of the exhaustive 4x4 sweep."""
    rng = random.Random(26)
    families = [
        M for t in range(40)
        for M in helpers.quadrant_family(rng, ((2, 2), (3, 2), (2, 3), (3, 3))[t % 4], slack=2)
    ]
    sweep = [
        HomMatrix.from_rows(flat[i : i + 4] for i in range(0, 16, 4))
        for flat in sweep_4x4.canonical_matrices(4, 2)
    ]
    yeses = [M for M in sweep if decide(M).exists]
    assert len(yeses) == sweep_4x4.EXPECTED_COUNTS["yes"]
    for source, matrices in (("window", window_cases()), ("quadrant", families),
                             ("sweep", rng.sample(yeses, 500))):
        for M in matrices:
            verdict = decide(M)
            if verdict.exists:
                yield source, verdict.reduced, verdict.partition


def test_shared_blocks_equal_the_blocks_built_alone():
    """build_witness's blocks against _block_rows', built alone, and against the
    one-function reference rule, on every composable block; the blocks of
    one shape share one set of rows."""
    accepted, blocks, shapes = Counter(), 0, 0
    for source, N, part in accepted_corpus():
        accepted[source] += 1
        B = build_witness(N)
        assert list(B.blocks) == list(composable(B.homs))
        by_shape = {}
        for xyz, rows in B.blocks.items():
            shape = _block_shape(N, part, *xyz)
            assert rows == _block_rows(*shape) == helpers.reference_block(N, part, *xyz), (N, xyz)
            assert by_shape.setdefault(shape, rows) is rows
        blocks += len(B.blocks)
        shapes += len(by_shape)
    assert accepted == {"window": 731, "quadrant": 149, "sweep": 500}, accepted
    assert shapes < 0.8 * blocks, (shapes, blocks)


# The two matrices differ only in N[1][2], which is N[x][anchor[y]] for the
# f-crossing block (1, 3, 3): Base and Row of hom(1, 3) are its first
# N[1][2] indices, and only they survive post-composition.
KEEP_PAIR = (
    [[1, 1, 1, 2], [1, 2, 2, 3], [0, 0, 1, 1], [0, 0, 1, 2]],
    [[1, 1, 1, 2], [1, 2, 1, 3], [0, 0, 1, 1], [0, 0, 1, 2]],
)
# A reduced matrix whose build has two f-crossing blocks of equal sizes,
# both with y = z, that differ only in N[x][anchor[y]].
KEEP_BUILD = [[6, 6, 6, 1, 1], [0, 6, 0, 0, 1], [9, 6, 12, 3, 2], [2, 1, 3, 1, 1], [0, 4, 0, 0, 1]]


def test_block_shape_holds_every_number_the_rows_read():
    """A shape that left N[x][anchor[y]] out would give both matrices of
    KEEP_PAIR one block (1, 3, 3), and the two blocks of KEEP_BUILD one set
    of rows; each must equal the reference rule's."""
    pair = []
    for rows in KEEP_PAIR:
        N, part = setup_for(rows)
        pair.append(build_witness(N).blocks[1, 3, 3])
        alone = _block_rows(*_block_shape(N, part, 1, 3, 3))
        assert pair[-1] == alone == helpers.reference_block(N, part, 1, 3, 3)
    assert pair[0] != pair[1]
    N, part = setup_for(KEEP_BUILD)
    B = build_witness(N)
    keeps = {}  # the numbers of an f-crossing block but keep -> {keep: rows}
    for (x, y, z), rows in B.blocks.items():
        assert rows == helpers.reference_block(N, part, x, y, z)
        (c, _), (d, _), (e, _) = part.local_of[x], part.local_of[y], part.local_of[z]
        if c != d == e:
            sizes = (N[x][y], N[y][z], N[x][z], y == z)
            keeps.setdefault(sizes, {})[N[x][part.anchor[y]]] = rows
    assert any(len({repr(rows) for rows in by_keep.values()}) > 1 for by_keep in keeps.values())


def test_compose_basepoint_and_pad_cases():
    compose = composer([[1, 2], [3, 7]])
    # Down to the basepoint and back up lands on the (u, v) pair.
    down = "Pair(0,1,0,2,1)"
    up = "Pair(0,0,1,1,2)"
    assert compose(up, down) == "Pair(0,1,1,2,2)"
    # Up then down passes through the basepoint's identity.
    assert compose(down, up) == "Identity(0,0)"
    # Pads delegate: left factor minimal, right factor maximal, equal idempotent.
    compose = composer([[1, 2], [3, 9]])
    k1, k2 = "Pad(0,1,1,1)", "Pad(0,1,1,2)"
    assert compose(k1, k1) == k1
    assert compose(k2, k1) == "Pair(0,1,1,3,1)"
    assert compose(k1, "Pair(0,1,1,2,2)") == "Pair(0,1,1,2,1)"


def test_compose_pair_chain_associates():
    # Three-step pair chain keeps the outermost coordinates either way.
    compose = composer([[1, 2, 2], [2, 5, 4], [2, 4, 5]])
    f = "Pair(0,1,2,1,2)"
    g = "Pair(0,2,1,2,1)"
    h = "Pair(0,1,2,2,2)"
    left = compose(h, compose(g, f))
    right = compose(compose(h, g), f)
    assert left == right == "Pair(0,1,2,1,2)"


def test_cross_composition_keeps_base_and_row():
    compose = composer([[1, 1, 1, 2], [1, 2, 2, 3], [0, 0, 1, 1], [0, 0, 1, 2]])
    # Post-compose a cross morphism with a within-class pair of the lower class.
    cross_row = "CrossRow(0,1,1,0,1)"
    lower_pair = "Pair(1,0,1,1,1)"
    out = compose(lower_pair, cross_row)
    assert out == "CrossRow(0,1,1,1,1)"
    # A CrossCol label collapses instead.
    cross_col = "CrossCol(0,0,1,1,1)"
    down = "Pair(1,1,0,1,1)"
    assert compose(down, cross_col) == "CrossBase(0,0,1,0,1)"
    # Pre-compose: CrossCol keeps its index, CrossRow collapses.
    upper_pair = "Pair(0,0,1,1,1)"
    assert compose("CrossCol(0,1,1,1,1)", upper_pair) == "CrossCol(0,0,1,1,1)"
    assert compose("CrossRow(0,1,1,1,1)", "Pair(0,1,1,1,1)") == "CrossBase(0,1,1,1,1)"


def test_witness_fixtures():
    terminal = build_witness(HomMatrix.from_rows([[1]]))
    assert terminal.morphism_count() == 1
    assert verify_category(terminal, HomMatrix.from_rows([[1]])).passed

    M = HomMatrix.from_rows([[1, 2], [3, 7]])
    C = build_witness(M)
    assert C.morphism_count() == 13
    assert verify_category(C, M).passed

    M = HomMatrix.from_rows([[2, 2], [2, 2]])
    C = build_witness(M)
    assert all(
        l.startswith("Infl(") and l.split(",", 2)[2].startswith(("Identity(", "Collapsed("))
        for ls in C.homs.values()
        for l in ls
    )
    assert verify_category(C, M).passed


def test_witness_rejects():
    with pytest.raises(Rejected) as exc:
        build_witness(HomMatrix.from_rows([[0]]))
    assert exc.value.verdict.reason.kind == "ZeroDiagonal"


def test_witness_empty_matrix():
    C = build_witness(HomMatrix(0, ()))
    assert C.n == 0 and C.morphism_count() == 0
    assert verify_category(C, HomMatrix(0, ())).passed


def test_witness_mixed_class_kinds_verify():
    # A class without basepoint sitting above a class with one exercises the
    # degenerate cross parts; these used to be the risky shapes.
    for rows in (
        [[2, 2, 2], [0, 1, 1], [0, 1, 2]],
        [[2, 2, 2, 2], [0, 1, 1, 1], [0, 1, 2, 2], [0, 1, 1, 3]],
        [[1, 1, 3], [0, 1, 2], [0, 0, 2]],
        [[3, 2], [0, 1]],
        [[1, 5], [0, 3]],
    ):
        M = HomMatrix.from_rows(rows)
        if not decide(M).exists:
            continue
        report = verify_category(build_witness(M), M)
        assert report.passed, (rows, report.summary())


def test_witness_is_deterministic():
    M = HomMatrix.from_rows([[1, 1, 1, 2], [1, 2, 2, 3], [0, 0, 1, 1], [0, 0, 1, 2]])
    C1 = build_witness(M)
    C2 = build_witness(M)
    assert C1.homs == C2.homs
    assert C1.table == C2.table
    assert C1.identity == C2.identity


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_witness_verifies_on_random_accepted(rng):
    M = helpers.random_matrix(rng, rng.randint(1, 4), 4)
    verdict = decide(M)
    if not verdict.exists:
        with pytest.raises(Rejected):
            build_witness(M)
        return
    C = build_witness(M)
    assert verify_category(C, M).passed
