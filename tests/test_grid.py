import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import cell_text, dense_step
from revca.gf2poly import poly_from_text, poly_to_text, state_poly_at
from revca.grid import (EMPTY, BinaryGrid, MixedParityError,
                        SecondOrderState, count_values, diagonal_embed,
                        diagonal_extract, grid_from_text, grid_to_text, shift,
                        single_seed, swap_x, xor)
from revca.render import render
from revca.rules import (Rule, evolve, first_order_step, second_order_step,
                         trajectory)

cells = st.frozensets(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8)), max_size=40)
grids = cells.map(BinaryGrid)
# columns around the 64-bit word edges of a grid's rows, negative ones
# included, so a grid spans up to five words
wide_cols = st.one_of(st.integers(-140, 140),
                      st.sampled_from([-129, -128, -65, -64, -1, 63, 64, 127,
                                       128]))
wide_grids = st.frozensets(st.tuples(st.integers(-5, 5), wide_cols),
                           max_size=20).map(BinaryGrid)
any_grids = st.one_of(grids, wide_grids)


def test_single_seed():
    s = single_seed()
    assert s.current.cells() == {(0, 0)}
    assert not s.previous
    assert count_values(s) == (0, 1, 0, 0, 1)


def test_count_values_examples():
    assert count_values(single_seed()) == (0, 1, 0, 0, 1)
    empty = BinaryGrid()
    from revca.grid import SecondOrderState
    assert count_values(SecondOrderState(empty, empty)) == (0, 0, 0, 0, 0)
    s1 = second_order_step(Rule.C1, single_seed())
    assert count_values(s1, 1) == (1, 4, 1, 0, 5)


@given(any_grids, any_grids, st.integers(-20, 20), st.integers(-20, 20),
       st.booleans())
@example(BinaryGrid([(0, 0), (3, 3)]), BinaryGrid([(9, 9)]), 0, 0, False)
@example(BinaryGrid([(0, 0), (3, 3)]), BinaryGrid([(1, 1), (2, 2)]), 0, 0,
         False)
def test_count_values_matches_cell_sets(a, b, dx, dy, nested):
    """Disjoint boxes come from large shifts, nested ones from a & b."""
    b = BinaryGrid(a.cells() & b.cells()) if nested else shift(b, dx, dy)
    for cur, prev in ((a, b), (b, a)):
        c, p = cur.cells(), prev.cells()
        both = len(c & p)
        assert count_values(SecondOrderState(cur, prev), 5) == \
            (5, len(c) - both, len(p) - both, both, len(c | p))


def test_xor_examples():
    g = BinaryGrid([(0, 0), (1, 1)])
    assert xor(g, g) == BinaryGrid()
    assert xor(g, BinaryGrid()) == g
    assert xor(BinaryGrid([(0, 0)]), g) == BinaryGrid([(1, 1)])


@given(any_grids, any_grids, any_grids)
def test_xor_group_laws(a, b, c):
    assert xor(a, b) == xor(b, a)
    assert xor(xor(a, b), c) == xor(a, xor(b, c))
    assert xor(a, BinaryGrid()) == a
    assert xor(a, a) == BinaryGrid()


def test_shift_examples():
    assert shift(BinaryGrid([(0, 0)]), 2, -2) == BinaryGrid([(2, -2)])
    g = BinaryGrid([(1, 2), (-3, 4)])
    assert shift(g, 0, 0) == g
    five = BinaryGrid([(0, 0), (3, -1), (-2, 5), (7, 7), (1, 1)])
    assert len(shift(five, 11, -4)) == len(five)
    assert shift(five, 11, -4).cells() == {(i + 11, j - 4) for i, j in five}


@given(grids, grids, st.integers(-5, 5), st.integers(-5, 5))
def test_shift_distributes_over_xor(a, b, dx, dy):
    assert shift(xor(a, b), dx, dy) == xor(shift(a, dx, dy), shift(b, dx, dy))


def test_swap_x():
    s = swap_x(single_seed())
    assert count_values(s) == (0, 0, 1, 0, 1)
    s3 = evolve(Rule.C1, single_seed(), 3)
    assert swap_x(swap_x(s3)) == s3
    c, cs = count_values(s3), count_values(swap_x(s3))
    assert cs.r1 == c.r2 and cs.r2 == c.r1


def test_diagonal_embed_examples():
    assert diagonal_embed(BinaryGrid([(0, 0)]), "even") == BinaryGrid([(0, 0)])
    assert diagonal_embed(BinaryGrid([(1, 0)]), "even") == BinaryGrid([(1, 1)])
    # one C2 step from the seed embeds to one C1 step from the seed
    from revca.rules import first_order_step
    c2 = first_order_step(Rule.C2, BinaryGrid([(0, 0)]))
    c1 = first_order_step(Rule.C1, BinaryGrid([(0, 0)]))
    assert diagonal_embed(c2, "even") == c1


def test_diagonal_extract_examples():
    g = BinaryGrid([(0, 0), (2, -1), (-4, 3)])
    assert diagonal_extract(diagonal_embed(g, "even"), "even") == g
    assert diagonal_extract(BinaryGrid([(0, 0)]), "even") == BinaryGrid([(0, 0)])
    with pytest.raises(MixedParityError):
        diagonal_extract(BinaryGrid([(0, 0), (1, 0)]), "even")


@given(grids, st.sampled_from(["even", "odd"]))
def test_diagonal_round_trip(g, parity):
    assert diagonal_extract(diagonal_embed(g, parity), parity) == g


def test_embed_image_parity():
    g = BinaryGrid([(0, 0), (1, 2), (-3, 1)])
    for parity, want in (("even", 0), ("odd", 1)):
        for i, j in diagonal_embed(g, parity):
            assert (i + j) % 2 == want
    assert len(diagonal_embed(g, "odd")) == len(g)


def test_counts_total_along_trajectory():
    s = single_seed()
    for n in range(20):
        c = count_values(s, n)
        assert c.total == c.r1 + c.r2 + c.r3
        s = second_order_step(Rule.C3p, s)


def test_equality_ignores_construction_order():
    assert BinaryGrid([(0, 0), (5, 5)]) == BinaryGrid([(5, 5), (0, 0)])
    assert hash(BinaryGrid([(1, 2)])) == hash(BinaryGrid([(1, 2)]))


@given(any_grids, any_grids)
def test_equality_and_hash_follow_the_cell_set(a, b):
    same = BinaryGrid(sorted(a.cells(), reverse=True))
    assert same == a and hash(same) == hash(a)
    assert (a == b) == (a.cells() == b.cells())
    assert all(c in a for c in a.cells())
    assert all((c in a) == (c in a.cells()) for c in b.cells())


def same_cells(g, want):
    """g holds exactly ``want``, is == and hash-equal to the grid that a
    list of those cells builds, and holds them under the one column-to-bit
    map: column j is bit j & 63 of word (j >> 6) - (jmin >> 6) of row
    i - imin, the box is bit-exact and every other bit is 0."""
    ref = BinaryGrid(list(want))
    assert g.cells() == want
    assert g == ref and hash(g) == hash(ref)
    if not want:
        assert g._w.size == 0
        return
    (i0, j0), (i1, j1) = map(min, zip(*want)), map(max, zip(*want))
    words = np.zeros((i1 - i0 + 1, (j1 >> 6) - (j0 >> 6) + 1), np.uint64)
    for i, j in want:
        words[i - i0, (j >> 6) - (j0 >> 6)] |= np.uint64(1 << (j & 63))
    assert (g.origin, g._ncols) == ((i0, j0), j1 - j0 + 1)
    assert g._w.dtype == np.dtype("<u8") and g._w.flags.c_contiguous
    assert np.array_equal(g._w, words)


# moves around +-64 and +-128, where a column's bit or word changes
edge_moves = st.one_of(st.integers(-130, 130), st.sampled_from(
    [-129, -128, -127, -65, -64, -63, -1, 1, 63, 64, 65, 127, 128, 129]))


@settings(deadline=None)
@given(any_grids, any_grids, st.integers(-70, 70), edge_moves,
       st.integers(0, 3), st.integers(0, 70), st.integers(0, 3))
@example(BinaryGrid([(0, 0), (2, 127)]), BinaryGrid([(0, 127)]), 0, 64, 1,
         64, 1)
# the product's base word is one above the sum of the factors', and the
# wider factor's rows one word wider than the product's
@example(BinaryGrid([(0, 1)]), BinaryGrid([(0, 63), (0, 64)]), 0, 64, 0, 1,
         1)
@example(BinaryGrid([(0, 1), (2, 1)]),
         BinaryGrid([(0, 63), (0, 64), (1, 64), (2, 63), (2, 64)]), 1, -64,
         0, 64, 2)
def test_every_path_builds_the_canonical_grid(a, b, dx, dy, rows, cols, k):
    """The same cell set makes an == and hash-equal grid, with the same
    words, whichever path built it; the padding moves a window's columns
    across word edges, and the walk crosses a new layout of its planes."""
    ca, cb = a.cells(), b.cells()
    same_cells(BinaryGrid(list(ca)), ca)
    ii, jj = (np.array(v, np.int64) for v in zip(*ca)) if ca else ([], [])
    same_cells(BinaryGrid.from_index_arrays(ii, jj), ca)
    same_cells(grid_from_text(grid_to_text(a)), ca)
    win = np.zeros((a.window.shape[0] + 2 * rows,
                    a.window.shape[1] + 2 * cols), np.uint8)
    win[rows:win.shape[0] - rows, cols:win.shape[1] - cols] = a.window
    i0, j0 = a.origin
    same_cells(BinaryGrid.from_window(win, i0 - rows, j0 - cols), ca)
    same_cells(xor(a, b), ca ^ cb)
    same_cells(xor(xor(a, b), b), ca)
    moved = {(i + dx, j + dy) for i, j in ca}
    same_cells(shift(a, dx, dy), moved)
    same_cells(a * BinaryGrid([(dx, dy)]), moved)
    product = set()
    for i, j in ca:
        product ^= {(i + u, j + v) for u, v in cb}
    same_cells(a * b, product)
    d = 1 << k
    same_cells(a.pow_2k(k), {(d * i, d * j) for i, j in ca})
    for rule in Rule:
        same_cells(first_order_step(rule, a), dense_step(rule, a).cells())
    want = SecondOrderState(a, b)
    for s in trajectory(Rule.C3p, 18, SecondOrderState(a, b)):
        same_cells(s.current, want.current.cells())
        same_cells(s.previous, want.previous.cells())
        want = second_order_step(Rule.C3p, want, dense_step)


def test_coordinates_past_int64_raise_value_error():
    # the writer stays exact past int64; every reader of index_arrays
    # raises ValueError instead of wrapping, and so does a cell list
    edge = shift(BinaryGrid([(0, 0)]), 2**63 - 1, -2**63)
    assert edge.cells() == {(2**63 - 1, -2**63)}
    past = shift(BinaryGrid([(0, 0), (1, 3)]), 2**63 - 1, 0)
    assert grid_to_text(past) == \
        f"#bgrid v1 count=2\n{2**63 - 1} 0\n{2**63} 3\n"
    reads = (BinaryGrid.index_arrays, BinaryGrid.cells, list, repr,
             diagonal_embed, diagonal_extract,
             lambda g: render(SecondOrderState(g, EMPTY), 1, "txt"))
    below, right = shift(past, -2**64, 0), shift(BinaryGrid([(0, 0)]), 0, 2**64)
    for g in (past, below, right):
        for read in reads:
            with pytest.raises(ValueError, match="leaves int64"):
                read(g)
    for cell in ((2**63, 0), (0, -2**63 - 1), (2**70, 2**70)):
        with pytest.raises(ValueError, match="leaves int64"):
            BinaryGrid([cell])


def test_text_round_trip():
    g = BinaryGrid([(3, -1), (-2, 7), (0, 0)])
    text = grid_to_text(g)
    assert text.splitlines()[0] == "#bgrid v1 count=3"
    assert text.splitlines()[1:] == ["-2 7", "0 0", "3 -1"]
    assert grid_from_text(text) == g
    assert grid_from_text(grid_to_text(BinaryGrid())) == BinaryGrid()


def test_text_errors():
    with pytest.raises(ValueError):
        grid_from_text("1 2\n")
    with pytest.raises(ValueError):
        grid_from_text("#bgrid v1 count=2\n1 2\n")


@pytest.mark.parametrize("text", [
    "#bgrid v1\n1 2\n",                 # no count=
    "#bgrid v1 size=1\n1 2\n",          # wrong key
    "#bgrid v1 count=x\n1 2\n",         # non-integer count
    "#bgrid v1 count=1 extra\n1 2\n",   # trailing header field
    "#bgrid v2 count=1\n1 2\n",         # unknown version
    "#bgrid v1 count=1\n1 2 3\n",       # three fields
    "#bgrid v1 count=1\n1\n",           # one field
    "#bgrid v1 count=1\n1 b\n",         # non-integer coordinate
    "#bgrid v1 count=2\n1 2\n1 2\n",    # duplicate cell
    "#bgrid v1 count=2\n0 0\n99999 99999\n",  # window past the cap
    "#bgrid v1 count=1\n99999999999999999999 0\n",  # past int64
])
def test_text_malformed_is_value_error(text):
    with pytest.raises(ValueError):
        grid_from_text(text)


text_tokens = st.sampled_from(["count=0", "count=1", "count=2", "count=x", "0",
                               "-1", "7", "x", "1.5", "", "99999999999999999999"])
token_lines = st.lists(text_tokens, max_size=3).map(" ".join)
text_blocks = st.builds(
    lambda head, body: "\n".join(["#bgrid v1 " + head, *body]),
    token_lines, st.lists(token_lines, max_size=4))


@given(text_blocks)
def test_text_parser_fuzz(text):
    # any input either parses to a grid that round-trips or is a ValueError
    try:
        g = grid_from_text(text)
    except ValueError:
        return
    assert grid_from_text(grid_to_text(g)) == g


@given(any_grids)
def test_text_lines_are_sorted_cells(g):
    lines = grid_to_text(g).splitlines()
    assert lines[0] == f"#bgrid v1 count={len(g)}"
    assert lines[1:] == [f"{i} {j}" for i, j in sorted(g.cells())]
    assert grid_from_text(grid_to_text(g)) == g


formats = st.sampled_from([(grid_to_text, grid_from_text, "#bgrid", "count"),
                           (poly_to_text, poly_from_text, "#lpoly", "terms")])
far = st.integers(-2**40, 2**40)


@given(any_grids, far, far, formats)
@example(BinaryGrid(), 0, 0, (grid_to_text, grid_from_text, "#bgrid", "count"))
@example(BinaryGrid([(4, -7)]), 0, 0,
         (poly_to_text, poly_from_text, "#lpoly", "terms"))
@example(BinaryGrid([(2, j) for j in (-5, 0, 1, 9)]), -2**40, 2**40,
         (grid_to_text, grid_from_text, "#bgrid", "count"))
@example(BinaryGrid([(i, 3) for i in (-5, 0, 1, 9)]), 2**40, -2**40,
         (poly_to_text, poly_from_text, "#lpoly", "terms"))
def test_writer_matches_cell_oracle(g, di, dj, fmt):
    # the row-by-row writer gives the per-cell writer's bytes, near the
    # origin and far from it, and the strict parser reads them back
    to_text, from_text, tag, key = fmt
    for h in (g, shift(g, di, dj)):
        text = to_text(h)
        assert text == cell_text(h, tag, key)
        assert from_text(text) == h


@given(any_grids)
@example(EMPTY)
def test_index_arrays_match_the_window(g):
    # the word decoder finds the dense window's cells, in the same order
    ii, jj = g.index_arrays()
    ri, rj = np.nonzero(g.window)
    i0, j0 = g.origin
    assert ii.dtype == jj.dtype == np.int64
    assert ii.tolist() == (ri + i0).tolist()
    assert jj.tolist() == (rj + j0).tolist()


def test_writer_memory_is_bounded_by_the_window():
    # two cells 2^22 columns apart: a Python object per window column
    # would take tens of MiB; the writer stays below twice the window
    g = BinaryGrid([(0, 0), (0, 2**22 - 1)])
    tracemalloc.start()
    try:
        text = grid_to_text(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == f"#bgrid v1 count=2\n0 0\n0 {2**22 - 1}\n"
    assert peak < 2 * g.window.nbytes


def test_dense_writer_memory_is_bounded_by_its_text():
    # a dense state: the writer decodes it in row blocks, so its per-cell
    # arrays stay small beside the text it returns
    p = state_poly_at(Rule.C1, 511).first
    tracemalloc.start()
    try:
        text = poly_to_text(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.startswith(f"#lpoly v1 terms={len(p)}\n")
    assert peak < 4 * len(text)
