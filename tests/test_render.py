import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from revca.grid import BinaryGrid, SecondOrderState, count_values, single_seed
from revca.render import (PALETTE, TXT_CHARS, render, render_pbm, render_ppm,
                          render_txt, value_window)
from revca.rules import Rule, evolve


def pixel_loop_render(s, n, fmt):
    """The per-pixel renderers the vectorized ones replaced: the oracle."""
    v = value_window(s, n)
    h, w = v.shape
    if fmt == "txt":
        return "\n".join("".join(TXT_CHARS[x] for x in row) for row in v) + "\n"
    if fmt == "pbm":
        rows = (" ".join("1" if x else "0" for x in row) for row in v)
        return f"P1\n{w} {h}\n" + "\n".join(rows) + "\n"
    lines = [f"P3\n{w} {h}\n255"]
    for row in v:
        lines.append(" ".join(" ".join(map(str, PALETTE[x])) for x in row))
    return "\n".join(lines) + "\n"


MIXED = SecondOrderState(BinaryGrid([(1, -1), (0, 0), (2, 2)]),
                         BinaryGrid([(0, 1), (0, 0), (-3, 0)]))
PREVIOUS_ONLY = SecondOrderState(BinaryGrid(), BinaryGrid([(0, 0), (1, 1)]))


@pytest.mark.parametrize("fmt", ["txt", "pbm", "ppm"])
def test_render_matches_pixel_loop(fmt):
    cases = [(single_seed(), 0), (PREVIOUS_ONLY, 0), (PREVIOUS_ONLY, 2),
             (MIXED, 0), (MIXED, 1), (MIXED, 3)]
    cases += [(evolve(rule, single_seed(), n), r) for rule in Rule
              for n, r in ((1, 1), (9, 9), (9, 4), (40, 41))]
    cases += [(evolve(Rule.C1, single_seed(), n), n) for n in (64, 257)]
    for s, n in cases:
        assert render(s, n, fmt) == pixel_loop_render(s, n, fmt)


def test_txt_step_1():
    s = evolve(Rule.C1, single_seed(), 1)
    assert render_txt(s, 1) == "1.1\n.2.\n1.1\n"


def test_txt_seed():
    assert render_txt(single_seed(), 0) == "1\n"


def test_ppm_pixel_counts_match_table():
    s = evolve(Rule.C1, single_seed(), 7)
    ppm = render_ppm(s, 7)
    head, *rows = ppm.split("\n", 2)
    assert head == "P3"
    pixels = ppm.split("\n", 3)[3].split()
    rgb = [tuple(map(int, pixels[i:i + 3])) for i in range(0, len(pixels), 3)]
    assert len(rgb) == 15 * 15
    assert rgb.count((0, 0, 0)) == 64
    assert rgb.count((128, 128, 128)) == 21
    assert rgb.count((255, 0, 0)) == 0


def test_pbm_population_equals_total():
    for n in (3, 6, 10):
        s = evolve(Rule.C2, single_seed(), n)
        pbm = render_pbm(s, n)
        body = pbm.split("\n", 2)[2]
        assert body.count("1") == count_values(s, n).total
        w, h = pbm.split("\n")[1].split()
        assert int(w) == int(h) == 2 * n + 1


def test_render_dispatch():
    s = single_seed()
    assert render(s, 0, "txt") == "1\n"
    with pytest.raises(ValueError):
        render(s, 0, "gif")
    with pytest.raises(ValueError):
        render(s, -1, "txt")


def test_rows_run_top_down():
    # value-2 cell at (0, 1) must land in the top row of a radius-1 window
    from revca.grid import BinaryGrid, SecondOrderState
    s = SecondOrderState(BinaryGrid([(1, -1)]), BinaryGrid([(0, 1)]))
    assert render_txt(s, 1) == ".2.\n...\n..1\n"


def cell_loop_window(s, n):
    """value_window's oracle: one cell at a time from cells()."""
    v = np.zeros((2 * n + 1, 2 * n + 1), dtype=np.uint8)
    for weight, g in ((1, s.current), (2, s.previous)):
        for i, j in g.cells():
            if abs(i) <= n and abs(j) <= n:
                v[n - j, i + n] += weight
    return v


# a cluster up to 150 columns wide, crossing word boundaries, placed so that
# it can lie inside the window, across its edge or wholly outside it
clusters = st.builds(
    lambda cells, di, dj: BinaryGrid((i + di, j + dj) for i, j in cells),
    st.frozensets(st.tuples(st.integers(-6, 6), st.integers(-75, 75)),
                  max_size=30),
    st.integers(-90, 90), st.integers(-90, 90))
components = st.one_of(st.just(BinaryGrid()), clusters)


@given(components, components, st.integers(0, 70))
@example(BinaryGrid(), BinaryGrid(), 0)
@example(BinaryGrid([(40, 40), (41, 43)]), BinaryGrid([(0, -9)]), 3)
@example(BinaryGrid([(-5, 0), (5, 3)]), BinaryGrid([(-5, -5), (5, 5)]), 2)
@example(BinaryGrid([(10, 0), (11, -1)]), BinaryGrid([(0, 10), (-1, 70)]), 3)
def test_value_window_matches_cell_loop(cur, prev, n):
    s = SecondOrderState(cur, prev)
    assert np.array_equal(value_window(s, n), cell_loop_window(s, n))


@pytest.fixture(scope="module")
def r1_512():
    return evolve(Rule.C1, single_seed(), 512)


@pytest.mark.parametrize("fmt", ["txt", "pbm", "ppm"])
def test_render_peak_memory(r1_512, fmt):
    # the output string and its parts, the value window and a few MiB of
    # row blocks; no per-pixel Python objects
    tracemalloc.start()
    try:
        out = render(r1_512, 512, fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(out) + 1025 ** 2 + (4 << 20)
