import inspect
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revca import gf2poly, verify
from revca.gf2poly import transition_poly
from revca.grid import (EMPTY, BinaryGrid, SecondOrderState, shift,
                        single_seed, swap_x, xor)
from revca.rules import Rule, _Planes, evolve, first_order_step, trajectory

from oracle import neighbor_sums, pair_composition


def corrupt_c3_threshold_2(rule, g):
    """C3 with its switch-on threshold moved from 1 to 2 neighbors."""
    if rule is Rule.C3 and g:
        orth, _, i0, j0 = neighbor_sums(g)
        return BinaryGrid.from_window((orth == 2).astype(np.uint8), i0, j0)
    return first_order_step(rule, g)


def corrupt_c2_missing_neighbor(rule, g):
    """C2 with the (0, 1) neighbor dropped from the orthogonal sum."""
    if rule is Rule.C2 and g:
        w = g.window
        p = np.zeros((w.shape[0] + 4, w.shape[1] + 4), dtype=np.uint8)
        p[2:-2, 2:-2] = w
        orth = p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2]
        i0, j0 = g.origin
        return BinaryGrid.from_window(orth & 1, i0 - 1, j0 - 1)
    return first_order_step(rule, g)


def corrupt_c1_with_center(rule, g):
    """C1 that also counts the cell itself in its parity."""
    if rule is Rule.C1:
        return xor(first_order_step(rule, g), g)
    return first_order_step(rule, g)


def corrupt_c1_displaced(rule, g):
    """C1 whose result lands one row down (i + 1)."""
    if rule is Rule.C1:
        return shift(first_order_step(rule, g), 1, 0)
    return first_order_step(rule, g)


def displaced(moved, di, dj):
    """The rules, with the results of ``moved`` translated by (di, dj)."""
    def step(rule, g):
        out = first_order_step(rule, g)
        return shift(out, di, dj) if rule is moved else out
    step.__name__ = f"{moved.value}_displaced_by_{di}_{dj}"
    return step


def drifting_c1(calls_before_drift):
    """C1 that, after a number of calls, also turns the origin on.

    F(X C_i) = X C_{i-1} holds for every rule that is a function of its
    input, so only a rule that changes between the forward walk and the
    check can break it.
    """
    calls = []

    def step(rule, g):
        calls.append(rule)
        out = first_order_step(rule, g)
        if len(calls) > calls_before_drift:
            return xor(out, BinaryGrid([(0, 0)]))
        return out
    return step


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_suites_pass_at_reduced_ranges(name):
    fn, _ = verify.SUITES[name]
    limit = 3 if name in ("replication", "diamond", "backward_growth") else 48
    report = fn(limit)
    assert report.passed, report.witness
    assert report.witness is None
    assert report.suite == name


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_every_suite_steps_through_step_fn(name):
    calls = []

    def counting(rule, g):
        calls.append(rule)
        return first_order_step(rule, g)

    fn, _ = verify.SUITES[name]
    assert fn(2, step_fn=counting).passed
    assert calls


def test_run_all_order_is_fixed():
    reports = verify.run_all(limit=2)
    assert [r.suite for r in reports] == list(verify.SUITES)


def test_equivalence_negative_control():
    report = verify.suite_equivalence(8, step_fn=corrupt_c3_threshold_2)
    assert not report.passed
    assert report.witness == ("R3 != R2 at n=1: current diff [(-1, 0), "
                              "(0, -1), (0, 1), (1, 0)], previous diff []")


@pytest.mark.parametrize("corrupt, witness", [
    # N, S and W only: the seed's three images surround the origin
    (lambda g: corrupt_c2_missing_neighbor(Rule.C2, g),
     "cell with 3 orthogonal neighbors at n=1"),
    # diagonal and orthogonal images: (2, 0) sees only (1, 0) orthogonally
    (lambda g: xor(first_order_step(Rule.C1, g), first_order_step(Rule.C2, g)),
     "switching cell with diagonal neighbor at n=1"),
])
def test_equivalence_lemma_negative_controls(corrupt, witness):
    # C2, C3 and C3' all step by the same corrupted rule, so the three
    # trajectories agree and only the lemma on the R2 states can fail
    report = verify.suite_equivalence(8, step_fn=lambda rule, g: corrupt(g))
    assert not report.passed
    assert report.witness == witness


def test_counts_negative_control():
    report = verify.suite_counts(8, step_fn=corrupt_c2_missing_neighbor)
    assert not report.passed
    assert "rule=C2" in report.witness


def test_counts_reads_the_table(monkeypatch):
    # the expected tallies are build_table's rows, not a walk per term
    def no_walk(*args):
        raise AssertionError("suite_counts walked the ladder per term")

    monkeypatch.setattr(verify.seq, "seq_value", no_walk)
    assert verify.suite_counts(48).passed


def test_replication_negative_control():
    report = verify.suite_replication(3, step_fn=corrupt_c2_missing_neighbor)
    assert not report.passed
    assert report.witness == \
        "rule=C2 k=0 pattern step 0: 2^k steps != four copies"


def test_replication_negative_control_c1():
    report = verify.suite_replication(3, step_fn=corrupt_c1_with_center)
    assert not report.passed
    assert report.witness == \
        "rule=C1 k=0 pattern step 0: 2^k steps != four copies"


@pytest.mark.parametrize("k", range(5))
def test_replication_steps_one_trajectory_per_rule(k):
    # the state 2^k steps after pattern m is step 2^k + m of the same
    # trajectory, so each rule steps once per step up to the last one read
    calls = []

    def counting(rule, g):
        calls.append(rule)
        return first_order_step(rule, g)

    assert verify.suite_replication(k, step_fn=counting).passed
    assert len(calls) == 2 * ((1 << k) + ((1 << k) - 1) // 2)


@st.composite
def boxed_grids(draw):
    """(k, g) with the bounding box of g at most 2^k on each side."""
    k = draw(st.integers(0, 4))
    i0, j0 = draw(st.integers(-40, 40)), draw(st.integers(-40, 40))
    cells = draw(st.frozensets(st.tuples(st.integers(0, (1 << k) - 1),
                                         st.integers(0, (1 << k) - 1))))
    return k, BinaryGrid((i0 + i, j0 + j) for i, j in cells)


@settings(max_examples=100, deadline=None)
@given(boxed_grids(), st.sampled_from([Rule.C1, Rule.C2]))
def test_copies_is_the_product_with_t_to_the_2k(kg, rule):
    k, g = kg
    T = transition_poly(rule)
    assert verify._copies(T, 1 << k, g) == T.pow_2k(k) * g


@pytest.mark.parametrize("rule", [Rule.C1, Rule.C2])
def test_copies_overlap_is_none(rule):
    # one empty column between the two cells: the copies shifted by
    # (., -1) and (., +1) both cover the column between them
    g = BinaryGrid([(0, 0), (0, 2)])
    assert verify._copies(transition_poly(rule), 1, g) is None


def test_reversibility_negative_control():
    # a corrupted rule still satisfies reversibility (the lift construction
    # guarantees it), but conjugacy and round trips must still be exercised
    # against a rule that breaks determinism of the comparison: a C2 step
    # on every 7th call is shifted, here the one that checks C_2
    calls = {"n": 0}

    def flaky(rule, g):
        calls["n"] += 1
        if rule is Rule.C2 and calls["n"] % 7 == 0 and g:
            from revca.grid import shift
            return shift(first_order_step(rule, g), 1, 0)
        return first_order_step(rule, g)

    report = verify.suite_reversibility(8, step_fn=flaky)
    assert not report.passed
    assert report.witness == "rule=C2 F(X C_2) != X C_1"


def test_reversibility_round_trip_negative_control():
    # C1's walk and its 8 step checks make 16 calls; the rule drifts on
    # the walk back only, which the step checks cannot see
    report = verify.suite_reversibility(8, step_fn=drifting_c1(16))
    assert not report.passed
    assert report.witness == "rule=C1 C_8 walked back 8 steps is not the seed"


def test_reversibility_stores_no_trajectory():
    # the suite's peak is a few states, not the 301 states of a whole walk
    last = evolve(Rule.C1, single_seed(), 300)
    state_bytes = last.current._w.nbytes + last.previous._w.nbytes
    tracemalloc.start()
    try:
        assert verify.suite_reversibility(300).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * state_bytes


def test_polynomial_negative_control():
    report = verify.suite_polynomial(8, step_fn=corrupt_c2_missing_neighbor)
    assert not report.passed
    assert report.witness.startswith("rule=C2 n=1: polynomial state")


@pytest.mark.parametrize("step_fn, witness", [
    # the origin turns on again on top of its previous value
    (corrupt_c1_with_center, "R1 n=1: value-3 cell present"),
    (corrupt_c1_displaced, "R1 n=1: component off its sublattice coset"),
    # one bit column over: caught by the R1 column masks, not its rows
    (displaced(Rule.C1, 0, 1), "R1 n=1: component off its sublattice coset"),
    # the planes of a substitute rule start at the union box's first row and
    # whole words left of the current grid's first column, here (-1, 0) and
    # (-1, -62), so the R2 mask phase has an odd origin term; one column
    # over puts a cell of the cross on the seed, three columns over miss it
    (displaced(Rule.C2, 0, 1), "R2 n=1: value-3 cell present"),
    (displaced(Rule.C2, 0, 3), "R2 n=1: component off its checkerboard parity"),
])
def test_coloring_negative_control(step_fn, witness):
    report = verify.suite_coloring(8, step_fn=step_fn)
    assert not report.passed
    assert report.witness == witness


def dense_off_lattice(g, par, coset):
    """The cell-list form of ``_Planes.off_lattice`` on one grid."""
    ii, jj = g.index_arrays()
    if coset:
        return bool(np.any(ii % 2 != par) or np.any(jj % 2 != par))
    return bool(np.any((ii + jj) % 2 != par))


# columns around the 64-bit word edges of the planes, negative ones included
edge_grids = st.frozensets(
    st.tuples(st.integers(-5, 5),
              st.one_of(st.integers(-70, 70),
                        st.sampled_from([-65, -64, -1, 63, 64, 127]))),
    max_size=12).map(BinaryGrid)


@settings(max_examples=150, deadline=None)
@given(edge_grids, edge_grids, st.booleans())
@example(EMPTY, EMPTY, False)
@example(BinaryGrid([(1, 1)]), EMPTY, False)  # odd plane origin (-16, -63)
@example(BinaryGrid([(1, 0), (0, 63)]), BinaryGrid([(-1, 64)]), True)
def test_off_lattice_matches_cell_lists(a, b, back):
    # the states' top row and first column move the plane origin, so both
    # parities of i0 + j0 occur; a backward walk runs on the planes of the
    # swapped state
    s = SecondOrderState(a, b)
    planes = _Planes(swap_x(s) if back else s)
    for k in (0, 1):
        for par in (0, 1):
            for coset in (False, True):
                assert planes.off_lattice(k, par, coset) == \
                    dense_off_lattice(planes.grid(k), par, coset)


def test_sublattice_negative_control():
    report = verify.suite_sublattice(8, step_fn=corrupt_c2_missing_neighbor)
    assert not report.passed
    assert report.witness == "n=1: extracted R1 state != R2 state"


def test_diamond_negative_control():
    report = verify.suite_diamond(3, step_fn=corrupt_c1_with_center)
    assert not report.passed
    assert report.witness == "k=1: |value-1| = 5 != 4^1"


def c1_moving(cell, to):
    """C1 whose result, when it holds ``cell``, has it at ``to`` instead."""
    def step(rule, g):
        out = first_order_step(rule, g)
        if rule is Rule.C1 and cell in out and to not in out:
            return xor(out, BinaryGrid([cell, to]))
        return out
    return step


@pytest.mark.parametrize("to", [
    (1, 0),  # inside [-1, 1]^2, off the coset i = j = 1 mod 2
    (3, 1),  # on the coset, outside [-1, 1]^2
])
def test_diamond_checkerboard_negative_control(to):
    # 4 = 4^1 cells at n = 1, one of them moved: only the checkerboard
    # check (bounds and coset, read off the planes) catches it
    report = verify.suite_diamond(3, step_fn=c1_moving((1, 1), to))
    assert not report.passed
    assert report.witness == ("k=1: value-1 set is not the predicted "
                              "checkerboard diamond")


def test_backward_growth_negative_control():
    # the check of each step follows that step of the walk: the rule
    # drifts after the walk's first step, before the check of C_1
    report = verify.suite_backward_growth(3, step_fn=drifting_c1(1))
    assert not report.passed
    assert report.witness == "F(X C_1) != X C_0"


@pytest.mark.parametrize("rule", [Rule.C1, Rule.C2])
def test_growth_witness_five_term_t(rule):
    # the 4-seeds check comes first, so a fifth term stops at n = 2^0
    T = transition_poly(rule) + BinaryGrid([(0, 0)])
    assert verify._growth_witness(rule, T, 8, first_order_step) == \
        "n=2^0: outer copies are not 4 seeds"


@pytest.mark.parametrize("rule, other", [(Rule.C1, Rule.C2),
                                         (Rule.C2, Rule.C1)])
def test_growth_witness_wrong_four_term_t(rule, other):
    assert verify._growth_witness(rule, transition_poly(other), 8,
                                  first_order_step) == \
        "n=2^0+0: decomposition failed"


def test_growth_witness_overlap():
    # a linear rule anchored at its corner: the outer copy T^2 C_0 and the
    # central X C_1 both hold the origin, though the sum is right for any T
    T = BinaryGrid([(0, 0), (0, 2), (2, 0), (2, 2)])
    assert verify._growth_witness(Rule.C1, T, 8, lambda rule, g: T * g) == \
        "n=2^1+0: decomposition supports overlap"


def test_backward_growth_runs_no_ladder(monkeypatch):
    def ladder(*args):
        raise AssertionError("a doubling ladder ran")

    monkeypatch.setattr(verify, "state_poly_at", ladder)
    monkeypatch.setattr(gf2poly, "fib_poly_eval", ladder)
    monkeypatch.setattr(gf2poly, "_fib_pair", ladder)
    assert not hasattr(verify, "fib_poly_eval")
    assert verify.suite_backward_growth(4).passed
    with pytest.raises(AssertionError, match="ladder"):
        verify.suite_polynomial(2)


@pytest.mark.parametrize("rule", [Rule.C1, Rule.C2])
def test_growth_walks_match_the_ladder_identity(rule):
    T, states = transition_poly(rule), list(trajectory(rule, 32))
    for k in range(5):
        d = 1 << k
        for j in range(d):
            outer = pair_composition(rule, k, j)
            assert outer is not None
            cj, back, s = states[j], states[d - 1 - j], states[d + j]
            assert verify._copies(T, d, cj.current) == outer.first
            assert verify._copies(T, d, cj.previous) == outer.second
            assert outer.first + back.previous == s.current
            assert outer.second + back.current == s.previous
    assert verify._growth_witness(rule, T, 32, first_order_step) is None


def test_witness_present_iff_failed():
    good = verify.suite_counts(4)
    bad = verify.suite_counts(8, step_fn=corrupt_c2_missing_neighbor)
    assert good.passed and good.witness is None
    assert not bad.passed and bad.witness


def test_diamond_cells_predicate():
    assert verify.diamond_cells(0) == {(0, 0)}
    assert verify.diamond_cells(1) == {(-1, -1), (-1, 1), (1, -1), (1, 1)}
    assert len(verify.diamond_cells(7)) == 64


def test_report_formats():
    reports = [verify.suite_diamond(1),
               verify.suite_counts(4, step_fn=corrupt_c2_missing_neighbor)]
    text = verify.report_text(reports)
    assert "diamond" in text and "PASS" in text and "FAIL" in text
    parsed = json.loads(verify.report_json(reports))
    assert parsed[0]["passed"] is True
    assert parsed[1]["passed"] is False
    assert parsed[1]["witness"]


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_direct_calls_check_their_range(name):
    fn, default = verify.SUITES[name]
    assert inspect.signature(fn).parameters["limit"].default == default
    least, top = verify._LEAST_RANGE[name], verify._GREATEST_RANGE[name]
    for limit, message in ((least - 1, "gives an empty range"),
                           (top + 1, "above its ceiling")):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            fn(limit)
        assert time.perf_counter() - t0 < 1.0


def test_run_all_checks_ranges_before_running(monkeypatch):
    ran = []
    for name, (_, default) in verify.SUITES.items():
        monkeypatch.setitem(verify.SUITES, name,
                            (lambda k, name=name: ran.append(name), default))
    with pytest.raises(ValueError, match="backward_growth"):
        verify.run_all(0)
    assert ran == []
    verify.run_suite("counts", 0)
    assert ran == ["counts"]
