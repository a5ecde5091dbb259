import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revca import rules
from revca.grid import (EMPTY, BinaryGrid, SecondOrderState, _popcount,
                        count_values, diagonal_extract, shift, single_seed,
                        swap_x, xor)
from revca.rules import (Rule, _walk, evolve, first_order_step, parse_rule,
                         second_order_inverse, second_order_step, trajectory,
                         trajectory_counts)

from oracle import dense_step

# population table for n = 0..15 from the seed
TABLE_R = [1, 5, 9, 21, 25, 29, 41, 85, 89, 61, 65, 109, 121, 125, 169, 341]
TABLE_R1 = [1, 4, 5, 16, 9, 20, 21, 64, 25, 36, 29, 80, 41, 84, 85, 256]
TABLE_R2 = [0] + TABLE_R1[:-1]

grids = st.frozensets(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=30
).map(BinaryGrid)

CROSS = BinaryGrid([(-1, 0), (1, 0), (0, -1), (0, 1)])
DIAG = BinaryGrid([(-1, -1), (-1, 1), (1, -1), (1, 1)])


def test_first_order_seed_steps():
    seed = BinaryGrid([(0, 0)])
    assert first_order_step(Rule.C2, seed) == CROSS
    assert first_order_step(Rule.C1, seed) == DIAG
    assert first_order_step(Rule.C3, seed) == CROSS
    assert first_order_step(Rule.C3p, seed) == CROSS


def test_first_order_two_cell_oracle():
    # hand-enumerated candidates for C2 on {(-1,0),(1,0)}: (0,0) has two
    # occupied orthogonal neighbors and stays off
    g = BinaryGrid([(-1, 0), (1, 0)])
    want = BinaryGrid([(-2, 0), (2, 0), (-1, -1), (-1, 1), (1, -1), (1, 1)])
    assert first_order_step(Rule.C2, g) == want


def test_second_order_step_examples():
    s1 = second_order_step(Rule.C1, single_seed())
    assert s1.current == DIAG and s1.previous == BinaryGrid([(0, 0)])
    assert count_values(s1, 1) == (1, 4, 1, 0, 5)
    s2 = second_order_step(Rule.C2, single_seed())
    assert s2.current == CROSS
    quiescent = SecondOrderState(BinaryGrid(), BinaryGrid())
    assert second_order_step(Rule.C2, quiescent) == quiescent


def test_inverse_round_trip():
    for rule in Rule:
        s = second_order_step(rule, single_seed())
        assert second_order_inverse(rule, s) == single_seed()


def test_inverse_of_seed_has_no_value1():
    # the step before the seed exists by reversibility; its value-1 count is 0
    s = second_order_inverse(Rule.C1, single_seed())
    assert count_values(s, -1).r1 == 0


def test_conjugacy_on_trajectory_state():
    s = evolve(Rule.C1, single_seed(), 5)
    assert swap_x(second_order_step(Rule.C1, swap_x(s))) == \
        second_order_inverse(Rule.C1, s)


def test_evolve():
    assert evolve(Rule.C1, single_seed(), 0) == single_seed()
    c = count_values(evolve(Rule.C1, single_seed(), 7), 7)
    assert (c.r1, c.r2, c.r3, c.total) == (64, 21, 0, 85)
    s9 = evolve(Rule.C1, single_seed(), 9)
    assert evolve(Rule.C1, s9, -9) == single_seed()


def test_trajectory_walks_both_ways():
    fwd = list(trajectory(Rule.C2, 5))
    assert len(fwd) == 6 and fwd[0] == single_seed()
    assert [count_values(s, n).total for n, s in enumerate(fwd)] == TABLE_R[:6]
    assert list(trajectory(Rule.C2, -5, fwd[-1])) == fwd[::-1]
    assert list(trajectory(Rule.C2, 0, fwd[3])) == [fwd[3]]


# columns around the word edges of the bit-packed planes (j = 64 w + bit),
# negative ones included, so states span more than one 64-bit word
wide_cols = st.one_of(st.integers(-140, 140),
                      st.sampled_from([-129, -128, -65, -64, -1, 63, 64, 127,
                                       128]))
wide_grids = st.frozensets(st.tuples(st.integers(-5, 5), wide_cols),
                           max_size=20).map(BinaryGrid)
states = st.builds(SecondOrderState, wide_grids, wide_grids)


@settings(max_examples=200, deadline=None)
@given(st.one_of(grids, wide_grids))  # dense and word-crossing grids
@example(BinaryGrid())
@example(BinaryGrid([(0, -1), (0, 1), (-1, 0)]))  # three neighbors: W, E, N
@example(BinaryGrid([(0, 0), (1, 61)]))  # the grown box fills one word
@example(BinaryGrid([(0, 0), (1, 62)]))  # and one bit more
@example(BinaryGrid([(-3, -64), (2, -3)]))
def test_first_order_step_matches_dense_oracle(g):
    for rule in Rule:
        assert first_order_step(rule, g) == dense_step(rule, g)


def lift_steps(rule, n, s, step_fn=dense_step):
    """The per-grid reference: iterated second_order_step/inverse, by
    default with the dense oracle as the rule."""
    step = second_order_step if n >= 0 else second_order_inverse
    out = [s]
    for _ in range(abs(n)):
        out.append(step(rule, out[-1], step_fn))
    return out


@settings(max_examples=40, deadline=None)
@given(states, st.integers(-70, 70))
def test_walk_matches_lift_steps(s, n):
    for rule in Rule:
        want = lift_steps(rule, n, s)
        assert list(trajectory(rule, n, s)) == want
        assert evolve(rule, s, n) == want[-1]


@pytest.mark.parametrize("rule", list(Rule))
def test_walk_from_seed_matches_lift_steps(rule):
    # the box crosses word edges growing forward and shrinking backward
    want = lift_steps(rule, 70, single_seed())
    assert list(trajectory(rule, 70)) == want
    assert list(trajectory(rule, -70, want[-1])) == lift_steps(rule, -70,
                                                               want[-1])


# a state whose cells straddle the 64-bit word edges of the planes
WIDE = SecondOrderState(
    BinaryGrid([(-3, -129), (-2, -64), (0, -1), (1, 63), (2, 64), (4, 128)]),
    BinaryGrid([(-1, -65), (0, 0), (3, 127)]))


@pytest.mark.parametrize("rule", list(Rule))
def test_walks_across_layouts_match_lift_steps(rule, monkeypatch):
    # walks of n around the planes' room end just before, at and just after
    # their first new layout, and one crosses three.  The starts: the seed;
    # (g, f(g)), whose current component empties at step 1; one whose
    # current component is empty at step _ROOM, when the planes are laid
    # out anew; and a state across word edges.  Each layout binds the
    # kernel once per plane role, and each step runs one bound call
    layouts, lay_out = [], rules._Planes._lay_out
    runs, bind = [], rules._rule_words

    def counted(planes, parts, reach=0):
        layouts.append(parts)
        lay_out(planes, parts, reach)

    def counted_bind(*args):
        call, k = bind(*args), len(runs)
        runs.append(0)

        def run():
            runs[k] += 1
            call()
        return run

    monkeypatch.setattr(rules._Planes, "_lay_out", counted)
    monkeypatch.setattr(rules, "_rule_words", counted_bind)
    room = rules._ROOM
    g = evolve(rule, single_seed(), 3).current
    starts = [single_seed(), SecondOrderState(g, first_order_step(rule, g)),
              evolve(rule, SecondOrderState(EMPTY, g), -room), WIDE]
    for n in (room - 1, room, room + 1, 3 * room + 1):
        for s in starts:
            for m in (n, -n):
                want = lift_steps(rule, m, s)
                assert evolve(rule, s, m) == want[-1]
                layouts.clear()
                runs.clear()
                assert list(trajectory(rule, m, s)) == want
                assert len(runs) <= 2 * len(layouts)
                assert sum(runs) <= n
                # a layout lasts _ROOM steps, and no step skips the kernel
                assert len(layouts) == 1 + (n - 1) // room
                assert len(runs) == 2 * len(layouts)
                assert sum(runs) == n
                if s is starts[0] and m > 0:  # the seed grows every step
                    assert (len(layouts) > 1) == (n > room)
                    assert len(runs) == 2 or n > room
                    assert sum(runs) == n  # no step skips the kernel
                    # a call runs for 3 steps or more, but on a short last
                    # layout after the first
                    assert min(runs[:-2] or runs) >= 3


@pytest.mark.parametrize("n", [-37, 0, 1, 45])
def test_walk_calls_step_fn_once_per_step(n):
    calls = []

    def counted(rule, g):
        calls.append(g)
        return first_order_step(rule, g)

    s = evolve(Rule.C3, single_seed(), 6)
    want = lift_steps(Rule.C3, n, s)
    assert list(trajectory(Rule.C3, n, s, counted)) == want
    assert len(calls) == abs(n)
    calls.clear()
    assert evolve(Rule.C3, s, n, counted) == want[-1]
    assert len(calls) == abs(n)


@pytest.mark.parametrize("rule", list(Rule))
@pytest.mark.parametrize("n", [-40, 40])
def test_walk_grows_planes_for_a_drifting_step_fn(rule, n):
    # each step's result moves 3 columns, so it leaves the planes sized
    # for a rule that grows by one cell per step
    def drifting(r, g):
        return shift(first_order_step(r, g), 0, 3)

    s = SecondOrderState(BinaryGrid([(0, 0), (1, 62)]), BinaryGrid([(0, 63)]))
    want = lift_steps(rule, n, s, drifting)
    assert want[-1].current.bounds()[3] > 2 * abs(n) + 64
    assert list(trajectory(rule, n, s, drifting)) == want
    assert evolve(rule, s, n, drifting) == want[-1]


@settings(max_examples=40, deadline=None)
@given(states, st.integers(-70, 70))
@example(SecondOrderState(EMPTY, EMPTY), 3)
@example(SecondOrderState(EMPTY, BinaryGrid([(0, 63), (2, 64)])), -5)
@example(SecondOrderState(BinaryGrid([(0, -65)]), BinaryGrid([(0, -65)])), 9)
def test_tally_matches_count_values(s, n):
    # forward and backward walks; the boxes cross word edges as they grow.
    # A backward walk is the forward walk of swap_x(s), swapped back, so
    # its tallies are those of the walk's planes with r1 and r2 exchanged
    x = swap_x if n < 0 else (lambda t: t)
    for rule in Rule:
        walk = _walk(rule, abs(n), x(s), first_order_step)
        for k, (planes, t) in enumerate(zip(walk, trajectory(rule, n, s))):
            assert planes.tally(k) == count_values(planes.state(), k)
            assert planes.tally(k) == count_values(x(t), k)


@pytest.mark.parametrize("n", [-6, 6])
def test_tally_of_substitute_step_fn_planes(n):
    def displaced(rule, g):
        return shift(first_order_step(rule, g), 0, 1)

    # a backward walk is the forward walk of swap_x(s), swapped back
    x = swap_x if n < 0 else (lambda t: t)
    s = SecondOrderState(BinaryGrid([(0, 0), (1, 63)]), BinaryGrid([(0, 0)]))
    walk = _walk(Rule.C2, abs(n), x(s), displaced)
    recs = [p.tally(k) for k, p in enumerate(walk)]
    want = lift_steps(Rule.C2, n, s, displaced)
    assert recs == [count_values(x(w), k) for k, w in enumerate(want)]


@pytest.mark.parametrize("step_fn", [first_order_step, dense_step])
def test_walks_step_back_without_the_inverse(monkeypatch, step_fn):
    # F^-1 = X F X: backward walks are forward walks of the swapped state,
    # on the rule's own planes and with a substitute rule alike
    s = evolve(Rule.C1, single_seed(), 9)
    want = {rule: lift_steps(rule, -12, s) for rule in Rule}

    def inverse(*args):
        raise AssertionError("second_order_inverse ran")

    monkeypatch.setattr(rules, "second_order_inverse", inverse)
    for rule in Rule:
        assert list(trajectory(rule, -12, s, step_fn)) == want[rule]
        assert evolve(rule, s, -12, step_fn) == want[rule][-1]


def test_walk_refuses_negative_steps():
    with pytest.raises(ValueError, match="nonnegative"):
        next(_walk(Rule.C1, -1, single_seed(), first_order_step))
    with pytest.raises(ValueError, match="nonnegative"):
        trajectory_counts(Rule.C1, -1)


@pytest.mark.parametrize("step_fn", [first_order_step, dense_step])
def test_walks_are_refused_by_one_guard(step_fn):
    # the start's box grown by the walk's reach, for a substitute rule too
    with pytest.raises(ValueError, match=r"^a walk plane of 16385 x 16385 "
                       r"cells spans more than 268435456 cells$"):
        next(_walk(Rule.C2, rules.MAX_SEED_STEPS + 1, single_seed(), step_fn))


def test_a_walk_start_of_exactly_the_limit_is_laid_out():
    # reach 1 grows the 16382 x 16382 box to 16384^2 = 2^28 cells, which
    # is laid out (two planes of ~34 MiB); one more column is refused
    start = SecondOrderState(BinaryGrid([(0, 0), (16381, 16381)]), EMPTY)
    assert next(_walk(Rule.C2, 0, start, first_order_step)).state() == start
    wider = SecondOrderState(BinaryGrid([(0, 0), (16381, 16382)]), EMPTY)
    with pytest.raises(ValueError, match=r"^a walk plane of 16384 x 16385 "
                       r"cells spans more than 268435456 cells$"):
        next(_walk(Rule.C2, 0, wider, first_order_step))


@pytest.mark.parametrize("n, step_fn", [(1, first_order_step),
                                        (16, first_order_step),
                                        (40, first_order_step),
                                        (16, dense_step)])
def test_every_layout_has_the_same_room(monkeypatch, n, step_fn):
    # each layout's planes, against the union of the grids it starts from
    room, lay_out, layouts = rules._ROOM + 1, rules._Planes._lay_out, []

    def spy(planes, grids, reach=0):
        lay_out(planes, grids, reach)
        layouts.append((grids, planes.origin, planes.planes[0].shape))

    monkeypatch.setattr(rules._Planes, "_lay_out", spy)
    for _ in _walk(Rule.C3p, n, WIDE, step_fn):
        pass
    assert len(layouts) == (n + 1 if step_fn is dense_step
                            else 1 + (n - 1) // rules._ROOM)
    for grids, (r0, c0), (rows, words) in layouts:
        i0, i1, j0, j1 = zip(*[g.bounds() for g in grids if g])
        assert (min(i0) - r0, r0 + rows - 1 - max(i1)) == (room, room)
        assert room <= min(j0) - c0 < room + 64
        assert c0 + 64 * words - 1 - max(j1) >= room


@pytest.mark.parametrize("step_fn", [first_order_step, dense_step])
def test_hand_outs_share_no_memory_with_the_planes(step_fn):
    # a hand-out is a copy of a plane's words, before and after each new
    # layout, and the start's grids are copied into the planes
    s = SecondOrderState(WIDE.current, EMPTY)
    for planes in _walk(Rule.C3p, 3 * rules._ROOM + 1, s, step_fn):
        for g in (planes.grid(0), planes.grid(1)):
            assert not any(np.shares_memory(g._w, p) for p in planes.planes)


def test_popcount_fallback_matches_bitwise_count(monkeypatch):
    rng = np.random.default_rng(7)
    words = rng.integers(0, 2**64, size=(9, 5), dtype=np.uint64)
    words[0] = 0
    words[1] = np.uint64(2**64 - 1)
    view = words[:, 1:4]  # not contiguous, as a box of a plane is
    want = sum(bin(w).count("1") for w in view.ravel().tolist())
    if hasattr(np, "bitwise_count"):
        assert int(np.bitwise_count(view).sum()) == want
    assert _popcount(view) == want
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert not hasattr(np, "bitwise_count")
    assert _popcount(view) == want
    assert _popcount(words[:0]) == 0


def test_trajectory_counts_table():
    recs = trajectory_counts(Rule.C1, 15)
    assert [r.total for r in recs] == TABLE_R
    assert [r.r1 for r in recs] == TABLE_R1
    assert [r.r2 for r in recs] == TABLE_R2
    assert [r.n for r in recs] == list(range(16))
    for rule in Rule:
        assert all(r.r3 == 0 for r in trajectory_counts(rule, 15))


@given(grids, grids)
def test_linearity_of_c1_c2(a, b):
    for rule in (Rule.C1, Rule.C2):
        assert first_order_step(rule, xor(a, b)) == \
            xor(first_order_step(rule, a), first_order_step(rule, b))


def test_nonlinearity_witness():
    # the origin sees 3 orthogonal neighbors in a xor b but fewer in each
    # part, so additivity fails for the threshold rules
    a, b = BinaryGrid([(-1, 0), (1, 0)]), BinaryGrid([(0, 1)])
    for rule in (Rule.C3, Rule.C3p):
        assert first_order_step(rule, xor(a, b)) != \
            xor(first_order_step(rule, a), first_order_step(rule, b))


@given(grids, st.integers(-4, 4), st.integers(-4, 4))
def test_shift_equivariance(g, dx, dy):
    for rule in Rule:
        assert first_order_step(rule, shift(g, dx, dy)) == \
            shift(first_order_step(rule, g), dx, dy)


def test_reversibility_along_trajectories():
    for rule in Rule:
        s = single_seed()
        for _ in range(64):
            t = second_order_step(rule, s)
            assert second_order_inverse(rule, t) == s
            s = t


def test_seed_trajectory_equivalence():
    s2, s3, s3p = single_seed(), single_seed(), single_seed()
    for _ in range(48):
        s2 = second_order_step(Rule.C2, s2)
        s3 = second_order_step(Rule.C3, s3)
        s3p = second_order_step(Rule.C3p, s3p)
        assert s2 == s3 == s3p


def test_confinement():
    for rule in Rule:
        s = single_seed()
        for n in range(1, 40):
            s = second_order_step(rule, s)
            for g in (s.current, s.previous):
                if g:
                    i0, i1, j0, j1 = g.bounds()
                    assert -n <= i0 and i1 <= n and -n <= j0 and j1 <= n


def test_r1_restricts_to_r2_on_diagonal_sublattice():
    s1, s2 = single_seed(), single_seed()
    for _ in range(32):
        s1 = second_order_step(Rule.C1, s1)
        s2 = second_order_step(Rule.C2, s2)
        assert diagonal_extract(s1.current, "even") == s2.current
        assert diagonal_extract(s1.previous, "even") == s2.previous


def test_r2_at_n_plus_1_equals_r1_at_n():
    recs = trajectory_counts(Rule.C3p, 20)
    for a, b in zip(recs, recs[1:]):
        assert b.r2 == a.r1


def test_parse_rule():
    assert parse_rule("R1") is Rule.C1
    assert parse_rule("C3p") is Rule.C3p
    assert parse_rule("R3p") is Rule.C3p
    with pytest.raises(ValueError):
        parse_rule("R4")
