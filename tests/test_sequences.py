import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import revca
from revca import sequences as seq
from revca.gf2poly import fib_addition_split, fib_poly_eval, transition_poly
from revca.rules import Rule, first_order_step, trajectory_counts
from revca.sequences import (IndexOutOfRangeError, RelationViolationError,
                             SeqId, binary_weight, build_table, linear_count,
                             seq_value, seq_value_alt)
from revca.grid import BinaryGrid

TABLE_R = [1, 5, 9, 21, 25, 29, 41, 85, 89, 61, 65, 109, 121, 125, 169, 341]
TABLE_R1 = [1, 4, 5, 16, 9, 20, 21, 64, 25, 36, 29, 80, 41, 84, 85, 256]
TABLE_R2 = [0] + TABLE_R1[:-1]


def test_binary_weight():
    assert binary_weight(0) == 0
    assert binary_weight(3) == 2
    assert binary_weight(7) == 3
    with pytest.raises(ValueError):
        binary_weight(-1)


def test_linear_count_examples():
    assert linear_count("one", 4) == 2
    assert linear_count("one", 3) == 4
    assert linear_count("two", 0) == 1
    assert linear_count("two", 7) == 64
    # derived: five first-order C2 steps from the seed
    g = BinaryGrid([(0, 0)])
    for _ in range(5):
        g = first_order_step(Rule.C2, g)
    assert len(g) == linear_count("two", 5) == 16
    with pytest.raises(ValueError):
        linear_count("three", 1)


def test_seq_value_examples():
    assert seq_value(SeqId.R, 9) == 61
    assert seq_value(SeqId.R1, -1) == 0
    assert seq_value(SeqId.R2, 12) == 80
    assert seq_value(SeqId.R, 16) == 345  # 4*R(0) + R(15) = 4 + 341
    c = trajectory_counts(Rule.C1, 16)[16]
    assert c.total == 345


def test_seq_value_domain_errors():
    with pytest.raises(IndexOutOfRangeError):
        seq_value(SeqId.R, -1)
    with pytest.raises(IndexOutOfRangeError):
        seq_value(SeqId.R2, -1)
    with pytest.raises(IndexOutOfRangeError):
        seq_value(SeqId.R1, -2)


def test_one_index_out_of_range_error():
    # the class the package exports catches range errors of both modules
    with pytest.raises(revca.IndexOutOfRangeError):
        seq_value(SeqId.R, -1)
    with pytest.raises(revca.IndexOutOfRangeError):
        fib_addition_split(2, 4, transition_poly(Rule.C1))


def test_seq_value_alt_examples():
    assert seq_value_alt(SeqId.R2, 8) == 64
    assert seq_value_alt(SeqId.R2, 7) == 21
    assert seq_value_alt(SeqId.R1, 2) == 5
    with pytest.raises(ValueError):
        seq_value_alt(SeqId.R, 3)


def test_alt_agrees_with_splitting():
    for n in range(4097):
        assert seq_value_alt(SeqId.R1, n) == seq_value(SeqId.R1, n)
        assert seq_value_alt(SeqId.R2, n) == seq_value(SeqId.R2, n)


def test_cross_relations():
    for n in range(2049):
        r = seq_value(SeqId.R, n)
        assert r == seq_value(SeqId.R1, 2 * n)
        assert r == seq_value(SeqId.R2, 2 * n + 1)
    for n in range(-1, 4097):
        assert seq_value(SeqId.R2, n + 1) == seq_value(SeqId.R1, n)
    for n in range(4097):
        assert seq_value(SeqId.R, n) == \
            seq_value(SeqId.R2, n) + seq_value(SeqId.R2, n + 1)


def test_simulation_oracle():
    for rule in Rule:
        recs = trajectory_counts(rule, 128)
        for n, rec in enumerate(recs):
            assert rec.r1 == seq_value(SeqId.R1, n)
            assert rec.r2 == seq_value(SeqId.R2, n)
            assert rec.total == seq_value(SeqId.R, n)


def test_power_of_two_landmarks():
    for k in range(9):
        n = (1 << k) - 1
        assert seq_value(SeqId.R1, n) == 4 ** k
        assert seq_value(SeqId.R, n) == (4 ** (k + 1) - 1) // 3
    # |f_{2^k - 1}(T_C1)| is the same landmark, cross-checked structurally
    T = transition_poly(Rule.C1)
    for k in range(6):
        assert len(fib_poly_eval(T, (1 << k) - 1)) == \
            seq_value(SeqId.R2, (1 << k) - 1)


def test_huge_index_fast_path():
    n = (1 << 60) - 1
    assert seq_value(SeqId.R1, n) == 4 ** 60
    assert seq_value(SeqId.R, n) == (4 ** 61 - 1) // 3


def test_build_table():
    tab = build_table(15)
    assert [r for _, r, _, _ in tab.rows] == TABLE_R
    assert [r1 for _, _, r1, _ in tab.rows] == TABLE_R1
    assert [r2 for _, _, _, r2 in tab.rows] == TABLE_R2
    assert build_table(0).rows == [(0, 1, 1, 0)]
    assert seq_value(SeqId.R, 21) == 4 * 29 + 65 == 181
    with pytest.raises(ValueError):
        build_table(-1)


def test_table_exports():
    tab = build_table(2)
    assert tab.to_csv() == "n,R,R1,R2\n0,1,1,0\n1,5,4,1\n2,9,5,4\n"
    obj = tab.to_json_obj()
    assert json.loads(json.dumps(obj)) == [
        {"n": 0, "R": 1, "R1": 1, "R2": 0},
        {"n": 1, "R": 5, "R1": 4, "R2": 1},
        {"n": 2, "R": 9, "R1": 5, "R2": 4},
    ]
    # the named columns after n, in the order given
    assert tab.to_csv(["R2", "R"]) == "n,R2,R\n0,0,1\n1,1,5\n2,4,9\n"
    assert tab.to_json_obj(["R1"]) == [{"n": 0, "R1": 1}, {"n": 1, "R1": 4},
                                       {"n": 2, "R1": 5}]


def test_relation_violation_is_unreachable_but_raisable():
    assert issubclass(RelationViolationError, AssertionError)


@pytest.mark.parametrize("index, message", [
    (6, "R2(6) != R1(5)"),            # walk 6 disagrees with walk 5
    (15, "R(7) != R1(14) = R2(15)"),  # walk 15 checks row 7 only
])
def test_relation_checks_negative_control(monkeypatch, index, message):
    good = seq._r2_pair

    def wrong_at_index(n):
        a, b = good(n)
        return (a + 1, b) if n == index else (a, b)

    monkeypatch.setattr(seq, "_r2_pair", wrong_at_index)
    with pytest.raises(RelationViolationError) as err:
        build_table(8)
    assert str(err.value) == message


@pytest.mark.parametrize("n_max", [0, 1, 15, 200])
def test_build_table_walks_the_ladder_once_per_row(monkeypatch, n_max):
    # walks 0..n_max+1 for the rows, and walk 2n+1 to check row n
    calls, good = [], seq._r2_pair
    monkeypatch.setattr(seq, "_r2_pair", lambda n: calls.append(n) or good(n))
    build_table(n_max)
    assert len(calls) <= 2 * n_max + 3


HUGE = [2 ** 40 + 12345, 2 ** 60 + 987654321, 2 ** 200 + 7]


def _ladder_matches_split(n):
    for w in (SeqId.R1, SeqId.R2):
        assert seq_value(w, n) == seq_value_alt(w, n)
    assert seq_value(SeqId.R, n) == \
        seq_value_alt(SeqId.R2, n) + seq_value_alt(SeqId.R2, n + 1)


@given(st.integers(min_value=0, max_value=2 ** 200))
def test_ladder_matches_split_recursion(n):
    _ladder_matches_split(n)


@pytest.mark.parametrize("n", HUGE)
def test_ladder_matches_split_at_huge_indices(n):
    _ladder_matches_split(n)
    assert seq_value(SeqId.R, n) == seq_value(SeqId.R1, 2 * n) \
        == seq_value(SeqId.R2, 2 * n + 1)


def test_module_holds_no_mutable_state():
    state = {name: type(v).__name__ for name, v in vars(seq).items()
             if isinstance(v, (dict, list, set))
             and not name.startswith("__")}
    assert state == {}
