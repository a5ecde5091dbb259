"""Acceptance gate: one test per criterion, exact tolerances, printed verdicts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from revca.cli import _sequence_rows
from revca.gf2poly import (ONE, fib_poly_eval, fib_poly_naive,
                           transition_poly)
from revca.grid import BinaryGrid, single_seed, swap_x
from revca.rules import (Rule, evolve, first_order_step, second_order_inverse,
                         second_order_step, trajectory_counts)
from revca.sequences import SeqId, linear_count, seq_value
from revca import verify

from oracle import neighbor_sums

TABLE = {
    "R": [1, 5, 9, 21, 25, 29, 41, 85, 89, 61, 65, 109, 121, 125, 169, 341],
    "R1": [1, 4, 5, 16, 9, 20, 21, 64, 25, 36, 29, 80, 41, 84, 85, 256],
}
TABLE["R2"] = [0] + TABLE["R1"][:-1]


def _verdict(num, name):
    print(f"criterion {num:2d} ({name}): PASS")


def test_criterion_01_table_reproduction():
    t0 = time.perf_counter()
    recs = trajectory_counts(Rule.C1, 15)
    assert [r.total for r in recs] == TABLE["R"]
    assert [r.r1 for r in recs] == TABLE["R1"]
    assert [r.r2 for r in recs] == TABLE["R2"]
    assert all(r.r3 == 0 for r in recs)
    assert time.perf_counter() - t0 < 1.0
    _verdict(1, "table reproduction")


def test_criterion_02_recursion_simulation_agreement():
    t0 = time.perf_counter()
    for rule in Rule:
        for n, rec in enumerate(trajectory_counts(rule, 512)):
            assert rec.total == seq_value(SeqId.R, n)
            assert rec.r1 == seq_value(SeqId.R1, n)
            assert rec.r2 == seq_value(SeqId.R2, n)
    assert time.perf_counter() - t0 < 60.0
    _verdict(2, "recursion-simulation agreement, n <= 512, all four lifts")


def test_criterion_03_method_cross_agreement():
    rows = {m: _sequence_rows(m, 200)
            for m in ("recursive", "alt", "sim", "poly")}
    methods = list(rows)
    for a in methods:
        for b in methods:
            assert rows[a] == rows[b], (a, b)
    _verdict(3, "four-method cross-agreement, n <= 200")


def test_criterion_04_rule_equivalence_with_negative_control():
    assert verify.suite_equivalence(256).passed

    def corrupted(rule, g):
        if rule is Rule.C3 and g:
            orth, _, i0, j0 = neighbor_sums(g)
            return BinaryGrid.from_window((orth == 2).astype(np.uint8), i0, j0)
        return first_order_step(rule, g)

    assert not verify.suite_equivalence(4, step_fn=corrupted).passed
    _verdict(4, "R2/R3/R3' state equivalence + negative control")


def test_criterion_05_reversibility_and_conjugacy():
    for rule in Rule:
        traj = [single_seed()]
        for _ in range(64):
            traj.append(second_order_step(rule, traj[-1]))
        for n in range(65):
            assert evolve(rule, traj[n], -n) == single_seed()
            assert second_order_inverse(rule, traj[n]) == \
                swap_x(second_order_step(rule, swap_x(traj[n])))
    _verdict(5, "round trips to n = 64 and X F X = F^-1, all four lifts")


def test_criterion_06_replication():
    report = verify.suite_replication(6)
    assert report.passed, report.witness
    _verdict(6, "four-copy replication with disjointness, k <= 6")


def test_criterion_07_population_formulas():
    x = __import__("revca.gf2poly", fromlist=["LaurentPoly2"])
    xr = x.LaurentPoly2([(-1, 0), (1, 0)])
    p = ONE
    for k in range(257):
        assert len(p) == linear_count("one", k) == 2 ** k.bit_count()
        p = p * xr
    for rule in (Rule.C1, Rule.C2):
        g = BinaryGrid([(0, 0)])
        for k in range(257):
            assert len(g) == linear_count("two", k) == 4 ** k.bit_count()
            g = first_order_step(rule, g)
    _verdict(7, "2^l(k) and 4^l(k) populations, k <= 256")


def test_criterion_08_fibonacci_ladder():
    for rule in (Rule.C1, Rule.C2):
        T = transition_poly(rule)
        a, b = fib_poly_naive(T, 0), fib_poly_naive(T, 1)
        for k in range(129):
            assert fib_poly_eval(T, k) == a
            a, b = b, T * b + a
        tpow = ONE  # T^(2^k - 1)
        for k in range(11):
            assert fib_poly_eval(T, 1 << k) == tpow
            tpow = tpow.square() * T
    _verdict(8, "doubling ladder vs naive (k <= 128) and f_{2^k} = T^{2^k-1}")


def test_criterion_09_five_pattern_structure():
    T = transition_poly(Rule.C1)
    for k in range(7):
        d = 1 << k
        for j in range(1, d + 1):
            fj = fib_poly_eval(T, j)
            central = fib_poly_eval(T, d - j)
            # the four outer copies of f_j translated cell by cell
            parts = [frozenset((a + sx * d, b + sy * d) for a, b in fj.support)
                     for sx in (-1, 1) for sy in (-1, 1)] + [central.support]
            union = frozenset().union(*parts)
            assert sum(len(p) for p in parts) == len(union)
            assert union == fib_poly_eval(T, d + j).support
            assert len(union) == 4 * seq_value(SeqId.R2, j) + \
                seq_value(SeqId.R2, d - j)
    _verdict(9, "five-pattern decomposition, disjoint, 4 R2(j) + R2(2^k - j)")


def test_criterion_10_diamond_landmark():
    s = single_seed()
    n = 0
    for k in range(6):
        target = (1 << k) - 1
        while n < target:
            s = second_order_step(Rule.C1, s)
            n += 1
        assert len(s.current) == 4 ** k
        assert s.current.cells() == verify.diamond_cells(target)
    for k in range(9):
        target = (1 << k) - 1
        assert seq_value(SeqId.R1, target) == 4 ** k
        assert seq_value(SeqId.R, target) == (4 ** (k + 1) - 1) // 3
    _verdict(10, "diamond checkerboard at 2^k - 1 and fast-path landmarks")


def test_criterion_11_fast_path_scale():
    n = 2 ** 40 + 12345
    t0 = time.perf_counter()
    r = seq_value(SeqId.R, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.010, f"{elapsed * 1e3:.2f} ms"
    # self-consistency through the cross-relations
    assert r == seq_value(SeqId.R1, 2 * n) == seq_value(SeqId.R2, 2 * n + 1)
    assert r == seq_value(SeqId.R2, n) + seq_value(SeqId.R2, n + 1)
    assert seq_value(SeqId.R2, n + 1) == seq_value(SeqId.R1, n)
    _verdict(11, f"seq_value(R, 2^40 + 12345) in {elapsed * 1e3:.2f} ms")


def test_criterion_12_determinism():
    cmd = [sys.executable, "-m", "revca.cli", "verify", "--suite", "all"]
    runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
    for r in runs:
        assert r.returncode == 0, r.stdout.decode() + r.stderr.decode()
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == runs[1].stderr
    golden = Path(__file__).resolve().parents[1] / "bench" / "golden"
    assert runs[0].stdout == (golden / "verify_all.txt").read_bytes()
    _verdict(12, "verify --suite all is byte-identical across runs "
                 "and to its golden transcript")
