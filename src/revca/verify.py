"""Verification suites: each one machine-checks a proved statement.

A suite runs a deterministic finite-prefix check of one theorem about the
seed trajectories (population recursions, rule equivalence, replication,
reversibility, polynomial state formula, coloring, sublattice embedding,
diamond landmarks, backward growth) and returns a :class:`SuiteReport`
with an explicit witness on failure.

Each suite is declared once, by ``@_suite(var, least, default, greatest)``
on a check that returns a witness or None.  The public ``suite_<name>(
limit=default, step_fn)`` raises ValueError before any work for a limit
outside ``least..greatest``, on every call path, and labels its report
``var=least..limit``.

Every state a suite checks comes from the one stepping loop of
:mod:`revca.rules`, whose bit-packed planes ``counts`` and ``coloring``
read.  ``polynomial`` and ``backward_growth`` share one growth check that
reads three walks in lockstep, and ``reversibility`` and
``backward_growth`` one undo check that reads one walk; no suite keeps
a whole trajectory.  Every suite takes a ``step_fn`` so tests can
inject a deliberately corrupted local rule and confirm the suite catches
it; production callers never pass it.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from itertools import islice, pairwise
from dataclasses import asdict, dataclass

from . import sequences as seq
from .gf2poly import state_poly_at, transition_poly
from .grid import (BinaryGrid, SecondOrderState, diagonal_extract,
                   single_seed, swap_x, xor)
from .rules import (MAX_SEED_STEPS, Rule, StepFn, _walk, evolve,
                    first_order_step, second_order_step, trajectory,
                    trajectory_counts)
from .sequences import SeqId


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    range: str
    passed: bool
    witness: str | None = None


#: suite name -> (function, default range argument)
SUITES: dict[str, tuple[Callable[..., SuiteReport], int]] = {}
#: smallest range argument that checks anything
_LEAST_RANGE: dict[str, int] = {}
#: largest range argument of each suite, measured in a fresh process to run
#: within 60 s and 1 GiB on a 2-core machine; no suite stores a trajectory,
#: so time sets each one (a walk to n takes time as n^3), except diamond's,
#: which is the walk's own bound: the last 2^k - 1 <= MAX_SEED_STEPS
_GREATEST_RANGE: dict[str, int] = {}


def _suite(var: str, least: int, default: int, greatest: int):
    """Register ``check(limit, step_fn) -> witness | None`` as a suite."""
    def register(check: Callable[[int, StepFn], str | None]):
        name = check.__name__.removeprefix("suite_")

        def suite(limit: int = default,
                  step_fn: StepFn = first_order_step) -> SuiteReport:
            limit = _checked_limit(name, limit)
            w = check(limit, step_fn)
            return SuiteReport(name, f"{var}={least}..{limit}", w is None, w)

        # no __wrapped__, so inspect.signature shows the default range
        suite.__name__ = suite.__qualname__ = check.__name__
        suite.__doc__ = check.__doc__
        SUITES[name] = (suite, default)
        _LEAST_RANGE[name] = least
        _GREATEST_RANGE[name] = greatest
        return suite
    return register


def _state_diff(a: SecondOrderState, b: SecondOrderState, limit: int = 8) -> str:
    dc = list(islice(xor(a.current, b.current), limit))
    dp = list(islice(xor(a.previous, b.previous), limit))
    return f"current diff {dc}, previous diff {dp}"


@_suite("n", 0, 512, 2600)
def suite_counts(n_max: int, step_fn: StepFn) -> str | None:
    """Simulated tallies of all four lifts match the closed-form recursions."""
    rows = seq.build_table(n_max).rows
    for rule in Rule:
        counts = trajectory_counts(rule, n_max, step_fn)
        for (n, r, r1, r2), rec in zip(rows, counts):
            c, want = rec[1:], (r1, r2, 0, r)  # (r1, r2, r3, total)
            if c != want:
                return f"rule={rule.value} n={n} counts={c} expected {want}"
    return None


@_suite("n", 0, 256, 2500)
def suite_equivalence(n_max: int, step_fn: StepFn) -> str | None:
    """R2, R3, R3' agree as full states from the seed.

    Also checks the lemma that makes them agree, stated through the rules
    on each R2 state c: f_C3(c) = f_C2(c) exactly when no cell has three
    occupied orthogonal neighbors, and f_C3'(c) = f_C3(c) exactly when
    every cell with one occupied orthogonal neighbor has all four diagonal
    neighbors empty.
    """
    runs = zip(*(trajectory(rule, n_max, step_fn=step_fn)
                 for rule in (Rule.C2, Rule.C3, Rule.C3p)))
    for n, (s2, s3, s3p) in enumerate(runs):
        if s3 != s2:
            return f"R3 != R2 at n={n}: {_state_diff(s3, s2)}"
        if s3p != s2:
            return f"R3' != R2 at n={n}: {_state_diff(s3p, s2)}"
        # f_C3' <= f_C3 <= f_C2 cell by cell: step C3 only to name a failure
        c2 = first_order_step(Rule.C2, s2.current)
        if first_order_step(Rule.C3p, s2.current) != c2:
            if first_order_step(Rule.C3, s2.current) != c2:
                return f"cell with 3 orthogonal neighbors at n={n}"
            return f"switching cell with diagonal neighbor at n={n}"
    return None


@_suite("k", 0, 6, 10)
def suite_replication(k_max: int, step_fn: StepFn) -> str | None:
    """First-order C1/C2 replicate any 2^k-boxed pattern into 4 disjoint copies.

    The patterns are the states f^m(seed) of the first-order seed
    trajectory; pattern m spans 2m + 1.  Each one that fits in a 2^k x 2^k
    square must, 2^k steps later, equal the xor of four copies, which must
    be disjoint, shifted by 2^k times the four terms of the rule's
    transition polynomial T (diagonal for C1, orthogonal for C2).  That
    state is step 2^k + m of the same trajectory, so one trajectory per
    rule, to step 2^k_max + (2^k_max - 1) // 2, derives every state once.
    """
    m_top = ((1 << k_max) - 1) // 2  # the last pattern that fits in 2^k_max
    for rule in (Rule.C1, Rule.C2):
        T, g = transition_poly(rule), BinaryGrid([(0, 0)])
        patterns = [g]
        for n in range(1, (1 << k_max) + m_top + 1):
            g = step_fn(rule, g)
            if n <= m_top:
                patterns.append(g)
            k = n.bit_length() - 1  # n = 2^k + m with 0 <= m < 2^k
            m = n - (1 << k)
            if 2 * m + 1 > 1 << k:  # pattern m does not fit in 2^k
                continue
            copies = _copies(T, 1 << k, patterns[m])
            if copies is None:
                return (f"rule={rule.value} k={k} pattern step {m}: "
                        f"copies overlap")
            if g != copies:
                return (f"rule={rule.value} k={k} pattern step {m}: "
                        f"2^k steps != four copies")
    return None


def _copies(T: BinaryGrid, d: int, g: BinaryGrid) -> BinaryGrid | None:
    """T^d g over GF(2) for d a power of two: g shifted by d times each
    term of T, xored together; None when two of the copies overlap."""
    combined = T.pow_2k(d.bit_length() - 1) * g  # overlaps cancel
    return combined if len(combined) == len(g) * len(T) else None


@_suite("n", 0, 256, 2150)
def suite_reversibility(n_max: int, step_fn: StepFn) -> str | None:
    """X F X undoes F along all four seed walks (see :func:`_undo_witness`)."""
    for rule in Rule:
        if w := _undo_witness(rule, n_max, step_fn):
            return f"rule={rule.value} {w}"
    return None


def _undo_witness(rule: Rule, n_max: int, step_fn: StepFn) -> str | None:
    """None if F(X C_i) = X C_{i-1}, 1 <= i <= n_max, on one walk that stores
    no state, and C_{n_max} walked back n_max steps is the seed; else a
    witness.  F^-1 is a bijection, so a walk back that errs at one step and
    at no later one misses the seed."""
    last = single_seed()
    walk = pairwise(trajectory(rule, n_max, step_fn=step_fn))
    for i, (before, last) in enumerate(walk, 1):
        if second_order_step(rule, swap_x(last), step_fn) != swap_x(before):
            return f"F(X C_{i}) != X C_{i - 1}"
    if evolve(rule, last, -n_max, step_fn) != single_seed():
        return f"C_{n_max} walked back {n_max} steps is not the seed"
    return None


@_suite("n", 0, 128, 2048)
def suite_polynomial(n_max: int, step_fn: StepFn) -> str | None:
    """State formula (f_{n+1}(T), f_n(T)) matches simulation; decompositions hold.

    Once every state up to n_max equals its ladder polynomials, the growth
    check reads C_n = T^{2^k} C_j + X C_{2^k-j-1}, n = 2^k + j, and the
    five-pattern split of f_n off walks, for both linear rules and both
    components, with disjoint supports (see :func:`_growth_witness`).
    """
    for rule in (Rule.C1, Rule.C2):
        for n, s in enumerate(trajectory(rule, n_max, step_fn=step_fn)):
            pp = state_poly_at(rule, n)
            if pp.first != s.current or pp.second != s.previous:
                return (f"rule={rule.value} n={n}: polynomial state "
                        f"differs from simulation")
    for rule in (Rule.C1, Rule.C2):
        if w := _growth_witness(rule, transition_poly(rule), n_max, step_fn):
            return f"rule={rule.value} {w}"
    return None


def _growth_witness(rule: Rule, T: BinaryGrid, n_max: int,
                    step_fn: StepFn) -> str | None:
    """Check C_{2^k+j} = T^{2^k} C_j + X C_{2^k-1-j} for 1 <= 2^k + j <= n_max.

    For each k three walks yield C_{2^k+j}, C_j and C_{2^k-1-j} in
    lockstep and store no state: the seed trajectory, a walk from the seed
    and one backward from C_{2^k-1}.  A walk's second component is the
    first of the state before, so first components check both; that of
    C_{2^k+j} is the five-pattern split f_m = T^{2^k} f_{m-2^k} +
    f_{2^{k+1}-m} at m = 2^k + j + 1: its four outer copies (``_copies``)
    and its central pattern must be disjoint and xor to it.  At j = 0 the
    outer copies of the seed must first be T^{2^k}'s 4 terms.  None if all
    hold.
    """
    main = trajectory(rule, n_max, step_fn=step_fn)
    last = next(main)  # C_{2^k-1}, here C_0
    for k in range(n_max.bit_length()):
        d = 1 << k
        steps = min(d, n_max - d + 1)  # j = 0..steps-1
        runs = zip(islice(main, steps),
                   trajectory(rule, steps - 1, step_fn=step_fn),
                   trajectory(rule, 1 - steps, last, step_fn))
        for j, (s, cj, back) in enumerate(runs):
            outer, mid = _copies(T, d, cj.current), back.previous
            if j == 0 and len(outer) != 4:
                return f"n=2^{k}: outer copies are not 4 seeds"
            if outer is None or len(outer + mid) != len(outer) + len(mid):
                return f"n=2^{k}+{j}: decomposition supports overlap"
            if outer + mid != s.current:
                return f"n=2^{k}+{j}: decomposition failed"
            last = s
    return None


@_suite("n", 0, 256, 3100)
def suite_coloring(n_max: int, step_fn: StepFn) -> str | None:
    """Checkerboard separation of value-1 and value-2 cells.

    R2: no value-3 cell; value-1 cells sit on parity n mod 2 of i+j,
    value-2 cells on the opposite parity, swapping every step.  R1: both
    components stay on the even diagonal sublattice, with value-1 cells at
    coordinates (n mod 2, n mod 2) mod 2 and value-2 on the complementary
    coset.  The checks read the walks' planes: no grid is handed out.
    """
    runs = zip(_walk(Rule.C1, n_max, single_seed(), step_fn),
               _walk(Rule.C2, n_max, single_seed(), step_fn))
    for n, (p1, p2) in enumerate(runs):
        for p, rule in ((p1, "R1"), (p2, "R2")):
            if p.tally(n).r3:
                return f"{rule} n={n}: value-3 cell present"
        # forward walks: plane 0 is the current component, plane 1 previous
        for p, rule, coset, lattice in (
                (p2, "R2", False, "checkerboard parity"),
                (p1, "R1", True, "sublattice coset")):
            if any(p.off_lattice(k, (n + k) & 1, coset) for k in (0, 1)):
                return f"{rule} n={n}: component off its {lattice}"
    return None


@_suite("n", 0, 256, 1500)
def suite_sublattice(n_max: int, step_fn: StepFn) -> str | None:
    """R2 is R1 restricted to the even diagonal sublattice, step by step."""
    runs = zip(trajectory(Rule.C1, n_max, step_fn=step_fn),
               trajectory(Rule.C2, n_max, step_fn=step_fn))
    for n, (s1, s2) in enumerate(runs):
        try:
            cur = diagonal_extract(s1.current, "even")
            prev = diagonal_extract(s1.previous, "even")
        except ValueError as e:
            return f"n={n}: {e}"
        if cur != s2.current or prev != s2.previous:
            return f"n={n}: extracted R1 state != R2 state"
    return None


def diamond_cells(n: int) -> frozenset[tuple[int, int]]:
    """Predicted value-1 set of R1 at n = 2^k - 1: the checkerboard square
    of cells with both coordinates congruent to n mod 2, |i|, |j| <= n."""
    pts = [u for u in range(-n, n + 1) if (u - n) % 2 == 0]
    return frozenset((u, v) for u in pts for v in pts)


@_suite("k", 0, 5, (MAX_SEED_STEPS + 1).bit_length() - 1)
def suite_diamond(k_max: int, step_fn: StepFn) -> str | None:
    """At n = 2^k - 1 the R1 value-1 cells form the 4^k checkerboard diamond."""
    walk = _walk(Rule.C1, (1 << k_max) - 1, single_seed(), step_fn)
    for target, planes in enumerate(walk):
        if target & (target + 1):  # not of the form 2^k - 1
            continue
        k, ones = target.bit_length(), planes.grid(0)
        if len(ones) != 4 ** k:
            return f"k={k}: |value-1| = {len(ones)} != 4^{k}"
        if seq.seq_value(SeqId.R1, target) != 4 ** k:
            return f"k={k}: R1(2^{k}-1) != 4^{k}"
        # 4^k cells in [-target, target]^2, all on the coset i = j = target
        # mod 2, which has 4^k cells there: the checkerboard diamond
        if (ones.bounds() != (-target, target, -target, target)
                or planes.off_lattice(0, target & 1, True)):
            return (f"k={k}: value-1 set is not the predicted "
                    f"checkerboard diamond")
    for k in range(9):
        target = (1 << k) - 1
        if seq.seq_value(SeqId.R, target) != (4 ** (k + 1) - 1) // 3:
            return f"k={k}: R(2^{k}-1) != (4^{k + 1}-1)/3"
    return None


@_suite("k", 1, 6, 10)
def suite_backward_growth(k_max: int, step_fn: StepFn) -> str | None:
    """Backward dynamics of the central region in the growth decomposition.

    For n = 2^k + j the decomposition C_n = T^{2^k} C_j + X C_{2^k-j-1}
    has a swapped earlier state in the center, shrinking by one index per
    step; the lift maps X C_i to X C_{i-1}; and at j = 2^k - 1 the next
    step's decomposition is a single central X C_{2^{k+1}-1} plus four
    seed cells at the corners.  The lift's step on X C_i and the walk back
    to the seed are checked up to n = 2^{k_max} (:func:`_undo_witness`),
    the decomposition, with disjoint supports in both components, and the
    4 seeds for every n up to 2^{k_max+1} (:func:`_growth_witness`).
    """
    return (_undo_witness(Rule.C1, 1 << k_max, step_fn) or _growth_witness(
        Rule.C1, transition_poly(Rule.C1), 2 << k_max, step_fn))


def _checked_limit(name: str, limit: int | None) -> int:
    """The suite's range argument; one outside its bounds raises."""
    limit = SUITES[name][1] if limit is None else limit
    if limit < _LEAST_RANGE[name]:
        raise ValueError(f"suite {name}: limit {limit} gives an empty range")
    if limit > (top := _GREATEST_RANGE[name]):
        raise ValueError(f"suite {name}: limit {limit} is above its ceiling {top}")
    return limit


def run_suite(name: str, limit: int | None = None) -> SuiteReport:
    """Run one suite; a ``limit`` that gives an empty range raises."""
    return SUITES[name][0](_checked_limit(name, limit))


def run_all(limit: int | None = None) -> list[SuiteReport]:
    """Run every suite in fixed order; ``limit`` overrides all ranges.

    Every range is checked before the first suite runs.
    """
    limits = [_checked_limit(name, limit) for name in SUITES]
    return [fn(lim) for (fn, _), lim in zip(SUITES.values(), limits)]


def report_text(reports: list[SuiteReport]) -> str:
    lines = [f"{r.suite:<16} {r.range:<12} {'PASS' if r.passed else 'FAIL'}"
             + (f"  witness: {r.witness}" if r.witness else "") for r in reports]
    return "\n".join(lines) + "\n"


def report_json(reports: list[SuiteReport]) -> str:
    return json.dumps([asdict(r) for r in reports], indent=2) + "\n"
