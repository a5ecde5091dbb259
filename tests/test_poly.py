from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from revca.gf2poly import (ONE, ZERO, IndexOutOfRangeError, LaurentPoly2,
                           NonlinearRuleError, fib_addition_split,
                           fib_poly_eval, fib_poly_naive, grid_to_poly,
                           lucas_poly_eval, poly_from_text, poly_to_grid,
                           poly_to_text, state_poly_at, transition_poly)
from revca.grid import (EMPTY, BinaryGrid, count_values, diagonal_embed,
                        single_seed)
from revca.rules import Rule, first_order_step
from revca.sequences import SeqId, seq_value_alt

X = LaurentPoly2([(1, 0)])
XR = LaurentPoly2([(-1, 0), (1, 0)])  # x^-1 + x

polys = st.frozensets(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=20
).map(LaurentPoly2)
# thin strips far from the origin, so the two factors of a product differ
# in window shape and origin
strips = st.builds(
    lambda cells, dx, dy: LaurentPoly2((i + dx, j + dy) for i, j in cells),
    st.frozensets(st.tuples(st.integers(0, 2), st.integers(0, 15)),
                  max_size=12),
    st.integers(-40, 40), st.integers(-40, 40))
# a few rows with columns around the 64-bit word edges of a grid's rows,
# so factors and products span several words
wide_cols = st.one_of(st.integers(-140, 140),
                      st.sampled_from([-129, -128, -65, -64, -1, 63, 64, 127,
                                       128]))
wide = st.frozensets(st.tuples(st.integers(-3, 3), wide_cols),
                     max_size=10).map(LaurentPoly2)


def sparse_product(p, q):
    """Independent oracle: convolution of the supports, kept mod 2."""
    acc = Counter((ax + bx, ay + by)
                  for ax, ay in p.support for bx, by in q.support)
    return frozenset(e for e, c in acc.items() if c & 1)


def test_add():
    p = LaurentPoly2([(0, 0), (1, 0)])
    q = LaurentPoly2([(1, 0), (2, 0)])
    assert p + p == ZERO
    assert p + ZERO == p
    assert p + q == LaurentPoly2([(0, 0), (2, 0)])


def test_mul():
    assert XR * XR == LaurentPoly2([(-2, 0), (2, 0)])
    T1 = transition_poly(Rule.C1)
    assert T1 * ONE == LaurentPoly2([(-1, -1), (1, -1), (-1, 1), (1, 1)])
    assert T1 * ZERO == ZERO


def test_square_examples():
    assert XR.square() == LaurentPoly2([(-2, 0), (2, 0)])
    assert ONE.square() == ONE


@given(polys)
def test_square_equals_self_product(p):
    assert p.square() == p * p


@given(polys, polys)
def test_freshmans_dream(p, q):
    assert (p + q).square() == p.square() + q.square()


# columns 100 + 30 of the product's corner lie one word above the factors'
# (e = 1): each shifted copy lands one word down, none of them at -1
@example(LaurentPoly2([(0, 100), (1, 40)]),
         LaurentPoly2([(0, 30), (2, 31), (1, 35)]), 0)
# T^8 has fewer terms than a dense 5x5 pattern but more words; a factor
# whose columns end at bit 63 of a word makes the product's rows one word
# wider, filled by the carries of the shifted copies
@example(transition_poly(Rule.C1).pow_2k(3),
         LaurentPoly2((i, j) for i in range(5) for j in range(5)), 0)
@example(LaurentPoly2([(0, 0), (1, 7), (0, 63), (2, 40), (1, 63)]),
         LaurentPoly2([(0, 0), (0, 1), (1, 5)]), 1)
@given(st.one_of(polys, strips, wide), st.one_of(polys, strips, wide),
       st.integers(0, 3))
def test_products_match_sparse_oracle(p, q, k):
    # == on grids also checks that each result window is tightly cropped
    assert p * q == q * p == LaurentPoly2(sparse_product(p, q))
    assert p.square() == LaurentPoly2(sparse_product(p, p))
    want = p
    for _ in range(k):
        want = LaurentPoly2(sparse_product(want, want))
    assert p.pow_2k(k) == want


def test_pow_2k():
    assert XR.pow_2k(3) == LaurentPoly2([(-8, 0), (8, 0)])
    T2 = transition_poly(Rule.C2)
    d = 1 << 4
    assert T2.pow_2k(4) == LaurentPoly2([(-d, 0), (d, 0), (0, -d), (0, d)])
    assert T2.pow_2k(0) == T2
    T1 = transition_poly(Rule.C1)
    assert T1.pow_2k(3) == LaurentPoly2(
        [(sx * 8, sy * 8) for sx in (-1, 1) for sy in (-1, 1)])


def test_transition_poly():
    assert transition_poly(Rule.C2).support == \
        {(-1, 0), (1, 0), (0, -1), (0, 1)}
    assert transition_poly(Rule.C1).support == \
        {(-1, -1), (1, -1), (-1, 1), (1, 1)}
    for rule in (Rule.C3, Rule.C3p):
        with pytest.raises(NonlinearRuleError):
            transition_poly(rule)


def test_fib_base_cases():
    T = transition_poly(Rule.C1)
    assert fib_poly_eval(T, 0) == ZERO
    assert fib_poly_eval(T, 1) == ONE
    assert fib_poly_eval(T, 4) == T * T * T


@pytest.mark.parametrize("rule", [Rule.C1, Rule.C2])
def test_fib_ladder_vs_naive(rule):
    T = transition_poly(rule)
    a, b = ZERO, ONE
    for k in range(40):
        assert fib_poly_eval(T, k) == a
        a, b = b, T * b + a


def test_fib_power_of_two():
    for T in (transition_poly(Rule.C1), transition_poly(Rule.C2)):
        tpow = ONE  # T^(2^k - 1), built as (previous)^2 * T
        for k in range(7):
            assert fib_poly_eval(T, 1 << k) == tpow
            tpow = tpow.square() * T


def test_lucas():
    T = transition_poly(Rule.C2)
    assert lucas_poly_eval(T, 0) == ZERO
    assert lucas_poly_eval(T, 1) == T
    for k in range(2, 9):
        assert lucas_poly_eval(T, k) == T * fib_poly_eval(T, k)


def test_fib_addition_split():
    T2, T1 = transition_poly(Rule.C2), transition_poly(Rule.C1)
    assert fib_addition_split(2, 1, T2) == fib_poly_naive(T2, 5)
    assert fib_addition_split(3, 0, T1) == fib_poly_eval(T1, 8)
    assert fib_addition_split(2, 3, T1) == fib_poly_naive(T1, 7)
    with pytest.raises(IndexOutOfRangeError):
        fib_addition_split(2, 4, T2)
    with pytest.raises(IndexOutOfRangeError):
        fib_addition_split(2, -1, T2)


def test_state_poly_base_cases():
    for rule in (Rule.C1, Rule.C2):
        assert state_poly_at(rule, 0) == (ONE, ZERO)
        assert state_poly_at(rule, 1) == (transition_poly(rule), ONE)
    with pytest.raises(NonlinearRuleError):
        state_poly_at(Rule.C3, 2)
    for n in (-1, 8191):  # a walk from the seed takes at most 8190 steps
        with pytest.raises(ValueError, match="8190"):
            state_poly_at(Rule.C2, n)


def test_state_poly_counts_at_7():
    pp = state_poly_at(Rule.C1, 7)
    from revca.grid import SecondOrderState
    s = SecondOrderState(poly_to_grid(pp.first), poly_to_grid(pp.second))
    c = count_values(s, 7)
    assert (c.r1, c.r2, c.r3, c.total) == (64, 21, 0, 85)


@pytest.mark.parametrize("rule", [Rule.C1, Rule.C2])
def test_state_poly_matches_simulation(rule):
    s = single_seed()
    for n in range(40):
        pp = state_poly_at(rule, n)
        assert poly_to_grid(pp.first) == s.current
        assert poly_to_grid(pp.second) == s.previous
        from revca.rules import second_order_step
        s = second_order_step(rule, s)


def test_grid_poly_round_trip():
    assert grid_to_poly(BinaryGrid([(0, 0)])) == ONE
    assert poly_to_grid(transition_poly(Rule.C2)) == \
        BinaryGrid([(-1, 0), (1, 0), (0, -1), (0, 1)])
    import random
    rng = random.Random(7)
    cells = {(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(100)}
    g = BinaryGrid(cells)
    assert poly_to_grid(grid_to_poly(g)) == g


def test_one_step_agreement():
    import random
    rng = random.Random(1)
    for rule in (Rule.C1, Rule.C2):
        T = transition_poly(rule)
        for _ in range(5):
            g = BinaryGrid({(rng.randint(-9, 9), rng.randint(-9, 9))
                            for _ in range(rng.randint(0, 25))})
            assert poly_to_grid(T * grid_to_poly(g)) == \
                first_order_step(rule, g)
        # and along the seed trajectory
        g = BinaryGrid([(0, 0)])
        for _ in range(32):
            assert poly_to_grid(T * grid_to_poly(g)) == \
                first_order_step(rule, g)
            g = first_order_step(rule, g)


def test_c1_factors_into_two_rule90_lines():
    # n first-order C1 steps from the seed = (x^-1+x)^n (y^-1+y)^n:
    # the outer product of two 1-D rule-90 patterns, so the population
    # is the square of the 1-D count
    yr = LaurentPoly2([(0, -1), (0, 1)])
    px, py, g = ONE, ONE, BinaryGrid([(0, 0)])
    for n in range(1, 33):
        px, py = px * XR, py * yr
        g = first_order_step(Rule.C1, g)
        assert px * py == grid_to_poly(g)
        assert len(g) == len(px) ** 2


def test_poly_text_round_trip():
    p = LaurentPoly2([(-3, 2), (0, 0), (5, -5)])
    text = poly_to_text(p)
    assert text.splitlines()[0] == "#lpoly v1 terms=3"
    assert poly_from_text(text) == p
    with pytest.raises(ValueError):
        poly_from_text("0 0\n")


def test_poly_text_is_sorted_and_shared_with_grid():
    p = state_poly_at(Rule.C1, 6).first
    lines = poly_to_text(p).splitlines()
    assert lines[1:] == [f"{i} {j}" for i, j in sorted(p.support)]
    assert poly_from_text(poly_to_text(p)) == p
    with pytest.raises(ValueError):
        poly_from_text("#lpoly v1\n0 0\n")  # no terms=
    with pytest.raises(ValueError):
        poly_from_text("#bgrid v1 count=1\n0 0\n")  # the other format


def test_polynomial_is_a_grid():
    assert LaurentPoly2 is BinaryGrid
    g = BinaryGrid([(2, -1), (0, 0)])
    assert grid_to_poly(g) is g and poly_to_grid(g) is g


# --- integer-coefficient Fibonacci/Lucas oracle ------------------------------
# One-variable polynomials as dense coefficient lists over Z; used only to
# confirm that the GF(2) identities are the mod-2 shadows of the classical
# ones.

def _zadd(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def _zscale(a, c):
    return [c * x for x in a]


def _zmul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _zshift(a):  # multiply by t
    return [0] + a


def _zfib(k):
    a, b = [], [1]  # f_0 = 0, f_1 = 1
    for _ in range(k):
        a, b = b, _zadd(_zshift(b), a)
    return a


def _zlucas(k):
    a, b = [2], [0, 1]  # l_0 = 2, l_1 = t
    for _ in range(k):
        a, b = b, _zadd(_zshift(b), a)
    return a


def _ztrim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _mod2(a):
    return LaurentPoly2((i, 0) for i, c in enumerate(a) if c & 1)


T_VAR = LaurentPoly2([(1, 0)])  # symbolic one-variable t


_T1, _G = transition_poly(Rule.C1), BinaryGrid([(0, 0)])


@pytest.mark.parametrize("call, want", [
    (lambda: fib_poly_naive(_T1, -1), ValueError("k must be nonnegative")),
    (lambda: fib_poly_eval(_T1, -1), ValueError("k must be nonnegative")),
    (lambda: lucas_poly_eval(_T1, -1), ValueError("k must be nonnegative")),
    (lambda: _G.pow_2k(-1), ValueError("k must be nonnegative")),
    (lambda: EMPTY.bounds(), ValueError("empty grid has no bounds")),
    (lambda: (_G.__eq__(1), _G == 1), (NotImplemented, False)),
    (lambda: diagonal_embed(_G, "diag"),
     ValueError("parity must be 'even' or 'odd', got 'diag'")),
    (lambda: seq_value_alt(SeqId.R1, -1),
     IndexOutOfRangeError("alt recursion needs n >= 0, got -1")),
], ids=["fib_poly_naive", "fib_poly_eval", "lucas_poly_eval", "pow_2k",
        "empty_bounds", "eq_other_type", "diagonal_embed", "seq_value_alt"])
def test_input_checks(call, want):
    # each check's exact error type and message, or its value
    if isinstance(want, Exception):
        with pytest.raises(Exception) as e:
            call()
        assert (type(e.value), str(e.value)) == (type(want), str(want))
    else:
        assert call() == want


@pytest.mark.parametrize("k", range(1, 13))
def test_z_oracle_lucas_identity(k):
    # l_k = f_{k+1} + f_{k-1} over Z, and t f_k = l_k mod 2
    assert _zlucas(k) == _zadd(_zfib(k + 1), _zfib(k - 1))
    assert _mod2(_zshift(_zfib(k))) == _mod2(_zlucas(k))
    assert _mod2(_zlucas(k)) == lucas_poly_eval(T_VAR, k)
    assert _mod2(_zfib(k)) == fib_poly_eval(T_VAR, k)


@pytest.mark.parametrize("m,n", [(3, 2), (5, 4), (7, 3), (9, 6), (12, 12)])
def test_z_oracle_addition_formulas(m, n):
    # f_{m+n} = f_m l_n + (-1)^{n+1} f_{m-n} over Z
    lhs = _zfib(m + n)
    rhs = _zadd(_zmul(_zfib(m), _zlucas(n)),
                _zscale(_zfib(m - n), (-1) ** (n + 1)))
    assert _ztrim(lhs) == _ztrim(rhs)
    # f_{m+n+1} = f_{m+1} f_{n+1} + f_m f_n over Z
    lhs2 = _zfib(m + n + 1)
    rhs2 = _zadd(_zmul(_zfib(m + 1), _zfib(n + 1)), _zmul(_zfib(m), _zfib(n)))
    assert _ztrim(lhs2) == _ztrim(rhs2)
    # GF(2) shadows used by the doubling ladder
    assert fib_poly_eval(T_VAR, m + n) == \
        T_VAR * fib_poly_eval(T_VAR, m) * fib_poly_eval(T_VAR, n) + \
        fib_poly_eval(T_VAR, m - n)
    assert fib_poly_eval(T_VAR, 2 * n) == \
        T_VAR * fib_poly_eval(T_VAR, n).square()
    assert fib_poly_eval(T_VAR, 2 * n + 1) == \
        (fib_poly_eval(T_VAR, n + 1) + fib_poly_eval(T_VAR, n)).square()
