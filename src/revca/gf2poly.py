"""Two-variable Laurent polynomials over GF(2) and the closed-form state.

A polynomial is a :class:`~revca.grid.BinaryGrid`: cell (i, j) is the
monomial x^i y^j, so ``LaurentPoly2`` is another name for that class and
the grid <-> polynomial maps are identities.  The transition multipliers
of the two linear rules and Fibonacci/Lucas polynomial evaluation with a
doubling ladder live here; together they give the state of a linear lift
at any step without simulating.
"""

from __future__ import annotations

from typing import NamedTuple

from .grid import BinaryGrid, _from_text, _to_text
from .rules import MAX_SEED_STEPS, Rule
from .sequences import IndexOutOfRangeError


class NonlinearRuleError(ValueError):
    """Requested a transition polynomial for a rule that has none."""


LaurentPoly2 = BinaryGrid
ZERO = LaurentPoly2()
ONE = LaurentPoly2([(0, 0)])


_TRANSITION = {Rule.C1: LaurentPoly2([(-1, -1), (1, -1), (-1, 1), (1, 1)]),
               Rule.C2: LaurentPoly2([(-1, 0), (1, 0), (0, -1), (0, 1)])}


def transition_poly(rule: Rule) -> LaurentPoly2:
    """Multiplier T(x, y) with f[p] = T * p for the linear rules.

    C1: (x^-1 + x)(y^-1 + y); C2: x^-1 + x + y^-1 + y.  C3 and C3' are
    nonlinear and raise :class:`NonlinearRuleError`.
    """
    if rule not in _TRANSITION:
        raise NonlinearRuleError(f"{rule.value} has no transition polynomial")
    return _TRANSITION[rule]


def fib_poly_naive(T: LaurentPoly2, k: int) -> LaurentPoly2:
    """f_k(T) by the plain linear recursion; reference path for the ladder."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    a, b = ZERO, ONE  # f_0, f_1
    for _ in range(k):
        a, b = b, T * b + a
    return a


def _fib_pair(T: LaurentPoly2, k: int) -> tuple[LaurentPoly2, LaurentPoly2]:
    """(f_k(T), f_{k+1}(T)) by the doubling ladder.

    Processes bits of k from the most significant down, keeping (f_m,
    f_{m+1}) and using f_{2m} = T f_m^2 and f_{2m+1} = (f_m + f_{m+1})^2,
    hence f_{2m+2} = T f_{m+1}^2.  O(log k) squarings and 4-term products.
    """
    a, b = ZERO, ONE
    for shift in range(k.bit_length() - 1, -1, -1):
        mid = (a + b).square()
        if (k >> shift) & 1:
            a, b = mid, T * b.square()
        else:
            a, b = T * a.square(), mid
    return a, b


def fib_poly_eval(T: LaurentPoly2, k: int) -> LaurentPoly2:
    """Fibonacci polynomial f_k evaluated at T over GF(2), by doubling."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _fib_pair(T, k)[0]


def lucas_poly_eval(T: LaurentPoly2, k: int) -> LaurentPoly2:
    """Lucas polynomial l_k at T over GF(2): l_0 = 2 = 0, else T * f_k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return ZERO
    return T * fib_poly_eval(T, k)


def fib_addition_split(k: int, j: int, T: LaurentPoly2) -> LaurentPoly2:
    """Evaluate f_{2^k + j}(T) as T^{2^k} f_j(T) + f_{2^k - j}(T).

    Requires 0 <= j < 2^k; must agree with the direct ladder evaluation.
    """
    if k < 0 or not 0 <= j < (1 << k):
        raise IndexOutOfRangeError(f"need 0 <= j < 2^{k}, got j={j}")
    t2k = T.pow_2k(k)
    return t2k * fib_poly_eval(T, j) + fib_poly_eval(T, (1 << k) - j)


class PolyPair(NamedTuple):
    """(current, previous) components of a state as polynomials."""

    first: LaurentPoly2
    second: LaurentPoly2


def state_poly_at(rule: Rule, n: int) -> PolyPair:
    """Exact state of the lift of a linear rule after n >= 0 steps.

    The pair is (f_{n+1}(T), f_n(T)); converting both members to grids
    reproduces the simulated state from the seed, for n <= MAX_SEED_STEPS.
    """
    if not 0 <= n <= MAX_SEED_STEPS:
        raise ValueError(f"n={n} is outside 0..{MAX_SEED_STEPS}")
    T = transition_poly(rule)
    fn, fn1 = _fib_pair(T, n)
    return PolyPair(fn1, fn)


def grid_to_poly(g: BinaryGrid) -> LaurentPoly2:
    """Characteristic polynomial: occupied cell (i, j) -> monomial x^i y^j."""
    return g


def poly_to_grid(p: LaurentPoly2) -> BinaryGrid:
    return p


def poly_to_text(p: LaurentPoly2) -> str:
    """Serialize: header '#lpoly v1 terms=N', then sorted 'e_x e_y' lines."""
    return _to_text(p, "#lpoly", "terms")


def poly_from_text(text: str) -> LaurentPoly2:
    return _from_text(text, "#lpoly", "terms")
