"""Local rules C1, C2, C3, C3' and their reversible second-order lifts.

C1 flips on the parity of the four diagonal neighbors, C2 on the parity of
the four orthogonal (von Neumann) neighbors, C3 turns a cell on exactly
when one orthogonal neighbor is occupied, and C3' additionally requires
all four diagonal neighbors empty.

The lift of a first-order rule f is F: (c, c') -> (f[c] xor c', c), which
is reversible; lift names R1, R2, R3, R3p mirror the rule names.
``trajectory`` walks a lift from a state (by default the single seed)
forward or backward and yields every state on the way.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator

import numpy as np

from .grid import (BinaryGrid, CountRecord, SecondOrderState, count_values,
                   single_seed, xor)


class Rule(enum.Enum):
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C3p = "C3p"

    @property
    def is_linear(self) -> bool:
        return self in (Rule.C1, Rule.C2)


#: lift name -> underlying first-order rule
LIFT_NAMES = {"R1": Rule.C1, "R2": Rule.C2, "R3": Rule.C3, "R3p": Rule.C3p}


def parse_rule(name: str) -> Rule:
    """Accept either a rule name (C1..C3p) or a lift name (R1..R3p)."""
    if name in LIFT_NAMES:
        return LIFT_NAMES[name]
    try:
        return Rule(name)
    except ValueError:
        raise ValueError(f"unknown rule {name!r}") from None


def _neighbor_sums(g: BinaryGrid) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Orthogonal and diagonal neighbor counts on the window grown by 1."""
    w = g.window
    p = np.zeros((w.shape[0] + 4, w.shape[1] + 4), dtype=np.uint8)
    p[2:-2, 2:-2] = w
    orth = p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:]
    diag = p[:-2, :-2] + p[:-2, 2:] + p[2:, :-2] + p[2:, 2:]
    i0, j0 = g.origin
    return orth, diag, i0 - 1, j0 - 1


def first_order_step(rule: Rule, g: BinaryGrid) -> BinaryGrid:
    """One application of the named first-order rule."""
    if not g:
        return g
    orth, diag, i0, j0 = _neighbor_sums(g)
    if rule is Rule.C1:
        new = diag & 1
    elif rule is Rule.C2:
        new = orth & 1
    elif rule is Rule.C3:
        new = (orth == 1).astype(np.uint8)
    else:
        new = ((orth == 1) & (diag == 0)).astype(np.uint8)
    return BinaryGrid.from_window(new, i0, j0)


StepFn = Callable[[Rule, BinaryGrid], BinaryGrid]


def second_order_step(rule: Rule, s: SecondOrderState,
                      step_fn: StepFn = first_order_step) -> SecondOrderState:
    """Forward step of the reversible lift: (c, c') -> (f[c]+c', c)."""
    return SecondOrderState(xor(step_fn(rule, s.current), s.previous),
                            s.current)


def second_order_inverse(rule: Rule, s: SecondOrderState,
                         step_fn: StepFn = first_order_step) -> SecondOrderState:
    """Backward step: (a, b) -> (b, f[b]+a); inverse of the forward step."""
    return SecondOrderState(s.previous,
                            xor(step_fn(rule, s.previous), s.current))


def trajectory(rule: Rule, n: int, s: SecondOrderState | None = None,
               step_fn: StepFn = first_order_step) -> Iterator[SecondOrderState]:
    """The states at steps 0..|n| from ``s`` (default: the single seed).

    Steps go forward for n >= 0 and backward for n < 0.  This is the one
    place that walks a lift: ``evolve``, ``trajectory_counts`` and the
    verification suites all iterate it.
    """
    s = single_seed() if s is None else s
    yield s
    step = second_order_step if n >= 0 else second_order_inverse
    for _ in range(abs(n)):
        s = step(rule, s, step_fn)
        yield s


def evolve(rule: Rule, s: SecondOrderState, n: int,
           step_fn: StepFn = first_order_step) -> SecondOrderState:
    """Apply n forward steps (n >= 0) or |n| inverse steps (n < 0)."""
    for s in trajectory(rule, n, s, step_fn):
        pass
    return s


def trajectory_counts(rule: Rule, n_max: int,
                      step_fn: StepFn = first_order_step) -> list[CountRecord]:
    """Value tallies along the seed trajectory for n = 0..n_max."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return [count_values(s, n)
            for n, s in enumerate(trajectory(rule, n_max, step_fn=step_fn))]
