"""Local rules C1, C2, C3, C3' and their reversible second-order lifts.

C1 flips on the parity of the four diagonal neighbors, C2 on the parity of
the four orthogonal (von Neumann) neighbors, C3 turns a cell on exactly
when one orthogonal neighbor is occupied, and C3' additionally requires
all four diagonal neighbors empty.

The lift of a first-order rule f is F: (c, c') -> (f[c] xor c', c), which
is reversible; lift names R1, R2, R3, R3p mirror the rule names.
``trajectory`` walks a lift from a state (by default the single seed)
forward or backward and yields every state on the way.

A walk runs on two bit-packed planes (rows along i, one bit per cell
along j) allocated once, the start state's box grown by |n|+1 on each
side, and updated in place with word-wide shifts; a grid is unpacked only
for a state that is handed out.  ``first_order_step`` and the two lift
steps stay the per-grid reference that the tests compare the walk with.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator

import numpy as np

from .grid import (EMPTY, MAX_PARSED_WINDOW, BinaryGrid, CountRecord,
                   SecondOrderState, count_values, single_seed, xor)


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


#: plane word dtype: bit k of word w in a row is column 64 w + k
_WORD = np.dtype("<u8")
_1, _63 = np.uint64(1), np.uint64(63)


def _rule_words(rule: Rule, x: np.ndarray, nw: int) -> np.ndarray:
    """f on the packed rows of x but the first and the last, each reading
    the rows above and below; x is row-major with nw words per row.

    Shifting the flat array carries bits between the words of a row; no
    bit crosses between rows because the first bit and the last bit of
    every row of x are 0 (x spans the box grown by one on each side).
    """
    west = x << _1  # bit j holds the cell at j - 1
    west[1:] |= x[:-1] >> _63
    east = x >> _1  # bit j holds the cell at j + 1
    east[:-1] |= x[1:] << _63
    r = 2 * nw
    if rule is Rule.C1:
        h = west ^ east
        return h[:-r] ^ h[r:]
    n, s, w, e = x[:-r], x[r:], west[nw:-nw], east[nw:-nw]
    odd = n ^ s ^ w ^ e
    if rule is Rule.C2:
        return odd
    # odd parity is one or three neighbors, and any three hold N,S or W,E
    out = odd & ~((n & s) | (w & e))  # exactly one
    if rule is Rule.C3p:
        h = west | east
        out &= ~(h[:-r] | h[r:])
    return out


class _Planes:
    """The two newest states X_{k+1}, X_k of a walk X_{k+1} = f(X_k) + X_{k-1}
    on two preallocated bit-packed planes (rows along i, bits along j).

    Index 0 is the newest plane.  Each plane keeps its tight box in plane
    coordinates (r0, r1, c0, c1), half-open, or None when empty, and the
    BinaryGrid it holds once one has been unpacked.
    """

    def __init__(self, newer: BinaryGrid, older: BinaryGrid, margin: int):
        self.margin = margin
        self.grids: list[BinaryGrid | None] = [newer, older]
        self._alloc()

    def _alloc(self, *more: BinaryGrid) -> None:
        """Fresh planes over the boxes of both states and of ``more``, grown
        by the margin, holding the two states."""
        m = self.margin
        boxes = [g.bounds() for g in (*self.grids, *more) if g] or [(0, 0, 0, 0)]
        i0, j0 = min(b[0] for b in boxes) - m, min(b[2] for b in boxes) - m
        rows = max(b[1] for b in boxes) + m + 1 - i0
        cols = max(b[3] for b in boxes) + m + 1 - j0
        if rows * cols > MAX_PARSED_WINDOW:
            raise ValueError(f"a walk plane of {rows} x {cols} cells spans "
                             f"more than {MAX_PARSED_WINDOW} cells")
        self.origin = (i0, j0)
        self.planes = [np.zeros((rows, -(-cols // 64)), dtype=_WORD)
                       for _ in range(2)]
        self.boxes: list[tuple[int, int, int, int] | None] = [None, None]
        for k in range(2):
            self._xor_grid(k, self.grids[k])

    def step(self, rule: Rule, step_fn: StepFn) -> None:
        """X_{k+2} = f(X_{k+1}) + X_k, written over X_k; then swap roles."""
        if step_fn is not first_order_step:
            self._xor_grid(1, step_fn(rule, self.grid(0)))
        elif self.boxes[0] is not None:
            new, old = self.planes
            r0, r1, c0, c1 = self.boxes[0]
            # f grows a box by one per step, so a margin of |n|+1 keeps
            # rows r0-2..r1+1 and words wa..wb-1 inside the planes
            wa, wb = (c0 - 1) >> 6, (c1 >> 6) + 1
            x = np.ascontiguousarray(new[r0 - 2:r1 + 2, wa:wb]).ravel()
            old[r0 - 1:r1 + 1, wa:wb] ^= _rule_words(
                rule, x, wb - wa).reshape(-1, wb - wa)
            self._retighten(1, r0 - 1, r1 + 1, c0 - 1, c1 + 1)
        self.planes.reverse()
        self.boxes.reverse()
        self.grids = [None, self.grids[0]]

    def _xor_grid(self, k: int, g: BinaryGrid) -> None:
        """Plane k ^= g; the planes are reallocated when g leaves them."""
        if not g:
            return
        h, w = g.window.shape
        r0, c0 = g.origin[0] - self.origin[0], g.origin[1] - self.origin[1]
        rows, words = self.planes[0].shape
        if r0 < 0 or c0 < 0 or r0 + h > rows or c0 + w > 64 * words:
            self._alloc(g)  # a custom step: both grids are unpacked
            return self._xor_grid(k, g)
        wa, off = c0 >> 6, c0 & 63
        buf = np.zeros((h, -(-(off + w) // 64) * 64), dtype=np.uint8)
        buf[:, off:off + w] = g.window
        packed = np.packbits(buf, axis=1, bitorder="little").view(_WORD)
        self.planes[k][r0:r0 + h, wa:wa + packed.shape[1]] ^= packed
        if self.boxes[k] is None:  # g alone, and g is tight
            self.boxes[k] = (r0, r0 + h, c0, c0 + w)
        else:
            self._retighten(k, r0, r0 + h, c0, c0 + w)

    def _retighten(self, k: int, r0: int, r1: int, c0: int, c1: int) -> None:
        """Tight box of plane k, whose cells lie in its old box or the
        given one: move each edge inward while its row or word is empty."""
        if self.boxes[k] is not None:
            b0, b1, d0, d1 = self.boxes[k]
            r0, r1, c0, c1 = min(r0, b0), max(r1, b1), min(c0, d0), max(c1, d1)
        p = self.planes[k]
        wa, wb = c0 >> 6, (c1 - 1) >> 6  # inclusive
        while r0 < r1 and not np.count_nonzero(p[r0, wa:wb + 1]):
            r0 += 1
        if r0 == r1:
            self.boxes[k] = None
            return
        while not np.count_nonzero(p[r1 - 1, wa:wb + 1]):
            r1 -= 1
        while not (lo := int(np.bitwise_or.reduce(p[r0:r1, wa]))):
            wa += 1
        while not (hi := int(np.bitwise_or.reduce(p[r0:r1, wb]))):
            wb -= 1
        self.boxes[k] = (r0, r1, 64 * wa + (lo & -lo).bit_length() - 1,
                         64 * wb + hi.bit_length())

    def grid(self, k: int) -> BinaryGrid:
        """Plane k as a BinaryGrid, unpacked once."""
        if self.grids[k] is None:
            box = self.boxes[k]
            if box is None:
                self.grids[k] = EMPTY
            else:
                r0, r1, c0, c1 = box
                off = c0 & 63
                words = self.planes[k][r0:r1, c0 >> 6:((c1 - 1) >> 6) + 1]
                packed = words >> np.uint64(off)  # column c0 to bit 0
                if off:
                    packed[:, :-1] |= words[:, 1:] << np.uint64(64 - off)
                win = np.unpackbits(packed.view(np.uint8), axis=1,
                                    count=c1 - c0, bitorder="little")
                self.grids[k] = BinaryGrid._tight(win, self.origin[0] + r0,
                                                  self.origin[1] + c0)
        return self.grids[k]


def _walk(rule: Rule, n: int, s: SecondOrderState, step_fn: StepFn,
          every: bool) -> Iterator[SecondOrderState]:
    """The one stepping loop: yields the states at steps 0..|n| when
    ``every``, else only the state at step |n|.

    A forward walk runs the recurrence on (current, previous), a backward
    walk on (previous, current): (a, b) -> (b, f[b]+a) is the same
    recurrence with the roles of the two planes swapped.
    """
    if n == 0:
        yield s
        return
    back = n < 0
    planes = (_Planes(s.previous, s.current, -n + 1) if back
              else _Planes(s.current, s.previous, n + 1))
    if every:
        yield s
    for k in range(abs(n)):
        planes.step(rule, step_fn)
        if every or k == abs(n) - 1:
            new, old = planes.grid(0), planes.grid(1)
            yield (SecondOrderState(old, new) if back
                   else SecondOrderState(new, old))


def trajectory(rule: Rule, n: int, s: SecondOrderState | None = None,
               step_fn: StepFn = first_order_step) -> Iterator[SecondOrderState]:
    """The states at steps 0..|n| from ``s`` (default: the single seed).

    Steps go forward for n >= 0 and backward for n < 0.  This is the one
    place that walks a lift: ``evolve``, ``trajectory_counts`` and the
    verification suites all iterate it.  Each yielded state holds one
    newly unpacked grid; its other grid is the one yielded a step before.
    Raises ValueError when a plane would span more than
    ``MAX_PARSED_WINDOW`` cells.
    """
    return _walk(rule, n, single_seed() if s is None else s, step_fn, True)


def evolve(rule: Rule, s: SecondOrderState, n: int,
           step_fn: StepFn = first_order_step) -> SecondOrderState:
    """Apply n forward steps (n >= 0) or |n| inverse steps (n < 0)."""
    *_, s = _walk(rule, n, s, step_fn, False)
    return s


def trajectory_counts(rule: Rule, n_max: int,
                      step_fn: StepFn = first_order_step) -> list[CountRecord]:
    """Value tallies along the seed trajectory for n = 0..n_max."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return [count_values(s, n)
            for n, s in enumerate(trajectory(rule, n_max, step_fn=step_fn))]
