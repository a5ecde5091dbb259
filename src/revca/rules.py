"""Local rules C1, C2, C3, C3' and their reversible second-order lifts.

C1 flips on the parity of the four diagonal neighbors, C2 on the parity of
the four orthogonal (von Neumann) neighbors, C3 turns a cell on exactly
when one orthogonal neighbor is occupied, and C3' additionally requires
all four diagonal neighbors empty.

The lift of a first-order rule f is F: (c, c') -> (f[c] xor c', c), which
is reversible: F^-1 = X F X, where X swaps the components.  Lift names
R1, R2, R3, R3p mirror the rule names.  ``trajectory`` walks a lift from
a state (by default the single seed) forward, or backward as the forward
walk of the swapped state, and yields every state on the way.

Each rule has one kernel, ``_rule_words``, on the bit-packed rows that a
:class:`~revca.grid.BinaryGrid` keeps.  ``first_order_step`` runs it on
one grid, a walk in place on two planes whose words the tallies and the
coloring checks read.  The tests check the kernel against a dense
neighbor-count stencil, kept there as the independent oracle.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Iterator

import numpy as np

from .grid import (_WORD, MAX_PARSED_WINDOW, BinaryGrid, CountRecord,
                   SecondOrderState, _crop, _popcount, _tight_box, _wrap_tight,
                   _xor_at, single_seed, swap_x, xor)


class Rule(enum.Enum):
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C3p = "C3p"


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


_1, _63 = np.uint64(1), np.uint64(63)
#: a plane word with a bit at every even column; ~ marks the odd ones
_EVEN_BITS = np.uint64(0x5555555555555555)


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


def first_order_step(rule: Rule, g: BinaryGrid) -> BinaryGrid:
    """One application of the named first-order rule: ``_rule_words`` on
    g's words below two empty rows and right of one empty bit, cropped."""
    (i0, j0), w = g.origin, g._ncols
    nw = -(-(w + 2) // 64)  # the last bit of each row stays empty
    x = np.zeros((len(g._w) + 4, nw), _WORD)
    _xor_at(x, g._w, 2, 1)
    new = _rule_words(rule, x.ravel(), nw).reshape(-1, nw)
    return _wrap_tight(new, i0 - 1, j0 - 1, w + 2)


StepFn = Callable[[Rule, BinaryGrid], BinaryGrid]


def second_order_step(rule: Rule, s: SecondOrderState,
                      step_fn: StepFn = first_order_step) -> SecondOrderState:
    """Forward step of the reversible lift: (c, c') -> (f[c]+c', c)."""
    return SecondOrderState(xor(step_fn(rule, s.current), s.previous),
                            s.current)


def second_order_inverse(rule: Rule, s: SecondOrderState,
                         step_fn: StepFn = first_order_step) -> SecondOrderState:
    """Backward step: (a, b) -> (b, f[b]+a); inverse of the forward step.
    Walks step back by X F X instead, and the tests compare the two."""
    return SecondOrderState(s.previous,
                            xor(step_fn(rule, s.previous), s.current))


#: most steps a walk from the seed takes: its planes span (2|n| + 3)^2 cells
MAX_SEED_STEPS = (math.isqrt(MAX_PARSED_WINDOW) - 3) // 2


class _Planes:
    """The two newest states X_{k+1}, X_k of a walk X_{k+1} = f(X_k) + X_{k-1}
    on two preallocated bit-packed planes (rows along i, bits along j).

    Index 0 is the newest plane, the current component.  Each plane keeps
    its tight box in plane coordinates (r0, r1, c0, c1), half-open, or None
    when empty, and the BinaryGrid it holds once one has been handed out.
    f grows a box by one per step, so planes over both boxes grown by
    n+1 hold a walk of n steps.
    """

    def __init__(self, s: SecondOrderState, margin: int):
        self.grids: list[BinaryGrid | None] = [s.current, s.previous]
        boxes = [g.bounds() for g in self.grids if g] or [(0, 0, 0, 0)]
        lo_i, hi_i, lo_j, hi_j = zip(*boxes)
        i0, j0 = min(lo_i) - margin, min(lo_j) - margin
        rows, cols = max(hi_i) + margin + 1 - i0, max(hi_j) + margin + 1 - j0
        if rows * cols > MAX_PARSED_WINDOW:
            raise ValueError(f"a walk plane of {rows} x {cols} cells spans "
                             f"more than {MAX_PARSED_WINDOW} cells")
        self.origin = (i0, j0)
        self.planes = [np.zeros((rows, -(-cols // 64)), dtype=_WORD)
                       for _ in range(2)]
        self.boxes: list[tuple[int, int, int, int] | None] = [None, None]
        for k, g in enumerate(self.grids):
            if g:
                gi0, gi1, gj0, gj1 = g.bounds()
                _xor_at(self.planes[k], g._w, gi0 - i0, gj0 - j0)
                self.boxes[k] = (gi0 - i0, gi1 + 1 - i0, gj0 - j0, gj1 + 1 - j0)

    def step(self, rule: Rule) -> None:
        """X_{k+2} = f(X_{k+1}) + X_k, written over X_k; then swap roles."""
        if self.boxes[0] is not None:
            new, old = self.planes
            r0, r1, c0, c1 = self.boxes[0]
            # rows r0-2..r1+1 and words wa..wb-1 lie inside the planes
            wa, wb = (c0 - 1) >> 6, (c1 >> 6) + 1
            x = np.ascontiguousarray(new[r0 - 2:r1 + 2, wa:wb]).ravel()
            old[r0 - 1:r1 + 1, wa:wb] ^= _rule_words(
                rule, x, wb - wa).reshape(-1, wb - wa)
            # X_{k+2} lies in the box of X_k or that of X_{k+1} grown by one
            b0, b1, d0, d1 = self.boxes[1] or (r0, r1, c0, c1)
            self.boxes[1] = _tight_box(old, min(r0 - 1, b0), max(r1 + 1, b1),
                                       min(c0 - 1, d0), max(c1 + 1, d1))
        self.planes.reverse()
        self.boxes.reverse()
        self.grids = [None, self.grids[0]]

    def off_lattice(self, k: int, par: int, coset: bool) -> bool:
        """Whether plane k holds a cell off the checkerboard i + j = par
        mod 2, or, with ``coset``, off the coset i = j = par mod 2."""
        if self.boxes[k] is None:
            return False
        (r0, r1, c0, c1), (i0, j0) = self.boxes[k], self.origin
        words = self.planes[k][r0:r1, c0 >> 6:((c1 - 1) >> 6) + 1]
        i = i0 + r0 + np.arange(r1 - r0)
        # bit c of a row i is column j0 + c: the checkerboard admits c = par +
        # j0 + i mod 2, the coset c = par + j0 mod 2 in rows i = par mod 2 only
        odd = (par + j0 + i * (not coset)) & 1
        bad = words & np.where(odd == 1, _EVEN_BITS, ~_EVEN_BITS)[:, None]
        return bool(bad.any() or coset and words[(i + par) & 1 == 1].any())

    def grid(self, k: int) -> BinaryGrid:
        """Plane k as a BinaryGrid: a shifted copy of its words, made once."""
        if self.grids[k] is None:
            self.grids[k] = _crop(self.planes[k], *self.origin, self.boxes[k])
        return self.grids[k]

    def state(self) -> SecondOrderState:
        """The walk's (current, previous) state as grids."""
        return SecondOrderState(self.grid(0), self.grid(1))

    def tally(self, n: int) -> CountRecord:
        """``count_values`` of the state, from popcounts of both planes and
        of their overlap over the union of the two boxes."""
        boxes = [b for b in self.boxes if b] or [(0, 0, 0, 0)]
        r0, r1, c0, c1 = zip(*boxes)
        new, old = (p[min(r0):max(r1), min(c0) >> 6:((max(c1) - 1) >> 6) + 1]
                    for p in self.planes)
        both = _popcount(new & old)
        a, b = _popcount(new) - both, _popcount(old) - both
        return CountRecord(n, a, b, both, a + b + both)


def _walk(rule: Rule, n: int, s: SecondOrderState,
          step_fn: StepFn) -> Iterator[_Planes]:
    """The one stepping loop: yields the walk's planes at steps 0..n, n >= 0.

    With the rule's own ``first_order_step`` one ``_Planes`` is stepped in
    place, so a consumer reads it (``state``, ``tally``, ``off_lattice``)
    before it asks for the next step.  A substitute ``step_fn`` may move
    cells anywhere, so it steps grid by grid and packs each new state
    into fresh planes that are only read.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    own = step_fn is first_order_step
    planes = _Planes(s, n + 1 if own else 0)
    yield planes
    for _ in range(n):
        if own:
            planes.step(rule)
        else:
            planes = _Planes(second_order_step(rule, planes.state(), step_fn), 0)
        yield planes


def trajectory(rule: Rule, n: int, s: SecondOrderState | None = None,
               step_fn: StepFn = first_order_step) -> Iterator[SecondOrderState]:
    """The states at steps 0..|n| from ``s`` (default: the single seed).

    Steps go forward for n >= 0, in ``_walk``, and backward for n < 0 by
    F^-1 = X F X: the forward walk of the swapped state, swapped back.
    Each yielded state holds one newly copied grid; its other grid is
    the one yielded a step before.  Raises ValueError when a plane of the
    rule's own walk would span more than ``MAX_PARSED_WINDOW`` cells.
    """
    s = single_seed() if s is None else s
    if n < 0:
        return map(swap_x, trajectory(rule, -n, swap_x(s), step_fn))
    return (planes.state() for planes in _walk(rule, n, s, step_fn))


def evolve(rule: Rule, s: SecondOrderState, n: int,
           step_fn: StepFn = first_order_step) -> SecondOrderState:
    """Apply n forward steps (n >= 0) or |n| inverse steps (n < 0)."""
    if n == 0:  # no planes, which a loaded state may be too wide for
        return s
    if n < 0:  # F^-1 = X F X, as in ``trajectory``
        return swap_x(evolve(rule, swap_x(s), -n, step_fn))
    *_, planes = _walk(rule, n, s, step_fn)
    return planes.state()


def trajectory_counts(rule: Rule, n_max: int,
                      step_fn: StepFn = first_order_step) -> list[CountRecord]:
    """Tallies of the seed trajectory for n = 0..n_max, read off the planes."""
    return [planes.tally(n) for n, planes
            in enumerate(_walk(rule, n_max, single_seed(), step_fn))]
