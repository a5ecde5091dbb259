"""Local rules C1, C2, C3, C3' and their reversible second-order lifts.

C1 flips on the parity of the four diagonal neighbors, C2 on the parity of
the four orthogonal (von Neumann) neighbors, C3 turns a cell on exactly
when one orthogonal neighbor is occupied, and C3' additionally requires
all four diagonal neighbors empty.

The lift of a first-order rule f is F: (c, c') -> (f[c] xor c', c), which
is reversible; lift names R1, R2, R3, R3p mirror the rule names.
``trajectory`` walks a lift from a state (by default the single seed)
forward or backward and yields every state on the way.

Each rule has one kernel, ``_rule_words``, on bit-packed rows (64 cells
per word).  ``first_order_step`` runs it on one packed grid; a walk runs
it in place on two planes allocated once.  Tallies and the coloring
checks read the planes' words, so a grid is unpacked only for a state
handed out.  The tests check the kernel against a dense neighbor-count
stencil, kept there as the independent oracle.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Iterator

import numpy as np

from .grid import (EMPTY, MAX_PARSED_WINDOW, BinaryGrid, CountRecord,
                   SecondOrderState, single_seed, xor)


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


#: plane word dtype: bit k of word w in a row is column 64 w + k
_WORD = np.dtype("<u8")
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


def _pack(win: np.ndarray, r: int, c: int, rows: int,
          words: int) -> np.ndarray:
    """A 0/1 window at row r, bit c of ``rows`` x ``words`` zero words."""
    buf = np.zeros((rows, 64 * words), dtype=np.uint8)
    buf[r:r + win.shape[0], c:c + win.shape[1]] = win
    return np.packbits(buf, axis=1, bitorder="little").view(_WORD)


def _unpack(words: np.ndarray, c: int, count: int) -> np.ndarray:
    """Bits c..c+count-1 of each row of packed words as a 0/1 window."""
    packed = words >> np.uint64(c)  # bit c to bit 0
    if c:
        packed[:, :-1] |= words[:, 1:] << np.uint64(64 - c)
    return np.unpackbits(packed.view(np.uint8), axis=1, count=count,
                         bitorder="little")


def first_order_step(rule: Rule, g: BinaryGrid) -> BinaryGrid:
    """One application of the named first-order rule: g packed below two
    empty rows and right of one empty bit, stepped by ``_rule_words``,
    unpacked from bit 0 over the box grown by one and cropped."""
    (h, w), (i0, j0) = g.window.shape, g.origin
    nw = -(-(w + 2) // 64)  # the last bit of each row stays empty
    new = _rule_words(rule, _pack(g.window, 2, 1, h + 4, nw).ravel(), nw)
    return BinaryGrid.from_window(_unpack(new.reshape(h + 2, nw), 0, w + 2),
                                  i0 - 1, j0 - 1)


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


def _popcount(words: np.ndarray) -> int:
    """Set bits in an array of plane words."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2
        return int(np.bitwise_count(words).sum())
    return int(np.count_nonzero(np.unpackbits(words.view(np.uint8))))


#: most steps a walk from the seed takes: its planes span (2|n| + 3)^2 cells
MAX_SEED_STEPS = (math.isqrt(MAX_PARSED_WINDOW) - 3) // 2


class _Planes:
    """The two newest states X_{k+1}, X_k of a walk X_{k+1} = f(X_k) + X_{k-1}
    on two preallocated bit-packed planes (rows along i, bits along j).

    Index 0 is the newest plane: the current component of a forward walk,
    the previous one of a backward walk (``back``).  Each plane keeps its
    tight box in plane coordinates (r0, r1, c0, c1), half-open, or None
    when empty, and the BinaryGrid it holds once one has been unpacked.
    f grows a box by one per step, so planes over both boxes grown by
    |n|+1 hold a walk of |n| steps.
    """

    def __init__(self, s: SecondOrderState, back: bool, margin: int):
        self.back = back
        self.grids: list[BinaryGrid | None] = (
            [s.previous, s.current] if back else [s.current, s.previous])
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
                r0, c0 = g.origin[0] - i0, g.origin[1] - j0
                (h, w), wa, off = g.window.shape, c0 >> 6, c0 & 63
                words = -(-(off + w) // 64)
                self.planes[k][r0:r0 + h, wa:wa + words] = _pack(
                    g.window, 0, off, h, words)
                self.boxes[k] = (r0, r0 + h, c0, c0 + w)

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
            self._retighten(1, r0 - 1, r1 + 1, c0 - 1, c1 + 1)
        self.planes.reverse()
        self.boxes.reverse()
        self.grids = [None, self.grids[0]]

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

    def words(self, k: int) -> np.ndarray:
        """The words of plane k over its nonempty box's rows (a view)."""
        r0, r1, c0, c1 = self.boxes[k]
        return self.planes[k][r0:r1, c0 >> 6:((c1 - 1) >> 6) + 1]

    def off_lattice(self, k: int, par: int, coset: bool) -> bool:
        """Whether plane k holds a cell off the checkerboard i + j = par
        mod 2, or, with ``coset``, off the coset i = j = par mod 2."""
        if self.boxes[k] is None:
            return False
        words, (i0, j0) = self.words(k), self.origin
        i = i0 + self.boxes[k][0] + np.arange(len(words))
        # bit c of a row i is column j0 + c: the checkerboard admits c = par +
        # j0 + i mod 2, the coset c = par + j0 mod 2 in rows i = par mod 2 only
        odd = (par + j0 + i * (not coset)) & 1
        bad = words & np.where(odd == 1, _EVEN_BITS, ~_EVEN_BITS)[:, None]
        return bool(bad.any() or coset and words[(i + par) & 1 == 1].any())

    def grid(self, k: int) -> BinaryGrid:
        """Plane k as a BinaryGrid, unpacked once."""
        if self.grids[k] is None and self.boxes[k] is None:
            self.grids[k] = EMPTY
        elif self.grids[k] is None:
            r0, _, c0, c1 = self.boxes[k]
            win = _unpack(self.words(k), c0 & 63, c1 - c0)
            self.grids[k] = BinaryGrid._tight(win, self.origin[0] + r0,
                                              self.origin[1] + c0)
        return self.grids[k]

    def state(self) -> SecondOrderState:
        """The walk's (current, previous) state as grids."""
        new, old = self.grid(0), self.grid(1)
        return SecondOrderState(*((old, new) if self.back else (new, old)))

    def tally(self, n: int) -> CountRecord:
        """``count_values`` of the state, from popcounts of both planes and
        of their overlap over the union of the two boxes."""
        boxes = [b for b in self.boxes if b] or [(0, 0, 0, 0)]
        r0, r1, c0, c1 = zip(*boxes)
        new, old = (p[min(r0):max(r1), min(c0) >> 6:((max(c1) - 1) >> 6) + 1]
                    for p in self.planes)
        both = _popcount(new & old)
        a, b = _popcount(new) - both, _popcount(old) - both
        return CountRecord(n, *((b, a) if self.back else (a, b)), both,
                           a + b + both)


def _walk(rule: Rule, n: int, s: SecondOrderState,
          step_fn: StepFn) -> Iterator[_Planes]:
    """The one stepping loop: yields the walk's planes at steps 0..|n|.

    With the rule's own ``first_order_step`` one ``_Planes`` is stepped in
    place, so a consumer reads it (``state``, ``tally``, ``off_lattice``)
    before it asks for the next step.  A backward walk runs the recurrence on
    (previous, current): (a, b) -> (b, f[b]+a) is the forward recurrence
    with the planes' roles swapped.  A substitute ``step_fn`` may move
    cells anywhere, so it steps grid by grid and packs each new state
    into fresh planes that are only read.
    """
    back, own = n < 0, step_fn is first_order_step
    planes = _Planes(s, back, abs(n) + 1 if own else 0)
    yield planes
    step = second_order_inverse if back else second_order_step
    for _ in range(abs(n)):
        if own:
            planes.step(rule)
        else:
            planes = _Planes(step(rule, planes.state(), step_fn), back, 0)
        yield planes


def trajectory(rule: Rule, n: int, s: SecondOrderState | None = None,
               step_fn: StepFn = first_order_step) -> Iterator[SecondOrderState]:
    """The states at steps 0..|n| from ``s`` (default: the single seed).

    Steps go forward for n >= 0 and backward for n < 0, in ``_walk``.
    Each yielded state holds one newly unpacked grid; its other grid is
    the one yielded a step before.  Raises ValueError when a plane of the
    rule's own walk would span more than ``MAX_PARSED_WINDOW`` cells.
    """
    walk = _walk(rule, n, single_seed() if s is None else s, step_fn)
    return (planes.state() for planes in walk)


def evolve(rule: Rule, s: SecondOrderState, n: int,
           step_fn: StepFn = first_order_step) -> SecondOrderState:
    """Apply n forward steps (n >= 0) or |n| inverse steps (n < 0)."""
    if n == 0:  # no planes, which a loaded state may be too wide for
        return s
    *_, planes = _walk(rule, n, s, step_fn)
    return planes.state()


def trajectory_counts(rule: Rule, n_max: int,
                      step_fn: StepFn = first_order_step) -> list[CountRecord]:
    """Tallies of the seed trajectory for n = 0..n_max, read off the planes."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return [planes.tally(n) for n, planes
            in enumerate(_walk(rule, n_max, single_seed(), step_fn))]
