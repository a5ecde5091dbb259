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
:class:`~revca.grid.BinaryGrid` keeps; it binds the rule's ufuncs to
views made once and returns the call.  ``first_order_step`` binds it on
one grid and runs it once.  A walk binds it once per layout of its two
compact planes, over their whole rows and with temporaries in scratch
that the walk keeps; each step is one call, which xors the result into
the older plane in place.  The tallies and the coloring checks read
the plane words.  The tests check the kernel against a dense
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


#: the shift of a word and that of its carry into the next word
_SHIFTS = np.array([[1], [63]], dtype=np.uint64)
#: a plane word with a bit at every even column; ~ marks the odd ones
_EVEN_BITS = np.uint64(0x5555555555555555)


def _rule_words(rule: Rule, x: np.ndarray, nw: int, acc: np.ndarray,
                tmp: np.ndarray) -> Callable[[], None]:
    """A call that runs acc ^= f on the packed rows of x but the first and
    the last, each reading the rows above and below; x is flat and
    row-major with nw words per row, acc holds the len(x) - 2 nw words of
    the rows computed and tmp is scratch of at least 4 len(x) words.

    Every view is made here, once, and the call runs the rule's ufuncs on
    them with ``out`` positional, so a walk binds it once per layout and
    pays only the ufunc calls per step.  One shift each way by (1, 63)
    gives each word shifted by one and the bit it carries into its
    neighbor, so bits move between the words of a row; none crosses
    between rows because the first bit and the last bit of every row of x
    are 0.
    """
    m, r = len(x), 2 * nw
    t = tmp[:4 * m].reshape(4, m)
    west, east = t[0], t[2]  # bit j holds the cell at j - 1, at j + 1
    ops = [(np.left_shift, x, _SHIFTS, t[:2]),
           (np.right_shift, x, _SHIFTS, t[2:]),
           (np.bitwise_or, west[1:], t[3, :-1], west[1:]),
           (np.bitwise_or, east[:-1], t[1, 1:], east[:-1])]
    if rule is Rule.C1:
        ops += [(np.bitwise_xor, west, east, west),
                (np.bitwise_xor, acc, west[:-r], acc),
                (np.bitwise_xor, acc, west[r:], acc)]
    else:
        n, s, w, e = x[:-r], x[r:], west[nw:-nw], east[nw:-nw]
        # east's row is free for N&S once W&E and the diagonals are read
        odd, mask, ns = t[1, :m - r], t[3, :m - r], east[:m - r]
        ops += [(np.bitwise_xor, n, s, odd), (np.bitwise_xor, odd, w, odd),
                (np.bitwise_xor, odd, e, odd), (np.bitwise_xor, acc, odd, acc)]
    if rule in (Rule.C3, Rule.C3p):
        # odd parity is one or three neighbors, and any three hold N,S or
        # W,E: acc ^= odd & mask takes back the cells the mask excludes
        ops.append((np.bitwise_and, w, e, mask))
        if rule is Rule.C3p:  # and so does any diagonal neighbor
            ops += [(np.bitwise_or, west, east, west),
                    (np.bitwise_or, mask, west[:-r], mask),
                    (np.bitwise_or, mask, west[r:], mask)]
        ops += [(np.bitwise_and, n, s, ns), (np.bitwise_or, mask, ns, mask),
                (np.bitwise_and, mask, odd, mask),
                (np.bitwise_xor, acc, mask, acc)]

    def run() -> None:
        for ufunc, a, b, out in ops:
            ufunc(a, b, out)
    return run


def first_order_step(rule: Rule, g: BinaryGrid) -> BinaryGrid:
    """One application of the named first-order rule: the call that
    ``_rule_words`` binds on g's words below two empty rows and right of
    one empty bit, run once and cropped."""
    (i0, j0), w = g.origin, g._ncols
    nw = -(-(w + 2) // 64)  # the last bit of each row stays empty
    x = np.zeros((len(g._w) + 4, nw), _WORD)
    _xor_at(x, g._w, 2, 1)
    new = np.zeros((len(g._w) + 2, nw), _WORD)
    _rule_words(rule, x.ravel(), nw, new.ravel(),
                np.empty(4 * x.size, _WORD))()
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


#: most steps a walk from the seed takes: the walk is refused when the
#: seed's box grown by |n| + 1, (2|n| + 3)^2 cells, spans more than
#: MAX_PARSED_WINDOW
MAX_SEED_STEPS = (math.isqrt(MAX_PARSED_WINDOW) - 3) // 2
#: steps a walk takes between two layouts of its planes, whose room is
#: _ROOM + 1 cells
_ROOM = 16


class _Planes:
    """The two newest states X_{k+1}, X_k of a walk X_{k+1} = f(X_k) + X_{k-1}
    on two compact bit-packed planes (rows along i, bits along j).

    Index 0 is the newest plane, the current component; each plane keeps
    the BinaryGrid it holds once one has been handed out.  A layout
    records ``span``, the union of both states' tight boxes in plane
    coordinates (r0, r1, c0, c1), half-open, and sets ``age``, the steps
    taken since, to 0.  f has radius one, so a state grows by at most one
    cell a step and both planes lie in span grown by age: ``_box``
    tightens that region at hand-out and at the next layout, and
    ``tally`` and ``off_lattice`` read whole planes.

    Every layout spans ``span`` grown by a room of _ROOM + 1 cells, and by
    up to 63 more columns so that words move whole.  The kernel writes all
    plane rows but the first and the last, and needs the first and the
    last bit of each row it reads empty, so a step is exact while f of the
    current state, in span grown by age + 1, keeps off the planes' edge
    rows (the columns have at least the rows' room): for age < _ROOM.
    The step at age _ROOM lays the planes out anew first.  f of an empty
    row is empty, so the kernel's views are fixed for a layout: the first
    step after one binds one call per plane role, both on one scratch
    buffer sized to the planes, and each step runs one call; the calls
    swap along with the planes.
    """

    def __init__(self, s: SecondOrderState, reach: int = 0):
        self.grids: list[BinaryGrid | None] = [s.current, s.previous]
        self._lay_out([(g._w, *g.origin, (0, len(g._w), 0, g._ncols))
                       if g else None for g in self.grids], reach)

    def _lay_out(self, parts: list, reach: int = 0) -> None:
        """Both planes anew over the union of the parts' boxes grown by the
        room, refused with ValueError before any plane is made when that
        union grown by ``reach`` spans more than ``MAX_PARSED_WINDOW`` cells.
        Part k is None or (words, i, j, box): plane k's cells are the set
        bits of words in box, a tight box, and bit 0 of words' row 0 is the
        cell (i, j).  Column j0 lies whole words from the first part's j,
        up to 63 columns further out than the room asks, so that part's
        words move without a bit shift: on a new layout, both parts' words."""
        self._calls: list[Callable[[], None]] = []  # and so their scratch
        parts_in = list(filter(None, parts))
        spans = [(i + r0, i + r1, j + c0, j + c1)
                 for _, i, j, (r0, r1, c0, c1) in parts_in]
        lo_i, hi_i, lo_j, hi_j = zip(*spans or [(0, 1, 0, 1)])
        rows = max(hi_i) - min(lo_i) + 2 * reach
        cols = max(hi_j) - min(lo_j) + 2 * reach
        if rows * cols > MAX_PARSED_WINDOW:
            raise ValueError(f"a walk plane of {rows} x {cols} cells spans "
                             f"more than {MAX_PARSED_WINDOW} cells")
        room = _ROOM + 1
        i0, j0 = min(lo_i) - room, min(lo_j) - room
        j0 -= (j0 - (parts_in[0][2] if parts_in else j0)) % 64
        self.span = (min(lo_i) - i0, max(hi_i) - i0,
                     min(lo_j) - j0, max(hi_j) - j0)
        shape = (self.span[1] + room, -(-(self.span[3] + room) // 64))
        self.origin, self.planes, self.age = (i0, j0), [], 0
        for part in parts:
            self.planes.append(np.zeros(shape, _WORD))
            if part:
                w, i, j, (r0, r1, c0, c1) = part
                wa = c0 >> 6
                _xor_at(self.planes[-1], w[r0:r1, wa:((c1 - 1) >> 6) + 1],
                        i + r0 - i0, j + 64 * wa - j0)

    def step(self, rule: Rule) -> None:
        """X_{k+2} = f(X_{k+1}) + X_k, written over X_k; then swap roles.
        The planes are laid out anew at age _ROOM, and the rule is bound
        at the first step after each layout."""
        if self.age == _ROOM:
            self._lay_out([(p, *self.origin, b) if b else None for p, b
                           in zip(self.planes, map(self._box, (0, 1)))])
        if not self._calls:  # each plane's rows give f on the other's
            tmp = np.empty(4 * self.planes[0].size, _WORD)  # inner rows
            self._calls = [_rule_words(rule, a.ravel(), a.shape[1],
                                       b[1:-1].ravel(), tmp)
                           for a, b in (self.planes, self.planes[::-1])]
        self._calls[0]()
        self.age += 1
        self.planes.reverse()
        self._calls.reverse()
        self.grids = [None, self.grids[0]]

    def _box(self, k: int) -> tuple[int, int, int, int] | None:
        """Plane k's tight box, or None when it is empty: span grown by
        age, which stays on the planes since age <= _ROOM, tightened."""
        a, (r0, r1, c0, c1) = self.age, self.span
        return _tight_box(self.planes[k], r0 - a, r1 + a, c0 - a, c1 + a)

    def off_lattice(self, k: int, par: int, coset: bool) -> bool:
        """Whether plane k holds a cell off the checkerboard i + j = par
        mod 2, or, with ``coset``, off the coset i = j = par mod 2."""
        words, (i0, j0) = self.planes[k], self.origin
        i = i0 + np.arange(len(words))
        # bit c of a row i is column j0 + c: the checkerboard admits c = par +
        # j0 + i mod 2, the coset c = par + j0 mod 2 in rows i = par mod 2 only
        odd = (par + j0 + i * (not coset)) & 1
        bad = words & np.where(odd == 1, _EVEN_BITS, ~_EVEN_BITS)[:, None]
        return bool(bad.any() or coset and words[(i + par) & 1 == 1].any())

    def grid(self, k: int) -> BinaryGrid:
        """Plane k as a BinaryGrid: a shifted copy of the words in its
        tight box, made once."""
        if self.grids[k] is None:
            self.grids[k] = _crop(self.planes[k], *self.origin, self._box(k))
        return self.grids[k]

    def state(self) -> SecondOrderState:
        """The walk's (current, previous) state as grids."""
        return SecondOrderState(self.grid(0), self.grid(1))

    def tally(self, n: int) -> CountRecord:
        """``count_values`` of the state, from popcounts of both planes and
        of their overlap."""
        new, old = self.planes
        both = _popcount(new & old)
        a, b = _popcount(new) - both, _popcount(old) - both
        return CountRecord(n, a, b, both, a + b + both)


def _walk(rule: Rule, n: int, s: SecondOrderState,
          step_fn: StepFn) -> Iterator[_Planes]:
    """The one stepping loop: yields the walk's planes at steps 0..n, n >= 0.

    Its start's planes take reach n + 1, whatever the ``step_fn``, and the
    own walk's later layouts lie within that reach, so they take none.
    With the rule's own ``first_order_step`` one ``_Planes`` is stepped in
    place, so a consumer reads it (``state``, ``tally``, ``off_lattice``)
    before it asks for the next step.  A substitute ``step_fn`` may move
    cells anywhere, so it steps grid by grid and packs each new state
    into fresh planes that are only read.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    planes = _Planes(s, n + 1)
    yield planes
    for _ in range(n):
        if step_fn is first_order_step:
            planes.step(rule)
        else:
            planes = _Planes(second_order_step(rule, planes.state(), step_fn))
        yield planes


def trajectory(rule: Rule, n: int, s: SecondOrderState | None = None,
               step_fn: StepFn = first_order_step) -> Iterator[SecondOrderState]:
    """The states at steps 0..|n| from ``s`` (default: the single seed).

    Steps go forward for n >= 0, in ``_walk``, and backward for n < 0 by
    F^-1 = X F X: the forward walk of the swapped state, swapped back.
    Each yielded state holds one newly copied grid; its other grid is
    the one yielded a step before.  Raises ValueError when the start's box
    grown by |n| + 1 spans more than ``MAX_PARSED_WINDOW`` cells.
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
