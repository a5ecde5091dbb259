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
                   SecondOrderState, _crop, _frame, _place, _popcount,
                   single_seed, swap_x, xor)


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
    ``_rule_words`` binds on g's words, placed whole in grid.py's frame of
    g with a room of two cells, run once and cropped."""
    i0, j0, rows, nw = _frame([g], 2)
    x = np.zeros((rows, nw), _WORD)
    _place(x, g, i0, j0)
    new = np.zeros((rows - 2, nw), _WORD)
    _rule_words(rule, x.ravel(), nw, new.ravel(),
                np.empty(4 * x.size, _WORD))()
    return _crop(new, i0 + 1, j0, keep=True)


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
    the BinaryGrid it holds once one has been handed out.  A layout starts
    from grids, a new one from the planes' hand-outs, and sets ``age``,
    the steps taken since, to 0.  Its planes are grid.py's frame of the
    grids with a room of _ROOM + 1 cells, so only grid.py lays out and
    crops words.  f has radius one, so a state grows by at most one cell
    a step and both planes lie in the grids' union grown by age: ``grid``
    crops the plane rows of that union at hand-out, and ``tally`` and
    ``off_lattice`` read whole planes.

    The kernel writes all plane rows but the first and the last, and
    needs the first and the last bit of each row it reads empty, so a
    step is exact while f of the current state, in the union grown by
    age + 1, keeps off the planes' edge rows (the columns have at least
    the rows' room): for age < _ROOM.
    The step at age _ROOM lays the planes out anew first.  f of an empty
    row is empty, so the kernel's views are fixed for a layout: the first
    step after one binds one call per plane role, both on one scratch
    buffer sized to the planes, and each step runs one call; the calls
    swap along with the planes.
    """

    def __init__(self, s: SecondOrderState, reach: int = 0):
        self._lay_out([s.current, s.previous], reach)

    def _lay_out(self, grids: list[BinaryGrid], reach: int = 0) -> None:
        """Both planes anew, plane k holding grids[k], over the union of
        the grids' boxes grown by the room, refused with ValueError before
        any plane is made when that union grown by ``reach`` spans more
        than ``MAX_PARSED_WINDOW`` cells."""
        self._calls: list[Callable[[], None]] = []  # and so their scratch
        i0, i1, j0, j1 = zip(*[g.bounds() for g in grids if g] or [(0,) * 4])
        rows = max(i1) - min(i0) + 1 + 2 * reach
        cols = max(j1) - min(j0) + 1 + 2 * reach
        if rows * cols > MAX_PARSED_WINDOW:
            raise ValueError(f"a walk plane of {rows} x {cols} cells spans "
                             f"more than {MAX_PARSED_WINDOW} cells")
        i0, j0, rows, words = _frame(grids, _ROOM + 1)
        self.origin, self.planes, self.age = (i0, j0), [], 0
        self.grids: list[BinaryGrid | None] = list(grids)
        for g in grids:
            self.planes.append(np.zeros((rows, words), _WORD))
            _place(self.planes[-1], g, i0, j0)

    def step(self, rule: Rule) -> None:
        """X_{k+2} = f(X_{k+1}) + X_k, written over X_k; then swap roles.
        The planes are laid out anew at age _ROOM, and the rule is bound
        at the first step after each layout."""
        if self.age == _ROOM:
            self._lay_out([self.grid(0), self.grid(1)])
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
        """Plane k as a BinaryGrid, made once: a copy of the words of its
        tight box, found in the rows of the layout's union grown by age."""
        if self.grids[k] is None:
            r, (i0, j0) = _ROOM + 1 - self.age, self.origin
            self.grids[k] = _crop(self.planes[k][r:len(self.planes[k]) - r],
                                  i0 + r, j0)
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
