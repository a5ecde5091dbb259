"""Exact two-state and four-state configurations on the unbounded integer lattice.

A configuration is a finite set of occupied cells (i, j) with arbitrary
signed coordinates.  A :class:`BinaryGrid` keeps it as a dense uint8 window
cropped to the tight bounding box (axis 0 is i, axis 1 is j), so stepping,
counting and equality are vectorized.

The same set is a GF(2) Laurent polynomial in x, y: cell (i, j) is the
monomial x^i y^j.  ``+`` is xor, ``*`` is the mod-2 product and
``square`` doubles every exponent, so the closed-form algebra of the
linear rules runs on the same windows as the simulation.

A four-state configuration is an ordered pair of binary grids: the cell
value is  current + 2 * previous,  so values 0..3 encode which of the two
components contain the cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

Cell = tuple[int, int]


class MixedParityError(ValueError):
    """Grid holds cells of both (i+j) parities where one was required."""


class BinaryGrid:
    """Immutable set of occupied lattice cells with dense-window storage."""

    __slots__ = ("_a", "_imin", "_jmin")

    def __init__(self, cells: Iterable[Cell] = ()):
        cells = list(cells)
        self._fill(np.fromiter((c[0] for c in cells), np.int64, len(cells)),
                   np.fromiter((c[1] for c in cells), np.int64, len(cells)))

    def _fill(self, ii: np.ndarray, jj: np.ndarray) -> None:
        if len(ii) == 0:
            self._a, self._imin, self._jmin = np.zeros((0, 0), np.uint8), 0, 0
            return
        imin, jmin = int(ii.min()), int(jj.min())
        a = np.zeros((int(ii.max()) - imin + 1, int(jj.max()) - jmin + 1),
                     dtype=np.uint8)
        a[ii - imin, jj - jmin] = 1
        self._a, self._imin, self._jmin = a, imin, jmin

    @classmethod
    def _tight(cls, a: np.ndarray, imin: int, jmin: int) -> "BinaryGrid":
        """Wrap a window whose bounding box is already tight and nonempty."""
        g = cls.__new__(cls)
        g._a, g._imin, g._jmin = a, imin, jmin
        return g

    @classmethod
    def from_window(cls, a: np.ndarray, imin: int, jmin: int) -> "BinaryGrid":
        """Build from a dense 0/1 window; crops to the tight bounding box."""
        rows, cols = a.any(axis=1), a.any(axis=0)
        if not rows.any():
            return cls()
        # argmax of a boolean array is its first True
        r0, r1 = int(rows.argmax()), len(rows) - int(rows[::-1].argmax())
        c0, c1 = int(cols.argmax()), len(cols) - int(cols[::-1].argmax())
        return cls._tight(np.ascontiguousarray(a[r0:r1, c0:c1], dtype=np.uint8),
                          imin + r0, jmin + c0)

    @classmethod
    def from_index_arrays(cls, ii: np.ndarray, jj: np.ndarray) -> "BinaryGrid":
        g = cls.__new__(cls)
        g._fill(np.asarray(ii, dtype=np.int64), np.asarray(jj, dtype=np.int64))
        return g

    @property
    def window(self) -> np.ndarray:
        """Dense 0/1 window over the bounding box (read-only view)."""
        v = self._a.view()
        v.flags.writeable = False
        return v

    @property
    def origin(self) -> Cell:
        """(imin, jmin) of the bounding box; (0, 0) for the empty grid."""
        return (self._imin, self._jmin)

    def bounds(self) -> tuple[int, int, int, int]:
        """(imin, imax, jmin, jmax); raises ValueError when empty."""
        if self._a.size == 0:
            raise ValueError("empty grid has no bounds")
        return (self._imin, self._imin + self._a.shape[0] - 1,
                self._jmin, self._jmin + self._a.shape[1] - 1)

    def index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupied coordinates as parallel (i, j) arrays in sorted order."""
        ri, rj = np.nonzero(self._a)
        return ri.astype(np.int64) + self._imin, rj.astype(np.int64) + self._jmin

    def cells(self) -> frozenset[Cell]:
        ii, jj = self.index_arrays()
        return frozenset(zip(ii.tolist(), jj.tolist()))

    @property
    def support(self) -> frozenset[Cell]:
        """The exponent pairs (e_x, e_y) of the polynomial: its cells."""
        return self.cells()

    # --- GF(2) Laurent-polynomial algebra: cell (i, j) is x^i y^j ----------

    def __add__(self, other: "BinaryGrid") -> "BinaryGrid":
        return xor(self, other)

    def __mul__(self, other: "BinaryGrid") -> "BinaryGrid":
        """Mod-2 product: one shifted copy of the larger window per term of
        the smaller factor, xored together.

        GF(2)[x^±1, y^±1] has no zero divisors, so each extreme row and
        column of the product is a product of nonzero extreme rows or
        columns: the summed window is already tight and needs no crop.
        """
        small, big = sorted((self, other), key=len)
        if not small:
            return small
        (sh, sw), (bh, bw) = small._a.shape, big._a.shape
        out = np.zeros((sh + bh - 1, sw + bw - 1), dtype=np.uint8)
        rr, cc = np.nonzero(small._a)
        for r, c in zip(rr.tolist(), cc.tolist()):
            out[r:r + bh, c:c + bw] ^= big._a
        return BinaryGrid._tight(out, small._imin + big._imin,
                                 small._jmin + big._jmin)

    def square(self) -> "BinaryGrid":
        """p^2 over GF(2): every exponent pair doubles, no cross terms."""
        return self.pow_2k(1)

    def pow_2k(self, k: int) -> "BinaryGrid":
        """p^(2^k): the window scattered at stride 2^k, origin times 2^k."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if not self:
            return self
        d = 1 << k
        h, w = self._a.shape
        out = np.zeros(((h - 1) * d + 1, (w - 1) * d + 1), dtype=np.uint8)
        out[::d, ::d] = self._a
        return BinaryGrid._tight(out, self._imin * d, self._jmin * d)

    def shift_exponents(self, dx: int, dy: int) -> "BinaryGrid":
        """Multiply by the monomial x^dx y^dy."""
        return shift(self, dx, dy)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._a))

    def __bool__(self) -> bool:
        return self._a.size > 0

    def __contains__(self, cell: Cell) -> bool:
        i, j = cell
        r, c = i - self._imin, j - self._jmin
        if 0 <= r < self._a.shape[0] and 0 <= c < self._a.shape[1]:
            return bool(self._a[r, c])
        return False

    def __iter__(self) -> Iterator[Cell]:
        ii, jj = self.index_arrays()
        return iter(zip(ii.tolist(), jj.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryGrid):
            return NotImplemented
        return (self._imin == other._imin and self._jmin == other._jmin
                and self._a.shape == other._a.shape
                and np.array_equal(self._a, other._a))

    def __hash__(self) -> int:
        return hash((self._imin, self._jmin, self._a.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"BinaryGrid({sorted(self.cells())!r})"


EMPTY = BinaryGrid()


def xor(a: BinaryGrid, b: BinaryGrid) -> BinaryGrid:
    """Symmetric difference of two grids (GF(2) addition of configurations)."""
    if not a:
        return b
    if not b:
        return a
    ai0, ai1, aj0, aj1 = a.bounds()
    bi0, bi1, bj0, bj1 = b.bounds()
    i0, j0 = min(ai0, bi0), min(aj0, bj0)
    out = np.zeros((max(ai1, bi1) - i0 + 1, max(aj1, bj1) - j0 + 1),
                   dtype=np.uint8)
    aw, bw = a.window, b.window
    out[ai0 - i0:ai0 - i0 + aw.shape[0], aj0 - j0:aj0 - j0 + aw.shape[1]] ^= aw
    out[bi0 - i0:bi0 - i0 + bw.shape[0], bj0 - j0:bj0 - j0 + bw.shape[1]] ^= bw
    return BinaryGrid.from_window(out, i0, j0)


def shift(g: BinaryGrid, dx: int, dy: int) -> BinaryGrid:
    """Translate every cell (i, j) to (i + dx, j + dy)."""
    if not g:
        return g
    return BinaryGrid._tight(g._a, g._imin + dx, g._jmin + dy)


def diagonal_embed(g: BinaryGrid, parity: str = "even") -> BinaryGrid:
    """Map the full lattice onto one diagonal sublattice.

    even: (i, j) -> (i+j, i-j); odd: (i, j) -> (i+j+1, i-j).  Image cells
    all have coordinate sum of the requested parity.
    """
    _check_parity_arg(parity)
    ii, jj = g.index_arrays()
    if parity == "even":
        return BinaryGrid.from_index_arrays(ii + jj, ii - jj)
    return BinaryGrid.from_index_arrays(ii + jj + 1, ii - jj)


def diagonal_extract(g: BinaryGrid, parity: str = "even") -> BinaryGrid:
    """Inverse of :func:`diagonal_embed` on its image.

    Raises :class:`MixedParityError` if any cell of ``g`` has the wrong
    (i+j) parity, i.e. the configuration is not confined to one sublattice.
    """
    _check_parity_arg(parity)
    uu, vv = g.index_arrays()
    want = 0 if parity == "even" else 1
    if len(uu) and not np.all((uu + vv) % 2 == want):
        raise MixedParityError(
            f"grid has cells outside the {parity} diagonal sublattice")
    if parity == "even":
        return BinaryGrid.from_index_arrays((uu + vv) // 2, (uu - vv) // 2)
    return BinaryGrid.from_index_arrays((uu + vv - 1) // 2, (uu - vv - 1) // 2)


def _check_parity_arg(parity: str) -> None:
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


@dataclass(frozen=True)
class SecondOrderState:
    """Pair (current, previous); cell value = current + 2 * previous."""

    current: BinaryGrid
    previous: BinaryGrid


class CountRecord(NamedTuple):
    n: int
    r1: int
    r2: int
    r3: int
    total: int


def single_seed() -> SecondOrderState:
    """One cell of value 1 at the origin, everything else zero."""
    return SecondOrderState(BinaryGrid([(0, 0)]), EMPTY)


def swap_x(s: SecondOrderState) -> SecondOrderState:
    """Exchange current and previous components (values 1 <-> 2)."""
    return SecondOrderState(s.previous, s.current)


def count_values(s: SecondOrderState, n: int = 0) -> CountRecord:
    """Tally cells of value 1, 2, 3 in a state; ``n`` is caller-supplied.

    Value-3 cells lie in both components, so only the overlap of the two
    bounding boxes is compared; an empty grid has an empty box.
    """
    cur, prev = s.current, s.previous
    (ci, cj), (pi, pj) = cur.origin, prev.origin
    cw, pw = cur.window, prev.window
    i0, i1 = max(ci, pi), min(ci + cw.shape[0], pi + pw.shape[0])
    j0, j1 = max(cj, pj), min(cj + cw.shape[1], pj + pw.shape[1])
    r3 = 0
    if i0 < i1 and j0 < j1:
        r3 = int(np.count_nonzero(cw[i0 - ci:i1 - ci, j0 - cj:j1 - cj]
                                  & pw[i0 - pi:i1 - pi, j0 - pj:j1 - pj]))
    r1, r2 = len(cur) - r3, len(prev) - r3
    return CountRecord(n, r1, r2, r3, r1 + r2 + r3)


# --- text interchange format ------------------------------------------------
# '#bgrid v1 count=N' and '#lpoly v1 terms=N' share one layout: the header,
# then one 'i j' line per cell in sorted order.  The writer formats one
# ' j\n' label per occupied column and one str(i) per occupied row, and
# writes a row as str(i).join over its cells' labels.  Coordinates are the
# Python-int origin plus an offset, so they stay exact past int64, and a
# wide window costs one boolean row, not a Python object per column.

def _to_text(g: BinaryGrid, tag: str, key: str) -> str:
    cols = np.flatnonzero(g._a.any(axis=0))
    sub = g._a[:, cols]
    per_row = np.count_nonzero(sub, axis=1)
    rows = np.flatnonzero(per_row)
    labels = np.array([f" {g._jmin + c}\n" for c in cols.tolist()],
                      dtype=object)[np.nonzero(sub)[1]].tolist()
    out, s = [f"{tag} v1 {key}={len(labels)}\n"], 0
    for r, e in zip(rows.tolist(), np.cumsum(per_row[rows]).tolist()):
        i = str(g._imin + r)
        out += (i, i.join(labels[s:e]))
        s = e
    return "".join(out)


#: largest bounding box, in cells, that a parsed block (256 MiB as a
#: window) or a bit-packed walk plane (32 MiB) may span
MAX_PARSED_WINDOW = 1 << 28


def _from_text(text: str, tag: str, key: str) -> BinaryGrid:
    """Strict parser: ValueError on any malformed header or cell line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if head[:2] != [tag, "v1"]:
        raise ValueError(f"missing '{tag} v1' header")
    if len(head) != 3 or not head[2].startswith(f"{key}="):
        raise ValueError(f"'{tag} v1' header needs exactly '{key}=N'")
    body = lines[1:]
    try:
        declared = int(head[2][len(key) + 1:])
        if any(len(ln.split()) != 2 for ln in body):
            raise ValueError
        ij = np.array(" ".join(body).split(), dtype=np.int64).reshape(-1, 2)
    except (ValueError, OverflowError):
        raise ValueError(f"malformed '{tag} v1' block: {key} must be an "
                         f"integer and each line two integers 'i j'") from None
    area = np.prod(np.ptp(ij.astype(float), axis=0) + 1) if len(ij) else 0
    if area > MAX_PARSED_WINDOW:
        raise ValueError(f"'{tag} v1' block spans more than "
                         f"{MAX_PARSED_WINDOW} cells")
    g = BinaryGrid.from_index_arrays(ij[:, 0], ij[:, 1])
    if not declared == len(body) == len(g):
        raise ValueError(f"header {key}={declared} but {len(body)} lines "
                         f"holding {len(g)} distinct cells")
    return g


def grid_to_text(g: BinaryGrid) -> str:
    """Serialize: header '#bgrid v1 count=N', then sorted 'i j' lines."""
    return _to_text(g, "#bgrid", "count")


def grid_from_text(text: str) -> BinaryGrid:
    return _from_text(text, "#bgrid", "count")
