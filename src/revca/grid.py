"""Exact two-state and four-state configurations on the unbounded integer lattice.

A configuration is a finite set of occupied cells (i, j) with arbitrary
signed coordinates.  A :class:`BinaryGrid` keeps its tight bounding box as
bit-packed rows of little-endian uint64 words, one row per i.  Every grid
and walk plane has one column-to-bit map: column j is bit j & 63 of word
(j >> 6) - (jmin >> 6), every bit outside jmin..jmax is 0, and jmin and
the column count are exact.  The layout is canonical, so equality and
hashing compare words; xor, crops and placement move whole words, and
bits move only where cells move, in ``shift``, ``from_window`` and
products.  Only this module frames and crops word arrays: ``_frame``
gives the origin and shape of the words over a union of boxes grown by
a room, for xor, a rule step and a walk's planes, and ``_crop`` finds
the tight box of an array's set bits.  Cells are read off the nonzero
words.  ``window`` unpacks a dense 0/1 array, for the renderer, the
diamond check and tests.

The same set is a GF(2) Laurent polynomial in x, y: cell (i, j) is the
monomial x^i y^j.  ``+`` is xor, ``*`` is the mod-2 product and
``square`` doubles every exponent, so the closed-form algebra of the
linear rules runs on the same words as the simulation.

A four-state configuration is an ordered pair of binary grids: the cell
value is  current + 2 * previous,  so values 0..3 encode which of the two
components contain the cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

Cell = tuple[int, int]

#: word dtype of a grid row: bit k of word w is column 64 (w + (jmin >> 6)) + k
_WORD = np.dtype("<u8")
#: bit k set, for k = 0..63
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
#: byte b with its bit k moved to bit 2k: a squaring spreads each byte
_SPREAD = np.array([sum((b >> k & 1) << 2 * k for k in range(8))
                    for b in range(256)], dtype="<u2")


class MixedParityError(ValueError):
    """Grid holds cells of both (i+j) parities where one was required."""


def _nwords(j0: int, ncols: int) -> int:
    """Words of a row that holds the columns j0..j0 + ncols - 1, ncols > 0."""
    return ((j0 + ncols - 1) >> 6) - (j0 >> 6) + 1


def _popcount(words: np.ndarray) -> int:
    """Set bits in an array of words."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2
        return int(np.bitwise_count(words).sum())
    return int(np.count_nonzero(np.unpackbits(words.view(np.uint8))))


class BinaryGrid:
    """Immutable set of occupied lattice cells on bit-packed rows."""

    __slots__ = ("_w", "_imin", "_jmin", "_ncols")

    def __init__(self, cells: Iterable[Cell] = ()):
        try:
            ij = np.array(list(cells), dtype=np.int64).reshape(-1, 2)
        except OverflowError:
            raise ValueError("a cell coordinate leaves int64") from None
        self._fill(ij[:, 0], ij[:, 1])

    def _fill(self, ii: np.ndarray, jj: np.ndarray) -> None:
        imin, jmin = (int(ii.min()), int(jj.min())) if len(ii) else (0, 0)
        r, c = ii - imin, jj - (jmin & -64)
        top = int(c.max(initial=-1))
        words = np.zeros((int(r.max(initial=-1)) + 1, (top >> 6) + 1), _WORD)
        np.bitwise_or.at(words.ravel(), r * words.shape[1] + (c >> 6),
                         _BIT[c & 63])
        self._w, self._imin, self._jmin = words, imin, jmin
        self._ncols = top + 1 - (jmin & 63)

    @classmethod
    def _tight(cls, words: np.ndarray, imin: int, jmin: int,
               ncols: int) -> "BinaryGrid":
        """Wrap C-contiguous words whose box is already tight and nonempty."""
        g = cls.__new__(cls)
        g._w, g._imin, g._jmin, g._ncols = words, imin, jmin, ncols
        return g

    @classmethod
    def from_window(cls, a: np.ndarray, imin: int, jmin: int) -> "BinaryGrid":
        """Build from a dense 0/1 window, padded to whole words (jmin & 63
        columns on the left); crops to the tight bounding box."""
        s, w = jmin & 63, a.shape[1]
        pad = np.pad(a, ((0, 0), (s, -(s + w) % 64)))
        words = np.packbits(pad, axis=1, bitorder="little").view(_WORD)
        return _crop(words, imin, jmin - s, keep=True)

    @classmethod
    def from_index_arrays(cls, ii: np.ndarray, jj: np.ndarray) -> "BinaryGrid":
        g = cls.__new__(cls)
        g._fill(np.asarray(ii, dtype=np.int64), np.asarray(jj, dtype=np.int64))
        return g

    @property
    def window(self) -> np.ndarray:
        """Dense 0/1 window over the bounding box, unpacked on each call."""
        s = self._jmin & 63
        return np.unpackbits(self._w.view(np.uint8), axis=1,
                             count=s + self._ncols, bitorder="little")[:, s:]

    @property
    def origin(self) -> Cell:
        """(imin, jmin) of the bounding box; (0, 0) for the empty grid."""
        return (self._imin, self._jmin)

    def bounds(self) -> tuple[int, int, int, int]:
        """(imin, imax, jmin, jmax); raises ValueError when empty."""
        if not self:
            raise ValueError("empty grid has no bounds")
        return (self._imin, self._imin + len(self._w) - 1,
                self._jmin, self._jmin + self._ncols - 1)

    def index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupied coordinates as parallel int64 (i, j) arrays in sorted
        order; raises ValueError when a coordinate leaves int64."""
        if self:
            _int64_bounds(self)
        ri, rj = _set_bits(self._w)
        return ri + self._imin, rj + (self._jmin & -64)

    def cells(self) -> frozenset[Cell]:
        return frozenset(self)

    #: the exponent pairs (e_x, e_y) of the polynomial: its cells
    support = property(cells)

    # --- GF(2) Laurent-polynomial algebra: cell (i, j) is x^i y^j ----------

    def __add__(self, other: "BinaryGrid") -> "BinaryGrid":
        return xor(self, other)

    def __mul__(self, other: "BinaryGrid") -> "BinaryGrid":
        """Mod-2 product: the factor with more terms, laid out flat in rows
        of the product's n words, is shifted once for each bit column of
        the other factor's terms and xored in at each of that column's rows.

        A shift to bit column 64 q + s moves the flat words by q and their
        bits by s, each word carrying its top s bits into the next.  The
        product's base word, (jmin_a + jmin_b) >> 6, lies e = 0 or 1 above
        the sum of the factors', so a copy lands e words down: the flat
        product has a head word, and the flat factor, whose rows are at
        most n + e words, one spare word for e = 1; a row of n + 1 words
        shares its last word with the next row's first, their bits below
        and above every shift's carry.  Every shifted row still fits the
        product's columns, so no set bit crosses into another row or the
        head word, and the copy's last q words are 0 and dropped.

        GF(2)[x^±1, y^±1] has no zero divisors, so each extreme row and
        column of the product is a product of nonzero extreme rows or
        columns: the summed words are already tight and need no crop.
        """
        small, big = sorted((self, other), key=len)
        if not small:
            return small
        jmin, ncols = small._jmin + big._jmin, small._ncols + big._ncols - 1
        n, h = _nwords(jmin, ncols), len(big._w)
        e = (jmin >> 6) - (small._jmin >> 6) - (big._jmin >> 6)
        out = np.zeros((len(small._w) + h - 1) * n + 1, _WORD)
        b = np.zeros(h * n + e, _WORD)
        b[:h * n].reshape(h, n)[:, :big._w.shape[1]] = big._w[:, :n]
        if big._w.shape[1] > n:
            b[n::n] |= big._w[:, n]
        terms, (rr, ww) = [], np.nonzero(small._w)
        for r, w, v in zip(rr.tolist(), ww.tolist(),
                           small._w[rr, ww].tolist()):
            while v:
                low = v & -v
                terms.append((64 * w + low.bit_length() - 1, r))
                v ^= low
        last = -1
        for c, r in sorted(terms):
            if c != last:  # a new column: one copy for all its rows
                q, s, last = c >> 6, c & 63, c
                t = b[:len(b) - q]
                if s:
                    t = t << np.uint64(s)
                    t[1:] |= b[:len(t) - 1] >> np.uint64(64 - s)
            o = r * n + q + 1 - e
            out[o:o + len(t)] ^= t
        return BinaryGrid._tight(out[1:].reshape(-1, n),
                                 small._imin + big._imin, jmin, ncols)

    def square(self) -> "BinaryGrid":
        """p^2 over GF(2): every exponent pair doubles, no cross terms."""
        return self.pow_2k(1)

    def pow_2k(self, k: int) -> "BinaryGrid":
        """p^(2^k): k times each word's bits spread over two words (bit b
        to bit 2b, one ``take`` from a byte table), the rows written 2^k
        apart, the origin times 2^k, and sliced to the words of its columns."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if not self:
            return self
        d, words = 1 << k, self._w
        for _ in range(k):
            words = _SPREAD.take(words.view(np.uint8)).view(_WORD)
        jmin, ncols = self._jmin * d, (self._ncols - 1) * d + 1
        skip, n = (jmin >> 6) - d * (self._jmin >> 6), _nwords(jmin, ncols)
        out = np.zeros(((len(words) - 1) * d + 1, n), _WORD)
        out[::d] = words[:, skip:skip + n]
        return BinaryGrid._tight(out, self._imin * d, jmin, ncols)

    def shift_exponents(self, dx: int, dy: int) -> "BinaryGrid":
        """Multiply by the monomial x^dx y^dy."""
        return shift(self, dx, dy)

    def __len__(self) -> int:
        return _popcount(self._w)

    def __bool__(self) -> bool:
        return self._w.size > 0

    def __contains__(self, cell: Cell) -> bool:
        r, j = cell[0] - self._imin, cell[1]
        if 0 <= r < len(self._w) and 0 <= j - self._jmin < self._ncols:
            c = j - (self._jmin & -64)
            return bool(int(self._w[r, c >> 6]) >> (c & 63) & 1)
        return False

    def __iter__(self) -> Iterator[Cell]:
        ii, jj = self.index_arrays()
        return iter(zip(ii.tolist(), jj.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryGrid):
            return NotImplemented
        return (self._imin == other._imin and self._jmin == other._jmin
                and self._ncols == other._ncols
                and np.array_equal(self._w, other._w))

    def __hash__(self) -> int:
        return hash((self._imin, self._jmin, self._ncols, self._w.tobytes()))

    def __repr__(self) -> str:
        return f"BinaryGrid({list(self)!r})"


EMPTY = BinaryGrid()


def _set_bits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, bit columns) of the set bits of a C-contiguous word array, as
    int64 arrays in row-major order; only the nonzero words are unpacked,
    and their bits are scanned as bools."""
    at = np.flatnonzero(words)
    bit = np.flatnonzero(np.unpackbits(words.ravel()[at].view(np.uint8),
                                       bitorder="little").view(bool))
    row, word = np.divmod(at, words.shape[1])
    k = bit >> 6  # the nonzero word that holds each bit
    return row[k], 64 * word[k] + (bit & 63)


def _int64_bounds(g: BinaryGrid) -> tuple[int, int, int, int]:
    """g.bounds() of a nonempty grid; ValueError when one leaves int64."""
    b = g.bounds()
    if not all(-2**63 <= v < 2**63 for v in b):
        raise ValueError("a cell coordinate leaves int64")
    return b


# --- word helpers: the one frame, whole-word placement and the crop ---------

def _place(p: np.ndarray, g: BinaryGrid, i0: int, j0: int) -> None:
    """p ^= g's words, where bit 0 of p's row 0 is the cell (i0, j0) and j0
    is a multiple of 64: both hold a column at the same bit."""
    r, q = g._imin - i0, (g._jmin - j0) >> 6
    p[r:r + len(g._w), q:q + g._w.shape[1]] ^= g._w


def _frame(grids: list[BinaryGrid], room: int) -> tuple[int, int, int, int]:
    """(i0, j0, rows, words) of the word array over the union of the
    nonempty grids' boxes, or of the cell (0, 0) when there are none, grown
    by ``room`` cells on every side: bit 0 of its row 0 is the cell
    (i0, j0), and j0 is a multiple of 64, so words move whole to and from
    every grid.  xor, a rule step and a walk's planes all frame here."""
    i0, i1, j0, j1 = zip(*[(g._imin, g._imin + len(g._w), g._jmin,
                            g._jmin + g._ncols) for g in grids if g._w.size]
                         or [(0, 1, 0, 1)])
    i0, j0 = min(i0) - room, (min(j0) - room) & -64
    return i0, j0, max(i1) + room - i0, ((max(j1) + room - 1 - j0) >> 6) + 1


def _crop(p: np.ndarray, i0: int, j0: int, keep: bool = False) -> BinaryGrid:
    """The grid of the set bits of the word array p, EMPTY when there are
    none: a copy of the words of their tight box, or with ``keep`` p itself
    when those are all of p; bit 0 of p's row 0 is the cell (i0, j0), j0 a
    multiple of 64.  Each edge moves inward while its row or word is empty;
    rows all at once when an edge row is empty."""
    r0, r1, wa, wb = 0, len(p), 0, p.shape[1] - 1
    if not (np.count_nonzero(p[:1]) and np.count_nonzero(p[-1:])):
        live = np.flatnonzero(p.any(axis=1))
        if not len(live):
            return EMPTY
        r0, r1 = int(live[0]), int(live[-1]) + 1
    while not (lo := int(np.bitwise_or.reduce(p[r0:r1, wa]))):
        wa += 1
    while not (hi := int(np.bitwise_or.reduce(p[r0:r1, wb]))):
        wb -= 1
    words = p[r0:r1, wa:wb + 1]
    if not (keep and words.shape == p.shape):
        words = words.copy()
    c0 = 64 * wa + (lo & -lo).bit_length() - 1
    return BinaryGrid._tight(words, i0 + r0, j0 + c0,
                             64 * wb + hi.bit_length() - c0)


def xor(a: BinaryGrid, b: BinaryGrid) -> BinaryGrid:
    """Symmetric difference of two grids (GF(2) addition of configurations)."""
    if not a:
        return b
    if not b:
        return a
    i0, j0, rows, words = _frame([a, b], 0)
    out = np.zeros((rows, words), _WORD)
    _place(out, a, i0, j0)
    _place(out, b, i0, j0)
    return _crop(out, i0, j0, keep=True)


def shift(g: BinaryGrid, dx: int, dy: int) -> BinaryGrid:
    """Translate every cell (i, j) to (i + dx, j + dy): the same words, or
    when jmin's bit moves by s, their bits moved by s, carried across words."""
    if not g:
        return g
    jmin, w = g._jmin + dy, g._w
    if s := (jmin & 63) - (g._jmin & 63):  # down by -s: a word less, up 64 + s
        t, u = np.zeros((len(w), w.shape[1] + 1), _WORD), np.uint64(s & 63)
        t[:, :-1] = w << u
        t[:, 1:] |= w >> (np.uint64(64) - u)
        w = t[:, int(s < 0):][:, :_nwords(jmin, g._ncols)].copy()
    return BinaryGrid._tight(w, g._imin + dx, jmin, g._ncols)


def diagonal_embed(g: BinaryGrid, parity: str = "even") -> BinaryGrid:
    """Map the full lattice onto one diagonal sublattice.

    even: (i, j) -> (i+j, i-j); odd: (i, j) -> (i+j+1, i-j).  Image cells
    all have coordinate sum of the requested parity.
    """
    o, (ii, jj) = _parity(parity), g.index_arrays()
    return BinaryGrid.from_index_arrays(ii + jj + o, ii - jj)


def diagonal_extract(g: BinaryGrid, parity: str = "even") -> BinaryGrid:
    """Inverse of :func:`diagonal_embed` on its image.

    Raises :class:`MixedParityError` if any cell of ``g`` has the wrong
    (i+j) parity, i.e. the configuration is not confined to one sublattice.
    """
    o, (uu, vv) = _parity(parity), g.index_arrays()
    if np.any((uu + vv) % 2 != o):
        raise MixedParityError(
            f"grid has cells outside the {parity} diagonal sublattice")
    return BinaryGrid.from_index_arrays((uu + vv - o) // 2, (uu - vv - o) // 2)


def _parity(parity: str) -> int:
    """0 for 'even', 1 for 'odd'."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return int(parity == "odd")


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

    Value-3 cells lie in both components: r3 is the popcount of the & of
    both components' words over the rows and columns their boxes share,
    and 0 when those are none, so no union of the boxes is made.
    """
    cur, prev = s.current, s.previous
    i0, j0 = max(cur._imin, prev._imin), max(cur._jmin, prev._jmin)
    i1 = min(cur._imin + len(cur._w), prev._imin + len(prev._w))
    j1 = min(cur._jmin + cur._ncols, prev._jmin + prev._ncols)
    r3 = 0
    if i0 < i1 and j0 < j1:  # each grid's words of those rows and columns
        a, b = (g._w[i0 - g._imin:i1 - g._imin, (j0 >> 6) - (g._jmin >> 6):
                     ((j1 - 1) >> 6) + 1 - (g._jmin >> 6)] for g in (cur, prev))
        r3 = _popcount(a & b)
    r1, r2 = len(cur) - r3, len(prev) - r3
    return CountRecord(n, r1, r2, r3, r1 + r2 + r3)


# --- text interchange format ------------------------------------------------
# '#bgrid v1 count=N' and '#lpoly v1 terms=N' share one layout: the header,
# then one 'i j' line per cell in sorted order.  The writer formats one
# ' j\n' label per occupied column and one str(i) per occupied row, and
# writes a row as str(i).join over its cells' labels.  The labels sit in a
# table of 64 slots per nonzero word of the rows' union, so a cell finds
# its label by its word's rank among those words and its bit, with no
# search.  Coordinates are the Python-int origin plus an offset, so they
# stay exact past int64.  Cells are decoded in blocks of ~4096 words: a
# dense grid's cell arrays stay small.

def _to_text(g: BinaryGrid, tag: str, key: str) -> str:
    union = np.bitwise_or.reduce(g._w, axis=0)
    rank = np.cumsum(union != 0) - 1
    cols = _set_bits(union[None])[1]
    labels = np.empty(64 * np.count_nonzero(union), object)
    j0 = g._jmin & -64
    labels[64 * rank[cols >> 6] + (cols & 63)] = [f" {j0 + c}\n"
                                                  for c in cols.tolist()]
    out = [f"{tag} v1 {key}={len(g)}\n"]
    step = max(1, 4096 // max(g._w.shape[1], 1))
    for r0 in range(0, len(g._w), step):
        rr, cc = _set_bits(g._w[r0:r0 + step])
        block = labels[64 * rank[cc >> 6] + (cc & 63)].tolist()
        starts = np.flatnonzero(np.diff(rr, prepend=-1)).tolist()
        for r, s, e in zip(rr[starts].tolist(), starts, starts[1:] + [len(rr)]):
            i = str(g._imin + r0 + r)
            out += (i, i.join(block[s:e]))
    return "".join(out)


#: largest bounding box, in cells, of a parsed block, or of a walk's start
#: box grown by its reach: 2^28 cells are 32 MiB of words
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
