"""Population sequences R, R1, R2 by closed-form recursion.

R(n) is the number of nonzero cells at step n of any of the four lifts
started from the single seed; R1 and R2 count cells of value 1 and 2.

Cross-relations: R2(n+1) = R1(n); R(n) = R2(n) + R2(n+1);
R(n) = R1(2n) = R2(2n+1).

The fast path is a memo-free ladder over the bits of n.  R2 obeys Stern's
diatomic recurrence R2(2m) = 4 R2(m), R2(2m+1) = R2(m) + R2(m+1), so the
pair (R2(n), R2(n+1)) follows from the bits of n, most significant first
(Dijkstra's *fusc*, EWD570/EWD578), and the other two sequences follow
from the cross-relations.  A term costs one step per bit, so indices
around 2^200 stay cheap, and the module keeps no state between calls.
``build_table`` walks it once per row, checks each row against two other
walks, and is what the CLI's recursive table and ``counts`` suite read.

The paper's power-of-two splitting recursion, with a memo that lives for
one call, is kept as ``seq_value_alt``: an independent cross-check of the
ladder.  All arithmetic is plain Python integers, so large indices never
overflow.
"""

from __future__ import annotations

import enum
from typing import Callable, Sequence


class SeqId(enum.Enum):
    R = "R"
    R1 = "R1"
    R2 = "R2"


class IndexOutOfRangeError(ValueError):
    """Index outside the domain of a sequence, recursion or decomposition."""


class RelationViolationError(AssertionError):
    """A cross-relation between R, R1, R2 failed (implementation bug)."""


def binary_weight(k: int) -> int:
    """Number of ones in the binary expansion of k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return k.bit_count()


def linear_count(dim: str, k: int) -> int:
    """Population of the linear CA at step k from a single seed.

    'one' is the 1-D rule a_i -> a_{i-1} + a_{i+1} mod 2 ("rule 90"),
    giving 2^weight; 'two' is first-order C1 or C2, giving 4^weight.
    """
    if dim == "one":
        return 1 << binary_weight(k)
    if dim == "two":
        return 1 << (2 * binary_weight(k))
    raise ValueError(f"dim must be 'one' or 'two', got {dim!r}")


def _r2_pair(n: int) -> tuple[int, int]:
    """(R2(n), R2(n+1)) for n >= 0 from the bits of n, most significant first."""
    a, b = 0, 1  # (R2(0), R2(1))
    for bit in bin(n)[2:]:
        if bit == "1":  # m -> 2m+1: (R2(m) + R2(m+1), 4 R2(m+1))
            a += b
            b <<= 2
        else:           # m -> 2m: (4 R2(m), R2(m) + R2(m+1))
            b += a
            a <<= 2
    return a, b


def seq_value(which: SeqId, n: int) -> int:
    """Sequence term by the binary ladder.

    Domains: R and R2 need n >= 0; R1 allows n >= -1 (the step before the
    seed exists because the automata are reversible, and R1(-1) = 0).
    """
    if which is SeqId.R1:
        if n < -1:
            raise IndexOutOfRangeError(f"R1 needs n >= -1, got {n}")
        return _r2_pair(n + 1)[0]  # R1(n) = R2(n + 1)
    if n < 0:
        raise IndexOutOfRangeError(f"{which.value} needs n >= 0, got {n}")
    r2, r1 = _r2_pair(n)
    return r2 + r1 if which is SeqId.R else r2


def _alt_terms(which: SeqId) -> Callable[[int], int]:
    """n -> R1(n) or R2(n), n >= 0, by the power-of-two splitting recursion:

    R1(2^k + j) = 4 R1(j) + R1(2^k - j - 2) for 0 <= j < 2^k, and
    R2(2^k + j) = 4 R2(j) + R2(2^k - j) for 0 < j <= 2^k.  The memo lives as
    long as the returned function, and a new term adds O(log n) entries."""
    if which is SeqId.R1:
        memo, back = {-1: 0, 0: 1}, 2
    elif which is SeqId.R2:
        memo, back = {0: 0, 1: 1}, 0
    else:
        raise ValueError("alt recursion is defined for R1 and R2 only")

    def term(m: int) -> int:
        v = memo.get(m)
        if v is None:
            k = m.bit_length() - 1
            j = m - (1 << k)
            if back == 0 and j == 0:  # R2(2^k): resplit as 2^{k-1} + 2^{k-1}
                k, j = k - 1, 1 << (k - 1)
            v = memo[m] = 4 * term(j) + term((1 << k) - j - back)
        return v

    return term


def seq_value_alt(which: SeqId, n: int) -> int:
    """R1 or R2 by the power-of-two splitting recursion, with a memo for this
    call only; agrees with seq_value."""
    if n < 0:
        raise IndexOutOfRangeError(f"alt recursion needs n >= 0, got {n}")
    return _alt_terms(which)(n)


class SequenceTable:
    """Rows (n, R, R1, R2) for n = 0..n_max; the writers take the names of
    the columns to write after n."""

    COLUMNS = ("R", "R1", "R2")

    def __init__(self, rows: list[tuple[int, int, int, int]]):
        self.rows = rows

    def to_csv(self, names: Sequence[str] = COLUMNS) -> str:
        cols = [0] + [1 + self.COLUMNS.index(w) for w in names]
        lines = [",".join(["n", *names])]
        lines += [",".join([str(row[k]) for k in cols]) for row in self.rows]
        return "\n".join(lines) + "\n"

    def to_json_obj(self, names: Sequence[str] = COLUMNS) -> list[dict[str, int]]:
        cols = [(w, 1 + self.COLUMNS.index(w)) for w in names]
        return [{"n": row[0], **{w: row[k] for w, k in cols}}
                for row in self.rows]


def build_table(n_max: int) -> SequenceTable:
    """Tabulate the three sequences off one ladder walk per row.

    Walk n gives R2(n) and R1(n) = R2(n+1), and R(n) is their sum.  Walk n+1
    must start at R2(n+1) and walk 2n+1 at R(n) = R1(2n) = R2(2n+1), or
    :class:`RelationViolationError` is raised; a correct build never is.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rows, pair = [], _r2_pair(0)
    for n in range(n_max + 1):
        (r2, r1), pair = pair, _r2_pair(n + 1)
        if pair[0] != r1:
            raise RelationViolationError(f"R2({n + 1}) != R1({n})")
        if r2 + r1 != _r2_pair(2 * n + 1)[0]:
            raise RelationViolationError(f"R({n}) != R1({2 * n}) = R2({2 * n + 1})")
        rows.append((n, r2 + r1, r1, r2))
    return SequenceTable(rows)
