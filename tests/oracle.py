"""Slow, independent oracles that the tests compare the fast paths with.

``revca.rules`` runs every rule on bit-packed words; :func:`dense_step`
counts neighbors on a uint8 window instead.  ``revca.grid`` writes text
row by row off the nonzero words; :func:`cell_text` formats one line per
cell of the dense window.  ``revca.verify`` reads the growth decomposition
off walks; :func:`pair_composition` builds it from three doubling ladders.
"""

import numpy as np

from revca.gf2poly import PolyPair, state_poly_at, transition_poly
from revca.grid import BinaryGrid
from revca.rules import Rule


def neighbor_sums(g: BinaryGrid) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Orthogonal and diagonal neighbor counts on the window grown by 1."""
    w = g.window
    p = np.zeros((w.shape[0] + 4, w.shape[1] + 4), dtype=np.uint8)
    p[2:-2, 2:-2] = w
    orth = p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:]
    diag = p[:-2, :-2] + p[:-2, 2:] + p[2:, :-2] + p[2:, 2:]
    i0, j0 = g.origin
    return orth, diag, i0 - 1, j0 - 1


def dense_step(rule: Rule, g: BinaryGrid) -> BinaryGrid:
    """One application of the named first-order rule, by neighbor counts."""
    if not g:
        return g
    orth, diag, i0, j0 = neighbor_sums(g)
    if rule is Rule.C1:
        new = diag & 1
    elif rule is Rule.C2:
        new = orth & 1
    elif rule is Rule.C3:
        new = (orth == 1).astype(np.uint8)
    else:
        new = ((orth == 1) & (diag == 0)).astype(np.uint8)
    return BinaryGrid.from_window(new, i0, j0)


def cell_text(g: BinaryGrid, tag: str, key: str) -> str:
    """The '#bgrid'/'#lpoly' block of ``g``, one f-string per cell, read off
    the dense window rather than the writer's word decoder."""
    ri, rj = np.nonzero(g.window)  # row-major, i.e. sorted (i, j) order
    i0, j0 = g.origin
    lines = [f"{tag} v1 {key}={len(ri)}"]
    lines.extend(f"{i0 + i} {j0 + j}"
                 for i, j in zip(ri.tolist(), rj.tolist()))
    return "\n".join(lines) + "\n"


def pair_composition(rule: Rule, k: int, j: int) -> PolyPair | None:
    """The outer term T^{2^k} P[C_j] if P[C_{2^k+j}] = T^{2^k} P[C_j] +
    P[X C_{2^k-j-1}] holds (X swaps the pair), else None."""
    t2k = transition_poly(rule).pow_2k(k)
    pj = state_poly_at(rule, j)
    back = state_poly_at(rule, (1 << k) - j - 1)
    outer = PolyPair(t2k * pj.first, t2k * pj.second)
    want = PolyPair(outer.first + back.second, outer.second + back.first)
    return outer if state_poly_at(rule, (1 << k) + j) == want else None
