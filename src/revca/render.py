"""Render a four-state configuration over the fixed window [-n, n]^2.

The window is tied to the step index rather than the bounding box so that
images at successive steps nest visually.  Rows run top to bottom from
j = +n to j = -n; columns left to right from i = -n to i = +n.
"""

from __future__ import annotations

import numpy as np

from .grid import SecondOrderState

#: cell value -> RGB for PPM output
PALETTE = {0: (255, 255, 255), 1: (0, 0, 0), 2: (128, 128, 128), 3: (255, 0, 0)}

TXT_CHARS = ".123"

_TXT_CODES = np.frombuffer(TXT_CHARS.encode("ascii"), dtype=np.uint8)
_PPM_TOKENS = np.array([" ".join(map(str, PALETTE[x])) for x in range(4)],
                       dtype=object)


def value_window(s: SecondOrderState, n: int) -> np.ndarray:
    """(2n+1, 2n+1) array of cell values, row 0 at j = +n; cells outside
    the window are dropped."""
    if n < 0:
        raise ValueError("window radius must be nonnegative")
    size = 2 * n + 1
    v = np.zeros((size, size), dtype=np.uint8)
    for weight, g in ((1, s.current), (2, s.previous)):
        ii, jj = g.index_arrays()
        keep = (np.abs(ii) <= n) & (np.abs(jj) <= n)
        v[n - jj[keep], ii[keep] + n] += weight
    return v


def _text_rows(cells: np.ndarray) -> str:
    """uint8 character codes, one row per line, each ending in a newline."""
    h, w = cells.shape
    out = np.full((h, w + 1), ord("\n"), dtype=np.uint8)
    out[:, :w] = cells
    return out.tobytes().decode("ascii")


def render_txt(s: SecondOrderState, n: int) -> str:
    return _text_rows(_TXT_CODES[value_window(s, n)])


def render_pbm(s: SecondOrderState, n: int) -> str:
    """Plain PBM (P1): nonzero cell value -> black pixel (1)."""
    v = value_window(s, n)
    h, w = v.shape
    pix = np.full((h, 2 * w - 1), ord(" "), dtype=np.uint8)
    pix[:, ::2] = np.where(v > 0, ord("1"), ord("0"))
    return f"P1\n{w} {h}\n" + _text_rows(pix)


def render_ppm(s: SecondOrderState, n: int) -> str:
    """Plain PPM (P3) with the fixed four-color palette."""
    v = value_window(s, n)
    h, w = v.shape
    lines = [f"P3\n{w} {h}\n255"]
    lines += map(" ".join, _PPM_TOKENS[v].tolist())
    return "\n".join(lines) + "\n"


RENDERERS = {"txt": render_txt, "pbm": render_pbm, "ppm": render_ppm}


def render(s: SecondOrderState, n: int, fmt: str) -> str:
    try:
        return RENDERERS[fmt](s, n)
    except KeyError:
        raise ValueError(f"unknown render format {fmt!r}") from None
