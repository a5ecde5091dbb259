"""Render a four-state configuration over the fixed window [-n, n]^2.

The window is tied to the step index rather than the bounding box so that
images at successive steps nest visually.  Rows run top to bottom from
j = +n to j = -n; columns left to right from i = -n to i = +n.

A format is a header, a separator and a token per cell value.  Its byte
table maps each value to separator + token, and 4 to a newline, each
NUL-padded to one item, so a row of pixels is one gather.  Rows are
gathered in blocks of ~1 MiB; each row's first separator and the NULs go.
"""

from __future__ import annotations

import numpy as np

from .grid import SecondOrderState, _int64_bounds

#: cell value -> RGB for PPM output
PALETTE = {0: (255, 255, 255), 1: (0, 0, 0), 2: (128, 128, 128), 3: (255, 0, 0)}

TXT_CHARS = ".123"

#: format -> (header, separator, token of each cell value)
_FORMATS = {"txt": ("", "", TXT_CHARS), "pbm": ("P1\n{w} {h}\n", " ", "0111"),
            "ppm": ("P3\n{w} {h}\n255\n", " ",
                    [" ".join(map(str, PALETTE[x])) for x in range(4)])}


def value_window(s: SecondOrderState, n: int) -> np.ndarray:
    """(2n+1, 2n+1) cell values, row 0 at j = +n; cells outside are dropped."""
    if n < 0:
        raise ValueError("window radius must be nonnegative")
    v = np.zeros((2 * n + 1, 2 * n + 1), dtype=np.uint8)
    for weight, g in ((1, s.current), (2, s.previous)):
        if not g:
            continue
        imin, imax, jmin, jmax = _int64_bounds(g)
        i0, i1, j0, j1 = max(imin, -n), min(imax, n), max(jmin, -n), min(jmax, n)
        if i0 <= i1 and j0 <= j1:
            clip = g.window[i0 - imin:i1 - imin + 1, j0 - jmin:j1 - jmin + 1]
            v[n - j1:n - j0 + 1, i0 + n:i1 + n + 1] += weight * clip.T[::-1]
    return v


def render(s: SecondOrderState, n: int, fmt: str) -> str:
    if fmt not in _FORMATS:
        raise ValueError(f"unknown render format {fmt!r}")
    head, sep, tokens = _FORMATS[fmt]
    table = np.array([sep + t for t in tokens] + ["\n"], "S")
    v = value_window(s, n)
    h, w = v.shape
    rows = max(1, (1 << 20) // ((w + 1) * table.itemsize))
    parts = [head.format(w=w, h=h)]
    for r in range(0, h, rows):
        ext = np.full((min(rows, h - r), w + 1), 4, dtype=np.uint8)
        ext[:, :w] = v[r:r + rows]
        out = table.view(f"V{table.itemsize}")[ext].view(np.uint8)
        out[:, :len(sep)] = 0
        parts.append(out.tobytes().replace(b"\0", b"").decode("ascii"))
    return "".join(parts)


def render_txt(s: SecondOrderState, n: int) -> str:
    return render(s, n, "txt")


def render_pbm(s: SecondOrderState, n: int) -> str:
    """Plain PBM (P1): nonzero cell value -> black pixel (1)."""
    return render(s, n, "pbm")


def render_ppm(s: SecondOrderState, n: int) -> str:
    """Plain PPM (P3) with the fixed four-color palette."""
    return render(s, n, "ppm")
