"""Byte-identical CLI outputs: each command of a fixed corpus, run in
process through ``cli.main``, gives the exit code and the SHA-256 digests
of stdout, of stderr and of each file it writes that ``corpus.txt`` holds.

    python tests/test_corpus.py    # rewrite corpus.txt from the revca imported

A line of corpus.txt is ``argv → code stdout-sha256 stderr-sha256``, then
``path=sha256`` for each file that the command writes.  ``{dir}`` in an
argv is one temporary directory that the commands share, in order: a
``--load`` reads the state that the ``--save`` before it wrote.  The
corpus covers simulate (txt, json with --save, and a --load walk of -n/3
steps), export and render (txt, pbm, ppm for |n| <= 130) of each lift at
fourteen steps, the sequence tables by every method and --check, verify
--suite all in txt and json, and the refusals.
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from revca.cli import main

CORPUS = Path(__file__).resolve().with_name("corpus.txt")
STEPS = (-300, -65, -64, -17, -1, 0, 1, 17, 63, 64, 65, 127, 257, 400)
#: files that the refusals and a load at the parser's limit read
INPUTS = {
    "wide.txt": "#bgrid v1 count=1\n0 0\n#bgrid v1 count=1\n20000 20000\n",
    "limit.txt": f"#bgrid v1 count=2\n0 1\n0 {2**28}\n#bgrid v1 count=0\n",
    "over.txt": f"#bgrid v1 count=2\n0 1\n0 {2**28 + 1}\n#bgrid v1 count=0\n",
    "empty.txt": "",
    "one_block.txt": "#bgrid v1 count=1\n0 0\n",
    "three_blocks.txt": "#bgrid v1 count=0\n" * 3,
    "no_header.txt": "\n0 0\n#bgrid v1 count=0\n",
    "no_count.txt": "#bgrid v1\n0 0\n#bgrid v1 count=0\n",
    "not_a_cell.txt": "#bgrid v1 count=1\n0 x\n#bgrid v1 count=0\n",
    "miscounted.txt": "#bgrid v1 count=2\n0 0\n#bgrid v1 count=0\n",
}


def commands() -> list[tuple[str, ...]]:
    """The corpus's argvs, in the order they run."""
    out: list[tuple[str, ...]] = []
    for rule in ("R1", "R2", "R3", "R3p"):
        for n in STEPS:
            sim, state = ("simulate", "--rule", rule), f"{{dir}}/{rule}_{n}.txt"
            out += [(*sim, "--steps", str(n)),
                    (*sim, "--steps", str(n), "--format", "json",
                     "--save", state),
                    (*sim, "--steps", str(int(-n / 3)), "--load", state),
                    ("export", "--rule", rule, "--steps", str(n),
                     "--out", "{dir}/export.txt")]
            if abs(n) <= 130:
                out += [("render", "--rule", rule, "--step", str(n),
                         "--format", fmt) for fmt in ("txt", "pbm", "ppm")]
    out += [("sequence", "--max", "300", "--method", method)
            for method in ("recursive", "alt", "sim", "poly")]
    out += [("sequence", "--max", "300", "--check"),
            ("verify", "--suite", "all"),
            ("verify", "--suite", "all", "--format", "json"),
            ("simulate", "--rule", "R3", "--steps", "0",
             "--load", "{dir}/limit.txt")]
    # the refusals: walks, ceilings, empty ranges and malformed files
    out += [("simulate", "--rule", "R3", "--steps", "8191"),
            ("render", "--rule", "R1", "--step", "-100000"),
            ("simulate", "--rule", "R1", "--steps", "1",
             "--load", "{dir}/wide.txt"),
            ("simulate", "--rule", "R9", "--steps", "1"),
            ("sequence", "--max", "600001"),
            ("sequence", "--method", "alt", "--max", "600001"),
            ("sequence", "--method", "sim", "--max", "8191"),
            ("sequence", "--check", "--max", "8191"),
            ("verify", "--suite", "counts", "--max", str(10**20)),
            ("verify", "--suite", "diamond", "--max", "13"),
            ("sequence", "--max", "-3"),
            ("verify", "--suite", "polynomial", "--max", "-5"),
            ("verify", "--suite", "all", "--max", "0")]
    out += [("simulate", "--rule", "R1", "--steps", "1",
             "--load", f"{{dir}}/{name}") for name in INPUTS
            if name not in ("wide.txt", "limit.txt")]
    return out


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def run_corpus(tmp: Path) -> list[str]:
    """One corpus line per command, run in ``tmp``."""
    for name, text in INPUTS.items():
        (tmp / name).write_text(text)
    lines = []
    for argv in commands():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([a.replace("{dir}", str(tmp)) for a in argv])
        files = [b for a, b in zip(argv, argv[1:]) if a in ("--save", "--out")]
        digests = [f"{f}={_sha(Path(f.replace('{dir}', str(tmp))).read_text())}"
                   for f in files]
        lines.append(" ".join([*argv, "→", str(code), _sha(out.getvalue()),
                               _sha(err.getvalue()), *digests]))
    return lines


def test_cli_outputs_match_the_corpus(tmp_path, monkeypatch):
    monkeypatch.delenv("CA_DEFAULT_MAX", raising=False)
    want = CORPUS.read_text(encoding="utf-8").splitlines()
    assert [ln.split(" → ")[0] for ln in want] == \
        [" ".join(argv) for argv in commands()], "corpus.txt lists other argvs"
    bad = [f"{w.split(' → ')[0]}\n  want {w.split(' → ')[1]}\n"
           f"  got  {g.split(' → ')[1]}"
           for w, g in zip(want, run_corpus(tmp_path)) if w != g]
    assert not bad, f"{len(bad)} outputs differ:\n" + "\n".join(bad)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        text = "\n".join(run_corpus(Path(d))) + "\n"
    CORPUS.write_text(text, encoding="utf-8")
    print(f"wrote {text.count(chr(10))} lines to {CORPUS}", file=sys.stderr)
