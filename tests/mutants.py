"""Mutation harness: every seeded mutant must make its test module fail.

Run from any directory:

    python tests/mutants.py              # all mutants; exit 1 on a survivor
    python tests/mutants.py --selftest   # a docstring-only mutant survives

A mutant is (name, file under src/, exact source text, replacement, test
module).  For each one the script copies src/ to a temporary directory,
makes the edit there and runs ``pytest -x -q`` on the test module with the
copy first on PYTHONPATH; the mutant is killed when pytest fails.  Text
that is not found exactly once in its file stops the run (exit 2), so a
refactor cannot retire a mutant silently.  The mutants in ``EQUIVALENT``
change nothing a test can observe: each is listed with its reason and its
text is checked the same way, but none is run.  Before any mutant, each named module must
pass on an unmutated copy.  Standard library only; pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    module: str


_ROW = "        rows.append((n, r2 + r1, r1, r2))\n"

MUTANTS = [
    Mutant("build_table without the consecutive-walk check",
           "revca/sequences.py",
           '        if pair[0] != r1:\n'
           '            raise RelationViolationError(f"R2({n + 1}) != R1({n})")\n',
           "", "test_sequences.py"),
    Mutant("build_table without the R(n) = R2(2n+1) check",
           "revca/sequences.py",
           "        if r2 + r1 != _r2_pair(2 * n + 1)[0]:\n"
           '            raise RelationViolationError(f"R({n}) != R1({2 * n}) '
           '= R2({2 * n + 1})")\n',
           "", "test_sequences.py"),
    Mutant("R1 read from R2(n)", "revca/sequences.py",
           _ROW, _ROW.replace("r1, r2))", "r2, r2))"), "test_sequences.py"),
    Mutant("R1 = R2(n-1) in the recursive columns", "revca/sequences.py",
           _ROW, _ROW.replace("r1, r2))", "rows[-1][3] if rows else 0, r2))"),
           "test_cli.py"),
    Mutant("swapping two ladder statements", "revca/sequences.py",
           "            a += b\n            b <<= 2\n",
           "            b <<= 2\n            a += b\n", "test_sequences.py"),
    Mutant("breaking the split's resplit", "revca/sequences.py",
           "k, j = k - 1, 1 << (k - 1)", "k, j = k, 1 << (k - 1)",
           "test_sequences.py"),
    Mutant("suite_counts comparing the wrong column", "revca/verify.py",
           "want = rec[1:], (r1, r2, 0, r)", "want = rec[1:], (r2, r1, 0, r)",
           "test_verify.py"),
    Mutant("the table ceiling one row too high", "revca/cli.py",
           "if n_max > _GREATEST_TABLE_MAX:",
           "if n_max > _GREATEST_TABLE_MAX + 1:", "test_cli.py"),
    Mutant("the table ceiling one row too low", "revca/cli.py",
           "if n_max > _GREATEST_TABLE_MAX:",
           "if n_max >= _GREATEST_TABLE_MAX:", "test_cli.py"),
    Mutant("a suite that runs its check on an unchecked limit",
           "revca/verify.py", "            limit = _checked_limit(name, limit)\n",
           "", "test_verify.py"),
    Mutant("a suite's range label that starts at 0", "revca/verify.py",
           'f"{var}={least}..{limit}"', 'f"{var}=0..{limit}"',
           "test_acceptance.py"),
    Mutant("the undo check without its per-step check", "revca/verify.py",
           "        if second_order_step(rule, swap_x(last), step_fn) "
           "!= swap_x(before):\n"
           '            return f"F(X C_{i}) != X C_{i - 1}"\n',
           "        pass\n", "test_verify.py"),
    Mutant("the undo check without the walk back to the seed",
           "revca/verify.py",
           "    if evolve(rule, last, -n_max, step_fn) != single_seed():\n"
           '        return f"C_{n_max} walked back {n_max} steps is not the '
           'seed"\n', "", "test_verify.py"),
    Mutant("the growth check without its 4-seeds check", "revca/verify.py",
           "            if j == 0 and len(outer) != 4:\n"
           '                return f"n=2^{k}: outer copies are not 4 seeds"\n',
           "", "test_verify.py"),
    # the witness branches that only a negative control reaches
    Mutant("equivalence without its R3' check", "revca/verify.py",
           "        if s3p != s2:\n"
           '            return f"R3\' != R2 at n={n}: {_state_diff(s3p, s2)}"\n',
           "", "test_verify.py"),
    Mutant("replication without its overlap check", "revca/verify.py",
           "            if copies is None:\n"
           '                return (f"rule={rule.value} k={k} pattern step {m}: "\n'
           '                        f"copies overlap")\n', "", "test_verify.py"),
    Mutant("polynomial without its growth check", "revca/verify.py",
           "        if w := _growth_witness(rule, transition_poly(rule), n_max, "
           "step_fn):\n"
           '            return f"rule={rule.value} {w}"\n', "        pass\n",
           "test_verify.py"),
    Mutant("sublattice without its parity witness", "revca/verify.py",
           "        except ValueError as e:\n"
           '            return f"n={n}: {e}"\n',
           "        finally:\n            pass\n", "test_verify.py"),
    Mutant("suite_diamond without its R1 term check", "revca/verify.py",
           "        if seq.seq_value(SeqId.R1, target) != 4 ** k:\n"
           '            return f"k={k}: R1(2^{k}-1) != 4^{k}"\n', "",
           "test_verify.py"),
    Mutant("suite_diamond without its R term check", "revca/verify.py",
           "        if seq.seq_value(SeqId.R, target) != (4 ** (k + 1) - 1) // 3:\n"
           '            return f"k={k}: R(2^{k}-1) != (4^{k + 1}-1)/3"\n', "",
           "test_verify.py"),
    Mutant("suite_diamond without its bounds check", "revca/verify.py",
           "ones.bounds() != (-target, target, -target, target)\n"
           "                or ", "", "test_verify.py"),
    Mutant("suite_diamond without its coset check", "revca/verify.py",
           "\n                or planes.off_lattice(0, target & 1, True))", ")",
           "test_verify.py"),
    Mutant("off_lattice with its coloring masks swapped", "revca/rules.py",
           "np.where(odd == 1, _EVEN_BITS, ~_EVEN_BITS)",
           "np.where(odd == 1, ~_EVEN_BITS, _EVEN_BITS)", "test_verify.py"),
    Mutant("a backward seed state read off the ladder at |n|", "revca/cli.py",
           "n if n >= 0 else -n - 1", "n if n >= 0 else -n", "test_cli.py"),
    # equal outputs: only the test that R3 still walks can kill it
    Mutant("R3 seed states read off R2's ladder", "revca/cli.py",
           "if rule in (Rule.C1, Rule.C2) and abs(n) <= MAX_SEED_STEPS:\n"
           "        s = SecondOrderState(*state_poly_at(rule, ",
           "if rule in (Rule.C1, Rule.C2, Rule.C3) and abs(n) <= "
           "MAX_SEED_STEPS:\n        s = SecondOrderState(*state_poly_at("
           "Rule.C2 if rule is Rule.C3 else rule, ", "test_cli.py"),
    Mutant("a walk whose bound calls stay when the planes swap",
           "revca/rules.py", "        self._calls.reverse()\n", "",
           "test_rules.py"),
    Mutant("the kernel without the carry into the west word",
           "revca/rules.py",
           "           (np.bitwise_or, west[1:], t[3, :-1], west[1:]),\n", "",
           "test_rules.py"),
    Mutant("the kernel without the carry into the east word",
           "revca/rules.py",
           ",\n           (np.bitwise_or, east[:-1], t[1, 1:], east[:-1])]",
           "]", "test_rules.py"),
    Mutant("C3's mask without its W and E term", "revca/rules.py",
           "(np.bitwise_and, w, e, mask)", "(np.bitwise_and, w, 0, mask)",
           "test_rules.py"),
    Mutant("C3p's mask without its diagonal rows", "revca/rules.py",
           ",\n                    (np.bitwise_or, mask, west[:-r], mask),\n"
           "                    (np.bitwise_or, mask, west[r:], mask)]", "]",
           "test_rules.py"),
    Mutant("the planes laid out anew one step late", "revca/rules.py",
           "        if self.age == _ROOM:\n",
           "        if self.age == _ROOM + 1:\n", "test_rules.py"),
    Mutant("a walk whose age never advances", "revca/rules.py",
           "        self.age += 1\n", "", "test_rules.py"),
    Mutant("a plane's box not grown by the walk's age", "revca/rules.py",
           "r, (i0, j0) = _ROOM + 1 - self.age, self.origin",
           "r, (i0, j0) = _ROOM + 1, self.origin", "test_rules.py"),
    Mutant("grid(k) handing out the grown rows untightened", "revca/rules.py",
           "_crop(self.planes[k][r:len(self.planes[k]) - r],\n"
           "                                  i0 + r, j0)",
           "BinaryGrid._tight(\n"
           "                self.planes[k][r:len(self.planes[k]) - r].copy(), "
           "i0 + r, j0,\n                64 * self.planes[k].shape[1])",
           "test_rules.py"),
    Mutant("a frame origin that is not a multiple of 64", "revca/grid.py",
           "- room) & -64", "- room) & -32", "test_rules.py"),
    Mutant("the layout's column origin off by one", "revca/rules.py",
           "self.origin, self.planes, self.age = (i0, j0), [], 0",
           "self.origin, self.planes, self.age = (i0, j0 + 1), [], 0",
           "test_rules.py"),
    Mutant("a layout's row room cut by one", "revca/rules.py",
           "np.zeros((rows, words), _WORD)", "np.zeros((rows - 1, words), _WORD)",
           "test_rules.py"),
    Mutant("the layout's column room cut by one word", "revca/rules.py",
           "np.zeros((rows, words), _WORD)", "np.zeros((rows, words - 1), _WORD)",
           "test_rules.py"),
    Mutant("first_order_step's frame room cut to 1", "revca/rules.py",
           "_frame([g], 2)", "_frame([g], 1)", "test_rules.py"),
    Mutant("a product's shifted copy without its carry words",
           "revca/grid.py",
           "                    t[1:] |= b[:len(t) - 1] >> np.uint64(64 - s)\n",
           "", "test_poly.py"),
    Mutant("a product's carry read from the next word", "revca/grid.py",
           "t[1:] |= b[:len(t) - 1]", "t[1:] |= b[1:len(t)]", "test_poly.py"),
    Mutant("a product's row offset one word short", "revca/grid.py",
           "o = r * n + q", "o = r * (n - 1) + q", "test_poly.py"),
    Mutant("a product's first shifted copy reused for every column",
           "revca/grid.py", "if c != last:", "if last < 0:", "test_poly.py"),
    # both keep every copy inside the flat product on the tests' e = 1
    # example, so a wrong product kills them, not numpy's broadcast error
    Mutant("a product's one-word-down shift ignored", "revca/grid.py",
           "e = (jmin >> 6) - (small._jmin >> 6) - (big._jmin >> 6)", "e = 0",
           "test_poly.py"),
    Mutant("a product's copy one word up", "revca/grid.py",
           "o = r * n + q + 1 - e", "o = r * n + q - e", "test_poly.py"),
    Mutant("pow_2k's slice one word off", "revca/grid.py",
           "words[:, skip:skip + n]", "words[:, skip + 1:skip + 1 + n]",
           "test_poly.py"),
    Mutant("from_window's pad one bit off", "revca/grid.py",
           "np.pad(a, ((0, 0), (s, -(s + w) % 64)))",
           "np.pad(a, ((0, 0), (s + 1, -(s + w + 1) % 64)))", "test_grid.py"),
    Mutant("_crop's bottom row off by one", "revca/grid.py",
           "int(live[0]), int(live[-1]) + 1", "int(live[0]), int(live[-1])",
           "test_rules.py"),
    Mutant("_crop keeping a non-tight array", "revca/grid.py",
           "words = p[r0:r1, wa:wb + 1]",
           "words = p if keep else p[r0:r1, wa:wb + 1]", "test_grid.py"),
    Mutant("the render value window clipped one row short",
           "revca/render.py", "min(jmax, n)", "min(jmax, n - 1)",
           "test_render.py"),
    Mutant("the render value window clipped one column short",
           "revca/render.py", "min(imax, n)", "min(imax, n - 1)",
           "test_render.py"),
    Mutant("render's last row block dropped", "revca/render.py",
           "range(0, h, rows)", "range(0, h - 1, rows)", "test_render.py"),
    Mutant("the writer's label table ranking every word of the union",
           "revca/grid.py", "rank = np.cumsum(union != 0) - 1",
           "rank = np.arange(len(union))", "test_grid.py"),
    Mutant("_to_text's row block one row short", "revca/grid.py",
           "g._w[r0:r0 + step]", "g._w[r0:r0 + step - 1]", "test_grid.py"),
    Mutant("the writer's row labels counted back from each row block",
           "revca/grid.py", "str(g._imin + r0 + r)", "str(g._imin - r0 + r)",
           "test_grid.py"),
    Mutant("a box of exactly MAX_PARSED_WINDOW cells refused",
           "revca/grid.py", "if cells > MAX_PARSED_WINDOW:",
           "if cells >= MAX_PARSED_WINDOW:", "test_rules.py"),
    # equal outputs: only the writer's memory bound can kill it
    Mutant("the writer decodes the whole grid at once", "revca/grid.py",
           "step = max(1, 4096 // max(g._w.shape[1], 1))",
           "step = max(1, len(g._w))", "test_grid.py"),
]

# Equivalent mutants, each with the reason that it changes nothing a test
# can observe: none is run, but each one's text is checked as a mutant's
# is, so a refactor cannot retire it silently
EQUIVALENT = [
    (Mutant("a frame's column room grown by one on the left",
            "revca/grid.py", "- room) & -64", "- room - 1) & -64",
            "test_rules.py"),
     "rounding the origin column down to a multiple of 64 undoes it or "
     "leaves one more empty word, which every crop drops"),
    # perf-only variants: the same outputs, timed in one process that
    # alternates fresh imports of both trees (medians of 8-10 rounds)
    (Mutant("a product's outer factor chosen by word count",
            "revca/grid.py", "sorted((self, other), key=len)",
            "sorted((self, other), key=lambda g: g._w.size)", "test_poly.py"),
     "the same products, but verify.run_all() took 615 -> 756 ms (+23 %): "
     "_copies then loops over a dense pattern's terms against the wide, "
     "4-term T^(2^k)"),
    (Mutant("pow_2k spreading bytes by fancy indexing", "revca/grid.py",
            "_SPREAD.take(words.view(np.uint8))",
            "_SPREAD[words.view(np.uint8)]", "test_poly.py"),
     "the same squares, but the square of the C2 state at n=350 took "
     "72 -> 170 us, and state_poly_at with poly_to_text at n=64..767 "
     "(step 15) 88 -> 95 ms"),
    (Mutant("_set_bits scanning unpacked bits as uint8", "revca/grid.py",
            'bitorder="little").view(bool))', 'bitorder="little"))',
            "test_grid.py"),
     "the same cells, but _set_bits of the C2 state at n=700 took "
     "246 -> 576 us, and state_poly_at with poly_to_text at n=64..767 "
     "(step 15) 87 -> 99 ms"),
]

# the harness's own negative control: no test reads a docstring
SELFTEST = Mutant("docstring-only edit", "revca/sequences.py",
                  '"""Sequence term by the binary ladder.',
                  '"""Sequence term by the binary ladder, mutated.',
                  "test_sequences.py")


def _mutated(text: str, edit: Mutant) -> str:
    """``text`` with the edit made; LookupError unless its text is found
    exactly once."""
    if text.count(edit.old) != 1:
        raise LookupError(f"mutant {edit.name!r}: its text is not found "
                          f"exactly once in src/{edit.file}")
    return text.replace(edit.old, edit.new)


def _fails(module: str, edit: Mutant | None) -> bool:
    """Whether pytest fails ``module`` on a copy of src/ with ``edit`` made."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__",
                                                      "*.egg-info"))
        if edit is not None:
            path = src / edit.file
            path.write_text(_mutated(path.read_text(), edit))
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        if edit is None:  # an installed revca must not shadow the copy
            where = subprocess.run(
                [sys.executable, "-c", "import revca; print(revca.__file__)"],
                env=env, cwd=tmp, capture_output=True, text=True, check=True)
            if not Path(where.stdout.strip()).is_relative_to(src):
                raise RuntimeError(f"tests would import {where.stdout.strip()}"
                                   f", not the copy in {src}")
        # cwd=tmp keeps hypothesis's example database out of the checkout
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", str(ROOT / "tests" / module)],
            env=env, cwd=tmp, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode != 0


def survivors(mutants: list[Mutant]) -> list[Mutant]:
    """The mutants that no test of their module kills."""
    for module in sorted({m.module for m in mutants}):
        if _fails(module, None):
            raise RuntimeError(f"tests/{module} fails without a mutant")
    alive = []
    for m in mutants:
        killed = _fails(m.module, m)
        print(f"{'killed  ' if killed else 'SURVIVED'} {m.name} "
              f"(src/{m.file}, tests/{m.module})", flush=True)
        if not killed:
            alive.append(m)
    return alive


def selftest() -> int:
    """0 when the docstring mutant survives and a missing text stops."""
    try:
        _fails(SELFTEST.module, SELFTEST._replace(old="no such text"))
        print("FAIL: a mutant whose text is missing did not stop the run")
        return 1
    except LookupError as e:
        print(f"stopped as expected: {e}")
    if survivors([SELFTEST]) != [SELFTEST]:
        print("FAIL: the docstring-only mutant was not reported as a survivor")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--selftest", action="store_true",
                   help="check that the harness reports a survivor")
    args = p.parse_args(argv)
    if args.selftest:
        return selftest()
    try:
        for m, why in EQUIVALENT:
            _mutated((ROOT / "src" / m.file).read_text(), m)
            print(f"equivalent {m.name} (src/{m.file}): {why}")
        alive = survivors(MUTANTS)
    except LookupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"{len(MUTANTS) - len(alive)} of {len(MUTANTS)} mutants killed")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
