"""Command-line front end.

Subcommands: simulate (evolve a lift and report counts), sequence
(tabulate R/R1/R2 by any of four methods), verify (run proof-checking
suites), render (emit txt/PBM/PPM images), export (write a state in the
text interchange format).

Exit codes: 0 success, 1 I/O failure, 2 usage error, 3 cross-method
mismatch, 4 suite failure.  CA_DEFAULT_MAX overrides default suite ranges.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import sequences as seq
from . import verify
from .gf2poly import state_poly_at
from .grid import (SecondOrderState, count_values, grid_from_text,
                   grid_to_text, single_seed, swap_x)
from .render import render
from .rules import MAX_SEED_STEPS, Rule, evolve, parse_rule, trajectory_counts
from .sequences import SeqId


# the largest round --max whose recursive and alt tables, csv or json, a
# cold run writes within 60 s and 1 GiB: 600000 rows of json peak at
# ~880 MiB in ~6 s on a 2-core machine, and 700000 at ~1020 MiB
_GREATEST_TABLE_MAX = 600_000


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def state_to_text(s: SecondOrderState) -> str:
    """Two concatenated grid blocks: current first, previous second."""
    return grid_to_text(s.current) + grid_to_text(s.previous)


def state_from_text(text: str) -> SecondOrderState:
    """The two blocks of a state file; each '#bgrid' line starts one, and
    blank lines are skipped, as the block parser skips them."""
    blocks: list[list[str]] = []
    for ln in filter(str.strip, text.splitlines()):
        if ln.startswith("#bgrid") or not blocks:
            blocks.append([])
        blocks[-1].append(ln)
    if len(blocks) != 2:
        raise ValueError(f"state file needs 2 grid blocks, found {len(blocks)}")
    return SecondOrderState(*(grid_from_text("\n".join(b)) for b in blocks))


def _seed_state(rule: Rule, n: int) -> SecondOrderState:
    """The state n steps from the single seed.  R1 and R2 take it off the
    doubling ladder, for n < 0 as the swap of step -n - 1, since F^-1 =
    X F X and X of the seed is its step -1.  R3 and R3p, which equal R2
    only by the theorem that ``equivalence`` checks, and |n| >
    MAX_SEED_STEPS, which the walk refuses, walk."""
    if rule in (Rule.C1, Rule.C2) and abs(n) <= MAX_SEED_STEPS:
        s = SecondOrderState(*state_poly_at(rule, n if n >= 0 else -n - 1))
        return s if n >= 0 else swap_x(s)
    return evolve(rule, single_seed(), n)


def cmd_simulate(args: argparse.Namespace) -> int:
    rule = parse_rule(args.rule)
    if args.load:
        with open(args.load) as f:
            text = f.read()
        state = evolve(rule, state_from_text(text), args.steps)
    else:
        state = _seed_state(rule, args.steps)
    c = count_values(state, args.steps)
    if args.format == "json":
        out = json.dumps({"n": c.n, "R1": c.r1, "R2": c.r2,
                          "R3": c.r3, "R": c.total}) + "\n"
    else:
        out = f"n={c.n} R1={c.r1} R2={c.r2} R3={c.r3} R={c.total}\n"
    _write(args.out, out)
    if args.save:
        _write(args.save, state_to_text(state))
    return 0


def _sequence_rows(method: str, n_max: int) -> list[tuple[int, int, int, int]]:
    """Rows (n, R, R1, R2) for n = 0..n_max by the requested method."""
    if method == "recursive":  # build_table's checked rows
        return seq.build_table(n_max).rows
    if method == "alt":  # one memo per column, shared by all of its rows
        r1 = list(map(seq._alt_terms(SeqId.R1), range(n_max + 1)))
        r2 = list(map(seq._alt_terms(SeqId.R2), range(n_max + 2)))
        return [(n, r2[n] + r2[n + 1], r1[n], r2[n]) for n in range(n_max + 1)]
    if method == "sim":
        return [(c.n, c.total, c.r1, c.r2)
                for c in trajectory_counts(Rule.C2, n_max)]
    if method == "poly":  # one pair alive at a time: sizes only
        sizes = (map(len, state_poly_at(Rule.C2, n)) for n in range(n_max + 1))
        return [(n, a + b, a, b) for n, (a, b) in enumerate(sizes)]
    raise ValueError(f"unknown method {method!r}")


def cmd_sequence(args: argparse.Namespace) -> int:
    n_max = args.max
    if n_max < 0:
        raise ValueError(f"--max {n_max} gives an empty table")
    if (args.check or args.method in ("sim", "poly")) and n_max > MAX_SEED_STEPS:
        raise ValueError(f"--max {n_max} is above {MAX_SEED_STEPS}, the last "
                         f"step of the sim and poly columns")
    if n_max > _GREATEST_TABLE_MAX:
        raise ValueError(f"--max {n_max} is above {_GREATEST_TABLE_MAX}, the "
                         f"ceiling of the recursive and alt tables")
    tables = {}  # each method's rows, built once
    if args.check:
        ref = tables["recursive"] = _sequence_rows("recursive", n_max)
        for method in ("alt", "sim", "poly"):
            rows = tables[method] = _sequence_rows(method, n_max)
            for k, w in enumerate(seq.SequenceTable.COLUMNS, 1):
                for want, got in zip(ref, rows):
                    if got[k] != want[k]:
                        print(f"mismatch: {w}({want[0]}) recursive={want[k]} "
                              f"{method}={got[k]}", file=sys.stderr)
                        return 3
    table = seq.SequenceTable(tables.get(args.method)
                              or _sequence_rows(args.method, n_max))
    names = table.COLUMNS if args.which == "all" else [args.which]
    _write(args.out, json.dumps(table.to_json_obj(names), indent=2) + "\n"
           if args.format == "json" else table.to_csv(names))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    limit = args.max
    if limit is None and "CA_DEFAULT_MAX" in os.environ:
        env = os.environ["CA_DEFAULT_MAX"]
        try:
            limit = int(env)
        except ValueError:
            raise ValueError(f"CA_DEFAULT_MAX must be an integer, "
                             f"got {env!r}") from None
    if args.suite == "all":
        reports = verify.run_all(limit)
    else:
        reports = [verify.run_suite(args.suite, limit)]
    text = (verify.report_json(reports) if args.format == "json"
            else verify.report_text(reports))
    _write(args.out, text)
    return 0 if all(r.passed for r in reports) else 4


def cmd_render(args: argparse.Namespace) -> int:
    rule = parse_rule(args.rule)
    state = _seed_state(rule, args.step)
    _write(args.out, render(state, abs(args.step), args.format))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    rule = parse_rule(args.rule)
    state = _seed_state(rule, args.steps)
    _write(args.out, state_to_text(state))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="revca", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="evolve a lift and report counts")
    sim.add_argument("--rule", required=True,
                     help="rule or lift name: C1..C3p or R1..R3p")
    sim.add_argument("--steps", type=int, required=True,
                     help="signed step count (negative runs the inverse)")
    sim.add_argument("--format", choices=["txt", "json"], default="txt")
    sim.add_argument("--out", default=None)
    sim.add_argument("--save", default=None,
                     help="write the final state to this file")
    sim.add_argument("--load", default=None,
                     help="start from a saved state instead of the seed")
    sim.set_defaults(fn=cmd_simulate)

    sq = sub.add_parser("sequence", help="tabulate R/R1/R2")
    sq.add_argument("--which", choices=["R", "R1", "R2", "all"], default="all")
    sq.add_argument("--max", type=int, required=True)
    sq.add_argument("--method", choices=["recursive", "alt", "sim", "poly"],
                    default="recursive")
    sq.add_argument("--format", choices=["csv", "json"], default="csv")
    sq.add_argument("--check", action="store_true",
                    help="cross-validate all four methods first")
    sq.add_argument("--out", default=None)
    sq.set_defaults(fn=cmd_sequence)

    vf = sub.add_parser("verify", help="run verification suites")
    vf.add_argument("--suite", choices=list(verify.SUITES) + ["all"],
                    default="all")
    vf.add_argument("--max", type=int, default=None,
                    help="override the suite's default range")
    vf.add_argument("--format", choices=["txt", "json"], default="txt")
    vf.add_argument("--out", default=None)
    vf.set_defaults(fn=cmd_verify)

    rd = sub.add_parser("render", help="render a state as txt/PBM/PPM")
    rd.add_argument("--rule", required=True)
    rd.add_argument("--step", type=int, required=True)
    rd.add_argument("--format", choices=["txt", "pbm", "ppm"], default="txt")
    rd.add_argument("--out", default=None)
    rd.set_defaults(fn=cmd_render)

    ex = sub.add_parser("export",
                        help="write a seed-trajectory state as text blocks")
    ex.add_argument("--rule", required=True)
    ex.add_argument("--steps", type=int, required=True)
    ex.add_argument("--out", default=None)
    ex.set_defaults(fn=cmd_export)
    return p


# built once, at import: a build takes ~20 times as long as a parse
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
