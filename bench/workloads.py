"""Seeded workloads: job generation, execution and independent checks.

Every workload builds a fixed job list from a seed before timing starts;
revca receives only the generated inputs.  Each job carries an expectation
taken from a reference that does not share the code path under test:

* simulated counts against ``seq_value`` (the population recursion),
* forward-then-backward round trips against ``single_seed()``,
* ``seq_value`` and recursive tables against ``alt_value``, a memo-free
  ladder over the parity-split recursion written here, and the
  cross-relations R1(n) = R2(n+1) and R(n) = R2(n) + R2(n+1),
* ``alt`` tables against ``seq_value``,
* polynomial term counts against ``seq_value(R1/R2, n)``,
* the paper-reproduction commands against a golden transcript.

``run`` executes one job and is the only timed part; ``observe`` reduces
its output to a value compared with ``Job.expect`` after the clock stops.
Warm-up jobs are fixed, not drawn from the seed, so that the set-up does
the same work for every seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import statistics
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
LIFTS = ("R1", "R2", "R3", "R3p")


class Job(NamedTuple):
    kind: str
    args: tuple
    expect: object
    size: int  # rough cost rank; the self-test takes the smallest job of a kind


class CliResult(NamedTuple):
    rc: int
    stdout: str


def cli(revca, argv: list[str]) -> CliResult:
    """``revca <argv>`` in process, with standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = revca.cli.main(argv)
    return CliResult(rc, buf.getvalue())


def _warmup(specs) -> list[Job]:
    """Warm-up jobs from (kind, args) pairs; their outputs are not checked."""
    return [Job(kind, args, None, 0) for kind, args in specs]


def smallest_per_kind(jobs: list[Job]) -> list[Job]:
    best: dict[str, Job] = {}
    for job in jobs:
        if job.kind not in best or job.size < best[job.kind].size:
            best[job.kind] = job
    return list(best.values())


def r2_pair(n: int) -> tuple[int, int]:
    """(R2(n), R2(n + 1)) by the parity-split recursion, without a memo.

    R2(2m) = 4 R2(m) and R2(2m + 1) = R2(m) + R2(m + 1) take the pair at m
    to the pair at 2m or 2m + 1, so the bits of n, read from the top, walk
    from (R2(0), R2(1)) = (0, 1) to n in O(log n) steps.
    """
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = (4 * a, a + b) if bit == "0" else (a + b, 4 * b)
    return a, b


def alt_value(which: str, n: int) -> int:
    """R, R1 or R2 at n >= 0 from ``r2_pair`` and the cross-relations."""
    r2, r1 = r2_pair(n)  # R1(n) = R2(n + 1)
    return {"R": r2 + r1, "R1": r1, "R2": r2}[which]  # R(n) = R2(n) + R2(n+1)


def _seq(revca, n: int) -> tuple[int, int, int]:
    """(R1, R2, R) at n by the power-of-two split recursion."""
    v, S = revca.seq_value, revca.SeqId
    return v(S.R1, n), v(S.R2, n), v(S.R, n)


class Lattice:
    """simulate/render/export through the CLI and forward-backward round trips.

    rules and grid do over 90% of the work and gf2poly none, so the
    simulation kernel shows here.  Backward steps sit next to forward ones,
    so a kernel that speeds one direction and slows the other shows too.
    """

    name = "lattice"
    #: (n, jobs per direction); dense windows run from (2*64+1)^2 = 16 KB
    #: to (2*768+1)^2 = 2.4 MB, past a 2 MiB per-core L2
    LEVELS = ((64, 12), (96, 8), (128, 6), (192, 4), (256, 2), (384, 2),
              (512, 1), (768, 1))
    RENDERS = ((64, "txt"), (64, "pbm"), (64, "ppm"), (128, "txt"),
               (128, "pbm"), (128, "ppm"), (256, "txt"), (256, "pbm"))
    EXPORTS = (64, 128, 256)
    WARMUP = (("simulate", ("R1", 32)), ("roundtrip", ("R2", 32)),
              ("roundtrip", ("R3", 32)), ("render", ("R3p", 32, "ppm")),
              ("export", ("R1", 32)))

    def build(self, revca, rng, env):
        # lifts in a fixed rotation: the seed changes n and the job order,
        # not which lifts a level runs
        lift = itertools.cycle(LIFTS)

        def near(n):  # seeded n within about 1.5% of its level
            return n + rng.randint(-(n // 64), n // 64)

        specs = []
        for level, count in self.LEVELS:
            for kind in ("simulate", "roundtrip"):
                specs += [(kind, next(lift), near(level)) for _ in range(count)]
        specs += [("render", next(lift), near(n), fmt) for n, fmt in self.RENDERS]
        specs += [("export", next(lift), near(n)) for n in self.EXPORTS]
        rng.shuffle(specs)

        jobs = []
        for kind, lift_name, n, *fmt in specs:
            r1, r2, r = _seq(revca, n)
            if kind == "simulate":
                expect = (0, n, r1, r2, 0, r)
            elif kind == "roundtrip":
                expect = (r1, r2, 0, r, True)
            elif kind == "export":
                expect = (0, r1, r2, r1 + r2 + 2)
            elif fmt == ["pbm"]:
                expect = (0, 2 * n + 1, 2 * n + 1, r)
            else:  # txt and ppm: value-1, value-2 and value-3 cells
                expect = (0, r1, r2, 0)
            jobs.append(Job(kind, (lift_name, n, *fmt), expect, n))

        ns = [j.args[1] for j in jobs]
        l2 = env.get("l2_bytes")
        windows = [(2 * n + 1) ** 2 for n in ns]
        props = {
            "n_min": min(ns), "n_max": max(ns),
            "window_bytes_min": min(windows), "window_bytes_max": max(windows),
            "l2_bytes": l2,
            "jobs_with_window_over_l2": (sum(w > l2 for w in windows)
                                         if l2 else None),
            "jobs_by_kind": dict(Counter(j.kind for j in jobs)),
            "jobs_by_lift": dict(Counter(j.args[0] for j in jobs)),
        }
        return jobs, _warmup(self.WARMUP), props

    def run(self, revca, job):
        lift, n, *fmt = job.args
        if job.kind == "simulate":
            return cli(revca, ["simulate", "--rule", lift, "--steps", str(n),
                               "--format", "json"])
        if job.kind == "render":
            return cli(revca, ["render", "--rule", lift, "--step", str(n),
                               "--format", fmt[0]])
        if job.kind == "export":
            return cli(revca, ["export", "--rule", lift, "--steps", str(n)])
        rule, seed = revca.LIFT_NAMES[lift], revca.single_seed()
        s = revca.evolve(rule, seed, n)
        return revca.count_values(s, n), revca.evolve(rule, s, -n)

    def observe(self, revca, job, out):
        if job.kind == "roundtrip":
            c, back = out
            return (c.r1, c.r2, c.r3, c.total, back == revca.single_seed())
        rc, text = out
        if job.kind == "simulate":
            d = json.loads(text)
            return (rc, d["n"], d["R1"], d["R2"], d["R3"], d["R"])
        if job.kind == "export":
            counts = [int(ln.split("count=")[1]) for ln in text.splitlines()
                      if ln.startswith("#bgrid")]
            return (rc, *counts, text.count("\n"))
        fmt = job.args[2]
        if fmt == "txt":
            return (rc, text.count("1"), text.count("2"), text.count("3"))
        _, dims, body = text.split("\n", 2)
        w, h = map(int, dims.split())
        if fmt == "pbm":
            return (rc, w, h, body.count("1"))
        rgb = np.array(body.split()[1:], dtype=np.int64).reshape(-1, 3)
        return (rc, *(int((rgb == c).all(axis=1).sum())
                      for c in ((0, 0, 0), (128, 128, 128), (255, 0, 0))))


class ClosedForm:
    """state_poly_at, the grid round trip and #lpoly export at seeded n.

    gf2poly does over 90% of the work and rules none, so a change of the
    polynomial representation shows here and not on lattice.
    """

    name = "closed_form"
    N_JOBS = 48
    N_RANGE = (64, 767)
    #: a job targets one quantile of the term counts R(n) over N_RANGE and
    #: takes a seeded n whose R(n) and R1(n) lie within these shares of the
    #: target's; R1(n) is the size of the polynomial that is converted to a
    #: grid and to text, most of a job's cost.  So the popcounts vary with
    #: the seed while the cost of each job, and of the list, does not.
    WINDOWS = (0.05, 0.1)
    WARMUP = (("poly", ("C1", 64)), ("poly", ("C2", 65)))

    def build(self, revca, rng, env):
        lo, hi = self.N_RANGE
        cands = []
        for n in range(lo, hi + 1):
            r1, _, r = _seq(revca, n)
            cands.append((r, r1, n))
        cands.sort()
        w, w1 = self.WINDOWS
        flip = rng.randrange(2)
        jobs = []
        for i in range(self.N_JOBS):
            t, t1, _ = cands[(2 * i + 1) * len(cands) // (2 * self.N_JOBS)]
            n = rng.choice([m for r, r1, m in cands
                            if abs(r - t) <= w * t and abs(r1 - t1) <= w1 * t1])
            r1, r2, _ = _seq(revca, n)
            rule = ("C1", "C2")[(i + flip) % 2]
            jobs.append(Job("poly", (rule, n),
                            (r1, r2, r1, True, f"#lpoly v1 terms={r1}", r1 + 1),
                            r1 + r2))
        rng.shuffle(jobs)
        terms = sorted(j.size for j in jobs)
        props = {
            "n_min": min(j.args[1] for j in jobs),
            "n_max": max(j.args[1] for j in jobs),
            "popcount_histogram": dict(sorted(Counter(
                j.args[1].bit_count() for j in jobs).items())),
            "terms_min": terms[0], "terms_median": statistics.median(terms),
            "terms_max": terms[-1], "terms_total": sum(terms),
            "jobs_by_rule": dict(Counter(j.args[0] for j in jobs)),
        }
        return jobs, _warmup(self.WARMUP), props

    def run(self, revca, job):
        rule, n = job.args
        pp = revca.state_poly_at(revca.Rule[rule], n)
        grid = revca.poly_to_grid(pp.first)
        return (pp, grid, revca.grid_to_poly(grid),
                revca.poly_to_text(pp.first))

    def observe(self, revca, job, out):
        pp, grid, back, text = out
        return (len(pp.first), len(pp.second), len(grid), back == pp.first,
                text.split("\n", 1)[0], text.count("\n"))


class Population:
    """seq_value at large indices plus `revca sequence` tables and build_table.

    sequences and cli formatting do nearly all the work, and nothing else
    measures them.  A stated share of the indices repeats earlier ones, so
    the run shows what the sequence memo saves and what dropping it costs.
    """

    name = "population"
    N_VALUES = 6000
    REPEAT_SHARE = 0.25
    BITS = (41, 200)  # index bit lengths: 2^40 <= n < 2^200
    #: (method, format, max) for `revca sequence` tables
    TABLES = (("recursive", "csv", 2000), ("recursive", "json", 1000),
              ("alt", "csv", 2000), ("alt", "json", 1000))
    BUILD_TABLE_MAX = 2000
    WARMUP = (("value", ("R", 1 << 40)), ("value", ("R1", 1 << 41)),
              ("value", ("R2", 1 << 42)), ("table", ("recursive", "csv", 50)),
              ("table", ("alt", "json", 50)), ("build_table", (50,)))

    def build(self, revca, rng, env):
        S = revca.SeqId
        which = [S.R, S.R1, S.R2]
        rng.shuffle(which)
        n_repeat = int(self.N_VALUES * self.REPEAT_SHARE)
        n_new = self.N_VALUES - n_repeat
        b0, b1 = self.BITS
        fresh = []
        for i in range(n_new):
            bits = b0 + i * (b1 - b0 + 1) // n_new
            n = (1 << (bits - 1)) | rng.getrandbits(bits - 1)
            fresh.append((which[i % 3], n))
        rng.shuffle(fresh)
        slots = [False] * n_repeat + [True] * (n_new - 1)
        rng.shuffle(slots)
        queries = [fresh.pop()]
        for is_new in slots:
            queries.append(fresh.pop() if is_new else rng.choice(queries))

        jobs = [Job("value", (w.value, n), alt_value(w.value, n),
                    n.bit_length()) for w, n in queries]
        top = max([m for *_, m in self.TABLES] + [self.BUILD_TABLE_MAX])
        by_alt = tuple((n, alt_value("R", n), alt_value("R1", n),
                        alt_value("R2", n)) for n in range(top + 1))
        by_split = tuple((n, r, r1, r2) for n, (r1, r2, r) in
                         ((n, _seq(revca, n)) for n in range(top + 1)))
        for method, fmt, m in self.TABLES:
            ref = by_split if method == "alt" else by_alt
            jobs.append(Job("table", (method, fmt, m), (0, ref[:m + 1]), m))
        m = self.BUILD_TABLE_MAX
        jobs.append(Job("build_table", (m,), by_alt[:m + 1], m))
        rng.shuffle(jobs)

        seen, repeats = set(), 0
        for j in jobs:
            if j.kind == "value":
                repeats += j.args in seen
                seen.add(j.args)
        bits = [j.size for j in jobs if j.kind == "value"]
        props = {
            "index_bits_min": min(bits), "index_bits_max": max(bits),
            "value_queries": len(bits), "distinct_queries": len(seen),
            "repeated_share": repeats / len(bits),
            "tables": [list(t) for t in self.TABLES],
            "build_table_max": self.BUILD_TABLE_MAX,
        }
        return jobs, _warmup(self.WARMUP), props

    def run(self, revca, job):
        if job.kind == "value":
            which, n = job.args
            return revca.seq_value(revca.SeqId(which), n)
        if job.kind == "build_table":
            return revca.build_table(job.args[0])
        method, fmt, m = job.args
        return cli(revca, ["sequence", "--max", str(m), "--method", method,
                           "--format", fmt])

    def observe(self, revca, job, out):
        if job.kind == "value":
            return out
        if job.kind == "build_table":
            return tuple(out.rows)
        rc, text = out
        if job.args[1] == "json":
            rows = tuple((d["n"], d["R"], d["R1"], d["R2"])
                         for d in json.loads(text))
        else:
            rows = tuple(tuple(map(int, ln.split(",")))
                         for ln in text.splitlines()[1:])
        return (rc, rows)


class Verify:
    """The paper-reproduction commands, checked against a golden transcript.

    They use rules, grid and gf2poly differently from the workloads above:
    whole trajectories are stored, ``step_fn`` is passed explicitly and
    many small polynomial products run, so a change to one module that
    costs another use of it shows here.
    """

    name = "verify"
    #: (argv, golden transcript, rough seconds on the seed commit)
    COMMANDS = ((("verify", "--suite", "all"), "verify_all.txt", 10),
                (("sequence", "--which", "R", "--max", "200", "--check"),
                 "sequence_R_200_check.txt", 1))
    WARMUP = (("cli", ("verify", "--suite", "all", "--max", "3")),
              ("cli", ("sequence", "--which", "R", "--max", "20", "--check")))

    def build(self, revca, rng, env):
        jobs = [Job("cli", argv, (0, (GOLDEN / golden).read_text()), size)
                for argv, golden, size in self.COMMANDS]
        rng.shuffle(jobs)
        props = {"commands": [" ".join(("revca",) + argv)
                              for argv, *_ in self.COMMANDS]}
        return jobs, _warmup(self.WARMUP), props

    def run(self, revca, job):
        return cli(revca, list(job.args))

    def observe(self, revca, job, out):
        return tuple(out)


WORKLOADS = {w.name: w for w in (Lattice(), ClosedForm(), Population(),
                                 Verify())}
