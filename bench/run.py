#!/usr/bin/env python3
"""The revca benchmark: seeded workloads, end-to-end metrics, per-layer spans.

Run one workload (from the root of a checkout):

    python3 bench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

The load is one client in a closed loop inside this one process: each job
starts when the previous one returns.  Set-up (import revca, generate the
seeded job list, warm up) is repeated and timed before the measured span;
then the fixed job list runs in rounds until ``--seconds`` is used up.
Each round runs on a fresh import of revca, so no module state carries
from one round to the next.  Every job's output is checked after its
clock stops.  Human-readable lines come first; the last line of standard
output is one JSON object.  With ``--trace 1`` untraced rounds alternate
with rounds that run under the span wrappers of ``tracing.py``, and the
run reports per-layer metrics.

Other modes:

    python3 bench/run.py --record DIR [--runs 10]
        runs every workload in a fresh process per seed, one after another,
        and writes one result file per run into DIR
    python3 bench/run.py --compare BASE_DIR NEW_DIR
        prints medians, quartiles, pair wins and a verdict per metric
    python3 bench/run.py --selftest
        feeds wrong expectations and checks that every workload notices
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from tracing import LAYERS, Tracer
from workloads import WORKLOADS, CliResult, smallest_per_kind

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: set-up repeats: at least the first count and the seconds, at most the last;
#: 5 s so that the median spans the host's second-to-second speed changes
SETUP_REPEATS = (5, 5.0, 1000)
#: environment keys that must match for two result sets to be comparable
ENV_KEYS = ("python", "numpy", "nproc", "cpu_model", "l2_bytes", "l3_bytes")
#: printed and compared, but not in BENCHMARK.json (see README.md)
EXTRA_METRICS = {"op_p90_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
                 "fail_ratio": {"unit": "1", "better": "lower", "bound": 0.0}}
P90_MIN_JOBS = 100


# --- environment --------------------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def _cache_bytes(level: int) -> int | None:
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if (_read(idx / "level") or "").strip() != str(level):
            continue
        if (_read(idx / "type") or "").strip() == "Instruction":
            continue
        size = (_read(idx / "size") or "").strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        return int(size.rstrip("KMG")) * scale if size else None
    return None


def _cpu_model() -> str | None:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref:"):
        return head.strip() if head else None
    ref = head.split(":", 1)[1].strip()
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "l2_bytes": _cache_bytes(2), "l3_bytes": _cache_bytes(3),
            "commit": _git_commit(), "seed": seed}


# --- measurement --------------------------------------------------------------

def import_revca():
    """A fresh import of the package under ``src/``, with fresh module state."""
    for name in [m for m in sys.modules if m == "revca" or m.startswith("revca.")]:
        del sys.modules[name]
    revca = importlib.import_module("revca")
    importlib.import_module("revca.cli")
    return revca


def setup(wl, seed: int, env: dict):
    """Import, generate and warm up; returns the last job list and the times."""
    least, seconds, most = SETUP_REPEATS
    times = []
    while len(times) < most and (len(times) < least or sum(times) < seconds):
        t0 = time.perf_counter()
        revca = import_revca()
        jobs, warmup, props = wl.build(revca, random.Random(seed), env)
        for job in warmup:
            try:
                wl.run(revca, job)
            except Exception as e:  # the timed rounds count it as failed
                print(f"warm-up error in {job.kind}{job.args}: {e!r}",
                      file=sys.stderr)
        times.append(time.perf_counter() - t0)
    return jobs, props, times


def check(wl, revca, job, out) -> bool:
    try:
        return wl.observe(revca, job, out) == job.expect
    except Exception as e:  # a malformed output is a failed check
        print(f"check error in {job.kind}{job.args}: {e!r}", file=sys.stderr)
        return False


def run_round(wl, revca, jobs) -> dict:
    """One pass over the job list; a job's clock excludes its check."""
    lat, wall, cpu, failed, bytes_out = [], 0.0, 0.0, 0, 0
    for job in jobs:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out, err = wl.run(revca, job), None
        except Exception as e:
            out, err = None, e
        t1, c1 = time.perf_counter(), time.process_time()
        lat.append(t1 - t0)
        wall += t1 - t0
        cpu += c1 - c0
        if err is not None:
            print(f"job error in {job.kind}{job.args}: {err!r}", file=sys.stderr)
            failed += 1
            continue
        if isinstance(out, CliResult):
            bytes_out += len(out.stdout)
        failed += not check(wl, revca, job, out)
        del out
    return {"wall": wall, "cpu": cpu, "lat": lat, "failed": failed,
            "bytes_out": bytes_out}


def run_rounds(wl, jobs, seconds: float, tracer=None) -> list[dict]:
    """Rounds until the next one would end past ``seconds``.

    Every round imports revca afresh, so no module state (such as the memos
    of ``seq_value`` and ``seq_value_alt``) carries over from the set-up or
    an earlier round.  With a tracer, untraced and traced rounds alternate
    and there is at least one of each; without, there is at least one round.
    """
    rounds, t_start = [], time.perf_counter()
    least = 1 if tracer is None else 2
    while True:
        revca = import_revca()
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install(revca)
        gc.collect()
        r = run_round(wl, revca, jobs)
        r["traced"] = traced
        if traced:
            r["trace"] = tracer.snapshot()
        rounds.append(r)
        elapsed = time.perf_counter() - t_start
        if (len(rounds) >= least
                and elapsed * (len(rounds) + 1) / len(rounds) > seconds):
            return rounds


def end_to_end(rounds, setup_times) -> dict:
    lat = [x for r in rounds for x in r["lat"]]
    attempted, failed = len(lat), sum(r["failed"] for r in rounds)
    m = {"wall_s": statistics.median(r["wall"] for r in rounds),
         "cpu_s": statistics.median(r["cpu"] for r in rounds),
         "op_p50_ms": 1e3 * statistics.median(lat),
         "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
         "setup_s": statistics.median(setup_times),
         "fail_ratio": failed / attempted}
    if attempted >= P90_MIN_JOBS:
        m["op_p90_ms"] = 1e3 * statistics.quantiles(lat, n=10)[8]
    notes = {"wall_s": f"median of {len(rounds)} rounds",
             "cpu_s": f"median of {len(rounds)} rounds",
             "op_p50_ms": f"median of {attempted} jobs",
             "op_p90_ms": f"p90 of {attempted} jobs",
             "peak_rss_mb": "process peak",
             "setup_s": f"median of {len(setup_times)} set-ups",
             "fail_ratio": f"{failed} of {attempted} jobs failed"}
    return {"metrics": m, "notes": notes, "attempted": attempted,
            "failed": failed, "round_wall_s": [r["wall"] for r in rounds]}


def per_layer(untraced, traced) -> dict:
    """Means per round over the traced rounds, so that the parts add up."""
    def mean(xs):
        return sum(xs) / len(xs)

    keys = {k for r in traced for k in r["trace"]}
    m = {k: mean([r["trace"].get(k, 0) for r in traced]) for k in keys}
    m["cli.bytes_out"] = mean([r["bytes_out"] for r in traced])
    m["trace.wall_s"] = mean([r["wall"] for r in traced])
    m["trace.overhead_s"] = m["trace.wall_s"] - mean([r["wall"] for r in untraced])
    m["trace.rounds_untraced"] = len(untraced)
    m["trace.rounds_traced"] = len(traced)
    m["trace.unattributed_s"] = m["trace.wall_s"] - sum(
        m[f"{layer}.self_s"] for layer in LAYERS)
    return m


def measure(name: str, seed: int, seconds: float, trace: bool,
            why: str) -> dict:
    os.environ.pop("CA_DEFAULT_MAX", None)  # verify runs at default ranges
    wl = WORKLOADS[name]
    env = environment(seed)
    jobs, props, setup_times = setup(wl, seed, env)
    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "why": why, "env": env,
              "properties": props, "jobs_per_round": len(jobs)}
    rounds = run_rounds(wl, jobs, seconds, Tracer() if trace else None)
    result.update(end_to_end(rounds, setup_times))
    if not trace:
        return result
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    for label, rounds in (("untraced", untraced), ("traced", traced)):
        result[f"fail_ratio_{label}"] = (sum(r["failed"] for r in rounds)
                                         / sum(len(r["lat"]) for r in rounds))
    result["layers"] = per_layer(untraced, traced)
    return result


# --- reporting ----------------------------------------------------------------

def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(result: dict, spec: dict) -> dict:
    """Print the human-readable lines; return the last-line result object."""
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  jobs/round {result['jobs_per_round']}")
    print(f"why: {result['why']}")
    print("env " + json.dumps(result["env"]))
    print("properties " + json.dumps(result["properties"]))
    if result["trace"]:
        wanted = spec["per_layer"]
        values = result["layers"]
        print(f"fail_ratio untraced {result['fail_ratio_untraced']} "
              f"traced {result['fail_ratio_traced']}")
        for m in wanted:
            print(f"  {m['name']:<36} {values.get(m['name'], 0):>14.6g} {m['unit']}")
        print(f"  {'trace.overhead_s':<36} {values['trace.overhead_s']:>14.6g} s "
              f"(mean of {values['trace.rounds_traced']} traced minus mean of "
              f"{values['trace.rounds_untraced']} untraced rounds)")
    else:
        wanted = all_metrics(spec)
        values = result["metrics"]
        for m in wanted:
            if m["name"] in values:
                print(f"  {m['name']:<14} {values[m['name']]:>14.6g} "
                      f"{m['unit']:<6} ({result['notes'][m['name']]})")
            else:
                print(f"  {m['name']:<14} {'-':>14} {m['unit']:<6} "
                      f"(not reported: under {P90_MIN_JOBS} jobs)")
        wanted = spec["end_to_end"]
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m["name"]: {"value": values.get(m["name"], 0),
                                    "unit": m["unit"]} for m in wanted}}


# --- record and compare ---------------------------------------------------------

def record(out_dir: Path, runs: int, seconds: float, trace: int) -> int:
    """Seeds 1..runs of every workload, one fresh process after another."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rc = 0
    for seed in range(1, runs + 1):
        for name in WORKLOADS:
            path = out_dir / f"{name}-t{trace}-s{seed}.json"
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--out", str(path)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print(f"{name} seed {seed}: exit {proc.returncode} {last[0]}",
                  flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                rc = 1
    summarize(load_results(out_dir))
    return rc


def load_results(d: Path) -> dict[str, list[dict]]:
    by_wl: dict[str, list[dict]] = {}
    for p in sorted(d.glob("*.json")):
        r = json.loads(p.read_text())
        if not r.get("trace"):
            by_wl.setdefault(r["workload"], []).append(r)
    for rs in by_wl.values():
        rs.sort(key=lambda r: r["seed"])
    return by_wl


def _stats(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs * 3)
    return q1, med, q3


def _spread(xs) -> float:
    q1, med, q3 = _stats(xs)
    return (q3 - q1) / abs(med) if med else q3 - q1


def all_metrics(spec: dict) -> list[dict]:
    return spec["end_to_end"] + [{"name": k, **v}
                                 for k, v in EXTRA_METRICS.items()]


def summarize(by_wl: dict[str, list[dict]]) -> None:
    spec = load_spec()
    for name, rs in by_wl.items():
        for m in all_metrics(spec):
            xs = [r["metrics"][m["name"]] for r in rs if m["name"] in r["metrics"]]
            if not xs:
                continue
            print(f"{name:<12} {m['name']:<12} median {_stats(xs)[1]:.6g} "
                  f"{m['unit']:<5} IQR/median {_spread(xs):.3f} "
                  f"(bound {m['bound']}) n={len(xs)}")


def verdict(base: list[float], new: list[float], bound: float,
            lower_better: bool) -> tuple[str, int, int]:
    """improved, regressed, unchanged or unresolved, with the pair wins.

    Improved: the new side wins 9 of 10 pairs and its median moved by more
    than the base quartile distance, or every new run beats every base run.
    Regressed: the new median is worse by more than the bound, and either
    every new run is worse than every base run or both spreads (IQR /
    median) are within the bound.  Unresolved: a spread exceeds the bound.
    """
    if not lower_better:
        base, new = [-x for x in base], [-x for x in new]
    pairs = list(zip(base, new))
    wins = sum(n < b for b, n in pairs)
    losses = sum(n > b for b, n in pairs)
    bq1, bmed, bq3 = _stats(base)
    nq1, nmed, nq3 = _stats(new)
    if ((wins >= 0.9 * len(pairs) and bmed - nmed > bq3 - bq1)
            or max(new) < min(base)):
        return "improved", wins, losses
    worse = (nmed - bmed) / abs(bmed) if bmed else nmed - bmed
    if worse > bound and min(new) > max(base):
        return "regressed", wins, losses
    if max(_spread(base), _spread(new)) > bound:
        return "unresolved", wins, losses
    return ("regressed" if worse > bound else "unchanged"), wins, losses


def compare(base_dir: Path, new_dir: Path) -> int:
    spec = load_spec()
    base, new = load_results(base_dir), load_results(new_dir)
    envs = {tuple((k, r["env"].get(k)) for k in ENV_KEYS)
            for rs in list(base.values()) + list(new.values()) for r in rs}
    if len(envs) > 1:
        print("WARNING: results come from different environments:")
        for e in sorted(envs, key=str):
            print("  " + json.dumps(dict(e)))
    print(f"{'workload':<12} {'metric':<12} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32} {'wins':>6} verdict")
    for name in sorted(set(base) & set(new)):
        for m in all_metrics(spec):
            b = [r["metrics"][m["name"]] for r in base[name]
                 if m["name"] in r["metrics"]]
            n = [r["metrics"][m["name"]] for r in new[name]
                 if m["name"] in r["metrics"]]
            if not b or not n:
                continue
            v, wins, losses = verdict(b, n, m["bound"], m["better"] == "lower")
            fb = "/".join(f"{x:.4g}" for x in _stats(b))
            fn = "/".join(f"{x:.4g}" for x in _stats(n))
            print(f"{name:<12} {m['name']:<12} {fb:>32} {fn:>32} "
                  f"{wins:>2}-{losses:<3} {v}")
    return 0


# --- self-test -------------------------------------------------------------------

def _corrupt(expect):
    if isinstance(expect, str):
        return expect[:-1] + ("x" if expect[-1:] != "x" else "y")
    if isinstance(expect, tuple):
        return expect[:-1] + (_corrupt(expect[-1]),)
    if isinstance(expect, bool):
        return not expect
    return expect + 1


def selftest() -> int:
    """Each workload's checks pass on true and fail on wrong expectations."""
    revca = import_revca()
    env, ok = environment(0), True
    for name, wl in WORKLOADS.items():
        jobs, _, _ = wl.build(revca, random.Random(0), env)
        jobs = smallest_per_kind(jobs)
        good = run_round(wl, revca, jobs)["failed"]
        bad_jobs = [j._replace(expect=_corrupt(j.expect)) for j in jobs]
        bad = run_round(wl, revca, bad_jobs)["failed"]
        passed = good == 0 and bad == len(jobs)
        ok &= passed
        print(f"{name:<12} true expectations: {good}/{len(jobs)} failed; "
              f"wrong expectations: {bad}/{len(jobs)} failed, fail_ratio "
              f"{bad / len(jobs):.2f} -> {'ok' if passed else 'BROKEN'}")
    return 0 if ok else 1


# --- entry point -------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="also write the full result here")
    p.add_argument("--record", type=Path, metavar="DIR")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--compare", type=Path, nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "revca" / "__init__.py").is_file():
        print(f"error: no revca package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        return record(args.record, args.runs, args.seconds, args.trace)
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")
    spec = load_spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     why)
    line = report(result, spec)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
