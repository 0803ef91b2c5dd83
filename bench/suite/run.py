#!/usr/bin/env python3
"""The repo benchmark: builds, runs, checks and reports in one command.

  python3 bench/suite/run.py                  every workload, end-to-end metrics
  python3 bench/suite/run.py --trace          ... plus the traced run: per-layer
                                              metrics, build-bench/trace-*.json
  python3 bench/suite/run.py --workload broker-rtt --seed 7 --seconds 10 --trace 0
                                              one workload; the last stdout line
                                              is the result as one JSON object
  python3 bench/suite/run.py --smoke          every workload at 1/50 size: checks
                                              that each metric is emitted
  python3 bench/suite/run.py --compare A.json B.json
                                              verdict per (workload, metric)
                                              under the bounds; exit 1 on a
                                              regression

Metric names, units, bounds and the run length come from BENCHMARK.json at
the repository root. Each rep runs in a fresh wfqbench process; a run
repeats reps for --seconds and reports medians. Python 3 standard library
only.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
BUILD = os.path.join(ROOT, "build-bench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

MIN_REPS = 3          # untraced reps per run, whatever --seconds says
REP_TIMEOUT_S = 60    # one wfqbench process
SMOKE_SCALE = 0.02
# A rep during which the host withheld more than this share of the
# machine's CPU time measured the host, not the code: in a virtual machine
# a task's CPU time includes the time its CPU was stolen, and on a shared
# 4-vCPU Xeon virtual machine such reps read up to 2x the CPU per request.
STEAL_MAX = 0.01


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build():
    """Configures (once) and builds wfqbench + wfqbench_broker in build-bench/."""
    def step(cmd):
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            log(p.stderr[-4000:])
            raise SystemExit("run.py: build failed: " + " ".join(cmd))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", SUITE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", BUILD, "-j", "2"])


def steal_ticks():
    """CPU time the host withheld from the machine, all CPUs, in clock
    ticks (/proc/stat "steal"; 0 where the kernel does not count it)."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def rep_seed(seed, k):
    # Rep k of a run with seed s gets its own inputs, fixed by (s, k).
    return seed * 65536 + k


def run_rep(workload, seed, traced, scale):
    cmd = [os.path.join(BUILD, "wfqbench"), "--workload", workload,
           "--seed", str(seed), "--scale", repr(scale)]
    if traced:
        cmd += ["--trace", "trace-%s.json" % workload]
    steal0, t0 = steal_ticks(), time.monotonic()
    # Own process group, so a timed-out rep is killed with its broker.
    p = subprocess.Popen(cmd, cwd=BUILD, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise SystemExit("run.py: wfqbench timed out on %s" % workload)
    if p.returncode != 0 or not out.strip():
        log(err[-4000:])
        raise SystemExit("run.py: wfqbench exited %d on %s" % (p.returncode, workload))
    rep = json.loads(out.strip().splitlines()[-1])
    cpu_ticks = os.sysconf("SC_CLK_TCK") * (time.monotonic() - t0) * os.cpu_count()
    rep["steal_frac"] = (steal_ticks() - steal0) / cpu_ticks
    return rep


def stats_of(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "values": values}


def run_workload(spec, workload, seed, seconds, traced, scale=1.0,
                 keep_invalid=False):
    """Runs reps of one workload for `seconds` and aggregates. Untraced,
    at least MIN_REPS reps; traced, untraced and traced reps alternate, at
    least one of each, so the tracing overhead is a paired difference.
    Generator-bound reps are left out unless `keep_invalid`; reps the host
    stole CPU from are left out while enough others remain."""
    reps, treps = [], []
    start = time.monotonic()
    k = 0
    while True:
        want_traced = traced and k % 2 == 1
        (treps if want_traced else reps).append(
            run_rep(workload, rep_seed(seed, k), want_traced, scale))
        k += 1
        elapsed = time.monotonic() - start
        if traced:
            enough = len(treps) >= 1 and len(reps) >= 1
        else:
            enough = len(reps) >= MIN_REPS
        # Stop when one more rep would overrun the measuring time.
        if enough and elapsed + elapsed / k > seconds:
            break
    everything = reps + treps
    valid = [r for r in reps if r["valid"] or keep_invalid]
    clean = [r for r in valid if r["steal_frac"] <= STEAL_MAX]
    used = clean if len(clean) >= (1 if traced else MIN_REPS) else valid
    tused = [r for r in treps if r["steal_frac"] <= STEAL_MAX] or treps
    out = {
        "workload": workload, "seed": seed, "reps": len(reps),
        "traced_reps": len(treps), "invalid_reps": len(reps) - len(valid),
        "stolen_reps": len(valid) - len(clean), "reps_used": len(used),
        "steal_frac": statistics.median(r["steal_frac"] for r in everything),
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "errors": sorted({e for r in everything for e in r["errors"]}),
        "e2e": {}, "layer": {},
    }
    out["correct"] = not out["errors"] and out["failed"] == 0
    if not used:
        out["errors"].append("every rep was generator-bound (loadgen busy or late)")
        out["correct"] = False
        return out
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for m in spec["end_to_end"]:
        name = m["name"]
        out["e2e"][name] = dict(stats_of([r["e2e"][name] for r in used]),
                                unit=units[name])
    out["e2e_samples"] = statistics.median(r["samples"] for r in used)
    if traced:
        out["layer"] = layer_metrics(spec, used, tused, units)
    return out


def layer_metrics(spec, reps, treps, units):
    """Per-layer medians over the traced reps, plus the numbers that need
    the untraced reps of the same run: the latency budget, the tracing
    overhead and the e2e.* diagnostics."""
    def med(rs, key, name):
        return statistics.median(r[key][name] for r in rs)
    layer = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in treps[0]["layer"]:
            layer[name] = dict(stats_of([r["layer"][name] for r in treps]),
                               unit=units[name])
    p50 = med(reps, "e2e", "latency_p50_us")
    explained = layer["budget.explained_us"]["median"]
    derived = {
        "budget.explained_frac": explained / p50,
        "budget.unexplained_us": p50 - explained,
        "trace.overhead_frac": 1 - med(treps, "e2e", "throughput_per_s") /
                               med(reps, "e2e", "throughput_per_s"),
    }
    # Untraced numbers too noisy to bound, kept as diagnostics.
    for m in spec["per_layer"]:
        if m["name"].startswith("e2e."):
            derived[m["name"]] = med(reps, "e2e", m["name"][len("e2e."):])
    for name, v in derived.items():
        layer[name] = dict(stats_of([v]), unit=units[name])
    return layer


def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def environment(seed, seconds, loadavg):
    def first_line(cmd):
        try:
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
            return p.stdout.splitlines()[0].strip() if p.returncode == 0 else None
        except (OSError, IndexError, subprocess.SubprocessError):
            return None
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=")[0]:
                    k, v = line.rstrip("\n").split("=", 1)
                    cache[k.split(":")[0]] = v
    except OSError:
        pass
    build_type = cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo"
    flags = " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""))
                     if x)
    compiler = cache.get("CMAKE_CXX_COMPILER")
    # Only a repository rooted here names this tree's commit.
    top = first_line(["git", "-C", ROOT, "rev-parse", "--show-toplevel"])
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    return {
        "git_sha": first_line(["git", "-C", ROOT, "rev-parse", "HEAD"]) if in_repo else None,
        "compiler": compiler and first_line([compiler, "--version"]),
        "build_type": build_type,
        "cxx_flags": flags + " -Wall -Wextra",
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "loadavg_at_start": loadavg,
        "timer_slack_ns": read("/proc/self/timerslack_ns"),
        "python": platform.python_version(),
        "seed": seed,
        "seconds_per_workload": seconds,
        "min_reps": MIN_REPS,
    }


def fmt(v):
    return "%.6g" % v


def print_workload(res):
    print("%s  seed %d, %d reps (%d generator-bound, %d stolen, %d used), "
          "%d traced reps, steal %.3f, %d ops, %d failed" % (
              res["workload"], res["seed"], res["reps"], res["invalid_reps"],
              res["stolen_reps"], res["reps_used"], res["traced_reps"],
              res["steal_frac"], res["attempted"], res["failed"]))
    for section in ("e2e", "layer"):
        for name, s in res[section].items():
            extra = ""
            if name.startswith("latency_"):
                extra = " x %d samples" % res["e2e_samples"]
            print("  %-32s %12s %-6s [%s .. %s]  n=%d%s" % (
                name, fmt(s["median"]), s["unit"], fmt(s["min"]), fmt(s["max"]),
                s["n"], extra))
    for e in res["errors"]:
        print("  ERROR: " + e)


def write_results(env, results):
    path = os.path.join(BUILD, "results.json")
    with open(path, "w") as f:
        json.dump({"schema": "wfqbench-results-v1", "env": env,
                   "workloads": {r["workload"]: r for r in results}}, f, indent=1)
    return path


# ---- --compare ---------------------------------------------------------------

def spread_of(s):
    """Interquartile range of the reps over their median."""
    if len(s["values"]) < 2 or not s["median"]:
        return 0.0
    q = statistics.quantiles(s["values"], n=4)
    return (q[2] - q[0]) / s["median"]


def verdict(a, b, bound, better):
    """A spread wider than the bound leaves the change unresolved unless
    every rep of B beats every rep of A; otherwise only a median worse by
    more than the bound is a regression."""
    sign = 1 if better == "lower" else -1
    worse_by = sign * (b["median"] - a["median"]) / a["median"] if a["median"] else 0
    spread = max(spread_of(a), spread_of(b))
    beats = (lambda x, y: x < y) if better == "lower" else (lambda x, y: x > y)
    if spread > bound:
        if all(beats(x, y) for x in b["values"] for y in a["values"]):
            return "improved", worse_by, spread
        return "unresolved", worse_by, spread
    if worse_by > bound:
        return "regressed", worse_by, spread
    if worse_by < -bound:
        return "improved", worse_by, spread
    return "same", worse_by, spread


def compare(spec, path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)["workloads"]
    with open(path_b) as f:
        b = json.load(f)["workloads"]
    regressed = 0
    print("%-17s %-17s %12s %12s %8s %7s %7s  %s" % (
        "workload", "metric", "A median", "B median", "delta", "spread", "bound", "verdict"))
    for w in [w for w in a if w in b]:
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in a[w]["e2e"] or name not in b[w]["e2e"]:
                continue
            sa, sb = a[w]["e2e"][name], b[w]["e2e"][name]
            v, worse_by, spread = verdict(sa, sb, m["bound"], m["better"])
            delta = (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0
            regressed += v == "regressed"
            print("%-17s %-17s %12s %12s %+7.1f%% %6.1f%% %6.0f%%  %s" % (
                w, name, fmt(sa["median"]), fmt(sb["median"]), 100 * delta,
                100 * spread, 100 * m["bound"], v))
    print("%d regression(s)" % regressed)
    return 1 if regressed else 0


# ---- --smoke -----------------------------------------------------------------

def smoke(spec):
    """Every workload at 1/50 size, one untraced and one traced rep: each
    metric named in BENCHMARK.json must come out finite."""
    build()
    start = time.monotonic()
    bad = []
    for w in spec["workloads"]:
        # A 1/50 open-loop run is too short for the lateness rule, and the
        # smoke checks the metrics, not the measurement.
        res = run_workload(spec, w["name"], 1, 0, True, SMOKE_SCALE,
                           keep_invalid=True)
        got = {**res["e2e"], **res["layer"]}
        for m in spec["end_to_end"] + spec["per_layer"]:
            s = got.get(m["name"])
            if s is None or not math.isfinite(s["median"]):
                bad.append("%s: %s missing or not finite" % (w["name"], m["name"]))
        bad += ["%s: %s" % (w["name"], e) for e in res["errors"]]
        print("%-17s %d metrics, %d failed ops" % (w["name"], len(got), res["failed"]))
    elapsed = time.monotonic() - start
    for b in bad:
        print("SMOKE FAIL: " + b)
    print("smoke: %s in %.1f s" % ("FAIL" if bad else "ok", elapsed))
    return 1 if bad else 0


# ---- main --------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run one workload (see BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measuring time per workload "
                    "(default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="also make the traced run; with "
                    "--workload, report its per-layer metrics instead")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    if args.smoke:
        return smoke(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error("unknown workload %r; known: %s" % (args.workload, ", ".join(names)))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    loadavg = read("/proc/loadavg")
    build()
    env = environment(args.seed, seconds, loadavg)
    results = []
    for name in [args.workload] if args.workload else names:
        if args.workload:
            res = run_workload(spec, name, args.seed, seconds, bool(args.trace))
        else:
            # Every workload untraced, then rerun traced for its layers.
            res = run_workload(spec, name, args.seed, seconds, False)
            if args.trace:
                tres = run_workload(spec, name, args.seed, seconds, True)
                res["layer"] = tres["layer"]
                res["traced_reps"] = tres["traced_reps"]
                for k in ("attempted", "failed"):
                    res[k] += tres[k]
                res["errors"] = sorted(set(res["errors"]) | set(tres["errors"]))
                res["correct"] = res["correct"] and tres["correct"]
        print_workload(res)
        results.append(res)
    path = write_results(env, results)
    print("results: " + os.path.relpath(path, ROOT))
    if args.workload is None:
        return 0 if all(r["correct"] for r in results) else 1

    res = results[0]
    if args.trace:
        metrics = {m["name"]: res["layer"].get(m["name"]) for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: res["e2e"].get(m["name"]) for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v["median"], "unit": v["unit"]}
                    for k, v in metrics.items() if v is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
