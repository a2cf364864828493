#!/usr/bin/env python3
"""Collect and compare sets of cdwbench runs.

  python3 cdwbench/compare.py collect DIR [--workloads a,b] [--seeds 1-10]
                                          [--seconds S] [--trace 0|1]
      Run `sh cdwbench/run.sh` once per workload and seed (from the root
      of the source tree) and keep each run's standard output as
      DIR/<workload>-<seed>-t<trace>.out.

  python3 cdwbench/compare.py check DIR [BASE_DIR]
      For every workload in DIR: every run must be correct, and runs must
      share one pinned config and host. Prints each end-to-end metric's
      median and its spread (interquartile range / median, as
      statistics.quantiles(n=4) gives it) against the metric's bound in
      BENCHMARK.json. With BASE_DIR, the two sets must share config and
      host, every seed's state digest must be identical in both, and
      DIR's median may be worse than BASE_DIR's by at most the bound.

Exit status: 0 when every check holds, 1 when a metric or digest check
fails, 2 when configs or hosts differ (results are not comparable).
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args):
    spec = bench_spec()
    out = args[0]
    opts = dict(zip(args[1::2], args[2::2]))
    workloads = opts.get("--workloads", ",".join(w["name"] for w in spec["workloads"]))
    seeds = parse_seeds(opts.get("--seeds", "1-10"))
    seconds = opts.get("--seconds", str(spec["run_seconds"]))
    trace = opts.get("--trace", "0")
    os.makedirs(out, exist_ok=True)
    for workload in workloads.split(","):
        for seed in seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", seconds, "--trace", trace]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
            path = os.path.join(out, f"{workload}-{seed}-t{trace}.out")
            with open(path, "wb") as f:
                f.write(run.stdout)
            last = run.stdout.decode().strip().splitlines()[-1:] or [""]
            print(f"{path}: exit {run.returncode} {last[0][:120]}", flush=True)


def load(directory):
    """{workload: [(seed, context, result)]} from a directory of runs."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out"):
            continue
        with open(os.path.join(directory, name)) as f:
            lines = f.read().strip().splitlines()
        context = json.loads(lines[-2])["cdwbench"]
        result = json.loads(lines[-1])
        runs.setdefault(context["workload"], []).append(
            (context["seed"], context, result))
    return runs


def pinned(context):
    config = dict(context["config"])
    if "stream" in config:  # the stream spec carries the run's seed
        config["stream"] = ",".join(
            kv for kv in config["stream"].split(",") if not kv.startswith("seed:"))
    return json.dumps({"config": config, "host": context["host"],
                       "trace": context["trace"]}, sort_keys=True)


def one_config(workload, runs, label):
    configs = {pinned(c) for _, c, _ in runs}
    if len(configs) != 1:
        sys.exit(f"CONFIG MISMATCH in {label} {workload}: {sorted(configs)}")
    return configs.pop()


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse(metric, new, old):
    """Relative worsening of new against old (negative: better)."""
    change = (new - old) / old
    return -change if metric["better"] == "higher" else change


def check(args):
    spec = bench_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs = load(args[0])
    base = load(args[1]) if len(args) > 1 else None
    status = 0
    for workload, rs in sorted(runs.items()):
        config = one_config(workload, rs, args[0])
        kind = "per_layer" if rs[0][1]["trace"] else "end_to_end"
        names = [m["name"] for m in spec[kind]]
        if any(list(r["metrics"]) != names for _, _, r in rs):
            print(f"{workload}: metric names differ from BENCHMARK.json {kind}")
            status = 1
        bad = [s for s, _, r in rs if not r["correct"] or r["failed"]]
        if bad:
            print(f"{workload}: FAILED runs at seeds {bad}")
            status = 1
        print(f"{workload}: {len(rs)} runs")
        if base is not None:
            if workload not in base:
                print(f"  not in {args[1]}")
                status = 1
                continue
            if one_config(workload, base[workload], args[1]) != config:
                sys.exit(f"CONFIG MISMATCH between {args[0]} and {args[1]} for {workload}")
            old = {s: c.get("digest") for s, c, _ in base[workload]}
            for s, c, _ in rs:
                if s in old and old[s] != c.get("digest"):
                    print(f"  seed {s}: digest {c.get('digest')} != {old[s]}")
                    status = 1
        if kind == "per_layer":
            continue
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for _, _, r in rs]
            med = statistics.median(values)
            sp = spread(values) if len(values) >= 2 else 0.0
            line = f"  {name:22s} median {med:<14.6g} spread {sp:6.3f} (bound {m['bound']})"
            if sp > m["bound"]:
                line += "  SPREAD > BOUND"
                status = 1
            elif sp > m["bound"] / 3:
                line += "  (spread > bound/3)"
            if base is not None:
                bmed = statistics.median(
                    r["metrics"][name]["value"] for _, _, r in base[workload])
                w = worse(m, med, bmed)
                line += f"  vs {bmed:<12.6g} worse by {w:+.3f}"
                if w > m["bound"]:
                    line += "  REGRESSION"
                    status = 1
            print(line)
    sys.exit(status)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in ("collect", "check"):
        sys.exit(__doc__)
    (collect if sys.argv[1] == "collect" else check)(sys.argv[2:])
