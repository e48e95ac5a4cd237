#!/usr/bin/env python3
"""A/B two prebuilt benchmark binaries in alternating pairs.

Runs `BIN --workload W --seed S --seconds N --trace 0` for a parent and a
change binary, pair after pair, alternating which side goes first (pair 0
runs the parent first, pair 1 the change, and so on), every workload in
turn. Each run's last stdout line is the harness's result line
(`{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`)
and one line starts with `seed-determined:`.

Per workload and end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the pairs the change won (strictly better, in the
metric's direction), and two verdicts:

* claim: the change won at least 9 of every 10 pairs and its median beats
  the parent's by more than the parent's interquartile range;
* bound: the change's median is no worse than the parent's by more than
  the metric's `bound` (a share of the parent's median) -- or, where the
  parent's own IQR is wider than that bound, "unresolved", unless every
  change run reads better than every parent run.

It also sums failed operations per side and says whether every run printed
the same `seed-determined:` line. With `--out FILE` the raw runs are kept as
JSON, and `--load FILE` prints the report of such a file without running
anything.

Usage:
  ab_pairs.py PARENT_BIN CHANGE_BIN [--workloads a,b] [--pairs 10]
              [--seed 11] [--seconds 50] [--out FILE]
  ab_pairs.py --load FILE
  ab_pairs.py --self-check

Nothing else should run on the machine during an A/B.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SEED_DETERMINED = "seed-determined:"
HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(path=os.path.join(HERE, "..", "BENCHMARK.json")):
    with open(path) as f:
        spec = json.load(f)
    return spec


def quartiles(values):
    """(first quartile, median, third quartile), linear interpolation
    between order statistics (numpy's default)."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, direction):
    """Whether `a` is strictly better than `b`."""
    return a > b if direction == "higher" else a < b


def verdict(parent, change, direction, bound):
    """Compares paired runs of one metric (lists in pair order)."""
    assert len(parent) == len(change) and parent, "one value per side per pair"
    won = sum(better(c, p, direction) for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    iqr = pq3 - pq1
    gain = (cmed - pmed) if direction == "higher" else (pmed - cmed)
    claim = 10 * won >= 9 * len(parent) and gain > iqr
    loss = -gain / pmed if pmed else 0.0
    spread = iqr / abs(pmed) if pmed else 0.0
    worst_change = min(change) if direction == "higher" else max(change)
    best_parent = max(parent) if direction == "higher" else min(parent)
    if loss > bound:
        bound_verdict = "WORSE"
    elif spread > bound and not better(worst_change, best_parent, direction):
        bound_verdict = "unresolved"
    else:
        bound_verdict = "ok"
    return {
        "pairs": len(parent),
        "won": won,
        "parent": (pq1, pmed, pq3),
        "change": (cq1, cmed, cq3),
        "parent_iqr": iqr,
        "gain": gain,
        "claim": claim,
        "bound": bound_verdict,
    }


def parse_run(stdout):
    """The result line and the seed-determined line of one run's stdout."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    seed_line = next((l for l in lines if l.startswith(SEED_DETERMINED)), None)
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "seed_determined": seed_line,
    }


def run_once(binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    run = parse_run(out)
    run["wall_s"] = time.time() - t0
    return run


def collect(parent_bin, change_bin, workloads, pairs, seed, seconds):
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(pairs):
        order = [("parent", parent_bin), ("change", change_bin)]
        if i % 2:
            order.reverse()
        for w in workloads:
            for side, binary in order:
                run = run_once(binary, w, seed, seconds)
                runs[w][side].append(run)
                print(f"pair {i} {w} {side}: {run['wall_s']:.1f} s, {run['failed']} failed", file=sys.stderr)
    return {"seed": seed, "seconds": seconds, "pairs": pairs, "runs": runs}


def fmt(x):
    return f"{x:.4g}"


def report(data, spec, out=sys.stdout):
    """Prints the per-metric table; returns the verdicts by (workload, metric)."""
    metrics = spec["end_to_end"]
    verdicts = {}
    print(f"seed {data['seed']}, --seconds {data['seconds']}, {data['pairs']} alternating pairs", file=out)
    for w, sides in data["runs"].items():
        failed = {s: sum(r["failed"] for r in runs) for s, runs in sides.items()}
        seeds = {r["seed_determined"] for runs in sides.values() for r in runs}
        print(f"\n{w}: failed operations parent {failed['parent']}, change {failed['change']}; "
              f"seed-determined line {'identical' if len(seeds) == 1 else 'DIFFERS'} across runs", file=out)
        print(f"  {'metric':<24} {'parent q1/med/q3':>28} {'change q1/med/q3':>28} {'won':>6}  claim  bound", file=out)
        for m in metrics:
            name = m["name"]
            parent = [r["metrics"][name] for r in sides["parent"]]
            change = [r["metrics"][name] for r in sides["change"]]
            v = verdict(parent, change, m["better"], m["bound"])
            verdicts[(w, name)] = v
            p = "/".join(fmt(x) for x in v["parent"])
            c = "/".join(fmt(x) for x in v["change"])
            print(f"  {name:<24} {p:>28} {c:>28} {v['won']:>2}/{v['pairs']:<3}  "
                  f"{'yes' if v['claim'] else 'no':<5}  {v['bound']}", file=out)
            print(f"    parent: {' '.join(fmt(x) for x in parent)}", file=out)
            print(f"    change: {' '.join(fmt(x) for x in change)}", file=out)
    return verdicts


def self_check():
    """The verdicts on canned numbers, and the parsing of a canned run."""
    up, down = "higher", "lower"
    # 10/10 won, median gap 20 > parent IQR 2.5: a claim.
    v = verdict([60, 61, 62, 63, 64, 60, 61, 62, 63, 64], [80, 81, 82, 83, 84, 80, 81, 82, 83, 84], up, 0.25)
    assert v["won"] == 10 and v["claim"] and v["bound"] == "ok", v
    # 9/10 won still claims; 8/10 does not.
    p = [10.0] * 10
    assert verdict(p, [20.0] * 9 + [5.0], up, 0.25)["claim"]
    assert not verdict(p, [20.0] * 8 + [5.0] * 2, up, 0.25)["claim"]
    # Every pair won, but the gap (1) is inside the parent's IQR (4.5).
    v = verdict([1, 10, 2, 9, 3, 8, 4, 7, 5, 6], [2, 11, 3, 10, 4, 9, 5, 8, 6, 7], up, 0.25)
    assert v["won"] == 10 and v["gain"] == 1 and v["parent_iqr"] == 4.5 and not v["claim"], v
    # Lower is better: a falling time claims, a rise past the bound is worse.
    assert verdict([1.4] * 10, [1.1] * 10, down, 0.25)["claim"]
    v = verdict([1.0] * 10, [1.3] * 10, down, 0.25)
    assert v["won"] == 0 and v["bound"] == "WORSE", v
    assert verdict([1.0] * 10, [1.2] * 10, down, 0.25)["bound"] == "ok"
    # A higher-is-better metric 30 % down is worse than a 0.25 bound.
    assert verdict([100.0] * 4, [70.0] * 4, up, 0.25)["bound"] == "WORSE"
    # A parent spread (IQR 1 on a median of 2) wider than the bound leaves
    # an unmoved median unresolved, unless every change run beats every
    # parent run.
    wide = [1.0, 1.5, 2.0, 2.5, 3.0]
    assert verdict(wide, wide, up, 0.25)["bound"] == "unresolved"
    assert verdict(wide, [3.1, 3.2, 3.3, 3.4, 3.5], up, 0.25)["bound"] == "ok"
    assert quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    run = parse_run(
        "workload hot_narrow = ...\n"
        "seed-determined: choices 00ff sim_speedup 1.6 corpus+predictions 0a qerror_p50 2.97\n"
        'train_samples_per_s 1.0 1/s\n'
        '{"correct":true,"attempted":10,"failed":1,"metrics":{"setup_s":{"value":1.25,"unit":"s"}}}\n'
    )
    assert run["failed"] == 1 and run["metrics"] == {"setup_s": 1.25}, run
    assert run["seed_determined"].startswith(SEED_DETERMINED)
    # The report runs over every metric of the spec.
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"]]
    side = lambda k: [{"failed": 0, "metrics": {n: 1.0 + k for n in names}, "seed_determined": "s"}]
    data = {"seed": 11, "seconds": 1, "pairs": 1, "runs": {"w": {"parent": side(0), "change": side(1)}}}
    verdicts = report(data, spec, out=open(os.devnull, "w"))
    assert len(verdicts) == len(names)
    print("ab_pairs self-check: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--workloads", default=None, help="comma-separated (default: every workload of BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", help="write the raw runs here (JSON)")
    ap.add_argument("--load", help="report a file --out wrote, running nothing")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        self_check()
        return 0
    spec = load_spec()
    if args.load:
        with open(args.load) as f:
            data = json.load(f)
    else:
        if not (args.parent and args.change):
            ap.error("two binaries, --load or --self-check")
        workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        seconds = int(seconds) if float(seconds).is_integer() else seconds
        data = collect(args.parent, args.change, workloads, args.pairs, args.seed, seconds)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(data, f, indent=1)
    report(data, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
