#!/usr/bin/env python3
"""A/B the perfbench benchmark: a base revision against the working tree.

Run from the root of a checkout:

    python3 scripts/perfab.py --base HEAD~1 --workload churn --pairs 10 --seed 5

(or `make perfab BASE=HEAD~1 WORKLOAD=churn PAIRS=10 SEED=5`). The base
revision is extracted with `git archive` into a temporary directory;
both trees then run their own perfbench/run.py, alternating which side
goes first in each pair, for the run length BENCHMARK.json declares.
For every end-to-end metric it prints each side's median and
quartiles, the change/base ratio of the medians, and how many pairs the
change won. A metric is marked GAIN when the change won at least nine
tenths of the pairs (ties count for neither side) and the medians
differ by more than the base's interquartile range.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(xs):
    """(q1, median, q3) by linear interpolation between order statistics."""
    s = sorted(xs)
    if not s:
        raise ValueError("quartiles of no values")

    def at(q):
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def wins(pairs, better):
    """How many (base, change) pairs the change won; ties count for neither."""
    n = 0
    for base, change in pairs:
        if better == "lower" and change < base or better == "higher" and change > base:
            n += 1
    return n


def summarize(pairs, better):
    """Statistics of one metric over (base, change) pairs."""
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    bq = quartiles(base)
    cq = quartiles(change)
    won = wins(pairs, better)
    iqr = bq[2] - bq[0]
    diff = cq[1] - bq[1] if better == "higher" else bq[1] - cq[1]
    return {
        "base": bq,
        "change": cq,
        "ratio": cq[1] / bq[1] if bq[1] else float("nan"),
        "wins": won,
        "pairs": len(pairs),
        "gain": won * 10 >= 9 * len(pairs) and diff > iqr,
    }


def run_tree(tree, workload, seed, seconds):
    """Run one untraced benchmark in tree and return its result object."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = [l for l in out.stdout.splitlines() if l.startswith("{")]
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: perfbench exited {out.returncode}:\n{out.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not res.get("correct") or res.get("failed"):
        raise RuntimeError(f"{tree}: run not correct: {res.get('failed')} of {res.get('attempted')} failed")
    return res


def extract(rev, dest):
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True, help="churn, graph or serve")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    tmp = tempfile.mkdtemp(prefix="perfab-")
    try:
        extract(args.base, tmp)
        trees = {"base": tmp, "change": ROOT}
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            first = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in first:
                runs[side].append(run_tree(trees[side], args.workload, args.seed, seconds)["metrics"])
            print(f"pair {i + 1}/{args.pairs} ({first[0]} first): " + " ".join(
                f"{m['name']}={runs['base'][-1][m['name']]['value']:.4g}/{runs['change'][-1][m['name']]['value']:.4g}"
                for m in metrics), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs, "
          f"base {args.base} vs working tree (base/change values above)")
    print(f"{'metric':42s} {'base q1/med/q3':>30s} {'change q1/med/q3':>30s} {'ratio':>7s} {'wins':>6s}")
    for m in metrics:
        name = m["name"]
        pairs = [(b[name]["value"], c[name]["value"]) for b, c in zip(runs["base"], runs["change"])]
        s = summarize(pairs, m["better"])
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
        print(f"{name:42s} {fmt(s['base']):>30s} {fmt(s['change']):>30s} {s['ratio']:7.3f} "
              f"{s['wins']:>3d}/{s['pairs']:<2d}{'  GAIN' if s['gain'] else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
