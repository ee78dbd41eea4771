"""Compare two source trees on the perfbench workloads and write a BENCH file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_<n>.json \\
        --pairs finite-exhaustive=10 --pairs product-laws=6 --first-seed 101

Each of --parent and --change is a full checkout's directory, or else a git
revision of this repository, which the script unpacks with ``git archive``
into a temporary directory and removes at the end.  For each workload the
script runs ``perfbench/run.py --trace 0`` on the two trees in alternating
order, one pair per seed, then one traced run (``--trace 1 --seed 1``) on
each tree.  Runs already in the output file are kept, so the pairs of a
second call (with other seeds) add to them.  The file holds every run, and
per gated metric the median and quartiles of each side, the pairs the
change won, and a verdict:

* ``better`` -- the change won at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's interquartile range;
* ``worse`` -- the change's median is worse than the parent's by more than
  the bound in BENCHMARK.json;
* ``unresolved`` -- neither, and the parent's own IQR exceeds the bound,
  unless every change run beats every parent run;
* ``within bound`` -- otherwise.

It also holds every traced per-layer value of both trees and the change
in each one that moved.  The benchmark itself is read, never changed.
"""

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_SEED = 1


def run(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def source_tree(spec, stack):
    """spec where it is a directory, else revision spec of this repository
    unpacked into a temporary directory that stack removes."""
    if os.path.isdir(spec):
        return spec
    tree = stack.enter_context(tempfile.TemporaryDirectory(prefix="bench-tree-"))
    archive = subprocess.run(["git", "-C", ROOT, "archive", spec],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    return tree


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def judge(gate, parent, change):
    """Summary and verdict of one gated metric over paired runs."""
    sign = 1 if gate["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gain = sign * (cq[1] - pq[1])
    iqr = pq[2] - pq[0]
    if wins >= 0.9 * len(parent) and gain > iqr:
        verdict = "better"
    elif -gain > gate["bound"] * pq[1]:
        verdict = "worse"
    elif iqr > gate["bound"] * pq[1] and \
            not min(sign * c for c in change) > max(sign * p for p in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"unit": gate["unit"], "better": gate["better"], "bound": gate["bound"],
            "parent": {"median": pq[1], "q1": pq[0], "q3": pq[2],
                       "iqr_ratio": iqr / pq[1] if pq[1] else None},
            "change": {"median": cq[1], "q1": cq[0], "q3": cq[2],
                       "iqr_ratio": (cq[2] - cq[0]) / cq[1] if cq[1] else None},
            "change_over_parent": cq[1] / pq[1] if pq[1] else None,
            "pairs_won": wins, "pairs": len(parent), "verdict": verdict}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="a checkout's directory, or a git revision to unpack")
    ap.add_argument("--change", required=True,
                    help="a checkout's directory, or a git revision to unpack")
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", action="append", required=True,
                    help="WORKLOAD=N, once per workload")
    ap.add_argument("--first-seed", type=int, required=True)
    args = ap.parse_args()
    with contextlib.ExitStack() as stack:
        trees = {"parent": source_tree(args.parent, stack),
                 "change": source_tree(args.change, stack)}
        return compare(args, trees)


def compare(args, trees):
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = bench["run_seconds"]
    out = {"command": "perfbench/run.py --seconds %s" % seconds,
           "python": sys.version.split()[0],
           "machine": "%s, %d CPUs" % (platform.machine(), os.cpu_count()),
           "workloads": {}}
    if os.path.exists(args.out):  # add the new pairs to the runs kept there
        out = json.load(open(args.out))
    for spec in args.pairs:
        workload, n = spec.split("=")
        runs = out["workloads"].get(workload, {}).get("runs", [])
        for k in range(int(n)):
            seed = args.first_seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                r = run(trees[side], workload, seed, seconds, 0)
                runs.append({"side": side, "seed": seed, "first": order[0], **r})
                print(workload, seed, side, r["metrics"].get("verdicts_per_s"),
                      file=sys.stderr, flush=True)
        side_runs = {s: sorted((r for r in runs if r["side"] == s), key=lambda r: r["seed"])
                     for s in trees}
        gated = {g["name"]: judge(g, [r["metrics"][g["name"]] for r in side_runs["parent"]],
                                  [r["metrics"][g["name"]] for r in side_runs["change"]])
                 for g in bench["end_to_end"]}
        traced = {s: run(t, workload, TRACE_SEED, seconds, 1) for s, t in trees.items()}
        layers = {g["name"]: g["unit"] for g in bench["per_layer"]}
        before, after = traced["parent"]["metrics"], traced["change"]["metrics"]
        moved = {k: {"parent": before.get(k), "change": after.get(k)}
                 for k in layers if before.get(k) != after.get(k)}
        out["workloads"][workload] = {
            "runs": runs,
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
            "gated": gated,
            "traced": {"seed": TRACE_SEED,
                       "parent": traced["parent"], "change": traced["change"],
                       "count_deltas": {k: v for k, v in moved.items()
                                        if layers[k] in ("count", "bytes")},
                       "other_moves": {k: v for k, v in moved.items()
                                       if layers[k] not in ("count", "bytes")}}}
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
