"""A/B runs of the benchmark on two checkouts, in alternating pairs.

    python tools/bench_ab.py PARENT_ROOT CHANGE_ROOT --workload W --pairs N --seconds S \
        [--seed FIRST] [--trace 0|1] [--out BENCH.json]

Pair i runs `python3 benchmarks/run.py --workload W --seed FIRST+i --seconds S` once
in each checkout, unchanged, from that checkout's root: each side times its own
src/ with its own benchmark code. Even pairs run the parent first, odd pairs the
change. The output JSON records each side's git rev, CPU count, Python and numpy
(as the benchmark prints them) and, per workload, every run's metrics and their
summary: per metric and side the values, median and quartiles, and the pairs the
change won, better meaning lower or higher as CHANGE_ROOT/BENCHMARK.json says;
ties count for neither side. Runs of other workloads already in the file are
kept. The file is written after every pair. Standard library only.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
VERSIONS = re.compile(r"cpus (\d+)\s+python (\S+)\s+numpy (\S+)")


def spread(values):
    """Median and quartiles (inclusive method) of a list of numbers."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, better):
    """Per metric: each side's values with their spread, and the change's wins.

    `pairs` lists {"parent": {metric: value}, "change": {metric: value}}, one per
    pair; `better` maps a metric name to "lower" or "higher".
    """
    names = sorted({name for pair in pairs for side in SIDES for name in pair[side]})
    summary = {}
    for name in names:
        both = [(p["parent"][name], p["change"][name]) for p in pairs
                if name in p["parent"] and name in p["change"]]
        entry = {side: {"values": [pair[i] for pair in both], **spread([pair[i] for pair in both])}
                 for i, side in enumerate(SIDES)}
        sign = {"lower": -1, "higher": 1}.get(better.get(name))
        if sign is not None:
            entry["change_wins"] = sum(sign * (change - parent) > 0 for parent, change in both)
            entry["pairs"] = len(both)
        summary[name] = entry
    return summary


def parse_run(stdout):
    """(side facts, metric values) from the output of one benchmarks/run.py run."""
    found = VERSIONS.search(stdout)
    if found is None:
        raise ValueError("no `cpus ... python ... numpy ...` line in the benchmark output")
    facts = {"nproc": int(found[1]), "python": found[2], "numpy": found[3]}
    result = json.loads(stdout.strip().splitlines()[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    metrics["attempted"] = result["attempted"]
    metrics["failed"] = result["failed"]
    return facts, metrics


def git_rev(root):
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def run_once(root, args, seed):
    cmd = [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{root}: benchmark exited {done.returncode}: {done.stderr.strip()}")
    return parse_run(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="BENCH.json")
    args = parser.parse_args(argv)
    roots = dict(zip(SIDES, map(os.path.abspath, (args.parent, args.change))))

    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    better.update(failed="lower", attempted="higher")
    record = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    record["sides"] = {side: {"rev": git_rev(root)} for side, root in roots.items()}
    key = args.workload + (" --trace 1" if args.trace else "")

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            facts, pair[side] = run_once(roots[side], args, seed)
            record["sides"][side].update(facts)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                  + ", ".join(f"{k} {v:.6g}" for k, v in pair[side].items()), file=sys.stderr)
        pairs.append(pair)
        record["workloads"][key] = {
            "seconds": args.seconds, "trace": args.trace, "runs": pairs,
            "metrics": summarize(pairs, better),
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
