"""propertime benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a propertime checkout; the program is imported from
its src/. With --trace 0 the run prints every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric. Human-readable lines
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

Each workload runs in its own worker process (worker.py). Set-up time is
measured from launching a worker until it reports READY, several times,
and the median is reported. OpenBLAS and OpenMP threads are capped at the
number of usable CPUs in every process the benchmark starts.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 3  # two set-up-only workers plus the worker that runs the ops
DEADLINE_S = 170.0
TAIL_BEYOND = 10  # op_s.tail: the highest percentile with this many samples beyond it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cpus = str(len(os.sched_getaffinity(0)))
    env.update({name: cpus for name in THREAD_VARS})
    return env


def launch(args, work, deadline, setup_only, result=None):
    """Start a worker, wait for READY; return (process, set-up seconds)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--work", work]
    cmd += ["--setup-only"] if setup_only else ["--result", result]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            env=worker_env(), cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else b""
    setup_s = time.perf_counter() - start
    if line.strip() != b"READY":
        finish(proc, deadline)
        raise BenchmarkError(f"worker did not finish set-up (exit {proc.returncode})")
    return proc, setup_s


def finish(proc, deadline):
    try:
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError("worker ran past the deadline and was killed") from None
    finally:
        proc.stdout.close()


def tail(durations):
    """(value, percentile): the op time with TAIL_BEYOND samples above it."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(result, setups):
    ops = [rec for rec in result["records"] if not rec["traced"]]
    durations = [rec["d"] for rec in ops]
    tail_s, tail_pct = tail(durations)
    # the documented verify false FAIL still completes with the expected outcome
    correct_ops = sum(rec["status"] in ("ok", "known") for rec in ops)
    values = {
        "setup_s": statistics.median(setups),
        "op_s.p50": statistics.median(durations),
        "op_s.tail": tail_s,
        "ops_per_s": correct_ops / result["phase_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: "
                   + ", ".join(f"{value:.3f}" for value in setups),
        "op_s.p50": f"{len(durations)} ops",
        "op_s.tail": (f"p{tail_pct:.1f}, {TAIL_BEYOND} of {len(durations)} ops beyond it"
                      if len(durations) > TAIL_BEYOND else
                      f"maximum: only {len(durations)} ops"),
        "ops_per_s": f"{correct_ops} ops completed as expected in {result['phase_s']:.2f} s",
    }
    return values, notes


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "propertime", "__init__.py")):
        print(f"error: no src/propertime under {ROOT}; run from a propertime checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    result_path = os.path.join(work, "result.json")
    os.makedirs(work)
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup_s = launch(args, work, deadline, setup_only=True)
            finish(proc, deadline)
            setups.append(setup_s)
        proc, setup_s = launch(args, work, deadline, setup_only=False, result=result_path)
        setups.append(setup_s)
        finish(proc, deadline)
        if proc.returncode != 0:
            raise BenchmarkError(f"worker exited with {proc.returncode}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["records"]
    failed = [rec for rec in ops if rec["status"] == "fail"]
    known = [rec for rec in ops if rec["status"] == "known"]
    versions = result["versions"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cpus {len(os.sched_getaffinity(0))}  python {versions['python']}  "
          f"numpy {versions['numpy']}  scipy {versions['scipy']}")

    if args.trace:
        values, notes = result["layers"], {}
        wanted = spec["per_layer"]
        for name, value in values.items():
            if name.endswith(".calls") and value == 0:
                notes[name] = notes[name[:-len(".calls")] + ".self_s"] = "not exercised here"
            if ".ns_per_node_step." in name and value == 0:
                notes[name] = "no steps at this size here"
        notes["trace.coverage"] = "spans (and import) / traced op time"
    else:
        values, notes = end_to_end(result, setups)
        wanted = spec["end_to_end"]

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values:
            print(f"error: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        print(f"  {name:<48} {values[name]:>14.6g} {entry['unit']:<6} {notes.get(name, '')}")
    if args.trace:
        print(f"  {'trace.coverage':<48} {values['trace.coverage']:>14.6g} {'ratio':<6} "
              f"{notes['trace.coverage']}")
    print(f"  {'failed_ratio':<48} {len(failed) / len(ops):>14.6g} {'ratio':<6} "
          f"{len(failed)} of {len(ops)} ops failed")
    if known:
        print(f"  {'known_defect_ratio':<48} {len(known) / len(ops):>14.6g} {'ratio':<6} "
              f"{len(known)} of {len(ops)} verify ops FAIL only proper_time_spectrum "
              f"(known cancellation defect, not counted as failed)")
    for rec in failed[:5]:
        print(f"  FAILED {rec['key']}: {rec['reason']}")
    summary = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
