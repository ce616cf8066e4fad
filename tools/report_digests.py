"""Print one line per report the benchmark workloads and the shipped scenarios write.

    python tools/report_digests.py SRC_DIR > digests.txt

SRC_DIR is the `src/` directory whose propertime is imported and run. The
scenario files always come from this checkout: benchmarks/workloads.py
(imported read-only) writes every op of every workload at seeds 1 and 2, and
each shipped scenario runs once in json and once in csv. Two runs against
two SRC_DIRs therefore feed the same input bytes to both programs, and
`diff` of their outputs lists every report or exit code that differs.

Each line reads `workload seed key exit sha256`; the seed of a shipped
scenario is `-`, and so is the sha256 of an op that wrote no report.
"""

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)
SHIPPED = (("verify.cfg", "verify"), ("propagate_schrodinger.cfg", "propagate"),
           ("frame_tanh.cfg", "frame"))


def _digest(path):
    if not os.path.exists(path):
        return "-"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src/ directory to import propertime from")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "benchmarks")]
    import propertime
    import workloads
    from propertime.cli import main as cli

    print(f"propertime from {os.path.dirname(propertime.__file__)}", file=sys.stderr)

    with tempfile.TemporaryDirectory() as work:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                ops = workloads.build(workload, seed, ROOT, os.path.join(work, f"{workload}{seed}"))
                for op in ops:
                    code = cli(op.argv())
                    print(workload, seed, op.key, code, _digest(op.out), flush=True)
        for fname, command in SHIPPED:
            scenario = os.path.join(ROOT, "scenarios", fname)
            for fmt in ("json", "csv"):
                out = os.path.join(work, f"{fname}.{fmt}")
                code = cli([command, scenario, "--format", fmt, "--out", out, "--quiet"])
                print("shipped", "-", f"{fname}-{fmt}", code, _digest(out), flush=True)


if __name__ == "__main__":
    main()
