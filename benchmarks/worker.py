"""One workload process: set up, warm up, time ops in a closed loop, check them.

run.py starts this file with PYTHONPATH pointing at the checkout's src/.
Set-up is the import of propertime, writing the workload's scenario files
and one parse_scenario of each; the process then prints READY, which is
where run.py stops its set-up clock. With --setup-only it exits there.

The timed phase runs ops back to back (one client, no threads) until
--seconds have passed. Outputs are judged only after the phase: exit code
and report verdict, the oracle, and byte identity of repeated ops.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import oracle
import workloads
from tracing import Tracer, import_times, label, public_functions

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHIM = os.path.join(HERE, "cli_shim.py")
WARMUP_S = 1.0
OP_TIMEOUT_S = 60.0
IMPORT_PROBES = 3
STEP_SIZES = (65536, 1 << 20)
# Largest proper_time_spectrum error that still reads as the known defect:
# over every node of the verify grids the error is at most 4.43e-14
# (n = 16384), so no seed's spot check exceeds it; 1e-13 leaves a factor 2.
KNOWN_SPECTRUM_MAX = 1e-13


def parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


class InProcess:
    """An op is one propertime.cli.main call in this process."""

    rusage = resource.RUSAGE_SELF

    def __init__(self, cli):
        self.cli = cli

    def run(self, op, traced, index):
        try:
            return self.cli.main(op.argv()), ""
        except Exception as exc:  # an op that raises is a failed op, not a crash
            return None, f"raised {type(exc).__name__}: {exc}"


class Subprocess:
    """An op is one `python -m propertime.cli` process; traced ops go through the shim."""

    rusage = resource.RUSAGE_CHILDREN

    def __init__(self, work):
        self.spans_dir = os.path.join(work, "spans")
        os.makedirs(self.spans_dir, exist_ok=True)
        self.import_logs = {}

    def spans_path(self, index):
        return os.path.join(self.spans_dir, f"{index}.json")

    def run(self, op, traced, index):
        if traced:
            cmd = [sys.executable, "-X", "importtime", SHIM, self.spans_path(index), *op.argv()]
        else:
            cmd = [sys.executable, "-m", "propertime.cli", *op.argv()]
        try:
            proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {OP_TIMEOUT_S} s"
        stderr = proc.stderr.decode("utf-8", "replace")
        if traced:
            self.import_logs[index] = stderr
        return proc.returncode, stderr.strip()[-300:]


def read_report(fmt, data):
    """(columns, rows, passed, {failing check: value}) from report bytes; CSV has no verdict (None)."""
    text = data.decode("utf-8")
    if fmt == "json":
        doc = json.loads(text)
        failing = {chk["name"]: chk["value"] for chk in doc["checks"] if not chk["passed"]}
        return doc["samples"]["columns"], doc["samples"]["rows"], doc["passed"], failing
    table = list(csv.reader(io.StringIO(text)))
    rows = [[float(v) for v in row] for row in table[1:]]
    return table[0] if table else [], rows, None, None


def judge(op, rc, data):
    """'ok', 'known' (the documented verify failure) or 'fail', with a reason."""
    if data is None:
        return "fail", "no report written"
    try:
        columns, rows, passed, failing = read_report(op.fmt, data)
    except (ValueError, KeyError, IndexError) as exc:
        return "fail", f"unreadable report: {exc}"
    if passed is not None and passed != (rc == 0):
        return "fail", f"exit code {rc} disagrees with report passed = {passed}"
    # Known defect: cancellation in 1 - v^2/c^2 inside proper_time_op puts the
    # spectrum spot check above its 1e-14 tolerance on most n = 16384 runs and
    # on some n = 4096 seeds. Such an op has the documented outcome, so it is
    # counted apart from failed ops; a larger error than KNOWN_SPECTRUM_MAX or
    # any other failing check is a failure.
    if (rc == 1 and op.command == "verify" and list(failing) == ["proper_time_spectrum"]
            and failing["proper_time_spectrum"] <= KNOWN_SPECTRUM_MAX):
        return "known", "proper_time_spectrum FAILs (known cancellation defect)"
    if rc != 0:
        return "fail", f"exit code {rc}" + (f", failing checks {failing}" if failing else "")
    if op.oracle:
        try:
            reason = oracle.disagreement(op.oracle, columns, rows)
        except (ValueError, IndexError) as exc:
            reason = f"sample rows the oracle cannot read: {exc}"
        if reason:
            return "fail", reason
    return "ok", ""


def layer_metrics(tracer, records, ops, runner, traced_ids):
    """Per-layer metrics of the traced ops: per-op means of calls and self time."""
    calls, self_s, inclusive = tracer.summary()
    count = len(traced_ids)
    metrics = {}
    names = sorted({label(fn) for _, _, fn in public_functions()} | set(tracer.names))
    for name in names:
        metrics[f"{name}.calls"] = sum(calls[i, name] for i in traced_ids) / count
        metrics[f"{name}.self_s"] = sum(self_s[i, name] for i in traced_ids) / count
    for module in {name.split(".", 1)[0] for name in names}:
        metrics[f"{module}.errors"] = tracer.errors[module]
    steps = [name for name in names if name.startswith("propagators.step_")]
    for size in STEP_SIZES:
        ids = [i for i in traced_ids if ops[records[i]["op"]].nodes == size]
        seconds = sum(inclusive[i, name] for i in ids for name in steps)
        node_steps = size * sum(calls[i, name] for i in ids for name in steps)
        metrics[f"propagators.ns_per_node_step.n{size}"] = (
            seconds / node_steps * 1e9 if node_steps else 0.0
        )
    metrics["frames.quadrature_nodes"] = (
        sum(ops[records[i]["op"]].quadrature_nodes for i in traced_ids) / count
    )
    metrics["report.bytes_written"] = sum(records[i]["bytes"] for i in traced_ids) / count

    if isinstance(runner, Subprocess):
        logs = [runner.import_logs[i] for i in traced_ids if i in runner.import_logs]
    else:
        logs = []
        for _ in range(IMPORT_PROBES):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import propertime.cli"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=OP_TIMEOUT_S, check=True,
            )
            logs.append(proc.stderr.decode("utf-8", "replace"))
    parsed = [import_times(log) for log in logs]
    metrics["cli.import_s"] = statistics.median(cli_s for cli_s, _ in parsed)
    metrics["frames.import_s"] = statistics.median(frames_s for _, frames_s in parsed)

    traced = [records[i]["d"] for i in traced_ids]
    untraced = [rec["d"] for rec in records if not rec["traced"]]
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    # share of the traced op time that the spans cover (plus the import, for a CLI process)
    covered = sum(inclusive[i, "cli.main"] for i in traced_ids)
    if isinstance(runner, Subprocess):
        covered += sum(cli_s for cli_s, _ in parsed)
    metrics["trace.coverage"] = covered / sum(traced)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    import numpy
    import propertime
    from propertime import cli
    from propertime.scenario import parse_scenario

    if not os.path.abspath(propertime.__file__).startswith(src + os.sep):
        raise SystemExit(f"propertime was imported from {propertime.__file__}, not {src}")
    ops = workloads.build(args.workload, args.seed, ROOT, args.work)
    for path in sorted({op.scenario for op in ops}):
        parse_scenario(path)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    runner = Subprocess(args.work) if args.workload == "cli_mix" else InProcess(cli)
    tracer = Tracer() if args.trace else None

    def one_op(index, traced):
        op = ops[index % len(ops)]
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        rc, message = runner.run(op, traced, index)
        end = time.perf_counter()
        try:
            with open(op.out, "rb") as fh:
                data = fh.read()
            os.remove(op.out)
        except OSError:
            data = None
        return start, end, rc, message, data

    warm_start = time.perf_counter()
    for index in range(len(ops)):
        one_op(index, False)
        if time.perf_counter() - warm_start >= WARMUP_S:
            break

    records, first = [], {}
    phase_start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and (index // len(ops)) % 2 == 1
        if tracer is not None and index % len(ops) == 0:
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
        start, end, rc, message, data = one_op(index, traced)
        op = ops[index % len(ops)]
        digest = hashlib.sha256(data).hexdigest() if data is not None else None
        first.setdefault(op.key, (digest, rc, data))
        records.append({"op": index % len(ops), "d": end - start, "traced": traced, "rc": rc,
                        "message": message, "digest": digest,
                        "bytes": len(data) if data is not None else 0})
        index += 1
        # a traced run needs both traced and untraced ops for its overhead ratio
        if end - phase_start >= args.seconds and (tracer is None or index > len(ops)):
            break
    phase_s = end - phase_start
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(runner.rusage).ru_maxrss / 1024.0

    by_key = {op.key: op for op in ops}
    verdicts = {key: judge(by_key[key], rc, data) for key, (_, rc, data) in first.items()}
    for rec in records:
        op = ops[rec["op"]]
        digest, rc, _ = first[op.key]
        if rec["rc"] is None:
            status, reason = "fail", rec["message"]
        elif rec["digest"] != digest or rec["rc"] != rc:
            status = "fail"
            reason = "differs from an earlier op with the same scenario, seed and format"
        else:
            status, reason = verdicts[op.key]
        if status == "fail" and rec["rc"] is not None and rec["message"]:
            reason += f" ({rec['message']})"
        rec.update(status=status, reason=reason, key=op.key)

    result = {
        "records": records,
        "phase_s": phase_s,
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }
    try:
        import scipy
        result["versions"]["scipy"] = scipy.__version__
    except ImportError:
        result["versions"]["scipy"] = "not installed"
    if tracer is not None:
        traced_ids = [i for i, rec in enumerate(records) if rec["traced"]]
        if isinstance(runner, Subprocess):
            for i in traced_ids:
                if not os.path.exists(runner.spans_path(i)):
                    continue  # the process timed out; the op already counts as failed
                with open(runner.spans_path(i), encoding="utf-8") as fh:
                    child = json.load(fh)
                tracer.absorb(child["names"], child["spans"], child["errors"], i)
        result["layers"] = layer_metrics(tracer, records, ops, runner, traced_ids)
        tracer.dump(os.path.join(os.path.dirname(args.work), f"trace-{args.workload}.tsv"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
