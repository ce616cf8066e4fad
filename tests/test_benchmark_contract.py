"""The benchmark's per-layer contract with the program's module interfaces.

`benchmarks/tracing.py` times only the functions one propertime module
imports from another. A per-layer metric of BENCHMARK.json that names any
other function is never measured, and a traced benchmark run exits 1 on it.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_per_layer_call_metric_names_a_traced_function():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {tracing.label(fn) for _, _, fn in tracing.public_functions()}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    named = {
        metric["name"].rsplit(".", 1)[0]
        for metric in metrics
        if metric["name"].endswith((".calls", ".self_s"))
    }
    assert sorted(named - traced) == []
