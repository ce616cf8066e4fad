"""Runner determinism, report emission, and CLI exit codes."""

import builtins
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from propertime import RunReport, CheckResult, parse_scenario, run, to_csv, to_json
from propertime.cli import main
from propertime.report import emit

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

VERIFY = """
[scenario]
name = suite
kind = verify
seed = 7

[grid]
n = 256
x_min = -16.0
x_max = 16.0
"""

SPREADING = """
[scenario]
name = spread
kind = propagate

[grid]
n = 512
x_min = -20.0
x_max = 20.0

[particle]
mass = 1.0

[propagator]
kind = schrodinger
dt = 0.002
steps = 1000
sample_every = 100

[initial]
sigma = 1.0
"""

CRAMPED = """
[scenario]
name = cramped
kind = propagate

[grid]
n = 64
x_min = -5.0
x_max = 5.0

[particle]
mass = 1.0

[propagator]
kind = schrodinger
dt = 0.002
steps = 500
sample_every = 100

[initial]
sigma = 1.0
"""


def write(tmp_path, body, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


def write_frame(tmp_path):
    t = np.linspace(0.0, 1.0, 257)
    rows = "\n".join(f"{float(a)!r} {float(b)!r}" for a, b in zip(t, 0.6 * np.sin(2 * t)))
    (tmp_path / "wiggle.traj").write_text(rows + "\n")
    body = """
    [scenario]
    name = wiggle
    kind = frame

    [particle]
    mass = 1.0

    [trajectory]
    path = wiggle.traj
    times = 0.25 0.5 0.75 1.0
    """
    return write(tmp_path, body, "frame.cfg")


def test_verify_report_is_deterministic(tmp_path):
    scenario = parse_scenario(write(tmp_path, VERIFY))
    first = to_json(run(scenario))
    second = to_json(run(scenario))
    assert first == second


def test_different_seed_changes_only_results_not_structure(tmp_path):
    scenario = parse_scenario(write(tmp_path, VERIFY))
    base = json.loads(to_json(run(scenario)))
    from dataclasses import replace

    other = json.loads(to_json(run(replace(scenario, seed=8))))
    assert [c["name"] for c in base["checks"]] == [c["name"] for c in other["checks"]]
    assert base["seed"] != other["seed"]


def test_propagate_matches_width_oracle(tmp_path):
    scenario = parse_scenario(write(tmp_path, SPREADING))
    report = run(scenario)
    assert report.passed
    cols = report.sample_columns
    for row in report.samples:
        t, width = row[cols.index("t")], row[cols.index("width")]
        law = math.sqrt(1.0 + (t / 2.0) ** 2)
        assert abs(width - law) / law < 1e-6


def test_frame_report_tracks_quadrature(tmp_path):
    report = run(parse_scenario(write_frame(tmp_path)))
    assert report.passed
    cols = report.sample_columns
    times = [row[cols.index("t")] for row in report.samples]
    proper = [row[cols.index("proper_time")] for row in report.samples]
    assert times == sorted(times)
    assert all(ts <= t for ts, t in zip(proper, times))


def test_frame_scenario_matches_gudermannian_oracle():
    # shipped tanh scenario: proper time is gd(t) = 2 atan(tanh(t/2))
    report = run(parse_scenario(str(SCENARIOS / "frame_tanh.cfg")))
    assert report.passed
    cols = report.sample_columns
    for row in report.samples:
        t, ts = row[cols.index("t")], row[cols.index("proper_time")]
        assert abs(ts - 2.0 * math.atan(math.tanh(t / 2.0))) < 1e-9


def test_json_structure_three_checks():
    report = RunReport(
        {"name": "three"},
        1,
        [CheckResult("beta", 1.0, 2.0), CheckResult("alpha", 0.0, 0.0),
         CheckResult("gamma", 0.5, 0.2, mode="ge")],
    )
    doc = json.loads(to_json(report))
    assert [c["name"] for c in doc["checks"]] == ["alpha", "beta", "gamma"]
    for c in doc["checks"]:
        assert set(c) == {"name", "value", "tolerance", "mode", "passed"}


def test_json_round_trip_is_exact(tmp_path):
    scenario = parse_scenario(write(tmp_path, VERIFY))
    report = run(scenario)
    doc = json.loads(to_json(report))
    by_name = {c["name"]: c for c in doc["checks"]}
    for chk in report.checks:
        assert by_name[chk.name]["value"] == float(chk.value)
        assert by_name[chk.name]["tolerance"] == float(chk.tolerance)


def test_csv_round_trip_is_exact(tmp_path):
    scenario = parse_scenario(write(tmp_path, SPREADING))
    report = run(scenario)
    lines = to_csv(report).splitlines()
    assert lines[0] == "t,norm,x_mean,p_mean,width"
    assert len(lines) == 1 + len(report.samples)
    for line, row in zip(lines[1:], report.samples):
        parsed = [float(tok) for tok in line.split(",")]
        assert parsed == [float(v) for v in row]


def test_csv_header_only_for_empty_samples():
    report = RunReport({"name": "empty"}, 0, [CheckResult("x", 0.0, 1.0)])
    report.sample_columns = ["t", "norm"]
    assert to_csv(report) == "t,norm\n"


def test_emit_writes_files(tmp_path):
    scenario = parse_scenario(write(tmp_path, VERIFY))
    report = run(scenario)
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    emit(report, "json", str(out_json))
    emit(report, "csv", str(out_csv))
    assert json.loads(out_json.read_text())["passed"] is True
    assert out_csv.read_text().startswith("")
    with pytest.raises(ValueError):
        emit(report, "yaml", str(tmp_path / "nope"))


def test_cli_byte_identical_reports(tmp_path):
    path = write(tmp_path, VERIFY)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", path, "--out", str(out1), "--quiet"]) == 0
    assert main(["verify", path, "--out", str(out2), "--quiet"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_seed_override_is_echoed(tmp_path):
    path = write(tmp_path, VERIFY)
    out = tmp_path / "seeded.json"
    assert main(["verify", path, "--seed", "123", "--out", str(out), "--quiet"]) == 0
    assert json.loads(out.read_text())["seed"] == 123


def test_cli_exit_one_on_check_failure(tmp_path):
    path = write(tmp_path, CRAMPED)
    out = tmp_path / "fail.json"
    assert main(["propagate", path, "--out", str(out), "--quiet"]) == 1
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["gaussian_width_law"]


def test_cli_exit_two_on_config_error(tmp_path):
    bad = write(tmp_path, VERIFY + "\n[particle]\nmass = -2\n")
    assert main(["verify", bad]) == 2
    assert main(["verify", str(tmp_path / "missing.cfg")]) == 2


def test_cli_exit_two_on_kind_mismatch(tmp_path):
    path = write(tmp_path, VERIFY)
    assert main(["propagate", path]) == 2


def test_cli_stdout_report(tmp_path, capsys):
    path = write(tmp_path, VERIFY)
    assert main(["verify", path, "--quiet"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["scenario"]["name"] == "suite"
    assert captured.err == ""


def test_cli_summary_goes_to_stderr(tmp_path, capsys):
    path = write(tmp_path, VERIFY)
    assert main(["verify", path, "--out", str(tmp_path / "r.json")]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "PASS" in captured.err


SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_cli_loads_no_scipy():
    probe = "import sys, propertime.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_frame_trajectory_file_read_once(tmp_path, monkeypatch):
    path = write_frame(tmp_path)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    report = run(parse_scenario(path))
    assert report.passed
    assert opened.count("wiggle.traj") == 1


def underflowing_packet(tmp_path):
    # parses, then the packet underflows to zero on the default grid inside run()
    body = SPREADING.replace("x_min = -20.0\nx_max = 20.0\n", "") + "center = 1000\n"
    return "propagate", write(tmp_path, body), "underflows"


def panels_over_bound(tmp_path):
    path = write_frame(tmp_path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("panels = 1048578\n")  # 2^20 + 2, rejected at parse before any allocation
    return "frame", path, "[trajectory] panel count"


@pytest.mark.parametrize("case", [underflowing_packet, panels_over_bound])
def test_cli_exit_two_with_one_line_on_bad_input(tmp_path, capsys, case):
    command, path, message = case(tmp_path)
    assert main([command, path, "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
