"""Runner determinism, report emission, and CLI exit codes."""

import builtins
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from propertime import RunReport, CheckResult, parse_scenario, run, to_csv, to_json
from propertime.cli import main
from propertime.report import emit

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SRC = Path(__file__).resolve().parent.parent / "src"

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


@pytest.mark.parametrize("kind", ["schrodinger", "relativistic_sqrt", "dirac_1d"])
def test_propagate_rows_depend_only_on_sample_times(tmp_path, kind):
    # t = 0, 0.25, ..., 2 reached by 1024 steps of 2^-9 and by 8 steps of 2^-2
    base = SPREADING.replace("kind = schrodinger", f"kind = {kind}") + "momentum = 1.0\n"
    fine = base.replace("dt = 0.002", "dt = 0.001953125").replace(
        "steps = 1000", "steps = 1024").replace("sample_every = 100", "sample_every = 128")
    coarse = base.replace("dt = 0.002", "dt = 0.25").replace(
        "steps = 1000", "steps = 8").replace("sample_every = 100", "sample_every = 1")
    rows_fine = run(parse_scenario(write(tmp_path, fine, "fine.cfg"))).samples
    rows_coarse = run(parse_scenario(write(tmp_path, coarse, "coarse.cfg"))).samples
    assert [row[0] for row in rows_fine] == [0.25 * k for k in range(9)]
    assert rows_fine == rows_coarse


@pytest.mark.parametrize("kind", ["schrodinger", "relativistic_sqrt", "dirac_1d"])
def test_propagate_rows_do_not_depend_on_their_chunk(tmp_path, kind):
    # 1,025 rows sampled every step, many to a chunk, against the 9 rows at t = 0.25 k
    base = SPREADING.replace("kind = schrodinger", f"kind = {kind}") + "momentum = 1.0\n"
    every_step = base.replace("dt = 0.002", "dt = 0.001953125").replace(
        "steps = 1000", "steps = 1024").replace("sample_every = 100", "sample_every = 1")
    coarse = base.replace("dt = 0.002", "dt = 0.25").replace(
        "steps = 1000", "steps = 8").replace("sample_every = 100", "sample_every = 1")
    rows_every_step = run(parse_scenario(write(tmp_path, every_step, "every.cfg"))).samples
    rows_coarse = run(parse_scenario(write(tmp_path, coarse, "coarse.cfg"))).samples
    assert len(rows_every_step) == 1025
    assert rows_every_step[::128] == rows_coarse


@pytest.mark.parametrize("kind, arrays", [("schrodinger", 4.1), ("dirac_1d", 7.7)])
def test_propagate_sampling_peak_memory(tmp_path, kind, arrays):
    # n = 2^16 and 5 samples: sampling may hold no more than setting up phi_0 and
    # the spectrum does, in n-length complex arrays (16n bytes)
    n = 2**16
    body = SPREADING.replace("n = 512", f"n = {n}").replace(
        "kind = schrodinger", f"kind = {kind}").replace("steps = 1000", "steps = 400")
    scenario = parse_scenario(write(tmp_path, body))
    grid = scenario.params.grid
    grid.positions, grid.momenta, grid.origin_phase  # cached per grid, not part of a run
    tracemalloc.start()
    try:
        assert len(run(scenario).samples) == 5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 16 * n


def test_non_finite_sample_fails_norm_check(tmp_path):
    # t E(p) / hbar overflows at t = 1e308, so the sampled state is NaN
    body = SPREADING.replace("dt = 0.002", "dt = 1e308").replace(
        "steps = 1000", "steps = 1").replace("sample_every = 100", "sample_every = 1")
    with np.errstate(over="ignore", invalid="ignore"):
        report = run(parse_scenario(write(tmp_path, body)))
    assert [c.name for c in report.checks] == ["norm_conservation", "gaussian_width_law"]
    for check in report.checks:
        assert math.isnan(check.value) and not check.passed


def test_non_finite_values_are_strict_json_null(tmp_path):
    body = SPREADING.replace("dt = 0.002", "dt = 1e308").replace(
        "steps = 1000", "steps = 1").replace("sample_every = 100", "sample_every = 1")
    out = tmp_path / "nan.json"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["propagate", write(tmp_path, body), "--out", str(out), "--quiet"]) == 1

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert doc["passed"] is False
    for check in doc["checks"]:
        assert check["value"] is None and check["passed"] is False
    assert doc["samples"]["rows"][1][1:] == [None, None, None, None]


@pytest.mark.parametrize("kind", ["schrodinger", "relativistic_sqrt", "dirac_1d"])
def test_overflowing_phase_prints_no_runtime_warning(tmp_path, kind):
    body = SPREADING.replace("kind = schrodinger", f"kind = {kind}").replace(
        "dt = 0.002", "dt = 1e308").replace("steps = 1000", "steps = 1").replace(
        "sample_every = 100", "sample_every = 1")
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    command = [sys.executable, "-m", "propertime.cli", "propagate", write(tmp_path, body),
               "--out", str(tmp_path / "nan.json")]
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert "Warning" not in done.stderr


def test_verify_passes_on_wide_momentum_grid(tmp_path):
    # n = 16384 on [-32, 32): p reaches 804 mc, where 1 - v^2/c^2 formed by
    # subtraction loses the digits proper_time_spectrum checks
    body = VERIFY.replace("seed = 7", "seed = 1").replace("n = 256", "n = 16384").replace(
        "x_min = -16.0\nx_max = 16.0", "x_min = -32.0\nx_max = 32.0")
    report = run(parse_scenario(write(tmp_path, body)))
    assert report.scenario["grid"]["n"] == 16384
    assert report.passed, [c for c in report.checks if not c.passed]


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


def test_frame_reports_identical_across_directories(tmp_path):
    reports = []
    for name in ("a", "b"):
        where = tmp_path / name
        where.mkdir()
        for fname in ("frame_tanh.cfg", "tanh.traj"):
            shutil.copy(SCENARIOS / fname, where / fname)
        out = where / "report.json"
        assert main(["frame", str(where / "frame_tanh.cfg"), "--out", str(out), "--quiet"]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["scenario"]["trajectory"]["path"] == "tanh.traj"


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


def tiny_sigma(tmp_path):
    # parses (sigma > 0), then sigma**2 underflows to zero inside run()
    body = SPREADING.replace("sigma = 1.0", "sigma = 1e-200")
    return "propagate", write(tmp_path, body), "sigma**2"


def panels_over_bound(tmp_path):
    path = write_frame(tmp_path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("panels = 1048578\n")  # 2^20 + 2, rejected at parse before any allocation
    return "frame", path, "[trajectory] panel count"


def nan_output_time(tmp_path):
    path = write_frame(tmp_path)
    text = Path(path).read_text().replace("times = 0.25", "times = nan 0.25")
    Path(path).write_text(text)
    return "frame", path, "[trajectory] times"


def infinite_dt(tmp_path):
    body = SPREADING.replace("dt = 0.002", "dt = inf")
    return "propagate", write(tmp_path, body), "[propagator] dt"


def nan_momentum(tmp_path):
    return "propagate", write(tmp_path, SPREADING + "momentum = nan\n"), "[initial] momentum"


def grid_over_bound(tmp_path):
    # 2^23 nodes, rejected at parse before any array is allocated
    body = SPREADING.replace("n = 512", "n = 8388608")
    return "propagate", write(tmp_path, body), "[grid] grid size must be at most"


def sample_rows_over_bound(tmp_path):
    # 2^20 + 1 rows, rejected at parse before any sample is taken
    body = SPREADING.replace("steps = 1000", "steps = 1048576").replace(
        "sample_every = 100", "sample_every = 1")
    return "propagate", write(tmp_path, body), "sample rows"


def zero_c(tmp_path):
    body = VERIFY + "\n[constants]\nc = 0\n"
    return "verify", write(tmp_path, body), "[constants] hbar and c must be positive"


def negative_mass(tmp_path):
    body = SPREADING.replace("kind = schrodinger", "kind = dirac_1d").replace(
        "mass = 1.0", "mass = -1")
    return "propagate", write(tmp_path, body), "[particle] mass must be nonnegative"


def negative_dt(tmp_path):
    body = SPREADING.replace("dt = 0.002", "dt = -0.1")
    return "propagate", write(tmp_path, body), "[propagator] time step must be positive"


def massless_schrodinger(tmp_path):
    body = SPREADING.replace("mass = 1.0", "mass = 0")
    return "propagate", write(tmp_path, body), "[propagator] Schrodinger evolution requires mass"


def empty_interval(tmp_path):
    body = VERIFY.replace("x_max = 16.0", "x_max = -16.0")
    return "verify", write(tmp_path, body), "[grid] degenerate interval"


def _frame_with_sample(tmp_path, index, row):
    path = write_frame(tmp_path)
    traj = tmp_path / "wiggle.traj"
    rows = traj.read_text().splitlines()
    rows[index] = row
    traj.write_text("\n".join(rows) + "\n")
    return path


def nan_trajectory_time(tmp_path):
    # an interior row: nan passes the t[0] == 0 and increasing-time comparisons
    return "frame", _frame_with_sample(tmp_path, 100, "nan 0.1"), "[trajectory]"


def nan_trajectory_velocity(tmp_path):
    return "frame", _frame_with_sample(tmp_path, 100, "0.390625 nan"), "[trajectory]"


def box_length_overflows(tmp_path):
    # x_max - x_min = inf, so dx = inf and dp = 0
    body = SPREADING.replace("x_min = -20.0\nx_max = 20.0", "x_min = -1e308\nx_max = 1e308")
    return "propagate", write(tmp_path, body), "[grid]"


def momentum_spacing_overflows(tmp_path):
    # dp = 2 pi hbar / L = inf
    body = SPREADING + "\n[constants]\nhbar = 1e308\n"
    return "propagate", write(tmp_path, body), "[grid]"


def misspelt_initial_key(tmp_path):
    body = SPREADING.replace("sigma = 1.0", "sgima = 0.25")
    return "propagate", write(tmp_path, body), "unknown key [initial] sgima for a propagate"


def misspelt_verify_key(tmp_path):
    body = VERIFY + "\n[verify]\nrefrence_time = 5.0\n"
    return "verify", write(tmp_path, body), "unknown key [verify] refrence_time for a verify"


def section_of_another_kind(tmp_path):
    path = write_frame(tmp_path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("[grid]\nn = 64\n")
    return "frame", path, "unknown section [grid] for a frame scenario"


def unknown_propagator(tmp_path):
    body = SPREADING.replace("kind = schrodinger", "kind = klein_gordon")
    message = ("[propagator] kind must be one of ('schrodinger', 'relativistic_sqrt', "
               "'dirac_1d'), got 'klein_gordon'")
    return "propagate", write(tmp_path, body), message


def scenario_is_a_directory(tmp_path):
    path = tmp_path / "folder.cfg"
    path.mkdir()
    return "verify", str(path), f"cannot read scenario file {path}"


def trajectory_is_a_directory(tmp_path):
    path = write_frame(tmp_path)
    (tmp_path / "wiggle.traj").unlink()
    (tmp_path / "wiggle.traj").mkdir()
    return "frame", path, "cannot read trajectory file"


def frame_times_over_bound(tmp_path):
    # 2^20 + 1 output times, rejected at parse before the trajectory loads
    path = write_frame(tmp_path)
    times = " ".join(["0.5"] * (2**20 + 1))
    Path(path).write_text(Path(path).read_text().replace("0.25 0.5 0.75 1.0", times))
    return "frame", path, "[trajectory] 1048577 output times, above 1048576"


def frame_nodes_over_bound(tmp_path):
    # 256 x (2^20 + 1) = 268435712 quadrature nodes, 256 above 2^28
    path = write_frame(tmp_path)
    times = " ".join(["0.5"] * 256)
    text = Path(path).read_text().replace("0.25 0.5 0.75 1.0", times)
    Path(path).write_text(text + "panels = 1048576\n")
    return "frame", path, "[trajectory] 256 times x 1048577 nodes is 268435712 quadrature"


@pytest.mark.parametrize(
    "case",
    [underflowing_packet, panels_over_bound, nan_output_time, infinite_dt, nan_momentum,
     grid_over_bound, sample_rows_over_bound, zero_c, negative_mass, negative_dt,
     massless_schrodinger, empty_interval, tiny_sigma, nan_trajectory_time,
     nan_trajectory_velocity, box_length_overflows, momentum_spacing_overflows,
     misspelt_initial_key, misspelt_verify_key, section_of_another_kind, unknown_propagator,
     scenario_is_a_directory, trajectory_is_a_directory, frame_times_over_bound,
     frame_nodes_over_bound],
)
def test_cli_exit_two_with_one_line_on_bad_input(tmp_path, capsys, case):
    command, path, message = case(tmp_path)
    assert main([command, path, "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_cli_exit_two_with_one_line_when_report_cannot_be_written(tmp_path, capsys):
    path = write(tmp_path, VERIFY)
    out = tmp_path / "missing" / "r.json"
    assert main(["verify", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err
