"""Scenario parsing and fail-fast validation."""

import json
import textwrap

import pytest

from propertime import ScenarioError, parse_scenario
from propertime.scenario import FrameParams, PropagateParams, VerifyParams


def write(tmp_path, body, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


MINIMAL_VERIFY = """
[scenario]
name = minimal
kind = verify
"""


def test_minimal_verify_defaults(tmp_path):
    scenario = parse_scenario(write(tmp_path, MINIMAL_VERIFY))
    assert scenario.kind == "verify"
    assert scenario.constants.hbar == 1.0 and scenario.constants.c == 1.0
    assert scenario.seed == 42
    assert isinstance(scenario.params, VerifyParams)
    assert scenario.params.grid.n == 512
    assert scenario.params.reference_time == 2.0


def test_missing_file():
    with pytest.raises(ScenarioError, match="not found"):
        parse_scenario("/nonexistent/path.cfg")


def test_missing_scenario_section(tmp_path):
    with pytest.raises(ScenarioError, match=r"\[scenario\]"):
        parse_scenario(write(tmp_path, "[constants]\nhbar = 1\n"))


def test_unknown_kind(tmp_path):
    with pytest.raises(ScenarioError, match="kind"):
        parse_scenario(write(tmp_path, "[scenario]\nname = x\nkind = explode\n"))


def test_negative_mass_rejected(tmp_path):
    body = MINIMAL_VERIFY + "\n[particle]\nmass = -1\n"
    with pytest.raises(ScenarioError, match="mass"):
        parse_scenario(write(tmp_path, body))


def test_non_power_of_two_grid_rejected(tmp_path):
    body = MINIMAL_VERIFY + "\n[grid]\nn = 100\n"
    with pytest.raises(ScenarioError, match="power of two"):
        parse_scenario(write(tmp_path, body))


def test_nonpositive_constants_rejected(tmp_path):
    body = MINIMAL_VERIFY + "\n[constants]\nc = 0\n"
    with pytest.raises(ScenarioError, match="c"):
        parse_scenario(write(tmp_path, body))


def test_bad_number_names_key(tmp_path):
    body = MINIMAL_VERIFY + "\n[constants]\nhbar = fast\n"
    with pytest.raises(ScenarioError, match=r"\[constants\] hbar"):
        parse_scenario(write(tmp_path, body))


PROPAGATE = """
[scenario]
name = packet
kind = propagate

[particle]
mass = 1.0

[propagator]
kind = schrodinger
dt = 0.01
steps = 10

[initial]
sigma = 1.0
"""


def test_propagate_parses(tmp_path):
    scenario = parse_scenario(write(tmp_path, PROPAGATE))
    assert isinstance(scenario.params, PropagateParams)
    assert scenario.params.steps == 10
    assert scenario.params.sample_every == 1


def test_propagate_missing_dt(tmp_path):
    body = PROPAGATE.replace("dt = 0.01\n", "")
    with pytest.raises(ScenarioError, match=r"\[propagator\] dt"):
        parse_scenario(write(tmp_path, body))


def test_schrodinger_needs_positive_mass(tmp_path):
    body = PROPAGATE.replace("mass = 1.0", "mass = 0.0")
    with pytest.raises(ScenarioError, match="mass"):
        parse_scenario(write(tmp_path, body))


def test_massless_relativistic_propagate_allowed(tmp_path):
    body = PROPAGATE.replace("mass = 1.0", "mass = 0.0").replace(
        "kind = schrodinger", "kind = relativistic_sqrt"
    )
    scenario = parse_scenario(write(tmp_path, body))
    assert scenario.params.spec.particle.mass == 0.0


FRAME = """
[scenario]
name = coast
kind = frame

[particle]
mass = 1.0

[trajectory]
path = coast.traj
times = 0.5 1.0
"""


def test_frame_parses_and_resolves_path(tmp_path):
    (tmp_path / "coast.traj").write_text("0.0 0.5\n2.0 0.5\n")
    scenario = parse_scenario(write(tmp_path, FRAME))
    assert isinstance(scenario.params, FrameParams)
    assert scenario.params.trajectory_path.endswith("coast.traj")
    assert scenario.params.times == (0.5, 1.0)


def test_frame_missing_trajectory_file_named(tmp_path):
    with pytest.raises(ScenarioError, match="coast.traj"):
        parse_scenario(write(tmp_path, FRAME))


def test_frame_superluminal_sample_rejected(tmp_path):
    (tmp_path / "coast.traj").write_text("0.0 0.5\n2.0 1.5\n")
    with pytest.raises(ScenarioError, match="superluminal"):
        parse_scenario(write(tmp_path, FRAME))


def test_frame_times_outside_horizon_rejected(tmp_path):
    (tmp_path / "coast.traj").write_text("0.0 0.5\n2.0 0.5\n")
    body = FRAME.replace("times = 0.5 1.0", "times = 0.5 3.0")
    with pytest.raises(ScenarioError, match="times"):
        parse_scenario(write(tmp_path, body))


def test_frame_odd_simpson_panels_rejected(tmp_path):
    (tmp_path / "coast.traj").write_text("0.0 0.5\n2.0 0.5\n")
    body = FRAME + "panels = 33\n"
    with pytest.raises(ScenarioError, match="panel"):
        parse_scenario(write(tmp_path, body))


def test_frame_empty_times_rejected(tmp_path):
    (tmp_path / "coast.traj").write_text("0.0 0.5\n2.0 0.5\n")
    body = FRAME.replace("times = 0.5 1.0", "times =")
    with pytest.raises(ScenarioError, match="times"):
        parse_scenario(write(tmp_path, body))


def test_frame_work_just_inside_bound_parses(tmp_path):
    # 255 x (2^20 + 1) = 267387135 quadrature nodes, below 2^28
    (tmp_path / "coast.traj").write_text("0.0 0.5\n2.0 0.5\n")
    body = FRAME.replace("times = 0.5 1.0", "times = " + " ".join(["0.5"] * 255))
    scenario = parse_scenario(write(tmp_path, body + "panels = 1048576\n"))
    assert len(scenario.params.times) == 255 and scenario.params.panels == 1048576


def test_echo_lists_defaults_in_reading_order(tmp_path):
    (tmp_path / "coast.traj").write_text("0.0 0.5\n2.0 0.5\n")
    units = {"hbar": 1.0, "c": 1.0}
    grid = {"n": 512, "x_min": -32.0, "x_max": 32.0}
    cases = [
        (MINIMAL_VERIFY, {"name": "minimal", "kind": "verify", "constants": units,
                          "grid": grid, "mass": 1.0, "reference_time": 2.0}),
        ("[scenario]\nname = bare\nkind = propagate\n"
         "[propagator]\nkind = dirac_1d\ndt = 0.01\nsteps = 10\n",
         {"name": "bare", "kind": "propagate", "constants": units, "grid": grid,
          "mass": 1.0,
          "propagator": {"kind": "dirac_1d", "dt": 0.01, "steps": 10, "sample_every": 1},
          "initial": {"center": 0.0, "sigma": 1.0, "momentum": 0.0}}),
        ("[scenario]\nname = bare\nkind = frame\n"
         "[trajectory]\npath = coast.traj\ntimes = 0.5 1.0\n",
         {"name": "bare", "kind": "frame", "constants": units, "mass": 1.0,
          "trajectory": {"path": "coast.traj", "interpolation": "cubic_hermite",
                         "quadrature": "simpson", "panels": 256, "times": [0.5, 1.0]}}),
    ]
    for body, expected in cases:
        echo = parse_scenario(write(tmp_path, body)).echo
        # the JSON text compares key order, which dict equality ignores
        assert json.dumps(echo) == json.dumps(expected)
