"""Trajectories, proper-time quadrature, and semiclassical phases.

The accelerating-frame oracle is the constant-proper-acceleration
trajectory v(t) = c tanh(a t / c), whose proper time has the closed form
(c/a) * gd(a t / c) with gd the gudermannian 2 atan(tanh(z/2)). Trajectory
tables are sampled on 4097 uniform points so quadrature nodes for panel
counts up to 1024 coincide with samples and interpolation error vanishes
at the nodes.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from propertime import (
    ParticleSpec,
    PhysicalConstants,
    Trajectory,
    action_phase,
    load_trajectory,
    proper_time_of,
    semiclassical_phase,
    velocity_of_time,
)

NAT = PhysicalConstants()
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def tanh_trajectory(interpolation="cubic_hermite", c=1.0, samples=4097):
    t = np.linspace(0.0, 1.0, samples)
    v = c * np.tanh(t / c)
    return Trajectory(t, v, interpolation, PhysicalConstants(c=c))


def constant_trajectory(v, horizon=1.0):
    return Trajectory(np.array([0.0, horizon]), np.array([v, v]), "linear")


def gudermannian(z):
    return 2.0 * math.atan(math.tanh(z / 2.0))


def random_smooth_trajectory(rng, samples=513):
    t = np.linspace(0.0, 1.0, samples)
    beta = rng.uniform(0.1, 0.85)
    omega = rng.uniform(0.5, 4.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    v = beta * np.sin(omega * t + phase)
    return Trajectory(t, v, "cubic_hermite")


def test_constant_velocity_proper_time():
    v, t = 0.6, 0.8
    traj = constant_trajectory(v)
    for quadrature in ("trapezoid", "simpson"):
        got = proper_time_of(traj, t, quadrature=quadrature)
        assert abs(got - t * math.sqrt(1.0 - v**2)) < 1e-12


def test_rest_frame_proper_time_equals_reference_time():
    traj = constant_trajectory(0.0)
    assert abs(proper_time_of(traj, 1.0) - 1.0) < 1e-15


def test_tanh_trajectory_matches_gudermannian():
    traj = tanh_trajectory()
    exact = gudermannian(1.0)
    assert abs(proper_time_of(traj, 1.0, n_panels=512) - exact) < 1e-12


def test_simpson_fourth_order_convergence():
    traj = tanh_trajectory()
    exact = gudermannian(1.0)
    err = {n: abs(proper_time_of(traj, 1.0, n_panels=n) - exact) for n in (128, 256, 512)}
    assert 12.0 <= err[128] / err[256] <= 20.0
    assert 12.0 <= err[256] / err[512] <= 20.0


def test_trapezoid_second_order_convergence():
    traj = tanh_trajectory()
    exact = gudermannian(1.0)
    err = {
        n: abs(proper_time_of(traj, 1.0, quadrature="trapezoid", n_panels=n) - exact)
        for n in (128, 256)
    }
    assert 3.5 <= err[128] / err[256] <= 4.5


def test_action_phase_values():
    particle = ParticleSpec(1.0)
    assert abs(action_phase(constant_trajectory(0.0), particle, 1.0) + 1.0) < 1e-12
    # v = 0.6 c: sqrt(1 - 0.36) = 0.8 exactly
    assert abs(action_phase(constant_trajectory(0.6), particle, 1.0) + 0.8) < 1e-12


def test_action_equals_rest_energy_times_proper_time():
    rng = np.random.default_rng(77)
    particle = ParticleSpec(1.7)
    for _ in range(20):
        traj = random_smooth_trajectory(rng)
        t = rng.uniform(0.2, 1.0)
        action = action_phase(traj, particle, t)
        t_s = proper_time_of(traj, t)
        assert abs(action + particle.rest_energy * t_s) <= 1e-12 * (
            1.0 + particle.rest_energy * t
        )


def test_velocity_of_time_values():
    assert velocity_of_time(constant_trajectory(0.0), 0.5) == 1.0
    assert abs(velocity_of_time(constant_trajectory(0.8), 0.5) - 0.6) < 1e-15


def test_velocity_of_time_is_proper_time_derivative():
    traj = tanh_trajectory()
    t, h = 0.5, 1e-3
    derivative = (
        proper_time_of(traj, t + h, n_panels=512) - proper_time_of(traj, t - h, n_panels=512)
    ) / (2.0 * h)
    assert abs(derivative - velocity_of_time(traj, t)) < 1e-6


def test_proper_time_monotone_and_bounded():
    rng = np.random.default_rng(13)
    for _ in range(20):
        traj = random_smooth_trajectory(rng)
        times = np.linspace(0.05, 1.0, 12)
        series = [proper_time_of(traj, t) for t in times]
        assert all(a < b for a, b in zip(series, series[1:]))
        assert all(ts <= t + 1e-12 for ts, t in zip(series, times))
        rates = velocity_of_time(traj, times)
        assert np.all(rates > 0.0) and np.all(rates <= 1.0)


def test_dilation_strict_unless_at_rest():
    moving = random_smooth_trajectory(np.random.default_rng(1))
    assert proper_time_of(moving, 1.0) < 1.0
    at_rest = constant_trajectory(0.0)
    assert abs(proper_time_of(at_rest, 1.0) - 1.0) < 1e-15


def test_semiclassical_constant_velocity_is_plane_wave_phase():
    v, t = 0.6, 1.0
    particle = ParticleSpec(1.3)
    traj = constant_trajectory(v)
    result = semiclassical_phase(traj, particle, [t])
    gamma_inv = math.sqrt(1.0 - v**2)
    energy = particle.rest_energy / gamma_inv
    momentum = energy * v  # p = E v / c^2
    x = v * t
    assert abs(result.energy_phase[0] - energy * t) < 1e-12
    assert abs(result.spatial_phase[0] - momentum * x) < 1e-12
    total = -result.energy_phase[0] + result.spatial_phase[0]
    assert abs(total - (-energy * t + momentum * x)) < 1e-12
    assert abs(total - (-particle.rest_energy * result.proper_time[0])) < 1e-12


def test_semiclassical_rest_frame():
    particle = ParticleSpec(2.0)
    result = semiclassical_phase(constant_trajectory(0.0), particle, [1.0])
    assert abs(result.spatial_phase[0]) < 1e-15
    assert abs(result.energy_phase[0] - particle.rest_energy) < 1e-12
    assert abs(result.action[0] + particle.rest_energy) < 1e-12


def test_factorization_residual_order_four_against_oracle():
    # reference value from the closed form; the assembled phases inherit
    # the quadrature's fourth-order error
    traj = tanh_trajectory()
    particle = ParticleSpec(1.0)
    exact = -particle.rest_energy * gudermannian(1.0)
    gaps = {}
    for n in (256, 512):
        r = semiclassical_phase(traj, particle, [1.0], n_panels=n)
        gaps[n] = abs(exact - (-r.energy_phase[0] + r.spatial_phase[0]))
    assert 12.0 <= gaps[256] / gaps[512] <= 20.0


def test_factorization_residual_small_on_shared_nodes():
    rng = np.random.default_rng(5)
    particle = ParticleSpec(1.0)
    for _ in range(10):
        traj = random_smooth_trajectory(rng)
        r = semiclassical_phase(traj, particle, np.linspace(0.1, 1.0, 5))
        assert np.max(r.factorization_residual) <= 1e-12 * (1.0 + particle.rest_energy)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.array([0.0, 1.0]))  # v = c sample
    with pytest.raises(ValueError):
        Trajectory(np.array([0.5, 1.0]), np.array([0.0, 0.0]))  # t0 != 0
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.0, 0.0]))  # not increasing
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.array([0.0, 0.5]), "quintic")
    for t, v in (([0.0, np.nan, 1.0], [0.0, 0.1, 0.2]), ([0.0, 0.5, 1.0], [0.0, np.nan, 0.2])):
        with pytest.raises(ValueError, match="finite"):
            Trajectory(np.array(t), np.array(v))
    # strictly subluminal samples are fine
    Trajectory(np.array([0.0, 1.0]), np.array([0.0, 0.999999]))


def test_out_of_range_and_bad_quadrature():
    traj = constant_trajectory(0.3)
    with pytest.raises(ValueError):
        proper_time_of(traj, 1.5)
    with pytest.raises(ValueError):
        proper_time_of(traj, 0.5, n_panels=2)
    with pytest.raises(ValueError):
        proper_time_of(traj, 0.5, n_panels=7)  # odd panels, simpson
    with pytest.raises(ValueError):
        proper_time_of(traj, 0.5, quadrature="gauss")
    # odd panels are fine for the trapezoid rule
    proper_time_of(traj, 0.5, quadrature="trapezoid", n_panels=7)


def test_massless_particle_rejected_for_phases():
    traj = constant_trajectory(0.5)
    with pytest.raises(ValueError):
        action_phase(traj, ParticleSpec(0.0), 1.0)
    with pytest.raises(ValueError):
        semiclassical_phase(traj, ParticleSpec(0.0), [1.0])


def test_mixed_constants_rejected_for_phases():
    traj = constant_trajectory(0.5)  # c = 1
    particle = ParticleSpec(1.0, PhysicalConstants(c=3.0))
    with pytest.raises(ValueError, match="different physical constants"):
        action_phase(traj, particle, 1.0)
    with pytest.raises(ValueError, match="different physical constants"):
        semiclassical_phase(traj, particle, [1.0])


@pytest.mark.parametrize("interpolation", ["linear", "cubic_hermite"])
@pytest.mark.parametrize("quadrature", ["trapezoid", "simpson"])
def test_entry_points_read_one_worldline_pass(interpolation, quadrature):
    traj = load_trajectory(SCENARIOS / "tanh.traj", interpolation)
    particle = ParticleSpec(1.3)
    times = [0.1, 0.25, 0.5, 0.75, 1.0]
    result = semiclassical_phase(traj, particle, times, quadrature, 64)
    for i, t in enumerate(times):
        assert proper_time_of(traj, t, quadrature, 64) == result.proper_time[i]
        assert action_phase(traj, particle, t, quadrature, 64) == result.action[i]


def test_trajectory_file_round_trip(tmp_path):
    path = tmp_path / "traj.txt"
    path.write_text(
        "# constant-acceleration table\n"
        "0.0 0.0\n"
        "0.5 0.46   # interior sample\n"
        "\n"
        "1.0 0.76\n"
    )
    traj = load_trajectory(path, "linear")
    assert traj.horizon == 1.0
    assert np.isclose(traj.velocity(0.25), 0.23)
    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 0.0\n0.5\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        load_trajectory(bad)


@pytest.mark.parametrize("interpolation", ["linear", "cubic_hermite"])
def test_velocity_of_time_vectorized_matches_loop(interpolation):
    traj = tanh_trajectory(interpolation, samples=65)
    times = np.linspace(0.0, traj.horizon, 37)
    loop = [float(velocity_of_time(traj, t)) for t in times]
    assert velocity_of_time(traj, times).tolist() == loop
