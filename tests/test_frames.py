"""Trajectories, proper-time quadrature, and semiclassical phases.

The accelerating-frame oracle is the constant-proper-acceleration
trajectory v(t) = c tanh(a t / c), whose proper time has the closed form
(c/a) * gd(a t / c) with gd the gudermannian 2 atan(tanh(z/2)). Trajectory
tables are sampled on 4097 uniform points so quadrature nodes for panel
counts up to 1024 coincide with samples and interpolation error vanishes
at the nodes.
"""

import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from propertime import (
    ParticleSpec,
    PhysicalConstants,
    Trajectory,
    action_phase,
    load_trajectory,
    parse_scenario,
    proper_time_of,
    run,
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


def searchsorted_velocity(traj, t):
    """v(t) as Trajectory.velocity computed it before the interval guess: each
    time's interval by searchsorted, clipped, and one Horner expression."""
    if traj._spline is None:
        return np.interp(t, traj.times, traj.velocities)
    i = np.clip(np.searchsorted(traj.times, t, side="right") - 1, 0, traj.times.size - 2)
    s = t - traj.times[i]
    d, c2, c3 = traj._spline
    return traj.velocities[i] + s * (d[i] + s * (c2[i] + s * c3[i]))


def per_time_worldline(traj, rest, times, quadrature, n_panels):
    """The per-time loop the blocked quadrature replaced: one np.linspace and one
    searchsorted_velocity per output time, the rule on each 1-d integrand."""
    c = traj.constants.c

    def integrate(values, h):
        if quadrature == "trapezoid":
            return h * (0.5 * (values[0] + values[-1]) + np.sum(values[1:-1]))
        return (h / 3.0) * (
            values[0] + values[-1] + 4.0 * np.sum(values[1:-1:2]) + 2.0 * np.sum(values[2:-1:2])
        )

    rows = np.empty((4, len(times)))
    for i, t in enumerate(times):
        v = searchsorted_velocity(traj, np.linspace(0.0, t, n_panels + 1))
        root = np.sqrt(1.0 - (v / c) ** 2)
        energy = rest / root
        h = t / n_panels
        for row, integrand in enumerate((root, -rest * root, energy, energy * (v / c) ** 2)):
            rows[row, i] = integrate(integrand, h)
    return rows


def random_table(rng, interpolation):
    """A non-uniform table: gaps spread over orders of magnitude, any horizon."""
    samples = int(rng.integers(2, 400))
    t = np.concatenate([[0.0], np.cumsum(rng.exponential(1.0, samples - 1) ** 3 + 1e-9)])
    t *= rng.uniform(0.1, 10.0) / t[-1]
    return Trajectory(t, rng.uniform(-0.95, 0.95, samples), interpolation)


def phase_rows(traj, particle, times, quadrature, n_panels):
    r = semiclassical_phase(traj, particle, times, quadrature, n_panels)
    return np.array([r.proper_time, r.action, r.energy_phase, r.spatial_phase])


@pytest.mark.parametrize("interpolation", ["linear", "cubic_hermite"])
@pytest.mark.parametrize("quadrature", ["trapezoid", "simpson"])
def test_worldline_is_bitwise_the_per_time_loop(interpolation, quadrature):
    rng = np.random.default_rng(2024)
    particle = ParticleSpec(1.3)
    for _ in range(20):
        traj = random_table(rng, interpolation)
        knots = rng.choice(traj.times, 3)
        inside = rng.uniform(0.0, traj.horizon, 5)
        # 5e-324 / n_panels underflows, where np.linspace scales k / n_panels instead
        times = np.concatenate([[0.0, 5e-324, traj.horizon], knots, inside])
        for n_panels in (4, 64, 4096, 4097 if quadrature == "trapezoid" else 4098):
            rows = phase_rows(traj, particle, times, quadrature, n_panels)
            loop = per_time_worldline(traj, particle.rest_energy, times, quadrature, n_panels)
            assert np.array_equal(rows, loop)


@pytest.mark.parametrize("interpolation", ["linear", "cubic_hermite"])
def test_velocity_is_bitwise_the_searchsorted_evaluator(interpolation):
    rng = np.random.default_rng(7)
    for _ in range(20):
        traj = random_table(rng, interpolation)
        times = np.concatenate([[0.0, 5e-324, traj.horizon], traj.times,
                                rng.uniform(0.0, traj.horizon, 200)])
        assert np.array_equal(traj.velocity(times), searchsorted_velocity(traj, times))
        grid = times[: 2 * (times.size // 2)].reshape(2, -1)
        assert np.array_equal(traj.velocity(grid), searchsorted_velocity(traj, grid))
        assert traj.velocity(times[-1]) == searchsorted_velocity(traj, times[-1])


def overflow_table(tail_knots):
    # 1 / (t_2 - t_1) = 2^1030 overflows, so np.interp's guess at a node between
    # t_1 and t_2 is inf; v = t / 4 up to t = 0.25 keeps the cubic's coefficients
    # finite there, and the turns after it make every other interval's cubic differ
    t = np.concatenate([[0.0, 2.0**-1030, 2.0**-1029], np.linspace(0.25, 1.0, tail_knots)])
    v = np.concatenate([t[:4] / 4.0, 0.5 * np.sin(np.arange(1, tail_knots))])
    return Trajectory(t, v, "cubic_hermite")


@pytest.mark.parametrize("tail_knots", [4, 5000])
def test_worldline_exact_where_the_interval_guess_overflows(tail_knots, monkeypatch):
    traj = overflow_table(tail_knots)
    particle = ParticleSpec(1.0)
    times = [3.0 * 2.0**-1031, 2.0**-1030, 2.0**-1028, 0.5, 1.0]
    for n_panels in (4, 64):
        rows = phase_rows(traj, particle, times, "simpson", n_panels)
        loop = per_time_worldline(traj, particle.rest_energy, times, "simpson", n_panels)
        assert np.array_equal(rows, loop)
    nodes = np.array([2.0**-1030, 3.0 * 2.0**-1031, 2.0**-1029, 0.6])
    assert np.array_equal(traj.velocity(nodes), searchsorted_velocity(traj, nodes))
    # the interval search takes a fixed number of passes, not one per knot
    takes = []
    take = np.take
    monkeypatch.setattr(np, "take", lambda *a, **kw: takes.append(1) or take(*a, **kw))
    traj.velocity(np.full(1000, 3.0 * 2.0**-1031))
    assert len(takes) <= 5


def test_worldline_row_independent_of_its_block():
    traj = load_trajectory(SCENARIOS / "tanh.traj")
    particle = ParticleSpec(1.0)
    times = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 65))
    together = phase_rows(traj, particle, times, "simpson", 4096)
    for i, t in enumerate(times):
        alone = phase_rows(traj, particle, [t], "simpson", 4096)
        assert np.array_equal(alone[:, 0], together[:, i])


def test_worldline_memory_a_few_node_arrays():
    # the per-time loop peaked at 11 node arrays; the blocks reuse 4 and add 3
    traj = load_trajectory(SCENARIOS / "tanh.traj")
    n_panels = 2**20
    tracemalloc.start()
    try:
        semiclassical_phase(traj, ParticleSpec(1.0), [0.5, 1.0], "simpson", n_panels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 * (n_panels + 1)


def test_nan_output_time_rejected():
    with pytest.raises(ValueError, match="outside trajectory range"):
        proper_time_of(tanh_trajectory(samples=65), math.nan)
    with pytest.raises(ValueError, match="outside trajectory range"):
        velocity_of_time(tanh_trajectory(samples=65), [0.5, math.nan])


def test_shipped_frame_follows_gudermannian():
    report = run(parse_scenario(str(SCENARIOS / "frame_tanh.cfg")))
    t_col = report.sample_columns.index("t")
    ts_col = report.sample_columns.index("proper_time")
    for row in report.samples:
        assert abs(row[ts_col] - gudermannian(row[t_col])) <= 2e-12


@pytest.mark.parametrize(
    "interpolation, quadrature, tolerance",
    [("cubic_hermite", "simpson", 1e-14), ("cubic_hermite", "trapezoid", 5e-9),
     ("linear", "simpson", 5e-9), ("linear", "trapezoid", 5e-9)],
)
def test_shipped_table_follows_gudermannian(interpolation, quadrature, tolerance):
    traj = load_trajectory(SCENARIOS / "tanh.traj", interpolation)
    times = [0.0, 0.125, 1.0 / 3.0, 0.5, 0.75, 0.9, 1.0]
    result = semiclassical_phase(traj, ParticleSpec(1.0), times, quadrature, 4096)
    for t, t_s in zip(times, result.proper_time):
        assert abs(t_s - gudermannian(t)) <= tolerance


def read_rows_by_line(path):
    """The `t v` columns as float() reads each token, one line at a time."""
    times, velocities = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            fields = raw.split("#", 1)[0].split()
            if fields:
                times.append(float(fields[0]))
                velocities.append(float(fields[1]))
    return np.array(times), np.array(velocities)


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def formatted_table(rng, rows):
    """Text of a table in many spellings: signs, exponents, tabs, comments, CRLF."""
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-6, 1.0, rows - 1))])
    v = rng.uniform(-0.99, 0.99, rows)
    # the time spellings keep the gaps, so the times stay increasing
    spellings = (repr, "{:+.12f}".format, "{:.17E}".format, "{:.6e}".format, "{:g}".format)
    lines = ["# generated table", ""]
    for a, b in zip(t, v):
        sep = rng.choice([" ", "\t", "  \t "])
        line = spellings[rng.integers(3)](float(a)) + sep + spellings[rng.integers(5)](float(b))
        if rng.random() < 0.2:
            line += "   # note"
        if rng.random() < 0.1:
            line += "\n"
        lines.append(line)
    return "\r\n".join(lines) + "\r\n"


def test_loader_values_are_float_of_each_token(tmp_path, capfd):
    rng = np.random.default_rng(11)
    paths = [SCENARIOS / "tanh.traj"]
    for i in range(10):
        path = tmp_path / f"table{i}.traj"
        path.write_bytes(formatted_table(rng, int(rng.integers(2, 300))).encode())
        paths.append(path)
    # float() reads digit separators, which loadtxt refuses
    path = tmp_path / "separators.traj"
    path.write_text("0 0\n1_0 0.5\n2_0.25e0_1 -0.25\n")
    paths.append(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in paths:
            traj = load_trajectory(path, "linear")
            times, velocities = read_rows_by_line(path)
            assert_bitwise(traj.times, times)
            assert_bitwise(traj.velocities, velocities)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize(
    "text, message",
    [("0.0 0.0\n0.5\n", ":2: expected `t v`, got '0.5'"),
     ("0.0 0.0\n0.5 0.1 0.2  # three\n", ":2: expected `t v`, got '0.5 0.1 0.2  # three'"),
     ("0.0 0.0\n\n0.5 fast\n", ":3: could not convert string to float: 'fast'"),
     ("# only a comment\n\n# and another\n", ": no samples")],
)
def test_loader_names_the_bad_line(tmp_path, capfd, text, message):
    path = tmp_path / "bad.traj"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            load_trajectory(path)
    assert str(excinfo.value) == f"{path}{message}"
    assert capfd.readouterr() == ("", "")
