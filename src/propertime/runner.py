"""Scenario execution: dispatches to the computational modules and collects
named checks with the tolerances they are judged against.

Randomized check families draw from numpy's seeded Generator, so a report
is a pure function of (scenario, seed).
"""

import numpy as np

from .frames import semiclassical_phase, velocity_of_time
from .grid import (
    Representation,
    gaussian_packet,
    make_grid,
    to_momentum,
    to_position,
)
from .kernels import (
    AmplitudeKernel,
    ProperTimeAxis,
    SquaringVariant,
    build_kernel_matrix,
    coordinate_momentum_kernel,
    endpoint_matches_total_energy_kernel,
    energy_derivative_residual,
    extract_alpha,
    modulus_ratio,
    proper_time_kernel,
    squaring_residual,
)
from .operators import commutator_xp_expectation, proper_time_op, total_energy_op
from .propagators import (
    PropagatorKind,
    PropagatorSpec,
    SpinorWaveFunction,
    positive_energy_spinor,
    spinor_norm,
    spinor_to_momentum,
    spinor_to_position,
    step_dirac,
    step_relativistic,
    step_schrodinger,
)
from .report import CheckResult, RunReport
from .scenario import particle_from


def run(scenario):
    if scenario.kind == "verify":
        return run_verify(scenario)
    if scenario.kind == "propagate":
        return run_propagate(scenario)
    if scenario.kind == "frame":
        return run_frame(scenario)
    raise ValueError(f"unknown scenario kind {scenario.kind!r}")


# ---------------------------------------------------------------- verify

def seeded_gaussians(grid, rng, count=20, momentum_scale=3.0):
    """Edge-decayed packets: width in [L/32, L/24], center within L/16 of mid."""
    length = grid.length
    mid = 0.5 * (grid.x_min + grid.x_max)
    packets = []
    for _ in range(count):
        sigma = length / 32.0 + (length / 24.0 - length / 32.0) * rng.random()
        center = mid + (rng.random() - 0.5) * length / 8.0
        sigma_p = grid.constants.hbar / (2.0 * sigma)
        momentum = momentum_scale * (2.0 * rng.random() - 1.0) * sigma_p
        packets.append(gaussian_packet(grid, center, sigma, momentum))
    return packets


def _commutator_check(grid, rng):
    hbar = grid.constants.hbar
    worst = 0.0
    for psi in seeded_gaussians(grid, rng):
        worst = max(worst, abs(commutator_xp_expectation(psi) - 1j * hbar))
    return CheckResult("commutator_xp_gaussians", worst, 1e-8)


def _squaring_checks(constants, rng):
    kernel = coordinate_momentum_kernel(constants)
    pts = rng.uniform(-3.0, 3.0, size=(100, 2))
    worst_xp = max(
        squaring_residual(kernel, u, w, SquaringVariant.SQRT2_BOTH) for u, w in pts
    )
    tkernel = proper_time_kernel(constants)
    ts = rng.uniform(0.0, 3.0, size=100)
    es = rng.uniform(0.0, 3.0, size=100)
    worst_t = max(
        squaring_residual(tkernel, t, -e, SquaringVariant.DOUBLE_FIRST)
        for t, e in zip(ts, es)
    )
    return [
        CheckResult("squaring_identity_xp", worst_xp, 1e-12),
        CheckResult("squaring_identity_proper_time", worst_t, 1e-12),
    ]


def _alpha_extraction_check(rng):
    worst = 0.0
    for _ in range(10):
        alpha = 10.0 ** rng.uniform(-1.0, 1.0) * np.exp(2j * np.pi * rng.random())
        got = extract_alpha(AmplitudeKernel(alpha, 1.3 - 0.4j))
        worst = max(worst, abs(got - alpha))
    return CheckResult("alpha_extraction", worst, 1e-8)


def _modulus_checks(constants):
    axis = ProperTimeAxis(1.0, 33)
    energies = [0.5, 1.0, 2.0]
    hbar = constants.hbar
    flat = modulus_ratio(build_kernel_matrix(axis, energies, AmplitudeKernel(1j / hbar)))
    detected = min(
        modulus_ratio(
            build_kernel_matrix(axis, energies, AmplitudeKernel(1j / hbar + re))
        )
        - 1.0
        for re in (-0.2, -0.05, 0.05, 0.2)
    )
    return [
        CheckResult("alpha_modulus_flat", flat - 1.0, 1e-12),
        CheckResult("alpha_real_part_detection", detected, 1e-3, mode="ge"),
    ]


def _energy_derivative_checks(constants):
    kernel = proper_time_kernel(constants)
    energies = [1.0, 2.0]
    coeff = [1.0, 1.0]
    res = {}
    for nodes in (2001, 4001):
        matrix = build_kernel_matrix(ProperTimeAxis(1.0, nodes), energies, kernel)
        res[nodes] = energy_derivative_residual(matrix, coeff, constants)
    ratio = res[2001] / res[4001]
    return [
        CheckResult("energy_derivative_residual", res[2001], 1e-6),
        CheckResult("energy_derivative_order", abs(ratio - 4.0), 0.5),
    ]


def _endpoint_check(constants):
    kernel = proper_time_kernel(constants)
    matrix = build_kernel_matrix(ProperTimeAxis(2.0, 64), [0.0, 0.5, 1.0, 2.0], kernel)
    ok = endpoint_matches_total_energy_kernel(matrix, kernel)
    return CheckResult("endpoint_total_energy_kernel", 0.0 if ok else 1.0, 0.0)


def _spectrum_check(grid, particle, t, rng):
    values = proper_time_op(grid, particle, t).values.real
    p = grid.momenta
    range_violation = max(
        float(np.max(values - t, initial=0.0)), float(np.max(-values, initial=0.0))
    )
    order = np.argsort(np.abs(p), kind="stable")
    increase = float(np.max(np.diff(values[order]), initial=0.0))
    energy = total_energy_op(grid, particle).values.real
    idx = rng.integers(0, grid.n, size=10)
    spot = float(np.max(np.abs(values[idx] - t * particle.rest_energy / energy[idx])))
    worst = max(range_violation, increase, spot)
    return CheckResult("proper_time_spectrum", worst, 1e-14)


def _linearity_check(constants):
    """Quadratic coefficient of log K' along each axis must vanish."""
    kernel = proper_time_kernel(constants)
    a = kernel(0.0, 0.0)
    worst = 0.0
    u = np.linspace(-1.0, 1.0, 9)
    for fixed in (0.4, 0.9):
        along_t = np.log(kernel(u, -fixed) / a)
        along_e = np.log(kernel(fixed, -u) / a)
        for series in (along_t, along_e):
            for part in (series.real, series.imag):
                worst = max(worst, abs(np.polyfit(u, part, 2)[0]))
    return CheckResult("kernel_log_linearity", worst, 1e-10)


def run_verify(scenario):
    params = scenario.params
    rng = np.random.default_rng(scenario.seed)
    grid = make_grid(params.grid.n, params.grid.x_min, params.grid.x_max, scenario.constants)
    particle = particle_from(scenario)
    checks = [
        _commutator_check(grid, rng),
        *_squaring_checks(scenario.constants, rng),
        _alpha_extraction_check(rng),
        *_modulus_checks(scenario.constants),
        *_energy_derivative_checks(scenario.constants),
        _endpoint_check(scenario.constants),
        _spectrum_check(grid, particle, params.reference_time, rng),
        _linearity_check(scenario.constants),
    ]
    return RunReport(_echo(scenario), scenario.seed, checks)


# ------------------------------------------------------------- propagate

def _observables(grid, t, density_x, density_p):
    """Sample row from |psi(x)|^2 and |phi(p)|^2, summed over spinor components."""
    rho_x = density_x * grid.dx
    rho_p = density_p * grid.dp
    n2 = float(np.sum(rho_x))
    x_mean = float(np.sum(grid.positions * rho_x) / n2)
    p_mean = float(np.sum(grid.momenta * rho_p) / np.sum(rho_p))
    x_var = float(np.sum((grid.positions - x_mean) ** 2 * rho_x) / n2)
    return [t, float(np.sqrt(n2)), x_mean, p_mean, float(np.sqrt(x_var))]


def _scalar_densities(psi):
    return np.abs(to_position(psi).amplitudes) ** 2, np.abs(to_momentum(psi).amplitudes) ** 2


def _spinor_densities(spinor):
    pos = spinor_to_position(spinor)
    mom = spinor_to_momentum(spinor)
    return (
        np.abs(pos.upper) ** 2 + np.abs(pos.lower) ** 2,
        np.abs(mom.upper) ** 2 + np.abs(mom.lower) ** 2,
    )


def run_propagate(scenario):
    params = scenario.params
    grid = make_grid(params.grid.n, params.grid.x_min, params.grid.x_max, scenario.constants)
    particle = particle_from(scenario)
    spec = PropagatorSpec(params.kind, particle, params.dt)
    init = params.initial

    samples = []
    if params.kind is PropagatorKind.DIRAC_1D:
        envelope = gaussian_packet(grid, init.center, init.sigma, init.momentum)
        u0, l0 = positive_energy_spinor(init.momentum, particle)
        state = SpinorWaveFunction(
            grid, u0 * envelope.amplitudes, l0 * envelope.amplitudes,
            Representation.POSITION,
        )
        scale = spinor_norm(state)
        state = SpinorWaveFunction(
            grid, state.upper / scale, state.lower / scale, Representation.POSITION
        )
        state = spinor_to_momentum(state)
        densities, advance = _spinor_densities, step_dirac
    else:
        state = to_momentum(gaussian_packet(grid, init.center, init.sigma, init.momentum))
        densities = _scalar_densities
        advance = (
            step_schrodinger if params.kind is PropagatorKind.SCHRODINGER else step_relativistic
        )

    samples.append(_observables(grid, 0.0, *densities(state)))
    for step_index in range(1, params.steps + 1):
        state = advance(state, spec)
        if step_index % params.sample_every == 0:
            samples.append(_observables(grid, step_index * params.dt, *densities(state)))

    checks = [
        CheckResult(
            "norm_conservation",
            max(abs(row[1] - 1.0) for row in samples),
            1e-9,
        )
    ]
    if params.kind is PropagatorKind.SCHRODINGER:
        hbar = scenario.constants.hbar
        s0 = init.sigma
        worst = 0.0
        for row in samples:
            law = s0**2 * (1.0 + (hbar * row[0] / (2.0 * particle.mass * s0**2)) ** 2)
            worst = max(worst, abs(row[4] ** 2 - law) / law)
        checks.append(CheckResult("gaussian_width_law", worst, 1e-6))

    report = RunReport(_echo(scenario), scenario.seed, checks)
    report.sample_columns = ["t", "norm", "x_mean", "p_mean", "width"]
    report.samples = samples
    return report


# ----------------------------------------------------------------- frame

def run_frame(scenario):
    params = scenario.params
    particle = particle_from(scenario)
    traj = params.trajectory
    times = np.sort(np.asarray(params.times, dtype=float))
    result = semiclassical_phase(
        traj, particle, times, quadrature=params.quadrature, n_panels=params.panels
    )
    rates = velocity_of_time(traj, times)

    samples = [
        [
            float(result.t_grid[i]),
            float(result.proper_time[i]),
            float(rates[i]),
            float(result.action[i]),
            float(result.energy_phase[i]),
            float(result.spatial_phase[i]),
            float(result.factorization_residual[i]),
        ]
        for i in range(times.size)
    ]

    rest = particle.rest_energy
    t_max = float(times.max())
    tol = 1e-12 * (1.0 + rest * t_max)
    action_gap = float(np.max(np.abs(result.action + rest * result.proper_time)))
    dilation = float(np.max(result.proper_time - result.t_grid, initial=0.0))
    monotone = float(np.max(-np.diff(result.proper_time), initial=0.0))
    checks = [
        CheckResult("action_proper_time_identity", action_gap, tol),
        CheckResult("factorization_residual", float(np.max(result.factorization_residual)), tol),
        CheckResult("proper_time_dilation_bound", dilation, 1e-12 * (1.0 + t_max)),
        CheckResult("proper_time_monotone", monotone, 1e-12 * (1.0 + t_max)),
    ]

    report = RunReport(_echo(scenario), scenario.seed, checks)
    report.sample_columns = [
        "t",
        "proper_time",
        "velocity_of_time",
        "action",
        "energy_phase",
        "spatial_phase",
        "factorization_residual",
    ]
    report.samples = samples
    return report


# ------------------------------------------------------------------ echo

def _echo(scenario):
    doc = {
        "name": scenario.name,
        "kind": scenario.kind,
        "constants": {"hbar": scenario.constants.hbar, "c": scenario.constants.c},
    }
    params = scenario.params
    if scenario.kind == "verify":
        doc["grid"] = {"n": params.grid.n, "x_min": params.grid.x_min, "x_max": params.grid.x_max}
        doc["mass"] = params.mass
        doc["reference_time"] = params.reference_time
    elif scenario.kind == "propagate":
        doc["grid"] = {"n": params.grid.n, "x_min": params.grid.x_min, "x_max": params.grid.x_max}
        doc["mass"] = params.mass
        doc["propagator"] = {
            "kind": params.kind.value,
            "dt": params.dt,
            "steps": params.steps,
            "sample_every": params.sample_every,
        }
        doc["initial"] = {
            "center": params.initial.center,
            "sigma": params.initial.sigma,
            "momentum": params.initial.momentum,
        }
    else:
        doc["mass"] = params.mass
        doc["trajectory"] = {
            "path": params.trajectory_path,
            "interpolation": params.trajectory.interpolation,
            "quadrature": params.quadrature,
            "panels": params.panels,
            "times": list(params.times),
        }
    return doc
