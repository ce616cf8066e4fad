"""Scenario execution: dispatches to the computational modules and collects
named checks with the tolerances they are judged against.

Randomized check families draw from numpy's seeded Generator, so a report
is a pure function of (scenario, seed).
"""

import numpy as np

from .frames import semiclassical_phase, velocity_of_time
from .grid import Representation, _fourier, gaussian_packet
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
from .propagators import PropagatorKind, evolve, positive_energy_spinor, spectrum
# bound, not called (samples come from evolve): benchmarks/tracing.py traces what one
# module imports from another, and the per-layer metrics of BENCHMARK.json name these
from .propagators import spinor_to_position, step_dirac, step_relativistic, step_schrodinger
from .report import CheckResult, RunReport

# bytes of amplitudes evolved and observed together: a chunk of samples, or one
# sample where that is larger
CHUNK_BYTES = 2**17


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
    grid = params.grid
    checks = [
        _commutator_check(grid, rng),
        *_squaring_checks(scenario.constants, rng),
        _alpha_extraction_check(rng),
        *_modulus_checks(scenario.constants),
        *_energy_derivative_checks(scenario.constants),
        _endpoint_check(scenario.constants),
        _spectrum_check(grid, params.particle, params.reference_time, rng),
        _linearity_check(scenario.constants),
    ]
    return RunReport(scenario.echo, scenario.seed, checks)


# ------------------------------------------------------------- propagate

def _observables(grid, times, phi):
    """Sample rows from momentum amplitudes of shape (len(times), components, n),
    summed over components; `phi` is moved to the position representation in place.
    Each reduction runs along one row of a C-ordered block, so a row does not
    depend on the chunk it is evaluated in."""
    rho_p = np.sum(np.abs(phi) ** 2, axis=1) * grid.dp
    rho_x = np.sum(np.abs(_fourier(grid, phi, Representation.POSITION)) ** 2, axis=1) * grid.dx
    n2 = np.sum(rho_x, axis=-1)
    x_mean = np.sum(grid.positions * rho_x, axis=-1) / n2
    p_mean = np.sum(grid.momenta * rho_p, axis=-1) / np.sum(rho_p, axis=-1)
    x_var = np.sum((grid.positions - x_mean[:, None]) ** 2 * rho_x, axis=-1) / n2
    return np.column_stack([times, np.sqrt(n2), x_mean, p_mean, np.sqrt(x_var)]).tolist()


def run_propagate(scenario):
    params = scenario.params
    grid, spec = params.grid, params.spec
    particle = spec.particle
    init = params.initial
    # phi_0, shape (components, n): the packet, times the positive-energy spinor for Dirac
    packet = gaussian_packet(grid, init.center, init.sigma, init.momentum).amplitudes
    dirac = spec.kind is PropagatorKind.DIRAC_1D
    spinor = positive_energy_spinor(init.momentum, particle) if dirac else (1.0,)
    phi0 = _fourier(grid, np.array(spinor)[:, None] * packet, Representation.MOMENTUM)
    del packet  # no sample needs it: 16 MiB at n = 2^20
    energies, mixing = spectrum(grid, spec)

    # each sample in closed form from phi_0, so dt and steps only set the times;
    # several samples at a time make fewer numpy calls at small n
    times = [k * spec.dt for k in range(0, params.steps + 1, params.sample_every)]
    hbar = grid.constants.hbar
    per_chunk = max(1, CHUNK_BYTES // phi0.nbytes)
    samples = []
    for start in range(0, len(times), per_chunk):
        chunk = times[start:start + per_chunk]
        samples += _observables(grid, chunk, evolve(phi0, chunk, hbar, energies, mixing))

    # np.max, unlike max, returns a NaN it meets, so a NaN row fails the check
    t, norms, widths = np.array(samples)[:, [0, 1, 4]].T
    checks = [CheckResult("norm_conservation", float(np.max(np.abs(norms - 1.0))), 1e-9)]
    if spec.kind is PropagatorKind.SCHRODINGER:
        s0 = init.sigma
        with np.errstate(over="ignore", invalid="ignore"):  # as in evolve: NaN fails the check
            law = s0**2 * (1.0 + (hbar * t / (2.0 * particle.mass * s0**2)) ** 2)
            worst = float(np.max(np.abs(widths**2 - law) / law))
        checks.append(CheckResult("gaussian_width_law", worst, 1e-6))

    report = RunReport(scenario.echo, scenario.seed, checks)
    report.sample_columns = ["t", "norm", "x_mean", "p_mean", "width"]
    report.samples = samples
    return report


# ----------------------------------------------------------------- frame

def run_frame(scenario):
    params = scenario.params
    particle = params.particle
    traj = params.trajectory
    times = np.sort(np.asarray(params.times, dtype=float))
    result = semiclassical_phase(
        traj, particle, times, quadrature=params.quadrature, n_panels=params.panels
    )
    samples = np.column_stack([
        result.t_grid,
        result.proper_time,
        velocity_of_time(traj, times),
        result.action,
        result.energy_phase,
        result.spatial_phase,
        result.factorization_residual,
    ]).tolist()

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

    report = RunReport(scenario.echo, scenario.seed, checks)
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

