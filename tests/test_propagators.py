"""Spectral propagator tests against closed-form oracles.

Oracles: the free-Gaussian width law sigma(T)^2 = sigma0^2 (1 + (hbar T /
(2 m sigma0^2))^2), dispersionless transport at c for the massless
square-root propagator, the Taylor remainder of the relativistic
dispersion for the nonrelativistic limit, and a dense 2x2
eigendecomposition for the Dirac step.
"""

import numpy as np
import pytest

from propertime import (
    ParticleSpec,
    PhysicalConstants,
    PropagatorKind,
    PropagatorSpec,
    Representation,
    SpinorWaveFunction,
    WaveFunction,
    gaussian_packet,
    make_grid,
    norm,
    positive_energy_spinor,
    spinor_norm,
    spinor_to_momentum,
    spinor_to_position,
    step_dirac,
    step_proper_time_phase,
    step_relativistic,
    step_schrodinger,
    to_momentum,
    to_position,
)
from propertime.propagators import spectrum

NAT = PhysicalConstants()

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def dirac_hamiltonian(p, particle):
    c = particle.constants.c
    return c * p * SIGMA_X + particle.rest_energy * SIGMA_Z


def measured_variance(psi):
    pos = to_position(psi)
    rho = np.abs(pos.amplitudes) ** 2 * pos.grid.dx
    total = np.sum(rho)
    mean = np.sum(pos.grid.positions * rho) / total
    return np.sum((pos.grid.positions - mean) ** 2 * rho) / total, mean


def test_spec_validation():
    with pytest.raises(ValueError):
        PropagatorSpec(PropagatorKind.SCHRODINGER, ParticleSpec(1.0), 0.0)
    with pytest.raises(ValueError):
        PropagatorSpec(PropagatorKind.SCHRODINGER, ParticleSpec(0.0), 0.1)
    # massless is fine for the other kinds
    PropagatorSpec(PropagatorKind.RELATIVISTIC_SQRT, ParticleSpec(0.0), 0.1)
    PropagatorSpec(PropagatorKind.DIRAC_1D, ParticleSpec(0.0), 0.1)


def test_schrodinger_gaussian_spreading_law():
    g = make_grid(512, -20.0, 20.0)
    particle = ParticleSpec(1.0)
    sigma0, total_time, steps = 1.0, 2.0, 1000
    spec = PropagatorSpec(PropagatorKind.SCHRODINGER, particle, total_time / steps)
    psi = to_momentum(gaussian_packet(g, 0.0, sigma0, 0.0))
    for _ in range(steps):
        psi = step_schrodinger(psi, spec)
    var, _ = measured_variance(psi)
    law = sigma0**2 * (1.0 + (total_time / (2.0 * particle.mass * sigma0**2)) ** 2)
    assert abs(var - law) / law < 1e-6


def test_schrodinger_zero_momentum_mode_is_stationary():
    g = make_grid(64, -8.0, 8.0)
    spec = PropagatorSpec(PropagatorKind.SCHRODINGER, ParticleSpec(1.0), 0.3)
    amps = np.zeros(64, dtype=complex)
    amps[0] = 1.0  # the p = 0 node
    phi = WaveFunction(g, amps, Representation.MOMENTUM)
    out = step_schrodinger(phi, spec)
    assert np.array_equal(out.amplitudes, phi.amplitudes)


@pytest.mark.parametrize(
    "kind,mass",
    [(PropagatorKind.SCHRODINGER, 1.0), (PropagatorKind.RELATIVISTIC_SQRT, 1.0),
     (PropagatorKind.RELATIVISTIC_SQRT, 0.0)],
)
def test_norm_conservation_1000_steps(kind, mass):
    g = make_grid(256, -16.0, 16.0)
    spec = PropagatorSpec(kind, ParticleSpec(mass), 0.01)
    psi = to_momentum(gaussian_packet(g, 0.0, 1.0, 2.0))
    step = step_schrodinger if kind is PropagatorKind.SCHRODINGER else step_relativistic
    n0 = norm(psi)
    for _ in range(1000):
        psi = step(psi, spec)
    assert abs(norm(psi) - n0) <= 1e-9


def test_dirac_norm_conservation_1000_steps():
    g = make_grid(256, -16.0, 16.0)
    particle = ParticleSpec(1.0)
    spec = PropagatorSpec(PropagatorKind.DIRAC_1D, particle, 0.01)
    env = gaussian_packet(g, 0.0, 1.0, 1.0)
    u0, l0 = positive_energy_spinor(1.0, particle)
    state = spinor_to_momentum(
        SpinorWaveFunction(g, u0 * env.amplitudes, l0 * env.amplitudes, Representation.POSITION)
    )
    n0 = spinor_norm(state)
    for _ in range(1000):
        state = step_dirac(state, spec)
    assert abs(spinor_norm(state) - n0) <= 1e-9


def test_massless_packet_translates_at_light_speed():
    constants = PhysicalConstants(c=1.0)
    g = make_grid(512, -32.0, 32.0, constants)
    particle = ParticleSpec(0.0, constants)
    sigma = 1.0
    p0 = 8.0 * constants.hbar / (2.0 * sigma)  # one-sided momentum support
    psi = gaussian_packet(g, -10.0, sigma, p0)
    total_time = 16.0
    spec = PropagatorSpec(PropagatorKind.RELATIVISTIC_SQRT, particle, total_time / 200)
    _, x_before = measured_variance(psi)
    phi = to_momentum(psi)
    for _ in range(200):
        phi = step_relativistic(phi, spec)
    _, x_after = measured_variance(phi)
    assert abs((x_after - x_before) - constants.c * total_time) < 1e-8


def test_nonrelativistic_limit_quartic_scaling():
    constants = PhysicalConstants(c=5.0)
    # widest packet below has sigma_x = 20: edges at 12.8 sigma stay decayed
    g = make_grid(512, -256.0, 256.0, constants)
    particle = ParticleSpec(1.0, constants)
    dt = 0.1
    rel = PropagatorSpec(PropagatorKind.RELATIVISTIC_SQRT, particle, dt)
    nr = PropagatorSpec(PropagatorKind.SCHRODINGER, particle, dt)
    mc = particle.mass * constants.c
    fractions = np.array([0.02, 0.04, 0.08])
    deviations = []
    for frac in fractions:
        sigma_p = frac * mc / 4.0
        sigma_x = constants.hbar / (2.0 * sigma_p)
        phi = to_momentum(gaussian_packet(g, 0.0, sigma_x, 0.0))
        a = step_relativistic(phi, rel)
        b = step_schrodinger(phi, nr)
        rest_phase = np.exp(-1j * particle.rest_energy * dt / constants.hbar)
        diff = a.amplitudes - rest_phase * b.amplitudes
        deviations.append(np.sqrt(np.sum(np.abs(diff) ** 2) * g.dp))
    slope = np.polyfit(np.log(fractions), np.log(deviations), 1)[0]
    assert abs(slope - 4.0) <= 0.5
    # Taylor-remainder budget: phase error below (p_max/mc)^4 * mc^2 dt / hbar
    budgets = fractions**4 * particle.rest_energy * dt / constants.hbar
    assert np.all(np.asarray(deviations) <= budgets)


@pytest.mark.parametrize("mass,c", [(1.0, 1.0), (2.0, 3.0), (0.0, 1.0)])
def test_dirac_positive_energy_phase_per_node(mass, c):
    constants = PhysicalConstants(c=c)
    g = make_grid(64, -8.0, 8.0, constants)
    particle = ParticleSpec(mass, constants)
    dt = 0.37
    spec = PropagatorSpec(PropagatorKind.DIRAC_1D, particle, dt)
    for node in (0, 3, 17, 40, 63):
        p = g.momenta[node]
        u0, l0 = positive_energy_spinor(p, particle)
        upper = np.zeros(64, dtype=complex)
        lower = np.zeros(64, dtype=complex)
        upper[node], lower[node] = u0, l0
        state = SpinorWaveFunction(g, upper, lower, Representation.MOMENTUM)
        out = step_dirac(state, spec)
        # oracle: dense eigendecomposition of the 2x2 Hamiltonian
        H = dirac_hamiltonian(p, particle)
        energy = np.linalg.eigvalsh(H)[1]
        phase = np.exp(-1j * energy * dt / constants.hbar)
        assert abs(out.upper[node] - phase * u0) < 1e-12
        assert abs(out.lower[node] - phase * l0) < 1e-12


def test_dirac_phases_match_relativistic_multiplier():
    g = make_grid(128, -16.0, 16.0)
    particle = ParticleSpec(1.5)
    dt = 0.21
    spec = PropagatorSpec(PropagatorKind.DIRAC_1D, particle, dt)
    energies = np.sqrt(particle.rest_energy**2 + g.momenta**2)
    expected = np.exp(-1j * energies * dt)
    for node in range(0, 128, 17):
        p = g.momenta[node]
        u0, l0 = positive_energy_spinor(p, particle)
        upper = np.zeros(128, dtype=complex)
        lower = np.zeros(128, dtype=complex)
        upper[node], lower[node] = u0, l0
        out = step_dirac(SpinorWaveFunction(g, upper, lower, Representation.MOMENTUM), spec)
        got = out.upper[node] / u0 if abs(u0) > 0 else out.lower[node] / l0
        assert abs(got - expected[node]) < 1e-12


def test_dirac_hamiltonian_squares_to_energy():
    rng = np.random.default_rng(14)
    particle = ParticleSpec(1.2, PhysicalConstants(c=2.0))
    for p in rng.uniform(-10, 10, size=50):
        H = dirac_hamiltonian(p, particle)
        e2 = particle.rest_energy**2 + (p * particle.constants.c) ** 2
        assert np.allclose(H @ H, e2 * np.eye(2), rtol=1e-15, atol=1e-12)


def test_massless_dirac_chiral_translation():
    g = make_grid(256, -16.0, 16.0)
    particle = ParticleSpec(0.0)
    shift = 16  # c dt = shift * dx exactly
    dt = shift * g.dx
    spec = PropagatorSpec(PropagatorKind.DIRAC_1D, particle, dt)
    env = gaussian_packet(g, -4.0, 0.8, 0.0).amplitudes
    # sigma_x eigenvector (1, 1)/sqrt2: right-mover at +c
    state = SpinorWaveFunction(
        g, env / np.sqrt(2), env / np.sqrt(2), Representation.POSITION
    )
    out = step_dirac(state, spec)
    assert np.max(np.abs(out.upper - np.roll(env, shift) / np.sqrt(2))) < 1e-12
    # sigma_x eigenvector (1, -1)/sqrt2: left-mover at -c
    state = SpinorWaveFunction(
        g, env / np.sqrt(2), -env / np.sqrt(2), Representation.POSITION
    )
    out = step_dirac(state, spec)
    assert np.max(np.abs(out.upper - np.roll(env, -shift) / np.sqrt(2))) < 1e-12


def test_spinor_round_trip_per_component():
    g = make_grid(128, -8.0, 8.0)
    rng = np.random.default_rng(23)
    upper = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    lower = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    state = SpinorWaveFunction(g, upper, lower, Representation.POSITION)
    back = spinor_to_position(spinor_to_momentum(state))
    assert np.max(np.abs(back.upper - state.upper)) < 1e-12
    assert np.max(np.abs(back.lower - state.lower)) < 1e-12
    assert np.isclose(spinor_norm(back), spinor_norm(state), atol=1e-12)


@pytest.mark.parametrize("kind", [PropagatorKind.SCHRODINGER, PropagatorKind.RELATIVISTIC_SQRT])
def test_semigroup_scalar_kinds(kind):
    g = make_grid(128, -8.0, 8.0)
    particle = ParticleSpec(1.0)
    phi = to_momentum(gaussian_packet(g, 0.0, 0.7, 1.0))
    step = step_schrodinger if kind is PropagatorKind.SCHRODINGER else step_relativistic
    dt1, dt2 = 0.13, 0.29
    two = step(step(phi, PropagatorSpec(kind, particle, dt1)), PropagatorSpec(kind, particle, dt2))
    one = step(phi, PropagatorSpec(kind, particle, dt1 + dt2))
    assert np.max(np.abs(two.amplitudes - one.amplitudes)) <= 1e-12


def test_semigroup_dirac():
    g = make_grid(128, -8.0, 8.0)
    particle = ParticleSpec(1.0)
    env = gaussian_packet(g, 0.0, 0.7, 1.0)
    u0, l0 = positive_energy_spinor(1.0, particle)
    state = spinor_to_momentum(
        SpinorWaveFunction(g, u0 * env.amplitudes, l0 * env.amplitudes, Representation.POSITION)
    )
    dt1, dt2 = 0.13, 0.29
    two = step_dirac(
        step_dirac(state, PropagatorSpec(PropagatorKind.DIRAC_1D, particle, dt1)),
        PropagatorSpec(PropagatorKind.DIRAC_1D, particle, dt2),
    )
    one = step_dirac(state, PropagatorSpec(PropagatorKind.DIRAC_1D, particle, dt1 + dt2))
    assert np.max(np.abs(two.upper - one.upper)) <= 1e-12
    assert np.max(np.abs(two.lower - one.lower)) <= 1e-12


def test_proper_time_phase_step():
    energies = np.array([0.0, 1.0, 2.0])
    coeff = np.array([0.5, 0.5j, -0.5])
    # full period for E = 1: 2 pi hbar / E
    out = step_proper_time_phase(coeff[1:2], energies[1:2], 2.0 * np.pi)
    assert abs(out[0] - coeff[1]) < 1e-14
    # E = 0 never moves
    out = step_proper_time_phase(coeff, energies, 17.3)
    assert out[0] == coeff[0]
    # semigroup: two half steps equal one step
    half = step_proper_time_phase(step_proper_time_phase(coeff, energies, 0.4), energies, 0.4)
    full = step_proper_time_phase(coeff, energies, 0.8)
    assert np.max(np.abs(half - full)) < 1e-15
    with pytest.raises(ValueError):
        step_proper_time_phase(coeff, energies[:2], 0.1)


def test_steps_preserve_input_representation():
    g = make_grid(64, -8.0, 8.0)
    particle = ParticleSpec(1.0)
    spec = PropagatorSpec(PropagatorKind.SCHRODINGER, particle, 0.1)
    pos = gaussian_packet(g, 0.0, 1.0, 0.5)
    assert step_schrodinger(pos, spec).representation is Representation.POSITION
    assert step_schrodinger(to_momentum(pos), spec).representation is Representation.MOMENTUM


@pytest.mark.parametrize("hbar, c", [(1.0, 1.0), (0.7, 3.0), (2.5, 0.3)])
@pytest.mark.parametrize(
    "kind, mass",
    [(kind, 1.3) for kind in PropagatorKind]
    + [(PropagatorKind.RELATIVISTIC_SQRT, 0.0), (PropagatorKind.DIRAC_1D, 0.0)],
)
def test_spectrum_is_bitwise_even(hbar, c, kind, mass):
    # evolve computes each factor of t on nodes 0..n/2 and mirrors it to the rest,
    # which holds only if E[n - j] == E[j] exactly on the FFT-ordered grid
    constants = PhysicalConstants(hbar, c)
    spec = PropagatorSpec(kind, ParticleSpec(mass, constants), 0.1)
    for n in (2**k for k in range(3, 17)):
        energies, _ = spectrum(make_grid(n, -7.5, 20.0, constants), spec)
        assert energies[1:].tobytes() == energies[:0:-1].tobytes()
