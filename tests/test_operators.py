"""Operator construction and the coordinate-momentum commutator.

The commutator oracle is a dense n = 64 calculation: the momentum matrix
is built explicitly as F^-1 diag(p) F from the weighted transform kernel,
and <psi|[X, P]|psi> is evaluated with full matrix products. The fast
spectral path must agree with it, and both must give i*hbar for
edge-decayed states.
"""

import numpy as np
import pytest

from propertime import (
    DiagonalOperator,
    Dispersion,
    ParticleSpec,
    PhysicalConstants,
    Representation,
    WaveFunction,
    boundary_amplitude,
    commutator_xp_expectation,
    expectation,
    gaussian_packet,
    make_grid,
    proper_time_op,
    to_momentum,
    to_position,
    total_energy_op,
    velocity_squared_op,
)
from propertime.runner import seeded_gaussians

NAT = PhysicalConstants()


def dense_commutator_expectation(psi):
    """Brute-force <psi|[X,P]|psi> through explicit transform matrices."""
    g = psi.grid
    hbar = g.constants.hbar
    x, p = g.positions, g.momenta
    fwd = g.dx / np.sqrt(2 * np.pi * hbar) * np.exp(-1j * np.outer(p, x) / hbar)
    inv = g.dp / np.sqrt(2 * np.pi * hbar) * np.exp(1j * np.outer(x, p) / hbar)
    P = inv @ np.diag(p) @ fwd
    X = np.diag(x)
    comm = X @ P - P @ X
    a = psi.amplitudes
    return np.conj(a) @ (comm @ a) * g.dx


def test_particle_spec_rest_energy():
    c = 2.5
    particle = ParticleSpec(1.25, PhysicalConstants(c=c))
    assert particle.rest_energy == 1.25 * c * c
    assert ParticleSpec(0.0).rest_energy == 0.0
    with pytest.raises(ValueError):
        ParticleSpec(-1.0)


def test_momentum_op_plane_wave_eigenvalue():
    g = make_grid(64, -8.0, 8.0)
    k = 5
    p_k = g.momenta[k]
    plane = np.exp(1j * p_k * g.positions) / np.sqrt(g.length)
    psi = WaveFunction(g, plane, Representation.POSITION)
    p_op = DiagonalOperator(Representation.MOMENTUM, g.momenta)
    assert np.isclose(expectation(p_op, psi), p_k, atol=1e-10)


def test_momentum_expectation_symmetric_gaussian_is_zero():
    g = make_grid(256, -16.0, 16.0)
    psi = gaussian_packet(g, 0.0, 1.5, 0.0)
    assert abs(expectation(DiagonalOperator(Representation.MOMENTUM, g.momenta), psi)) < 1e-12


def test_momentum_expectation_boosted_gaussian():
    g = make_grid(256, -16.0, 16.0)
    p0 = 0.8
    psi = gaussian_packet(g, 0.0, 1.5, p0)
    assert abs(expectation(DiagonalOperator(Representation.MOMENTUM, g.momenta), psi) - p0) < 1e-10


def test_total_energy_rest_value_and_photon():
    g = make_grid(64, -8.0, 8.0)
    m = ParticleSpec(1.3)
    e = total_energy_op(g, m, Dispersion.RELATIVISTIC).values.real
    assert e[0] == m.rest_energy  # p = 0 is the first FFT node
    photon = total_energy_op(g, ParticleSpec(0.0), Dispersion.RELATIVISTIC).values.real
    assert np.allclose(photon, np.abs(g.momenta), rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        total_energy_op(g, ParticleSpec(0.0), Dispersion.NONRELATIVISTIC)


def test_relativistic_energy_taylor_gap():
    # E - (mc^2 + p^2/2m) = -mc^2 u^2/8 + O(u^3), u = (p/mc)^2
    c = PhysicalConstants(c=2.0)
    g = make_grid(64, -50.0 * np.pi, 50.0 * np.pi, c)  # dp = 0.02 = 0.01 * mc
    m = ParticleSpec(1.0, c)
    rel = total_energy_op(g, m, Dispersion.RELATIVISTIC).values.real
    p = g.momenta
    target = 1  # first nonzero node, p = 0.01 * mc exactly
    assert np.isclose(p[target], 0.01 * m.mass * c.c, rtol=1e-13)
    u = (p[target] / (m.mass * c.c)) ** 2
    gap = rel[target] - (m.rest_energy + p[target] ** 2 / (2.0 * m.mass))
    assert np.isclose(gap, -m.rest_energy * u**2 / 8.0, rtol=1e-3)


def test_velocity_squared_values():
    g = make_grid(8, -np.pi, np.pi)  # L = 2 pi, so p = k exactly
    m = ParticleSpec(1.0)
    v2 = velocity_squared_op(g, m).values.real
    assert v2[0] == 0.0
    assert np.isclose(v2[1], 0.5, atol=1e-15)  # p = 1: 1/(1+1)
    assert np.all(v2 < 1.0) and np.all(v2 >= 0.0)
    photon = velocity_squared_op(g, ParticleSpec(0.0)).values.real
    assert np.all(photon == 1.0)


def test_velocity_squared_symmetrization_collapses():
    # (1/2)[A B^-1 + B^-1 A] = A B^-1 exactly for commuting diagonals
    g = make_grid(32, -4.0, 4.0)
    m = ParticleSpec(0.7)
    p, c = g.momenta, g.constants.c
    A = np.diag((p * c**2) ** 2)
    Binv = np.diag(1.0 / ((p * c) ** 2 + m.rest_energy**2))
    sym = 0.5 * (A @ Binv + Binv @ A)
    assert np.array_equal(sym, A @ Binv)
    v2 = velocity_squared_op(g, m).values.real
    assert np.allclose(np.diag(sym), v2, rtol=1e-14, atol=0)


def test_proper_time_spot_values():
    g = make_grid(8, -np.pi, np.pi)
    m = ParticleSpec(1.0)
    t = 2.0
    values = proper_time_op(g, m, t).values.real
    assert values[0] == t  # p = 0: proper time equals reference time
    assert abs(values[1] - 2.0 / np.sqrt(2.0)) < 1e-14  # p = 1: t E_s / E(p)
    photon = proper_time_op(g, ParticleSpec(0.0), t).values.real
    assert np.all(photon == 0.0)


def test_proper_time_bounds_and_monotonicity():
    g = make_grid(512, -32.0, 32.0)
    m = ParticleSpec(1.0)
    for t in (2.0, -1.5):
        values = proper_time_op(g, m, t).values.real
        lo, hi = (0.0, t) if t > 0 else (t, 0.0)
        assert np.all(values >= lo) and np.all(values <= hi)
        by_speed = values[np.argsort(np.abs(g.momenta), kind="stable")]
        if t > 0:
            assert np.all(np.diff(by_speed) <= 0.0)
        else:
            assert np.all(np.diff(by_speed) >= 0.0)


@pytest.mark.parametrize("c", [1.0, 3.0])
def test_proper_time_equals_rest_over_total_energy_at_every_node(c):
    # p reaches 3217 mc: 1 - v^2/c^2 formed by subtraction is off by 1.8e-13 (c = 1)
    constants = PhysicalConstants(c=c)
    g = make_grid(65536, -32.0, 32.0, constants)
    m = ParticleSpec(1.0, constants)
    t = 2.0
    values = proper_time_op(g, m, t).values.real
    energies = total_energy_op(g, m).values.real
    assert np.max(np.abs(values - t * m.rest_energy / energies)) <= 1e-15 * t


def test_operator_constructors_are_hermitian():
    g = make_grid(64, -8.0, 8.0)
    m = ParticleSpec(1.0)
    for op in (
        total_energy_op(g, m, Dispersion.NONRELATIVISTIC),
        total_energy_op(g, m, Dispersion.RELATIVISTIC),
        velocity_squared_op(g, m),
        proper_time_op(g, m, 2.0),
    ):
        assert np.max(np.abs(op.values.imag)) <= 1e-14


def test_relativistic_energy_dominates_rest_energy():
    g = make_grid(128, -8.0, 8.0)
    m = ParticleSpec(0.5)
    e = total_energy_op(g, m, Dispersion.RELATIVISTIC).values.real
    assert np.all(e >= m.rest_energy)
    assert np.sum(e == m.rest_energy) == 1  # only the p = 0 node


def test_constants_mismatch_rejected():
    g = make_grid(64, -8.0, 8.0, PhysicalConstants(c=2.0))
    with pytest.raises(ValueError):
        total_energy_op(g, ParticleSpec(1.0), Dispersion.RELATIVISTIC)


def test_hermitian_expectation_is_real():
    g = make_grid(128, -8.0, 8.0)
    psi = gaussian_packet(g, 0.3, 0.8, 1.1)
    val = expectation(total_energy_op(g, ParticleSpec(1.0)), psi)
    assert abs(val.imag) < 1e-12 * abs(val.real)


def test_commutator_matches_dense_oracle():
    g = make_grid(64, -8.0, 8.0)
    psi = gaussian_packet(g, 0.0, g.length / 24.0, 0.7)
    dense = dense_commutator_expectation(psi)
    fast = commutator_xp_expectation(psi)
    assert abs(dense - fast) < 1e-12
    assert abs(dense - 1j) < 1e-8
    assert abs(fast - 1j) < 1e-8


def test_commutator_matches_dense_oracle_off_centre_box():
    # x_min != -L/2: the transform's origin phase is not 1 at any nonzero momentum
    g = make_grid(64, -5.0, 11.0, PhysicalConstants(hbar=0.7))
    psi = gaussian_packet(g, 3.0, g.length / 24.0, 0.5)
    dense = dense_commutator_expectation(psi)
    assert abs(dense - commutator_xp_expectation(psi)) < 1e-12
    assert abs(dense - 0.7j) < 1e-8


def operator_pipeline_commutator(psi):
    """<psi|[x,p]|psi> with one transform pair per operand, multipliers g.momenta, g.positions."""
    g = psi.grid
    x = g.positions
    pos = to_position(psi)

    def p_of(amps):
        phi = to_momentum(WaveFunction(g, amps, Representation.POSITION))
        return to_position(
            WaveFunction(g, g.momenta * phi.amplitudes, Representation.MOMENTUM)
        ).amplitudes

    diff = x * p_of(pos.amplitudes) - p_of(x * pos.amplitudes)
    return complex(np.sum(np.conj(pos.amplitudes) * diff) * g.dx)


@pytest.mark.parametrize(
    "hbar, x_min, x_max", [(1.0, -32.0, 32.0), (0.7, -13.0, 27.0), (2.5, -16.0, 16.0)]
)
def test_commutator_is_bitwise_the_operator_pipeline(hbar, x_min, x_max):
    g = make_grid(512, x_min, x_max, PhysicalConstants(hbar=hbar))
    for psi in seeded_gaussians(g, np.random.default_rng(5)):
        assert commutator_xp_expectation(psi) == operator_pipeline_commutator(psi)


def test_commutator_gaussian_family():
    g = make_grid(512, -32.0, 32.0)
    rng = np.random.default_rng(17)
    length = g.length
    for _ in range(20):
        sigma = length / 32.0 + (length / 24.0 - length / 32.0) * rng.random()
        center = (rng.random() - 0.5) * length / 8.0
        p0 = (2.0 * rng.random() - 1.0) * 1.5
        psi = gaussian_packet(g, center, sigma, p0)
        assert abs(commutator_xp_expectation(psi) - 1j) < 1e-8


def test_commutator_boosted_gaussian_matches_oracle():
    g = make_grid(64, -8.0, 8.0)
    psi = gaussian_packet(g, 0.4, g.length / 26.0, 1.2)
    dense = dense_commutator_expectation(psi)
    assert abs(commutator_xp_expectation(psi) - dense) < 1e-12
    assert abs(dense - 1j) < 1e-8


def test_commutator_general_constants():
    constants = PhysicalConstants(hbar=0.7, c=2.0)
    g = make_grid(256, -16.0, 16.0, constants)
    psi = gaussian_packet(g, 0.0, g.length / 28.0, 0.9)
    assert abs(commutator_xp_expectation(psi) - 0.7j) < 1e-8


def test_commutator_rejects_boundary_weight():
    g = make_grid(256, -16.0, 16.0)
    # wide packet: visible amplitude at the wrap point
    psi = gaussian_packet(g, 0.0, g.length / 6.0, 0.0)
    assert boundary_amplitude(psi) > 1e-3
    with pytest.raises(ValueError):
        commutator_xp_expectation(psi)
