"""Grid, wavefunction, and position<->momentum transform tests.

The transform oracle is the closed-form Fourier transform of a Gaussian:
a packet of position std sigma maps to a momentum Gaussian of std
hbar/(2 sigma), with the translation phase exp(-i p x0 / hbar).
"""

import tracemalloc

import numpy as np
import pytest

from propertime import (
    PhysicalConstants,
    Representation,
    WaveFunction,
    boundary_amplitude,
    gaussian_packet,
    inner,
    make_grid,
    norm,
    to_momentum,
    to_position,
)


def random_state(grid, rng, representation=Representation.POSITION):
    amps = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    psi = WaveFunction(grid, amps, representation)
    return WaveFunction(grid, psi.amplitudes / norm(psi), representation)


def test_make_grid_unit_spacing():
    g = make_grid(8, 0.0, 8.0)
    assert g.dx == 1.0
    expected = 2.0 * np.pi / 8.0 * np.array([0, 1, 2, 3, -4, -3, -2, -1])
    assert np.allclose(g.momenta, expected, rtol=0, atol=1e-15)


def test_conjugate_grid_translation_invariant():
    a = make_grid(8, 0.0, 8.0)
    b = make_grid(8, -4.0, 4.0)
    assert a.dx == b.dx
    assert np.array_equal(a.momenta, b.momenta)


def test_momenta_sum_is_unpaired_mode():
    # every +k pairs with -k except the single -n/2 entry
    g = make_grid(64, -5.0, 11.0)
    assert np.isclose(np.sum(g.momenta), np.min(g.momenta), rtol=1e-12)


@pytest.mark.parametrize("n", [7, 12, 100])
def test_non_power_of_two_rejected(n):
    with pytest.raises(ValueError):
        make_grid(n, 0.0, 8.0)


def test_tiny_or_degenerate_grid_rejected():
    with pytest.raises(ValueError):
        make_grid(4, 0.0, 8.0)
    with pytest.raises(ValueError):
        make_grid(8, 2.0, 2.0)


def test_wavefunction_validation():
    g = make_grid(8, 0.0, 8.0)
    with pytest.raises(ValueError):
        WaveFunction(g, np.ones(7), Representation.POSITION)
    with pytest.raises(ValueError):
        WaveFunction(g, np.array([np.inf] + [0.0] * 7), Representation.POSITION)


@pytest.mark.parametrize("hbar", [1.0, 0.37])
@pytest.mark.parametrize("p0", [0.0, 1.5])
def test_gaussian_transform_matches_analytic_fourier(hbar, p0):
    constants = PhysicalConstants(hbar=hbar)
    g = make_grid(256, -16.0, 16.0, constants)
    sigma, x0 = 1.0, 2.0
    psi = gaussian_packet(g, x0, sigma, p0, normalize=False)
    phi = to_momentum(psi)

    # independent continuum oracle: sigma_p = hbar / (2 sigma)
    sigma_p = hbar / (2.0 * sigma)
    p = g.momenta
    expected = (
        (2.0 * np.pi * sigma_p**2) ** (-0.25)
        * np.exp(-((p - p0) ** 2) / (4.0 * sigma_p**2))
        * np.exp(-1j * p * x0 / hbar)
    )
    assert np.max(np.abs(phi.amplitudes - expected)) < 1e-12


@pytest.mark.parametrize("hbar", [1.0, 0.37])
def test_gaussian_packet_is_bitwise_the_closed_form(hbar):
    g = make_grid(1024, -16.0, 16.0, PhysicalConstants(hbar=hbar))
    x0, sigma, p0 = 1.3, 0.9, -2.7
    x = g.positions
    raw = (2.0 * np.pi * sigma**2) ** (-0.25) * np.exp(
        -((x - x0) ** 2) / (4.0 * sigma**2) + 1j * p0 * (x - x0) / hbar
    )
    expected = raw / np.sqrt(np.sum(np.abs(raw) ** 2) * g.dx)
    assert gaussian_packet(g, x0, sigma, p0, normalize=False).amplitudes.tobytes() == raw.tobytes()
    assert gaussian_packet(g, x0, sigma, p0).amplitudes.tobytes() == expected.tobytes()


def test_gaussian_packet_peak_memory():
    # the returned packet is one complex array of 16n bytes; building it may
    # hold at most one more (the buffer the WaveFunction copies) and change
    n = 2**16
    g = make_grid(n, -64.0, 64.0)
    g.positions  # cached on the grid, not part of the packet's cost
    tracemalloc.start()
    try:
        gaussian_packet(g, 3.0, 2.0, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 16 * n


def test_constant_maps_to_zero_momentum_spike():
    g = make_grid(64, -8.0, 8.0)
    psi = WaveFunction(g, np.full(64, 1.0 / np.sqrt(g.length)), Representation.POSITION)
    phi = to_momentum(psi)
    spike = np.abs(phi.amplitudes)
    assert np.argmax(spike) == 0  # p = 0 is the first FFT entry
    assert np.all(spike[1:] < 1e-14)
    assert np.isclose(norm(phi), 1.0, atol=1e-12)


def test_round_trip_identity():
    g = make_grid(128, -10.0, 10.0)
    rng = np.random.default_rng(11)
    for _ in range(5):
        psi = random_state(g, rng)
        back = to_position(to_momentum(psi))
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-12


def test_transform_is_identity_on_matching_representation():
    g = make_grid(32, 0.0, 4.0)
    psi = random_state(g, np.random.default_rng(0))
    assert to_position(psi) is psi
    phi = to_momentum(psi)
    assert to_momentum(phi) is phi


def test_transform_preserves_norm():
    g = make_grid(256, -16.0, 16.0, PhysicalConstants(hbar=2.5, c=3.0))
    rng = np.random.default_rng(5)
    for _ in range(20):
        psi = random_state(g, rng)
        assert abs(norm(to_momentum(psi)) - norm(psi)) <= 1e-12 * norm(psi)


def test_inner_normalization_and_symmetry():
    g = make_grid(64, -4.0, 4.0)
    rng = np.random.default_rng(3)
    psi = random_state(g, rng)
    assert np.isclose(inner(psi, psi), 1.0, atol=1e-12)
    a, b = random_state(g, rng), random_state(g, rng)
    assert np.isclose(inner(a, b), np.conj(inner(b, a)), atol=1e-14)


def test_inner_conjugate_linear_first_argument():
    g = make_grid(64, -4.0, 4.0)
    rng = np.random.default_rng(4)
    a, b = random_state(g, rng), random_state(g, rng)
    z = 0.3 - 1.2j
    scaled = WaveFunction(g, z * a.amplitudes, Representation.POSITION)
    assert np.isclose(inner(scaled, b), np.conj(z) * inner(a, b), atol=1e-13)


def test_inner_parseval_across_representations():
    g = make_grid(128, -12.0, 12.0)
    rng = np.random.default_rng(9)
    a, b = random_state(g, rng), random_state(g, rng)
    direct = inner(a, b)
    spectral = inner(to_momentum(a), to_momentum(b))
    assert abs(direct - spectral) < 1e-12


def test_inner_rejects_mismatches():
    g1 = make_grid(64, -4.0, 4.0)
    g2 = make_grid(64, -8.0, 8.0)
    rng = np.random.default_rng(6)
    a = random_state(g1, rng)
    with pytest.raises(ValueError):
        inner(a, random_state(g2, rng))
    with pytest.raises(ValueError):
        inner(a, to_momentum(random_state(g1, rng)))


def test_gaussian_packet_is_normalized_and_decayed():
    g = make_grid(512, -32.0, 32.0)
    psi = gaussian_packet(g, 0.0, 2.0, 1.0)
    assert abs(norm(psi) ** 2 - 1.0) < 1e-12
    assert boundary_amplitude(psi) < 1e-10
