"""Discretized one-dimensional Hilbert space.

A periodic grid of n = 2**k points on [x_min, x_max) with the conjugate
momentum grid p_k = 2*pi*hbar*k/L, k in [-n/2, n/2), stored in FFT order.
The position <-> momentum change of representation is the box-normalized,
quadrature-weighted discrete Fourier transform

    phi(p) = dx / sqrt(2*pi*hbar) * sum_j psi(x_j) exp(-i p x_j / hbar)
    psi(x) = dp / sqrt(2*pi*hbar) * sum_k phi(p_k) exp(+i p_k x / hbar)

which is exactly unitary in the weighted inner products
sum conj(a) b * dx (position) and sum conj(a) b * dp (momentum), so norms
and overlaps agree between representations to rounding.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .constants import NATURAL_UNITS, PhysicalConstants


class Representation(Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


@dataclass(frozen=True)
class SpatialGrid:
    n: int
    x_min: float
    x_max: float
    constants: PhysicalConstants = NATURAL_UNITS

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n}")
        if not self.x_max > self.x_min:
            raise ValueError(
                f"degenerate interval: x_min={self.x_min} x_max={self.x_max}"
            )

    @property
    def length(self):
        return self.x_max - self.x_min

    @property
    def dx(self):
        return self.length / self.n

    @property
    def dp(self):
        return 2.0 * np.pi * self.constants.hbar / self.length

    @cached_property
    def positions(self):
        """Grid points x_j = x_min + j*dx; x_max is the periodic wrap of x_min."""
        x = self.x_min + self.dx * np.arange(self.n)
        x.setflags(write=False)
        return x

    @cached_property
    def momenta(self):
        """Conjugate momenta 2*pi*hbar*k/L in FFT order (0..n/2-1, -n/2..-1)."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)
        p = self.dp * k
        p.setflags(write=False)
        return p

    @cached_property
    def momentum_order(self):
        """Indices that sort the FFT-ordered momenta monotonically (for reports)."""
        order = np.argsort(self.momenta)
        order.setflags(write=False)
        return order


def make_grid(n, x_min, x_max, constants=NATURAL_UNITS):
    return SpatialGrid(int(n), float(x_min), float(x_max), constants)


@dataclass(frozen=True)
class WaveFunction:
    grid: SpatialGrid
    amplitudes: np.ndarray
    representation: Representation

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex, copy=True)
        if amps.shape != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} amplitudes, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def weight(self):
        """Quadrature weight of the current representation (dx or dp)."""
        return self.grid.dx if self.representation is Representation.POSITION else self.grid.dp


def norm(psi):
    """sqrt(sum |psi_j|^2 * weight); representation independent by unitarity."""
    return float(np.sqrt(np.sum(np.abs(psi.amplitudes) ** 2) * psi.weight))


def inner(a, b):
    """<a|b> = sum conj(a_j) b_j * weight, conjugate-linear in the first slot."""
    if a.grid != b.grid:
        raise ValueError("wavefunctions live on different grids")
    if a.representation is not b.representation:
        raise ValueError("wavefunctions are in different representations")
    return complex(np.sum(np.conj(a.amplitudes) * b.amplitudes) * a.weight)


def to_momentum(psi):
    """Change to the momentum representation (identity if already there)."""
    if psi.representation is Representation.MOMENTUM:
        return psi
    g = psi.grid
    hbar = g.constants.hbar
    # exp(-i p x_j / hbar) = exp(-i p x_min / hbar) * exp(-2 pi i j k / n)
    phase = np.exp(-1j * g.momenta * g.x_min / hbar)
    amps = np.fft.fft(psi.amplitudes) * (g.dx / np.sqrt(2.0 * np.pi * hbar)) * phase
    return WaveFunction(g, amps, Representation.MOMENTUM)


def to_position(psi):
    """Change to the position representation (identity if already there)."""
    if psi.representation is Representation.POSITION:
        return psi
    g = psi.grid
    hbar = g.constants.hbar
    phase = np.exp(1j * g.momenta * g.x_min / hbar)
    amps = np.fft.ifft(psi.amplitudes * phase) * (
        g.n * g.dp / np.sqrt(2.0 * np.pi * hbar)
    )
    return WaveFunction(g, amps, Representation.POSITION)


def gaussian_packet(grid, center, sigma, momentum=0.0, normalize=True):
    """Minimum-uncertainty packet, position std sigma, momentum std hbar/(2 sigma).

    psi(x) = (2 pi sigma^2)^(-1/4) exp(-(x-x0)^2/(4 sigma^2) + i p0 (x-x0)/hbar)
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    hbar = grid.constants.hbar
    x = grid.positions
    psi = (2.0 * np.pi * sigma**2) ** (-0.25) * np.exp(
        -((x - center) ** 2) / (4.0 * sigma**2) + 1j * momentum * (x - center) / hbar
    )
    wf = WaveFunction(grid, psi, Representation.POSITION)
    if normalize:
        scale = norm(wf)
        if scale == 0.0:
            raise ValueError(
                f"packet at {center} underflows to zero on [{grid.x_min}, {grid.x_max})"
            )
        wf = WaveFunction(grid, wf.amplitudes / scale, Representation.POSITION)
    return wf


def boundary_amplitude(psi):
    """|psi| at the periodic wrap relative to the peak |psi|.

    The position operator is a sawtooth on a periodic grid; states must be
    negligible here for position-dependent identities to hold.
    """
    pos = to_position(psi)
    mags = np.abs(pos.amplitudes)
    peak = float(np.max(mags))
    if peak == 0.0:
        return 0.0
    return float(max(mags[0], mags[-1]) / peak)
