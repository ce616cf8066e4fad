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

# bounds every n-length array a run allocates (64 MiB per complex array)
MAX_GRID_SIZE = 2**22
# bytes of rows one FFT call transforms, or one row where that is larger
FFT_BYTES = 2**16


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
        if self.n > MAX_GRID_SIZE:
            raise ValueError(f"grid size must be at most {MAX_GRID_SIZE}, got {self.n}")
        if not self.x_max > self.x_min:
            raise ValueError(
                f"degenerate interval: x_min={self.x_min} x_max={self.x_max}"
            )
        if not (0.0 < self.dx < np.inf and 0.0 < self.dp < np.inf):
            raise ValueError(
                f"grid spacings must be finite and positive, got dx={self.dx} dp={self.dp}"
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
    def origin_phase(self):
        """exp(-i p_k x_min / hbar), the transform's phase for a grid not starting at 0."""
        phase = np.exp(-1j * self.momenta * self.x_min / self.constants.hbar)
        phase.setflags(write=False)
        return phase


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

    @property
    def components(self):
        return (self.amplitudes,)


@dataclass(frozen=True)
class SpinorWaveFunction:
    """Two-component state; each component is validated as a WaveFunction."""
    grid: SpatialGrid
    upper: np.ndarray
    lower: np.ndarray
    representation: Representation

    def __post_init__(self):
        for name in ("upper", "lower"):
            component = WaveFunction(self.grid, getattr(self, name), self.representation)
            object.__setattr__(self, name, component.amplitudes)

    weight = WaveFunction.weight

    @property
    def components(self):
        return (self.upper, self.lower)


def norm(psi):
    """sqrt(sum |psi_j|^2 * weight) over all components; representation independent."""
    return float(np.sqrt(sum(np.sum(np.abs(c) ** 2) for c in psi.components) * psi.weight))


def inner(a, b):
    """<a|b> = sum conj(a_j) b_j * weight, conjugate-linear in the first slot."""
    if a.grid != b.grid:
        raise ValueError("wavefunctions live on different grids")
    if a.representation is not b.representation:
        raise ValueError("wavefunctions are in different representations")
    return complex(np.sum(np.conj(a.amplitudes) * b.amplitudes) * a.weight)


def _fourier(grid, amps, target):
    """Move a writable C-ordered complex (..., n) array into `target` in place; return it.

    exp(-i p x_j / hbar) = exp(-i p x_min / hbar) * exp(-2 pi i j k / n).
    """
    hbar = grid.constants.hbar
    momentum = target is Representation.MOMENTUM
    if not momentum:
        amps *= np.conj(grid.origin_phase)
    rows = amps.reshape(-1, grid.n, copy=False)
    # numpy's in-place FFT holds a copy of all that one call transforms: 48 MiB
    # more at peak for a whole spinor at n = 2^20, and a 128 KiB copy took fresh
    # zero-filled pages from glibc's malloc on every call (measured on a 2-vCPU
    # Linux VM). A row's values do not depend on the rows that share its call.
    per_call = max(1, FFT_BYTES // rows[0].nbytes)
    transform = np.fft.fft if momentum else np.fft.ifft
    for start in range(0, len(rows), per_call):
        block = rows[start:start + per_call]
        transform(block, axis=-1, out=block)
    if momentum:
        amps *= grid.dx / np.sqrt(2.0 * np.pi * hbar)
        amps *= grid.origin_phase
    else:
        amps *= grid.n * grid.dp / np.sqrt(2.0 * np.pi * hbar)
    return amps


def _change(psi, representation):
    """A scalar or spinor state in `representation` (itself if already there)."""
    if psi.representation is representation:
        return psi
    amps = _fourier(psi.grid, np.stack(psi.components), representation)
    return type(psi)(psi.grid, *amps, representation)


def to_momentum(psi):
    """Change to the momentum representation (identity if already there)."""
    return _change(psi, Representation.MOMENTUM)


def to_position(psi):
    """Change to the position representation (identity if already there)."""
    return _change(psi, Representation.POSITION)


def gaussian_packet(grid, center, sigma, momentum=0.0, normalize=True):
    """Minimum-uncertainty packet, position std sigma, momentum std hbar/(2 sigma).

    psi(x) = (2 pi sigma^2)^(-1/4) exp(-(x-x0)^2/(4 sigma^2) + i p0 (x-x0)/hbar)
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not 0.0 < sigma * sigma < np.inf:
        raise ValueError(f"sigma**2 must be a positive finite float, got sigma = {sigma}")
    # one complex buffer built in place (the WaveFunction then holds one copy),
    # by the same floating-point operations as the docstring's expression, so
    # the values are bitwise those of evaluating it directly
    shift = grid.positions - center
    psi = 1j * momentum * shift
    psi /= grid.constants.hbar
    shift **= 2
    np.negative(shift, out=shift)
    shift /= 4.0 * sigma**2
    psi += shift
    del shift
    np.exp(psi, out=psi)
    psi *= (2.0 * np.pi * sigma**2) ** (-0.25)
    if normalize:
        scale = np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)  # norm() of the packet
        if scale == 0.0:
            raise ValueError(
                f"packet at {center} underflows to zero on [{grid.x_min}, {grid.x_max})"
            )
        psi /= scale
    return WaveFunction(grid, psi, Representation.POSITION)


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
