"""Transformation-kernel functional equations and their numeric checks.

Canonical invariance forces the overlap between eigenstates of a conjugate
pair (coordinate u, momentum w) into the exponential-bilinear form

    K(u, w) = a * exp(alpha * u * w)

and fixes alpha = i/hbar. The checks here probe each step of that chain
numerically: the squaring identity K'(sqrt2 u, sqrt2 w) = K'(u, w)^2 (or
K'(2u, w) = K'(u, w)^2 along a single axis), the shrinking-stencil limit
that extracts alpha as the mixed log-derivative at the origin, the flat
modulus |K| that holds iff Re(alpha) = 0 (no preferred reference time),
and the identity E <-> i*hbar d/dt_s on states synthesized from the
discretized proper-time/rest-energy kernel matrix.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .constants import NATURAL_UNITS


@dataclass(frozen=True)
class AmplitudeKernel:
    """K(u, w) = prefactor * exp(alpha * u * w) for a conjugate pair (u, w)."""

    alpha: complex
    prefactor: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.prefactor == 0:
            raise ValueError("kernel prefactor must be nonzero")

    def __call__(self, u, w):
        return self.prefactor * np.exp(self.alpha * np.asarray(u) * np.asarray(w))


def coordinate_momentum_kernel(constants=NATURAL_UNITS):
    """The plane-wave overlap <x|p>: alpha = i/hbar, prefactor 1/sqrt(2 pi hbar)."""
    hbar = constants.hbar
    return AmplitudeKernel(1j / hbar, (2.0 * np.pi * hbar) ** -0.5)


def proper_time_kernel(constants=NATURAL_UNITS, prefactor=1.0 + 0.0j):
    """<t_s|E_s> evaluated as K(t_s, -E_s) = a exp(-i E_s t_s / hbar)."""
    return AmplitudeKernel(1j / constants.hbar, prefactor)


class SquaringVariant(Enum):
    # both arguments scaled by sqrt(2): the coordinate-momentum identity
    SQRT2_BOTH = "sqrt2_both"
    # first argument doubled: the proper-time identity (massless partner)
    DOUBLE_FIRST = "double_first"


def squaring_residual(kernel, u, w, variant=SquaringVariant.SQRT2_BOTH):
    """|K'(scaled) - K'(u, w)^2| with K' = K / K(0, 0); zero iff exponential-bilinear."""
    a = kernel(0.0, 0.0)
    if variant is SquaringVariant.SQRT2_BOTH:
        lhs = kernel(np.sqrt(2.0) * u, np.sqrt(2.0) * w) / a
    elif variant is SquaringVariant.DOUBLE_FIRST:
        lhs = kernel(2.0 * u, w) / a
    else:
        raise ValueError(f"unknown variant {variant!r}")
    rhs = (kernel(u, w) / a) ** 2
    return float(abs(lhs - rhs))


def extract_alpha(kernel, delta0=0.5, levels=8, tolerance=1e-9):
    """Mixed derivative d^2 log K' / du dw at the origin by shrinking stencils.

    Central cross differences on a (+/-delta, +/-delta) stencil, halved over
    `levels` levels, then Richardson-extrapolated (the cross difference is
    O(delta^2) for analytic kernels). Raises if the extrapolated sequence
    does not settle, which signals a kernel outside the assumed form.
    """
    if levels < 4:
        raise ValueError("need at least 4 stencil levels")
    a = kernel(0.0, 0.0)

    def logk(u, w):
        return np.log(complex(kernel(u, w)) / a)

    estimates = []
    for level in range(levels):
        d = delta0 / 2**level
        cross = (logk(d, d) - logk(d, -d) - logk(-d, d) + logk(-d, -d)) / (4.0 * d * d)
        estimates.append(cross)
    estimates = np.asarray(estimates)
    richardson = (4.0 * estimates[1:] - estimates[:-1]) / 3.0
    diffs = np.abs(np.diff(richardson))
    best = int(np.argmin(diffs))
    value = complex(richardson[best + 1])
    if diffs[best] > tolerance * max(1.0, abs(value)):
        raise ValueError(
            "stencil limit did not converge (residual "
            f"{diffs[best]:.3e}); kernel is not of exponential-bilinear form"
        )
    return value


@dataclass(frozen=True)
class ProperTimeAxis:
    """Uniform nodes on [0, t]: the spectrum support of the proper-time operator."""

    t: float
    m: int

    def __post_init__(self):
        if self.t <= 0.0:
            raise ValueError(f"reference time must be positive, got {self.t}")
        if self.m < 16:
            raise ValueError(f"need at least 16 nodes, got {self.m}")

    @cached_property
    def nodes(self):
        nodes = np.linspace(0.0, self.t, self.m)
        nodes.setflags(write=False)
        return nodes

    @property
    def spacing(self):
        return self.t / (self.m - 1)


@dataclass(frozen=True)
class KernelMatrix:
    """Discretized <t_s|E_s>: entries[j, k] = K(t_j, -E_k)."""

    axis: ProperTimeAxis
    energies: np.ndarray
    entries: np.ndarray


def build_kernel_matrix(axis, energies, kernel):
    energies = np.array(energies, dtype=float, copy=True)
    if energies.size == 0:
        raise ValueError("need at least one energy")
    entries = kernel(axis.nodes[:, None], -energies[None, :])
    energies.setflags(write=False)
    entries.setflags(write=False)
    return KernelMatrix(axis, energies, entries)


def modulus_ratio(matrix):
    """max|entry| / min|entry|; equals 1 iff Re(alpha) = 0 (flat over t_s)."""
    mags = np.abs(matrix.entries)
    lo = float(np.min(mags))
    if lo == 0.0:
        raise ValueError("degenerate kernel matrix: zero entry")
    return float(np.max(mags)) / lo


def energy_derivative_residual(matrix, coefficients, constants=NATURAL_UNITS):
    """Relative residual of E psi = i hbar d/dt_s psi on a synthesized state.

    psi(t_j) = sum_k c_k entries[j, k]; the derivative is a central
    difference on interior nodes, so the residual is O(spacing^2).
    """
    c = np.asarray(coefficients, dtype=complex)
    if c.shape != (matrix.energies.size,):
        raise ValueError("one coefficient per energy required")
    if matrix.axis.m < 3:
        raise ValueError("need at least 3 time nodes for a central difference")
    psi = matrix.entries @ c
    applied = matrix.entries @ (matrix.energies * c)
    scale = float(np.linalg.norm(applied[1:-1]))
    if scale == 0.0:
        raise ValueError("degenerate state: E psi vanishes identically")
    h = matrix.axis.spacing
    derivative = (psi[2:] - psi[:-2]) / (2.0 * h)
    residual = np.linalg.norm(applied[1:-1] - 1j * constants.hbar * derivative)
    return float(residual / scale)


def endpoint_matches_total_energy_kernel(matrix, kernel):
    """True iff the t_s = t row equals a*exp(alpha*t*(-E)) for every energy.

    At the axis endpoint the moving frame coincides with the reference
    frame, where the same kernel ties the total energy to the reference
    time; the row must reproduce it exactly.
    """
    t = matrix.axis.t
    expected = kernel(t, -matrix.energies)
    return bool(np.array_equal(matrix.entries[-1, :], expected))
