"""Exact spectral time evolution for the free particle.

All Hamiltonians here are momentum-diagonal, so a step is a unimodular
multiplier per momentum node and there is no splitting error; dt is
limited only by how often output is wanted. Three dynamical limits:

  Schrodinger        E(p) = p^2 / 2m                   (mass > 0)
  RelativisticSqrt   E(p) = sqrt(m^2 c^4 + p^2 c^2)    (positive branch)
  Dirac1D            H(p) = c p sigma_x + m c^2 sigma_z on a two-spinor

plus the proper-time phase step exp(-i E_s dt_s / hbar) acting on
rest-energy eigencoefficients, the exact solution of the rest-energy
evolution equation. The Dirac step uses the closed form
exp(-i H dt/hbar) = cos(theta) I - i sin(theta) H/E with theta = E dt/hbar,
in the sigma_x-kinetic / sigma_z-mass representation.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import NATURAL_UNITS
from .grid import Representation, WaveFunction, to_momentum, to_position
from .operators import Dispersion, total_energy_op


class PropagatorKind(Enum):
    SCHRODINGER = "schrodinger"
    RELATIVISTIC_SQRT = "relativistic_sqrt"
    DIRAC_1D = "dirac_1d"


@dataclass(frozen=True)
class PropagatorSpec:
    kind: PropagatorKind
    particle: object
    dt: float

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"time step must be positive, got {self.dt}")
        if self.kind is PropagatorKind.SCHRODINGER and self.particle.mass <= 0.0:
            raise ValueError("Schrodinger evolution requires mass > 0")


def _phase_step(psi, energies, dt, hbar):
    came_in_position = psi.representation is Representation.POSITION
    mom = to_momentum(psi)
    out = WaveFunction(
        mom.grid,
        np.exp(-1j * energies * dt / hbar) * mom.amplitudes,
        Representation.MOMENTUM,
    )
    return to_position(out) if came_in_position else out


def step_schrodinger(psi, spec):
    """One step exp(-i p^2/(2m) dt/hbar); returns the input's representation."""
    if spec.kind is not PropagatorKind.SCHRODINGER:
        raise ValueError(f"spec is {spec.kind.value}, not schrodinger")
    op = total_energy_op(psi.grid, spec.particle, Dispersion.NONRELATIVISTIC)
    return _phase_step(psi, op.values.real, spec.dt, psi.grid.constants.hbar)


def step_relativistic(psi, spec):
    """One step exp(-i sqrt(m^2 c^4 + p^2 c^2) dt/hbar), positive-energy branch."""
    if spec.kind is not PropagatorKind.RELATIVISTIC_SQRT:
        raise ValueError(f"spec is {spec.kind.value}, not relativistic_sqrt")
    op = total_energy_op(psi.grid, spec.particle, Dispersion.RELATIVISTIC)
    return _phase_step(psi, op.values.real, spec.dt, psi.grid.constants.hbar)


@dataclass(frozen=True)
class SpinorWaveFunction:
    grid: object
    upper: np.ndarray
    lower: np.ndarray
    representation: Representation

    def __post_init__(self):
        for name in ("upper", "lower"):
            comp = np.array(getattr(self, name), dtype=complex, copy=True)
            if comp.shape != (self.grid.n,):
                raise ValueError(f"{name} component has shape {comp.shape}")
            if not np.all(np.isfinite(comp.real)) or not np.all(np.isfinite(comp.imag)):
                raise ValueError(f"{name} component must be finite")
            comp.setflags(write=False)
            object.__setattr__(self, name, comp)

    @property
    def weight(self):
        return self.grid.dx if self.representation is Representation.POSITION else self.grid.dp


def spinor_norm(spinor):
    total = np.sum(np.abs(spinor.upper) ** 2 + np.abs(spinor.lower) ** 2)
    return float(np.sqrt(total * spinor.weight))


def _spinor_map(spinor, transform, representation):
    u = transform(WaveFunction(spinor.grid, spinor.upper, spinor.representation))
    l = transform(WaveFunction(spinor.grid, spinor.lower, spinor.representation))
    return SpinorWaveFunction(spinor.grid, u.amplitudes, l.amplitudes, representation)


def spinor_to_momentum(spinor):
    if spinor.representation is Representation.MOMENTUM:
        return spinor
    return _spinor_map(spinor, to_momentum, Representation.MOMENTUM)


def spinor_to_position(spinor):
    if spinor.representation is Representation.POSITION:
        return spinor
    return _spinor_map(spinor, to_position, Representation.POSITION)


def positive_energy_spinor(p, particle):
    """Normalized eigenspinor of c p sigma_x + m c^2 sigma_z with eigenvalue +E(p)."""
    c = particle.constants.c
    energy = np.sqrt(particle.rest_energy**2 + (p * c) ** 2)
    if energy == 0.0:
        return 1.0 + 0.0j, 0.0 + 0.0j
    # (E + mc^2, pc) is never the zero vector once E > 0
    u, l = energy + particle.rest_energy, p * c
    scale = np.sqrt(abs(u) ** 2 + abs(l) ** 2)
    return complex(u / scale), complex(l / scale)


def step_dirac(spinor, spec):
    """One exact two-spinor step exp(-i H(p) dt/hbar) per momentum node."""
    if spec.kind is not PropagatorKind.DIRAC_1D:
        raise ValueError(f"spec is {spec.kind.value}, not dirac_1d")
    came_in_position = spinor.representation is Representation.POSITION
    mom = spinor_to_momentum(spinor)
    grid = mom.grid
    c = grid.constants.c
    hbar = grid.constants.hbar
    mc2 = spec.particle.rest_energy
    p = grid.momenta
    energy = np.sqrt(mc2**2 + (p * c) ** 2)
    theta = energy * spec.dt / hbar
    cos_t = np.cos(theta)
    # sin(theta)/E is finite at the single E = 0 node (massless p = 0): the limit is dt/hbar
    safe_energy = np.where(energy > 0.0, energy, 1.0)
    sinc = np.where(energy > 0.0, np.sin(theta) / safe_energy, spec.dt / hbar)
    upper = (cos_t - 1j * sinc * mc2) * mom.upper + (-1j * sinc * c * p) * mom.lower
    lower = (-1j * sinc * c * p) * mom.upper + (cos_t + 1j * sinc * mc2) * mom.lower
    out = SpinorWaveFunction(grid, upper, lower, Representation.MOMENTUM)
    return spinor_to_position(out) if came_in_position else out


def step_proper_time_phase(coefficients, energies, dt_s, constants=NATURAL_UNITS):
    """c_k <- c_k exp(-i E_k dt_s / hbar): exact rest-energy-basis evolution."""
    c = np.asarray(coefficients, dtype=complex)
    e = np.asarray(energies, dtype=float)
    if c.shape != e.shape:
        raise ValueError("coefficients and energies must align")
    if not np.all(np.isfinite(e)):
        raise ValueError("energies must be finite")
    return c * np.exp(-1j * e * dt_s / constants.hbar)
