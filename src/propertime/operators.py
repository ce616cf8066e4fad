"""Free-particle operators as diagonal multipliers.

Every operator here is diagonal in a single representation: position for
the coordinate operator, momentum for everything built from the dispersion
relation. The relativistic velocity-squared operator

    v^2(p) = p^2 c^4 / (p^2 c^2 + E_s^2),   E_s = m c^2

makes the symmetrized form (1/2)[A B^-1 + B^-1 A] collapse to the plain
quotient because for a structureless particle E_s is a scalar, so the
bounded proper-time operator is simply

    t_s(p) = t * sqrt(1 - v^2(p)/c^2) = t * E_s / sqrt(p^2 c^2 + E_s^2)

with spectrum in [0, t] for t > 0 ([t, 0] for t < 0).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import NATURAL_UNITS, PhysicalConstants
from .grid import Representation, _fourier, boundary_amplitude, to_momentum, to_position

EDGE_DECAY_THRESHOLD = 1e-10


class Dispersion(Enum):
    NONRELATIVISTIC = "nonrelativistic"
    RELATIVISTIC = "relativistic"


@dataclass(frozen=True)
class ParticleSpec:
    mass: float
    constants: PhysicalConstants = NATURAL_UNITS

    def __post_init__(self):
        if self.mass < 0.0:
            raise ValueError(f"mass must be nonnegative, got {self.mass}")

    @property
    def rest_energy(self):
        return self.mass * self.constants.c**2


@dataclass(frozen=True)
class DiagonalOperator:
    basis: Representation
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex, copy=True)
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
            raise ValueError("operator values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _require_same_constants(grid, particle):
    if grid.constants != particle.constants:
        raise ValueError("grid and particle carry different physical constants")


def total_energy_op(grid, particle, dispersion=Dispersion.RELATIVISTIC):
    """Total energy E(p): p^2/2m nonrelativistic, sqrt(m^2 c^4 + p^2 c^2) relativistic."""
    _require_same_constants(grid, particle)
    p = grid.momenta
    c = grid.constants.c
    if dispersion is Dispersion.NONRELATIVISTIC:
        if particle.mass <= 0.0:
            raise ValueError("nonrelativistic dispersion requires mass > 0")
        values = p**2 / (2.0 * particle.mass)
    elif dispersion is Dispersion.RELATIVISTIC:
        values = np.sqrt(particle.rest_energy**2 + (p * c) ** 2)
    else:
        raise ValueError(f"unknown dispersion {dispersion!r}")
    return DiagonalOperator(Representation.MOMENTUM, values)


def velocity_squared_op(grid, particle):
    """v^2(p) = p^2 c^4 / (p^2 c^2 + E_s^2); identically c^2 for a massless particle."""
    _require_same_constants(grid, particle)
    p = grid.momenta
    c = grid.constants.c
    if particle.mass == 0.0:
        values = np.full(grid.n, c**2)
    else:
        values = (p * c**2) ** 2 / ((p * c) ** 2 + particle.rest_energy**2)
    return DiagonalOperator(Representation.MOMENTUM, values)


def proper_time_op(grid, particle, t):
    """Bounded proper-time operator t * sqrt(1 - v^2(p)/c^2), eigenvalues between 0 and t.

    1 - v^2/c^2 is formed as E_s^2 / (E_s^2 + p^2 c^2); the subtraction would cancel
    digits as v nears c. Massless: v = c, so 0 (the quotient is 0/0 at p = 0).
    """
    _require_same_constants(grid, particle)
    rest2 = particle.rest_energy**2
    if rest2 == 0.0:
        return DiagonalOperator(Representation.MOMENTUM, np.zeros(grid.n))
    c = grid.constants.c
    values = t * np.sqrt(rest2 / (rest2 + (grid.momenta * c) ** 2))
    return DiagonalOperator(Representation.MOMENTUM, values)


def expectation(op, psi):
    """<psi|A|psi> with the transform handled if the basis differs."""
    if psi.representation is not op.basis:
        psi = to_momentum(psi) if op.basis is Representation.MOMENTUM else to_position(psi)
    return complex(np.sum(np.conj(psi.amplitudes) * (op.values * psi.amplitudes)) * psi.weight)


def commutator_xp_expectation(psi):
    """<psi|[x,p]|psi>, which equals i*hbar*<psi|psi> for edge-decayed states.

    The coordinate operator is discontinuous at the periodic wrap, so the
    identity fails for states with weight there; such states are rejected
    rather than silently producing a wrong value.
    """
    pos = to_position(psi)
    edge = boundary_amplitude(pos)
    if edge >= EDGE_DECAY_THRESHOLD:
        raise ValueError(
            f"state is not edge-decayed: boundary amplitude {edge:.3e} >= "
            f"{EDGE_DECAY_THRESHOLD:.1e}; the commutator identity does not hold at "
            "the periodic wrap"
        )
    grid = pos.grid
    x = grid.positions
    # rows [psi, x psi] -> [p psi, p x psi], both in position
    rows = np.stack([pos.amplitudes, x * pos.amplitudes])
    _fourier(grid, rows, Representation.MOMENTUM)
    rows *= grid.momenta
    p_psi, p_x_psi = _fourier(grid, rows, Representation.POSITION)
    return complex(np.sum(np.conj(pos.amplitudes) * (x * p_psi - p_x_psi)) * grid.dx)
