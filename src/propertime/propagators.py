"""Exact spectral time evolution for the free particle.

All Hamiltonians here are momentum-diagonal, so exp(-i H t / hbar) is a
unimodular multiplier per momentum node and there is no splitting error:
`evolve` takes a state to a vector of times, one multiplication per time,
and each step function is `evolve` at t = dt. The energies are even on the
FFT-ordered grid (E(p_{n-j}) == E(p_j)), so every factor of t is computed
on the n/2 + 1 distinct nodes and mirrored to the rest. Three dynamical
limits:

  Schrodinger        E(p) = p^2 / 2m                   (mass > 0)
  RelativisticSqrt   E(p) = sqrt(m^2 c^4 + p^2 c^2)    (positive branch)
  Dirac1D            H(p) = c p sigma_x + m c^2 sigma_z on a two-spinor

plus the proper-time phase step exp(-i E_s dt_s / hbar) acting on
rest-energy eigencoefficients, the exact solution of the rest-energy
evolution equation. Dirac evolution uses the closed form
exp(-i H t/hbar) = cos(theta) I - i sin(theta) H/E with theta = E t/hbar,
in the sigma_x-kinetic / sigma_z-mass representation.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import NATURAL_UNITS
from .grid import Representation, norm, to_momentum, to_position
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


def _phase(energies, t, hbar):
    """exp(-i E t / hbar): the rest-energy matrix element <t|E> up to its constant."""
    return np.exp(-1j * energies * t / hbar)


def spectrum(grid, spec):
    """(E(p), mixing) for `evolve`, once per grid: E from `total_energy_op`, and
    for Dirac mixing = (m c^2/E, c p/E), the entries of H/E; () otherwise."""
    nonrelativistic = spec.kind is PropagatorKind.SCHRODINGER
    dispersion = Dispersion.NONRELATIVISTIC if nonrelativistic else Dispersion.RELATIVISTIC
    energies = np.array(total_energy_op(grid, spec.particle, dispersion).values.real)
    if spec.kind is not PropagatorKind.DIRAC_1D:
        return energies, ()
    # E = 0 only at p = 0 of a massless particle, where H = 0 as well
    safe = np.where(energies > 0.0, energies, 1.0)
    return energies, (spec.particle.rest_energy / safe, grid.constants.c * grid.momenta / safe)


def _mirror(half_rows, out):
    """Write rows of an even function of p, given on nodes 0..n/2 of the FFT-ordered
    grid, to all n nodes of `out` (node n - j takes node j's value); return `out`."""
    half = half_rows.shape[-1]
    out[..., :half] = half_rows
    out[..., half:] = half_rows[..., half - 2:0:-1]
    return out


def evolve(phi, times, hbar, energies, mixing):
    """exp(-i H t / hbar) on momentum amplitudes of shape (components, n), for each t
    in `times`: a new C-ordered array of shape (len(times), components, n)."""
    t = np.asarray(times, dtype=float)[:, None]
    out = np.empty((len(t), *phi.shape), dtype=complex)
    # E(p) is even on the FFT-ordered grid (E[n - j] == E[j]), so each factor of t
    # is computed on nodes 0..n/2 only; an overflowing E t / hbar gives a NaN
    # sample, which fails the run's checks
    energies = energies[:energies.size // 2 + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        if not mixing:
            _mirror(_phase(energies, t, hbar)[:, None], out)
            out *= phi
            return out
        theta = energies * t / hbar
        cos_t = _mirror(np.cos(theta), np.empty(out[:, 0].shape))
        sin_t = _mirror(np.sin(theta, out=theta), np.empty(out[:, 0].shape))
    del theta
    a, b = mixing  # H/E = [[a, b], [b, -a]]
    upper, lower = phi
    # H/E phi into the first sample, in place row by row: at most one n-length
    # temporary at a time; every sample's sin(theta) H/E phi is made from it
    first = out[0]
    np.multiply(a, upper, out=first[0])
    first[0] += b * lower
    np.multiply(b, upper, out=first[1])
    first[1] -= a * lower
    np.multiply(first, sin_t[1:, None], out=out[1:])
    first *= sin_t[0]
    out *= -1j
    for j, component in enumerate(phi):
        out[:, j] += cos_t * component
    return out


def spinor_norm(spinor):
    return norm(spinor)


def spinor_to_momentum(spinor):
    return to_momentum(spinor)


def spinor_to_position(spinor):
    return to_position(spinor)


def _step(state, spec, kind):
    """One step exp(-i H dt / hbar), returned in the state's representation."""
    if spec.kind is not kind:
        raise ValueError(f"spec is {spec.kind.value}, not {kind.value}")
    grid = state.grid
    rows = np.stack(to_momentum(state).components)
    rows = evolve(rows, [spec.dt], grid.constants.hbar, *spectrum(grid, spec))[0]
    out = type(state)(grid, *rows, Representation.MOMENTUM)
    return to_position(out) if state.representation is Representation.POSITION else out


def step_schrodinger(psi, spec):
    """One step exp(-i p^2/(2m) dt/hbar); returns the input's representation."""
    return _step(psi, spec, PropagatorKind.SCHRODINGER)


def step_relativistic(psi, spec):
    """One step exp(-i sqrt(m^2 c^4 + p^2 c^2) dt/hbar), positive-energy branch."""
    return _step(psi, spec, PropagatorKind.RELATIVISTIC_SQRT)


def step_dirac(spinor, spec):
    """One exact two-spinor step exp(-i H(p) dt/hbar) per momentum node."""
    return _step(spinor, spec, PropagatorKind.DIRAC_1D)


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


def step_proper_time_phase(coefficients, energies, dt_s, constants=NATURAL_UNITS):
    """c_k <- c_k exp(-i E_k dt_s / hbar): exact rest-energy-basis evolution."""
    c = np.asarray(coefficients, dtype=complex)
    e = np.asarray(energies, dtype=float)
    if c.shape != e.shape:
        raise ValueError("coefficients and energies must align")
    if not np.all(np.isfinite(e)):
        raise ValueError("energies must be finite")
    return c * _phase(e, dt_s, constants.hbar)
