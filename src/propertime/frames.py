"""Accelerating frames: proper-time quadrature and semiclassical phases.

A frame is described by a sampled velocity history v(t) with an
interpolation rule. The proper time elapsed up to reference time t is

    t_s(t) = integral_0^t sqrt(1 - v^2(t')/c^2) dt'

evaluated by composite trapezoid (order 2) or Simpson (order 4) rules.
Along the same trajectory the phase exp(-i E_s t_s / hbar) factorizes
semiclassically into a temporal and a spatial part,

    -E_s t_s = -int_0^t E(t') dt' + int_0^t p(t') v(t') dt'

with E(t') = E_s / sqrt(1 - v^2/c^2) and p = E v / c^2; the spatial
integral is evaluated in the time parameterization (dx' = v dt'), which
stays valid for turning trajectories where x(t') is not monotone.

One pass along the worldline per output time yields all four integrals, so
`proper_time_of`, `action_phase` and `semiclassical_phase` agree to the bit.
"""

from dataclasses import dataclass

import numpy as np

from .constants import NATURAL_UNITS

INTERPOLATIONS = ("linear", "cubic_hermite")
QUADRATURES = ("trapezoid", "simpson")
# bounds the node arrays one quadrature allocates (8 MiB each)
MAX_PANELS = 2**20


def _end_slope(h0, h1, m0, m1):
    """Three-point endpoint slope, limited so the end interval keeps its shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(t, v):
    """Per-interval coefficients (d, c2, c3) of the monotone PCHIP interpolant,
    v = v_i + s (d + s (c2 + s c3)) with s = t - t_i on [t_i, t_i+1].

    Interior slopes are the weighted harmonic mean of the neighbouring
    secants (Fritsch & Butland, SIAM J. Sci. Stat. Comput. 5 (1984) 300),
    zero where they change sign or either is zero, which keeps the
    interpolant monotone between samples (Fritsch & Carlson, SIAM J. Numer.
    Anal. 17 (1980) 238). End slopes use the three-point rule of
    scipy's PchipInterpolator, the reference of the parity test.
    """
    h = np.diff(t)
    m = np.diff(v) / h
    d = np.full(t.size, m[0])  # a two-sample table is the secant line
    if t.size > 2:
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        with np.errstate(all="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    cubic = (d[:-1] + d[1:] - 2.0 * m) / h
    return d[:-1], (m - d[:-1]) / h - cubic, cubic / h


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    velocities: np.ndarray
    interpolation: str = "cubic_hermite"
    constants: object = NATURAL_UNITS

    def __post_init__(self):
        t = np.array(self.times, dtype=float, copy=True)
        v = np.array(self.velocities, dtype=float, copy=True)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("need matching 1-d time and velocity samples (>= 2)")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("sample times and velocities must be finite")
        if t[0] != 0.0:
            raise ValueError(f"first sample must be at t = 0, got {t[0]}")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("sample times must be strictly increasing")
        c = self.constants.c
        if np.any(np.abs(v) >= c):
            raise ValueError(f"superluminal sample: |v| must stay below c = {c}")
        if self.interpolation not in INTERPOLATIONS:
            raise ValueError(f"interpolation must be one of {INTERPOLATIONS}")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "velocities", v)
        # shape-preserving cubic Hermite: stays within the sample range
        spline = _pchip(t, v) if self.interpolation == "cubic_hermite" else None
        object.__setattr__(self, "_spline", spline)

    @property
    def horizon(self):
        return float(self.times[-1])

    def velocity(self, t):
        """Interpolated v(t); raises on out-of-range t or an interpolant >= c."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > self.horizon):
            raise ValueError(f"time outside trajectory range [0, {self.horizon}]")
        if self._spline is None:
            v = np.interp(t, self.times, self.velocities)
        else:
            i = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, self.times.size - 2)
            s = t - self.times[i]
            d, c2, c3 = self._spline
            v = self.velocities[i] + s * (d[i] + s * (c2[i] + s * c3[i]))
        if np.any(np.abs(v) >= self.constants.c):
            raise ValueError("interpolated velocity reached the speed of light")
        return v


def load_trajectory(path, interpolation="cubic_hermite", constants=NATURAL_UNITS):
    """Read `t v` pairs, one per line; blank lines and `#` comments ignored."""
    times, velocities = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected `t v`, got {raw.rstrip()!r}")
            try:
                times.append(float(parts[0]))
                velocities.append(float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not times:
        raise ValueError(f"{path}: no samples")
    return Trajectory(np.array(times), np.array(velocities), interpolation, constants)


def check_quadrature(quadrature, n_panels):
    """Raise ValueError unless `quadrature` with `n_panels` panels is a valid rule."""
    if quadrature not in QUADRATURES:
        raise ValueError(f"quadrature must be one of {QUADRATURES}")
    if not 4 <= n_panels <= MAX_PANELS:
        raise ValueError(f"panel count must lie in [4, {MAX_PANELS}], got {n_panels}")
    if quadrature == "simpson" and n_panels % 2 != 0:
        raise ValueError("Simpson rule needs an even panel count")


def _integrate(values, h, quadrature):
    if quadrature == "trapezoid":
        return h * (0.5 * (values[0] + values[-1]) + np.sum(values[1:-1]))
    return (h / 3.0) * (
        values[0] + values[-1] + 4.0 * np.sum(values[1:-1:2]) + 2.0 * np.sum(values[2:-1:2])
    )


def velocity_of_time(traj, t):
    """dt_s/dt = sqrt(1 - v^2(t)/c^2), the proper-time quadrature's integrand."""
    v = traj.velocity(t)
    return np.sqrt(1.0 - (v / traj.constants.c) ** 2)


def _worldline(traj, rest, times, quadrature, n_panels):
    """Rows (t_s, action, energy_phase, spatial_phase) at each of `times`: one set of
    nodes and one v per time, four integrals on them. One time at a time, so memory
    is one node array however many times are asked for."""
    check_quadrature(quadrature, n_panels)
    c = traj.constants.c
    rows = np.empty((4, len(times)))
    for i, t in enumerate(times):
        v = traj.velocity(np.linspace(0.0, t, n_panels + 1))
        root = np.sqrt(1.0 - (v / c) ** 2)
        energy = rest / root
        h = t / n_panels
        for row, integrand in enumerate((root, -rest * root, energy, energy * (v / c) ** 2)):
            rows[row, i] = _integrate(integrand, h, quadrature)
    return rows


def _rest_energy(traj, particle):
    """E_s of a particle whose phases accumulate along `traj`."""
    if particle.mass <= 0.0:
        raise ValueError("phases along a trajectory require mass > 0")
    if traj.constants != particle.constants:
        raise ValueError("trajectory and particle carry different physical constants")
    return particle.rest_energy


def proper_time_of(traj, t, quadrature="simpson", n_panels=256):
    """t_s(t) by composite quadrature of sqrt(1 - v^2/c^2) over [0, t]."""
    # the proper-time row does not depend on the rest energy
    return float(_worldline(traj, 0.0, [t], quadrature, n_panels)[0, 0])


def action_phase(traj, particle, t, quadrature="simpson", n_panels=256):
    """int_0^t L dt' with L = -E_s sqrt(1 - v^2/c^2); equals -E_s * t_s."""
    rest = _rest_energy(traj, particle)
    return float(_worldline(traj, rest, [t], quadrature, n_panels)[1, 0])


@dataclass(frozen=True)
class FramePhaseResult:
    t_grid: np.ndarray
    proper_time: np.ndarray
    action: np.ndarray
    energy_phase: np.ndarray
    spatial_phase: np.ndarray
    factorization_residual: np.ndarray


def semiclassical_phase(traj, particle, times, quadrature="simpson", n_panels=256):
    """All accumulated phases along the trajectory at each requested time.

    Per output time t: the proper time t_s, the action integral, the
    temporal phase int E(t') dt', and the spatial phase int p v dt'. The
    factorization residual |(-E_s t_s) - (-energy_phase + spatial_phase)|
    is recorded per time; the integrands agree pointwise, so it only
    carries quadrature-node rounding.
    """
    rest = _rest_energy(traj, particle)
    t_grid = np.array(times, dtype=float, copy=True, ndmin=1)
    t_s, act, e_phase, x_phase = _worldline(traj, rest, t_grid, quadrature, n_panels)
    residual = np.abs(-rest * t_s - (-e_phase + x_phase))
    for arr in (t_grid, t_s, act, e_phase, x_phase, residual):
        arr.setflags(write=False)
    return FramePhaseResult(t_grid, t_s, act, e_phase, x_phase, residual)
