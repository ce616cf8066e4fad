"""Benchmark-side oracle: closed-form values for propagate and frame rows.

Everything here is plain numpy and independent of propertime, so a defect in
the program cannot hide in a shared helper.

Propagate: every Hamiltonian is diagonal in momentum, so the state at a
sample time t is exactly exp(-i H(p) t / hbar) applied to the initial packet:
a phase exp(-i E(p) t / hbar) for the scalar kinds and
cos(theta) I - i sin(theta) H/E, theta = E t / hbar, with
H = c p sigma_x + m c^2 sigma_z, for the two-spinor Dirac kind. The moments
are then taken as the report defines them (box-normalized densities on the
periodic grid).

Frame: for tanh.traj (v = c tanh(a t / c) with a = c = 1) the proper time is
t_s = 2 atan(tanh(t / 2)), dt_s/dt = sech(t), the action -m c^2 t_s, the
temporal phase m sinh(t) and the spatial phase m (sinh(t) - t_s).

Tolerances, and why:

- Propagate rows, 1e-9 absolute on norm, x_mean, p_mean and width. The
  program steps one exact multiplier at a time; its rows differ from the
  closed form only by rounding that grows with the step count (measured at
  most 5e-14 over 2,000 steps). A wrong dispersion, sign or step size moves
  these moments by far more than 1e-9 at the drawn packets.
- Sample times, 1e-12 relative: the program computes them as k * dt.
- Frame rows with cubic_hermite interpolation, 1e-10 absolute: Simpson's
  error at 256 panels is about 1e-12 and the PCHIP interpolation error at
  the table spacing 2^-12 is below 1e-12; measured error 1e-12.
- Frame rows with linear interpolation, 1e-7 absolute: the linear
  interpolation error h^2/8 max|v''| with h = 2^-12 is about 6e-9, and the
  trapezoid error at 4,096 panels is of the same order; measured 5e-9.
"""

import numpy as np

PROPAGATE_TOL = 1e-9
TIME_RTOL = 1e-12
FRAME_TOL = {"cubic_hermite": 1e-10, "linear": 1e-7}

PROPAGATE_COLUMNS = ["t", "norm", "x_mean", "p_mean", "width"]
FRAME_COLUMNS = ["t", "proper_time", "velocity_of_time", "action", "energy_phase",
                 "spatial_phase", "factorization_residual"]


def _initial_components(spec):
    n = spec["n"]
    hbar, c, mass = spec["hbar"], spec["c"], spec["mass"]
    length = spec["x_max"] - spec["x_min"]
    dx = length / n
    x = spec["x_min"] + dx * np.arange(n)
    p = (2.0 * np.pi * hbar / length) * np.fft.fftfreq(n, d=1.0 / n)
    x0, sigma, p0 = spec["center"], spec["sigma"], spec["momentum"]
    envelope = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * p0 * (x - x0) / hbar)
    if spec["kind"] == "dirac_1d":
        rest = mass * c**2
        energy = np.sqrt(rest**2 + (p0 * c) ** 2)
        upper, lower = energy + rest, p0 * c
        comps = [upper * envelope, lower * envelope]
    else:
        comps = [envelope]
    scale = np.sqrt(sum(np.sum(np.abs(comp) ** 2) for comp in comps) * dx)
    return x, p, dx, [comp / scale for comp in comps]


def _evolve(spec, p, spectra, t):
    """Spectra at the times t (a column), one row per time."""
    hbar, c, mass = spec["hbar"], spec["c"], spec["mass"]
    rest = mass * c**2
    kind = spec["kind"]
    if kind == "schrodinger":
        return [np.exp(-1j * (p**2 / (2.0 * mass)) * t / hbar) * spectra[0]]
    energy = np.sqrt(rest**2 + (p * c) ** 2)
    if kind == "relativistic_sqrt":
        return [np.exp(-1j * energy * t / hbar) * spectra[0]]
    theta = energy * t / hbar
    cos_t = np.cos(theta)
    sinc = np.sin(theta) / energy  # energy >= m c^2 > 0
    up, lo = spectra
    return [
        (cos_t - 1j * sinc * rest) * up - 1j * sinc * c * p * lo,
        -1j * sinc * c * p * up + (cos_t + 1j * sinc * rest) * lo,
    ]


def propagate_rows(spec):
    """Closed-form rows [t, norm, x_mean, p_mean, width] at every sample time."""
    x, p, dx, comps = _initial_components(spec)
    spectra = [np.fft.fft(comp) for comp in comps]
    steps, every, dt = spec["steps"], spec["sample_every"], spec["dt"]
    times = np.array([0, *range(every, steps + 1, every)]) * dt
    chunk = max(1, (1 << 18) // spec["n"])  # bounds the (times x n) arrays to 4 MiB each
    rows = []
    for lo in range(0, times.size, chunk):
        t = times[lo:lo + chunk, None]
        evolved = _evolve(spec, p, spectra, t)
        rho_x = sum(np.abs(np.fft.ifft(comp, axis=-1)) ** 2 for comp in evolved) * dx
        rho_p = sum(np.abs(comp) ** 2 for comp in evolved)
        n2 = np.sum(rho_x, axis=-1)
        x_mean = np.sum(x * rho_x, axis=-1) / n2
        p_mean = np.sum(p * rho_p, axis=-1) / np.sum(rho_p, axis=-1)
        width = np.sqrt(np.sum((x - x_mean[:, None]) ** 2 * rho_x, axis=-1) / n2)
        rows.append(np.column_stack([t[:, 0], np.sqrt(n2), x_mean, p_mean, width]))
    return np.concatenate(rows)


def tanh_frame_rows(spec, t):
    """Closed-form frame columns (without the residual) at times t for tanh.traj."""
    t = np.asarray(t, dtype=float)
    rest = spec["mass"] * spec["c"] ** 2
    t_s = 2.0 * np.arctan(np.tanh(t / 2.0))
    return np.column_stack([t, t_s, 1.0 / np.cosh(t), -rest * t_s,
                            spec["mass"] * np.sinh(t), spec["mass"] * (np.sinh(t) - t_s)])


def disagreement(spec, columns, rows):
    """None if the rows agree with the oracle; otherwise a one-line reason."""
    rows = np.asarray(rows, dtype=float)
    if spec["type"] == "propagate":
        if columns != PROPAGATE_COLUMNS:
            return f"unexpected columns {columns}"
        want = propagate_rows(spec)
        if rows.shape != want.shape:
            return f"{rows.shape[0]} sample rows, expected {want.shape[0]}"
        if not np.allclose(rows[:, 0], want[:, 0], rtol=TIME_RTOL, atol=0.0):
            return "sample times differ from k * dt"
        worst = float(np.max(np.abs(rows[:, 1:] - want[:, 1:])))
        if not worst <= PROPAGATE_TOL:
            return f"propagate rows off the closed form by {worst:.3e} > {PROPAGATE_TOL:.0e}"
        return None
    if spec["type"] == "tanh_frame":
        if columns != FRAME_COLUMNS:
            return f"unexpected columns {columns}"
        if rows.size == 0:
            return "no frame rows"
        want = tanh_frame_rows(spec, rows[:, 0])
        tol = FRAME_TOL[spec["interpolation"]]
        worst = float(np.max(np.abs(rows[:, 1:6] - want[:, 1:6])))
        if not worst <= tol:
            return f"frame rows off the tanh closed form by {worst:.3e} > {tol:.0e}"
        return None
    raise ValueError(f"unknown oracle type {spec['type']!r}")
