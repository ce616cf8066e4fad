"""Parity of the numpy PCHIP interpolant in `Trajectory` with scipy's.

scipy is a test-only dependency (`pip install -e .[test]`); without it this
module is skipped. Both sides share the slope rule, so they differ only by
evaluation rounding: the bound is |dv| <= 1e-14 c.
"""

from pathlib import Path

import numpy as np
import pytest

interpolate = pytest.importorskip("scipy.interpolate")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from propertime import PhysicalConstants, Trajectory, load_trajectory  # noqa: E402

TANH = Path(__file__).resolve().parent.parent / "scenarios" / "tanh.traj"


def probe_times(t, rng):
    """Every node (the horizon included), every midpoint, random interior points."""
    mids = 0.5 * (t[1:] + t[:-1])
    return np.concatenate([t, mids, rng.uniform(0.0, t[-1], size=64)])


def assert_parity(t, v, c=1.0, seed=0):
    traj = Trajectory(t, v, "cubic_hermite", PhysicalConstants(c=c))
    x = probe_times(traj.times, np.random.default_rng(seed))
    ours = traj.velocity(x)
    ref = interpolate.PchipInterpolator(traj.times, traj.velocities)(x)
    assert np.max(np.abs(ours - ref)) <= 1e-14 * c


def test_tanh_table_parity():
    traj = load_trajectory(TANH)
    assert_parity(traj.times, traj.velocities)


@pytest.mark.parametrize(
    "t, v",
    [
        ([0.0, 2.0], [0.1, 0.7]),  # two points: the secant at both ends
        ([0.0, 2.0], [0.4, 0.4]),
        ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.3, 0.3, 0.3, 0.5, 0.5, 0.2]),  # flat runs
        ([0.0, 0.5, 0.6, 2.0, 2.1, 4.0], [0.0, 0.8, -0.8, 0.8, -0.8, 0.0]),  # turning
        ([0.0, 0.1, 3.0, 3.2], [0.0, 0.9, 0.85, -0.2]),  # uneven spacing
        ([0.0, 1.0, 2.0], [0.0, 0.5, 0.0]),  # three points: the endpoint rule only
    ],
)
def test_fixed_table_parity(t, v):
    assert_parity(np.array(t), np.array(v))


def test_parity_scales_with_c():
    t = np.linspace(0.0, 3.0, 13)
    assert_parity(t, 2.5 * np.sin(3.0 * t), c=3.0)


@st.composite
def tables(draw):
    size = draw(st.integers(min_value=2, max_value=40))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=size - 1, max_size=size - 1))
    # repeated values give ties and flat runs; free values give turning tables
    value = st.one_of(st.floats(-0.9, 0.9), st.sampled_from([-0.5, 0.0, 0.5]))
    velocities = draw(st.lists(value, min_size=size, max_size=size))
    return np.concatenate([[0.0], np.cumsum(steps)]), np.array(velocities)


# scipy warns where a secant is so small that w / m overflows; both sides set d = 0 there
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(tables(), st.integers(0, 2**32 - 1))
def test_random_table_parity(table, seed):
    t, v = table
    assert_parity(t, v, seed=seed)
