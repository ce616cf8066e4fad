"""Scenario files: sectioned key = value text, validated before any computation.

Three scenario kinds share a [scenario] and a [constants] section:

  verify     [grid] [particle] [verify]        derivation-check suite
  propagate  [grid] [particle] [propagator] [initial]   wavepacket evolution
  frame      [particle] [trajectory]           proper-time / phase series

Validation is fail-fast: every referenced file must exist and parse, every
number must be in range, before run() touches any physics.
"""

import configparser
import math
import os
from dataclasses import dataclass, field

from .constants import PhysicalConstants
from .frames import Trajectory, check_quadrature, load_trajectory
from .grid import make_grid
from .operators import ParticleSpec
from .propagators import PropagatorKind


class ScenarioError(ValueError):
    """Invalid scenario file or scenario contents."""


KINDS = ("verify", "propagate", "frame")

# bounds the rows a propagate report holds (5 floats each, in memory and on disk)
MAX_SAMPLES = 2**20

PROPAGATOR_NAMES = {
    "schrodinger": PropagatorKind.SCHRODINGER,
    "relativistic_sqrt": PropagatorKind.RELATIVISTIC_SQRT,
    "dirac_1d": PropagatorKind.DIRAC_1D,
}


@dataclass(frozen=True)
class GridParams:
    n: int = 512
    x_min: float = -32.0
    x_max: float = 32.0


@dataclass(frozen=True)
class InitialPacket:
    center: float = 0.0
    sigma: float = 1.0
    momentum: float = 0.0


@dataclass(frozen=True)
class VerifyParams:
    grid: GridParams = field(default_factory=GridParams)
    mass: float = 1.0
    reference_time: float = 2.0


@dataclass(frozen=True)
class PropagateParams:
    grid: GridParams
    mass: float
    kind: PropagatorKind
    dt: float
    steps: int
    sample_every: int
    initial: InitialPacket


@dataclass(frozen=True)
class FrameParams:
    mass: float
    trajectory_path: str
    trajectory: Trajectory
    quadrature: str
    panels: int
    times: tuple


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    constants: PhysicalConstants
    seed: int
    params: object
    path: str = ""


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)  # _fetch names the key
    return value


class _Section:
    """Typed access to one config section with key-level diagnostics."""

    def __init__(self, parser, name, path):
        self.name = name
        self.path = path
        self.data = dict(parser[name]) if parser.has_section(name) else {}
        self.present = parser.has_section(name)

    def _fetch(self, key, cast, default):
        if key not in self.data:
            if default is not None:
                return default
            raise ScenarioError(f"{self.path}: missing key [{self.name}] {key}")
        try:
            return cast(self.data[key])
        except ValueError:
            raise ScenarioError(
                f"{self.path}: bad value for [{self.name}] {key}: {self.data[key]!r}"
            ) from None

    def get_float(self, key, default=None):
        return self._fetch(key, _finite_float, default)

    def get_int(self, key, default=None):
        return self._fetch(key, int, default)

    def get_str(self, key, default=None):
        return self._fetch(key, str, default)

    def get_floats(self, key, default=None):
        return self._fetch(key, lambda s: tuple(map(_finite_float, s.split())), default)


def _require_positive(path, label, value):
    if not value > 0:
        raise ScenarioError(f"{path}: {label} must be positive, got {value}")
    return value


def _parse_grid(section, path):
    n = section.get_int("n", 512)
    x_min = section.get_float("x_min", -32.0)
    x_max = section.get_float("x_max", 32.0)
    params = GridParams(n, x_min, x_max)
    try:
        make_grid(params.n, params.x_min, params.x_max)
    except ValueError as exc:
        raise ScenarioError(f"{path}: [grid] {exc}") from None
    return params


def _parse_mass(section, path, require_positive=False):
    mass = section.get_float("mass", 1.0)
    if mass < 0 or (require_positive and mass == 0):
        bound = "positive" if require_positive else "nonnegative"
        raise ScenarioError(f"{path}: [particle] mass must be {bound}, got {mass}")
    return mass


def parse_scenario(path):
    """Parse and fully validate a scenario file; raises ScenarioError on any defect."""
    if not os.path.exists(path):
        raise ScenarioError(f"scenario file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from None

    scenario = _Section(parser, "scenario", path)
    if not scenario.present:
        raise ScenarioError(f"{path}: missing [scenario] section")
    name = scenario.get_str("name")
    kind = scenario.get_str("kind")
    if kind not in KINDS:
        raise ScenarioError(f"{path}: [scenario] kind must be one of {KINDS}, got {kind!r}")
    seed = scenario.get_int("seed", 42)

    const = _Section(parser, "constants", path)
    hbar = _require_positive(path, "[constants] hbar", const.get_float("hbar", 1.0))
    c = _require_positive(path, "[constants] c", const.get_float("c", 1.0))
    constants = PhysicalConstants(hbar, c)

    particle = _Section(parser, "particle", path)

    if kind == "verify":
        verify = _Section(parser, "verify", path)
        params = VerifyParams(
            grid=_parse_grid(_Section(parser, "grid", path), path),
            mass=_parse_mass(particle, path, require_positive=True),
            reference_time=_require_positive(
                path, "[verify] reference_time", verify.get_float("reference_time", 2.0)
            ),
        )
    elif kind == "propagate":
        prop = _Section(parser, "propagator", path)
        if not prop.present:
            raise ScenarioError(f"{path}: propagate scenario needs a [propagator] section")
        kind_name = prop.get_str("kind")
        if kind_name not in PROPAGATOR_NAMES:
            raise ScenarioError(
                f"{path}: [propagator] kind must be one of "
                f"{tuple(PROPAGATOR_NAMES)}, got {kind_name!r}"
            )
        pkind = PROPAGATOR_NAMES[kind_name]
        mass = _parse_mass(particle, path, require_positive=(pkind is PropagatorKind.SCHRODINGER))
        init = _Section(parser, "initial", path)
        sigma = _require_positive(path, "[initial] sigma", init.get_float("sigma", 1.0))
        params = PropagateParams(
            grid=_parse_grid(_Section(parser, "grid", path), path),
            mass=mass,
            kind=pkind,
            dt=_require_positive(path, "[propagator] dt", prop.get_float("dt")),
            steps=_require_positive(path, "[propagator] steps", prop.get_int("steps")),
            sample_every=_require_positive(
                path, "[propagator] sample_every", prop.get_int("sample_every", 1)
            ),
            initial=InitialPacket(
                center=init.get_float("center", 0.0),
                sigma=sigma,
                momentum=init.get_float("momentum", 0.0),
            ),
        )
        rows = params.steps // params.sample_every + 1
        if rows > MAX_SAMPLES:
            raise ScenarioError(f"{path}: [propagator] {rows} sample rows, above {MAX_SAMPLES}")
    else:
        traj = _Section(parser, "trajectory", path)
        if not traj.present:
            raise ScenarioError(f"{path}: frame scenario needs a [trajectory] section")
        # the report echoes the path as written: the same wherever the scenario lies
        written_path = traj.get_str("path")
        traj_path = os.path.join(os.path.dirname(os.path.abspath(path)), written_path)
        if not os.path.exists(traj_path):
            raise ScenarioError(f"{path}: trajectory file not found: {traj_path}")
        interpolation = traj.get_str("interpolation", "cubic_hermite")
        quadrature = traj.get_str("quadrature", "simpson")
        panels = traj.get_int("panels", 256)
        times = traj.get_floats("times")
        if not times:
            raise ScenarioError(f"{path}: [trajectory] times must list at least one value")
        # fail fast: check the rule, parse the trajectory and bound the output times now
        try:
            check_quadrature(quadrature, panels)
            loaded = load_trajectory(traj_path, interpolation, constants)
        except ValueError as exc:
            raise ScenarioError(f"{path}: [trajectory] {exc}") from None
        if any(t < 0 or t > loaded.horizon for t in times):
            raise ScenarioError(
                f"{path}: [trajectory] times must lie within [0, {loaded.horizon}]"
            )
        params = FrameParams(
            mass=_parse_mass(particle, path, require_positive=True),
            trajectory_path=written_path,
            trajectory=loaded,
            quadrature=quadrature,
            panels=panels,
            times=times,
        )

    return Scenario(name, kind, constants, seed, params, path)


def particle_from(scenario):
    mass = scenario.params.mass
    return ParticleSpec(mass, scenario.constants)
