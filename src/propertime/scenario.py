"""Scenario files: sectioned key = value text, parsed once into the run's objects.

Three scenario kinds share a [scenario] and a [constants] section:

  verify     [grid] [particle] [verify]        derivation-check suite
  propagate  [grid] [particle] [propagator] [initial]   wavepacket evolution
  frame      [particle] [trajectory]           proper-time / phase series

Parsing is fail-fast: every referenced file must exist and parse, every
number must be in range and every key and section must be one the kind
reads, before run() touches any physics. The constants,
grid, particle, propagator and trajectory are built here by their own types,
which own their rules; a rule they reject is reported against its section.
Every value read, defaults included, is recorded in reading order as the
scenario echo that heads the report. This is the one module that knows the
file's schema.
"""

import configparser
import math
import os
from dataclasses import dataclass

from .constants import PhysicalConstants
from .frames import Trajectory, check_quadrature, load_trajectory
from .grid import SpatialGrid, make_grid
from .operators import ParticleSpec
from .propagators import PropagatorKind, PropagatorSpec


class ScenarioError(ValueError):
    """Invalid scenario file or scenario contents."""


KINDS = ("verify", "propagate", "frame")

# bounds the rows a propagate or frame report holds (5 or 7 floats each, in memory
# and on disk)
MAX_SAMPLES = 2**20

# bounds the work of a frame run: its quadrature nodes, output times x (panels + 1)
MAX_QUADRATURE_NODES = 2**28

# sections whose keys the echo lists at its top level; the others nest under their name
FLAT_SECTIONS = ("scenario", "particle", "verify")


@dataclass(frozen=True)
class InitialPacket:
    center: float
    sigma: float
    momentum: float


@dataclass(frozen=True)
class VerifyParams:
    grid: SpatialGrid
    particle: ParticleSpec
    reference_time: float


@dataclass(frozen=True)
class PropagateParams:
    grid: SpatialGrid
    spec: PropagatorSpec
    steps: int
    sample_every: int
    initial: InitialPacket


@dataclass(frozen=True)
class FrameParams:
    particle: ParticleSpec
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
    echo: dict


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)  # _fetch names the key
    return value


class _Section:
    """Typed access to one config section with key-level diagnostics.

    Each value returned, defaults included, is recorded in `echo`, and each
    (section, key) asked for in `read`.
    """

    def __init__(self, parser, name, path, echo, read):
        self.name = name
        self.path = path
        self.data = dict(parser[name]) if parser.has_section(name) else {}
        self.present = parser.has_section(name)
        self.echo = echo
        self.read = read

    def _fetch(self, key, cast, default):
        self.read.add((self.name, key))
        if key in self.data:
            try:
                value = cast(self.data[key])
            except ValueError:
                raise ScenarioError(
                    f"{self.path}: bad value for [{self.name}] {key}: {self.data[key]!r}"
                ) from None
        elif default is not None:
            value = default
        else:
            raise ScenarioError(f"{self.path}: missing key [{self.name}] {key}")
        flat = self.name in FLAT_SECTIONS
        (self.echo if flat else self.echo.setdefault(self.name, {}))[key] = value
        return value

    def get_float(self, key, default=None):
        return self._fetch(key, _finite_float, default)

    def get_int(self, key, default=None):
        return self._fetch(key, int, default)

    def get_str(self, key, default=None):
        return self._fetch(key, str, default)

    def get_floats(self, key, default=None):
        return self._fetch(key, lambda s: tuple(map(_finite_float, s.split())), default)

    def build(self, factory, *args):
        """factory(*args), with a ValueError it raises reported against this section."""
        try:
            return factory(*args)
        except ValueError as exc:
            raise ScenarioError(f"{self.path}: [{self.name}] {exc}") from None


def _require_positive(path, label, value):
    if not value > 0:
        raise ScenarioError(f"{path}: {label} must be positive, got {value}")
    return value


def _parse_grid(section, constants):
    n = section.get_int("n", 512)
    x_min = section.get_float("x_min", -32.0)
    x_max = section.get_float("x_max", 32.0)
    return section.build(make_grid, n, x_min, x_max, constants)


def _parse_particle(section, constants, require_positive):
    mass = section.get_float("mass", 1.0)
    if require_positive:
        _require_positive(section.path, "[particle] mass", mass)
    return section.build(ParticleSpec, mass, constants)


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
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc.strerror}") from None

    echo = {}
    read = set()

    def section(name):
        return _Section(parser, name, path, echo, read)

    scenario = section("scenario")
    if not scenario.present:
        raise ScenarioError(f"{path}: missing [scenario] section")
    name = scenario.get_str("name")
    kind = scenario.get_str("kind")
    if kind not in KINDS:
        raise ScenarioError(f"{path}: [scenario] kind must be one of {KINDS}, got {kind!r}")
    seed = scenario.get_int("seed", 42)
    del echo["seed"]  # the report carries the seed it ran with, which --seed may override

    const = section("constants")
    hbar, c = const.get_float("hbar", 1.0), const.get_float("c", 1.0)
    constants = const.build(PhysicalConstants, hbar, c)

    if kind == "verify":
        grid = _parse_grid(section("grid"), constants)
        particle = _parse_particle(section("particle"), constants, require_positive=True)
        reference_time = section("verify").get_float("reference_time", 2.0)
        params = VerifyParams(
            grid, particle, _require_positive(path, "[verify] reference_time", reference_time)
        )
    elif kind == "propagate":
        grid = _parse_grid(section("grid"), constants)
        particle = _parse_particle(section("particle"), constants, require_positive=False)
        prop = section("propagator")
        if not prop.present:
            raise ScenarioError(f"{path}: propagate scenario needs a [propagator] section")
        kind_name = prop.get_str("kind")
        try:
            propagator = PropagatorKind(kind_name)
        except ValueError:
            raise ScenarioError(
                f"{path}: [propagator] kind must be one of "
                f"{tuple(k.value for k in PropagatorKind)}, got {kind_name!r}"
            ) from None
        dt = prop.get_float("dt")
        spec = prop.build(PropagatorSpec, propagator, particle, dt)
        steps = _require_positive(path, "[propagator] steps", prop.get_int("steps"))
        sample_every = _require_positive(
            path, "[propagator] sample_every", prop.get_int("sample_every", 1)
        )
        rows = steps // sample_every + 1
        if rows > MAX_SAMPLES:
            raise ScenarioError(f"{path}: [propagator] {rows} sample rows, above {MAX_SAMPLES}")
        init = section("initial")
        initial = InitialPacket(
            center=init.get_float("center", 0.0),
            sigma=_require_positive(path, "[initial] sigma", init.get_float("sigma", 1.0)),
            momentum=init.get_float("momentum", 0.0),
        )
        params = PropagateParams(grid, spec, steps, sample_every, initial)
    else:
        particle = _parse_particle(section("particle"), constants, require_positive=True)
        traj = section("trajectory")
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
        if len(times) > MAX_SAMPLES:
            raise ScenarioError(
                f"{path}: [trajectory] {len(times)} output times, above {MAX_SAMPLES}"
            )
        # fail fast: check the rule and bound its work, parse the trajectory and bound
        # the output times now
        traj.build(check_quadrature, quadrature, panels)
        nodes = len(times) * (panels + 1)
        if nodes > MAX_QUADRATURE_NODES:
            raise ScenarioError(
                f"{path}: [trajectory] {len(times)} times x {panels + 1} nodes is "
                f"{nodes} quadrature nodes, above {MAX_QUADRATURE_NODES}"
            )
        try:
            loaded = traj.build(load_trajectory, traj_path, interpolation, constants)
        except OSError as exc:
            raise ScenarioError(
                f"{path}: cannot read trajectory file {traj_path}: {exc.strerror}"
            ) from None
        if any(t < 0 or t > loaded.horizon for t in times):
            raise ScenarioError(
                f"{path}: [trajectory] times must lie within [0, {loaded.horizon}]"
            )
        params = FrameParams(particle, written_path, loaded, quadrature, panels, times)

    # every section the kind asks for has a key read, present or not
    sections_read = {section_name for section_name, _ in read}
    for section_name in parser.sections():
        if section_name not in sections_read:
            raise ScenarioError(
                f"{path}: unknown section [{section_name}] for a {kind} scenario"
            )
        for key in parser[section_name]:
            if (section_name, key) not in read:
                raise ScenarioError(
                    f"{path}: unknown key [{section_name}] {key} for a {kind} scenario"
                )

    return Scenario(name, kind, constants, seed, params, echo)
