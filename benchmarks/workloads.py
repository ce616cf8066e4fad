"""Workload definitions: the ops each workload cycles through, drawn from a seed.

An op is one `propertime.cli.main` call (or, in cli_mix, one
`python -m propertime.cli` process) on a scenario file this module writes.
The seed draws the scenario order, the `--seed` values, the packet
parameters, the output times and the json/csv alternation; the program only
ever sees the generated files.

Every propagate packet is drawn inside the preconditions the oracle relies
on: with |center| <= 2, 1 <= sigma <= 1.5, |momentum| <= 1.5 and a final
time of 4, the packet stays more than 10 widths from the edges of the
[-32, 32) box (edge amplitude below 1e-12 of the peak), and its momentum
content stays far below the Nyquist momentum pi*hbar/dx (25 at n = 512).

Step counts are set so that the ops of one workload cost about the same
wall time. The median of a mix of ops with very different costs would jump
between kinds from run to run as the mix shifts by one op.
"""

import configparser
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("cli_mix", "propagate_long", "propagate_dense", "checks_suite")

BOX = (-32.0, 32.0)
FINAL_TIME = 4.0

# (kind, n) -> (steps, sample_every): at most 5 samples, every op about as
# costly as the others.
LONG_STEPS = {
    ("schrodinger", 65536): (280, 70),
    ("relativistic_sqrt", 65536): (300, 75),
    ("dirac_1d", 65536): (180, 45),
    ("schrodinger", 1 << 20): (4, 4),
    ("relativistic_sqrt", 1 << 20): (6, 6),
    ("dirac_1d", 1 << 20): (1, 1),
}
# (kind, n) -> steps, each sampled; every op about as costly as the others.
DENSE_STEPS = {
    ("schrodinger", 512): 2000,
    ("relativistic_sqrt", 512): 2000,
    ("dirac_1d", 512): 900,
    ("schrodinger", 4096): 500,
    ("relativistic_sqrt", 4096): 500,
    ("dirac_1d", 4096): 300,
}
VERIFY_SIZES = (512, 4096, 16384)
FRAME_PANELS = 4096
FRAME_TIMES = 64


@dataclass(frozen=True)
class Op:
    """One op: the CLI arguments plus what the oracle needs to judge its output."""

    key: str  # same key = same scenario, seed and format, so same bytes
    command: str  # verify | propagate | frame
    scenario: str
    seed: int
    fmt: str
    out: str
    oracle: dict = field(default_factory=dict)
    nodes: int = 0  # grid size of a propagate op
    quadrature_nodes: int = 0  # output times x (panels + 1) of a frame op

    def argv(self):
        return [
            self.command, self.scenario, "--seed", str(self.seed),
            "--format", self.fmt, "--out", self.out, "--quiet",
        ]


def _write(path, sections):
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in items.items())
        lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _header(name, kind):
    return {
        "scenario": {"name": name, "kind": kind, "seed": 42},
        "constants": {"hbar": 1.0, "c": 1.0},
    }


def _propagate_op(rng, inputs, out_dir, kind, n, steps, sample_every, fmt, tag):
    center = rng.uniform(-2.0, 2.0)
    sigma = rng.uniform(1.0, 1.5)
    momentum = rng.uniform(-1.5, 1.5)
    dt = FINAL_TIME / steps
    name = f"{tag}-{kind}-n{n}"
    path = os.path.join(inputs, f"{name}.cfg")
    sections = _header(name, "propagate")
    sections.update({
        "grid": {"n": n, "x_min": repr(BOX[0]), "x_max": repr(BOX[1])},
        "particle": {"mass": 1.0},
        "propagator": {"kind": kind, "dt": repr(dt), "steps": steps, "sample_every": sample_every},
        "initial": {"center": repr(center), "sigma": repr(sigma), "momentum": repr(momentum)},
    })
    _write(path, sections)
    oracle = {
        "type": "propagate", "kind": kind, "n": n, "x_min": BOX[0], "x_max": BOX[1],
        "hbar": 1.0, "c": 1.0, "mass": 1.0, "dt": dt, "steps": steps,
        "sample_every": sample_every, "center": center, "sigma": sigma, "momentum": momentum,
    }
    seed = rng.randrange(1, 2**31)
    key = f"{name}-{fmt}"
    return Op(key, "propagate", path, seed, fmt, os.path.join(out_dir, f"{key}.{fmt}"),
              oracle, nodes=n)


def _frame_op(rng, inputs, out_dir, traj, interpolation, quadrature, fmt, tag):
    times = sorted(rng.uniform(0.0, 1.0) for _ in range(FRAME_TIMES))
    name = f"{tag}-{interpolation}-{quadrature}"
    path = os.path.join(inputs, f"{name}.cfg")
    sections = _header(name, "frame")
    sections.update({
        "particle": {"mass": 1.0},
        "trajectory": {
            "path": traj, "interpolation": interpolation, "quadrature": quadrature,
            "panels": FRAME_PANELS, "times": " ".join(repr(t) for t in times),
        },
    })
    _write(path, sections)
    key = f"{name}-{fmt}"
    return Op(key, "frame", path, rng.randrange(1, 2**31), fmt,
              os.path.join(out_dir, f"{key}.{fmt}"),
              {"type": "tanh_frame", "interpolation": interpolation, "mass": 1.0, "c": 1.0},
              quadrature_nodes=FRAME_TIMES * (FRAME_PANELS + 1))


def _shipped(path):
    """(oracle parameters, quadrature nodes) of a shipped scenario, read without propertime."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cfg.read(path, encoding="utf-8")
    kind = cfg["scenario"]["kind"]
    if kind == "propagate":
        grid, prop, init = cfg["grid"], cfg["propagator"], cfg["initial"]
        return {
            "type": "propagate", "kind": prop["kind"], "n": int(grid["n"]),
            "x_min": float(grid["x_min"]), "x_max": float(grid["x_max"]),
            "hbar": float(cfg["constants"]["hbar"]), "c": float(cfg["constants"]["c"]),
            "mass": float(cfg["particle"]["mass"]), "dt": float(prop["dt"]),
            "steps": int(prop["steps"]), "sample_every": int(prop["sample_every"]),
            "center": float(init["center"]), "sigma": float(init["sigma"]),
            "momentum": float(init["momentum"]),
        }, 0
    if kind == "frame":
        traj = cfg["trajectory"]
        if os.path.basename(traj["path"]) != "tanh.traj":
            raise ValueError(f"{path}: the frame oracle only knows tanh.traj")
        nodes = len(traj["times"].split()) * (int(traj.get("panels", "256")) + 1)
        return {"type": "tanh_frame", "interpolation": traj["interpolation"],
                "mass": float(cfg["particle"]["mass"]), "c": float(cfg["constants"]["c"])}, nodes
    return {}, 0


def build(workload, seed, root, work):
    """Write the workload's scenario files under `work`; return its op cycle."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    scenarios = os.path.join(root, "scenarios")
    inputs = os.path.join(work, "inputs")
    out_dir = os.path.join(work, "out")
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    ops = []

    if workload == "cli_mix":
        for fname, command in (("verify.cfg", "verify"),
                               ("propagate_schrodinger.cfg", "propagate"),
                               ("frame_tanh.cfg", "frame")):
            path = os.path.join(scenarios, fname)
            spec, nodes = _shipped(path)
            first = rng.choice(("json", "csv"))
            for fmt in (first, "csv" if first == "json" else "json"):
                run_seed = rng.randrange(1, 2**31)
                key = f"{command}-{run_seed}-{fmt}"
                ops.append(Op(key, command, path, run_seed, fmt,
                              os.path.join(out_dir, f"{key}.{fmt}"), spec,
                              quadrature_nodes=nodes))

    elif workload == "propagate_long":
        for (kind, n), (steps, sample_every) in LONG_STEPS.items():
            ops.append(_propagate_op(rng, inputs, out_dir, kind, n, steps, sample_every,
                                     rng.choice(("json", "csv")), "long"))

    elif workload == "propagate_dense":
        for (kind, n), steps in DENSE_STEPS.items():
            for fmt in ("json", "csv"):
                ops.append(_propagate_op(rng, inputs, out_dir, kind, n, steps, 1, fmt,
                                         f"dense-{fmt}"))

    else:  # checks_suite
        for n in VERIFY_SIZES:
            name = f"checks-verify-n{n}"
            path = os.path.join(inputs, f"{name}.cfg")
            sections = _header(name, "verify")
            sections.update({
                "grid": {"n": n, "x_min": repr(BOX[0]), "x_max": repr(BOX[1])},
                "particle": {"mass": 1.0},
                "verify": {"reference_time": 2.0},
            })
            _write(path, sections)
            for _ in range(2):
                run_seed = rng.randrange(1, 2**31)
                key = f"{name}-{run_seed}"
                # JSON only: a CSV report has no check list, so the known
                # failure could not be told apart from another failing check
                ops.append(Op(key, "verify", path, run_seed, "json",
                              os.path.join(out_dir, f"{key}.json")))
        shipped = os.path.join(scenarios, "frame_tanh.cfg")
        spec, nodes = _shipped(shipped)
        fmt = rng.choice(("json", "csv"))
        ops.append(Op(f"checks-frame-shipped-{fmt}", "frame", shipped, rng.randrange(1, 2**31),
                      fmt, os.path.join(out_dir, f"checks-frame-shipped.{fmt}"), spec,
                      quadrature_nodes=nodes))
        # Five cubic_hermite/simpson ops (separate output-time draws) per cycle:
        # sorted by cost, four ops lie below them and four above, so the median
        # falls in the middle of one group of like ops, not between two groups.
        traj = os.path.join(scenarios, "tanh.traj")
        variants = [("cubic_hermite", "simpson")] * 5 + [("linear", "trapezoid")]
        for i, (interpolation, quadrature) in enumerate(variants):
            ops.append(_frame_op(rng, inputs, out_dir, traj, interpolation, quadrature,
                                 rng.choice(("json", "csv")), f"checks{i}"))

    rng.shuffle(ops)
    return ops
