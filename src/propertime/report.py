"""Run reports: named checks plus sampled observables, emitted as JSON or CSV.

Reports are deterministic: floats are serialized with repr (shortest
round-trip decimal), orderings are fixed, and no wall-clock data enters
the emitted bytes, so identical scenario + seed gives identical files.
JSON is strict: a non-finite value (nan, +-inf) is written as null, and a
check's verdict stays in its "passed" field. CSV writes such a value as repr
does (nan, inf).
"""

import json
import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    mode: str = "le"  # "le": value <= tolerance passes; "ge": value >= tolerance

    def __post_init__(self):
        if self.mode not in ("le", "ge"):
            raise ValueError(f"mode must be 'le' or 'ge', got {self.mode!r}")

    @property
    def passed(self):
        if self.mode == "le":
            return self.value <= self.tolerance
        return self.value >= self.tolerance


@dataclass
class RunReport:
    scenario: dict
    seed: int
    checks: list
    sample_columns: list = field(default_factory=list)
    samples: list = field(default_factory=list)

    @property
    def passed(self):
        return all(chk.passed for chk in self.checks)

    def sorted_checks(self):
        return sorted(self.checks, key=lambda chk: chk.name)


def _as_float(x):
    """A JSON number, or None (null) for a value strict JSON has no number for."""
    x = float(x)
    return x if math.isfinite(x) else None


def to_json(report):
    doc = {
        "scenario": report.scenario,
        "seed": int(report.seed),
        "checks": [
            {
                "name": chk.name,
                "value": _as_float(chk.value),
                "tolerance": _as_float(chk.tolerance),
                "mode": chk.mode,
                "passed": bool(chk.passed),
            }
            for chk in report.sorted_checks()
        ],
        "samples": {
            "columns": list(report.sample_columns),
            "rows": [[_as_float(v) for v in row] for row in report.samples],
        },
        "passed": bool(report.passed),
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def to_csv(report):
    """One row per sample; header always present, so no samples means header only."""
    lines = [",".join(report.sample_columns)]
    for row in report.samples:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def emit(report, fmt, path):
    if fmt == "json":
        text = to_json(report)
    elif fmt == "csv":
        text = to_csv(report)
    else:
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
