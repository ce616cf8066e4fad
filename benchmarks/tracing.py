"""Outside-in tracing: spans around the calls between propertime's modules.

The traced functions are the module interfaces: every public function that
one propertime module imports from another, plus `cli.main`, the entry
point. `install` replaces every binding of those functions, in every module
namespace, with a wrapper, so each call is recorded under the name its
caller imported (`propertime.runner.step_dirac`, `propertime.cli.parse_scenario`,
`propertime.report.to_json` as `emit` calls it, ...). Spans are aggregated
under the defining function, e.g. `propagators.step_dirac`. A public
function no other module imports (`runner.run_propagate`, `grid.norm`)
stays inside its caller's self time. No file under src/ changes;
`uninstall` puts the original bindings back.

Spans (name, start, end, parent, op id) are kept in memory and written once,
at the end of the run. A span's self time is its duration minus the time
its child spans cover; calls are single-threaded, so children never overlap.
"""

import importlib
import time
import types
from collections import Counter, defaultdict

MODULES = ("cli", "scenario", "runner", "report", "grid", "operators", "propagators",
           "kernels", "frames")


def public_functions():
    """(module, attribute, function) for every binding of a traced function."""
    bindings = []
    for short in MODULES:
        module = importlib.import_module(f"propertime.{short}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith("propertime.")):
                bindings.append((module, attr, obj))
    imported = {fn for module, _, fn in bindings if fn.__module__ != module.__name__}
    return [(module, attr, fn) for module, attr, fn in bindings
            if fn in imported or label(fn) == "cli.main"]


def label(fn):
    """Metric name of a propertime function: defining module, then function name."""
    return f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.names = []  # name id -> "module.function"
        self.spans = []  # (op, parent span, name id, start, end); parent -1 for a root
        self.errors = Counter()  # module -> exceptions that escaped its public calls
        self.op = -1
        self._ids = {}
        self._stack = []
        self._bindings = []  # (module, attribute, original, wrapper)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        name_id = self._name_id(name)
        module = name.split(".", 1)[0]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.op, parent, name_id, start, end)

        return traced

    def install(self):
        """Put a wrapper on every public propertime function binding."""
        if not self._bindings:
            wrappers = {}
            for module, attr, fn in public_functions():
                if fn not in wrappers:
                    wrappers[fn] = self.wrap(label(fn), fn)
                self._bindings.append((module, attr, fn, wrappers[fn]))
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn, _ in self._bindings:
            setattr(module, attr, fn)

    def absorb(self, names, spans, errors, op):
        """Append the spans another process recorded, as op `op`."""
        offset = len(self.spans)
        ids = [self._name_id(name) for name in names]
        for _, parent, name_id, start, end in spans:
            self.spans.append((op, parent + offset if parent >= 0 else -1, ids[name_id],
                               start, end))
        self.errors.update(errors)

    def summary(self):
        """Per (op, function): calls, self seconds and inclusive seconds."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        inclusive = defaultdict(float)
        for sid, (op, _, name_id, start, end) in enumerate(self.spans):
            key = (op, self.names[name_id])
            calls[key] += 1
            self_s[key] += (end - start) - child[sid]
            inclusive[key] += end - start
        return calls, self_s, inclusive

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for sid, (op, parent, name_id, start, end) in enumerate(self.spans):
                fh.write(f"{op}\t{sid}\t{parent}\t{self.names[name_id]}\t{start!r}\t{end!r}\n")


def import_times(stderr_text):
    """From `-X importtime` output: (seconds to import propertime.cli, of propertime.frames).

    The first is the sum of the cumulative times of the top-level propertime
    entries (the package, then propertime.cli), which is what
    `import propertime.cli` costs in a fresh interpreter.
    """
    cli_us = frames_us = 0
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        parts = line.split("|")
        field = parts[2]
        name = field.strip()
        depth = (len(field) - len(field.lstrip(" ")) - 1) // 2
        cumulative = int(parts[1])
        if name == "propertime.frames":
            frames_us = cumulative
        if depth == 1 and (name == "propertime" or name.startswith("propertime.")):
            cli_us += cumulative
    return cli_us * 1e-6, frames_us * 1e-6
