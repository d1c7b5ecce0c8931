"""Span recorder for the traced benchmark run.

Tracing lives outside the package: :func:`traced` swaps public functions
and methods of the ``jcsim.*`` modules for wrappers that record one span
per call (name, start, end, parent span, op id) and restores them on
exit.  A name is replaced in every ``jcsim`` module namespace that binds
it, because the package imports functions by name (``from .solver import
steady_state``) and each importer looks the name up in its own globals.

Per-layer metrics are computed from the spans afterwards.  A layer's time
is its *self* time: span duration minus the part of that interval covered
by its child spans, so nested layers are never counted twice.  The
acceptance criteria are the exception: ``acceptance.cN_s`` is the whole
criterion, children included, because a criterion is a unit of the
``verify`` command rather than a layer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

CRITERIA = range(1, 11)


class Recorder:
    """In-memory spans and counters; records only while an op is running.

    Spans are stored column-wise in start order, one entry per column:
    name, start, end, parent index (-1 for a root) and op id.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._generators: set = set()  # (op id, generator key) pairs seen

    def call(self, name: str, fn, args=(), kwargs=None, measure=None):
        """Run ``fn`` inside a span named ``name``; ``measure`` sees the result."""
        index = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()
        if measure is not None:
            measure(self, parent, result, args)
        return result

    def note_generator(self, scenario) -> None:
        key = (scenario.model, scenario.omega0, scenario.rabi, scenario.n_max,
               scenario.bath, scenario.gamma0, scenario.nbar, scenario.freq_tol)
        if (self.op, key) not in self._generators:
            self._generators.add((self.op, key))
            self.counts["generators.distinct"] += 1


def _superop_bytes(rec, parent, result, args):
    # Count each generator's matrix once: a phen build inside a dressed build is part of it.
    if parent < 0 or not rec.names[parent].startswith("generators."):
        rec.counts["generators.superop_bytes"] += result.matrix.nbytes


def _generator_key(rec, parent, result, args):
    rec.note_generator(args[0])


def _samples(rec, parent, result, args):
    rec.counts["solver.samples_validated"] += args[0].states.shape[0]


# (span name, module, attribute or Class.method, measure)
SPANS = (
    ("scenario.parse", "jcsim.scenario", "scenario_from_config", None),
    ("scenario.generator", "jcsim.scenario", "Scenario.generator", _generator_key),
    ("generators.micro", "jcsim.generators", "microscopic_generator", _superop_bytes),
    ("generators.phen", "jcsim.generators", "phenomenological_generator", _superop_bytes),
    ("generators.dressed", "jcsim.generators", "dressed_approx_generator", _superop_bytes),
    ("jcmodel.eigensystem", "jcsim.jcmodel", "complete_eigensystem", None),
    ("solver.spectral", "jcsim.solver", "evolve_spectral", None),
    ("solver.ode", "jcsim.solver", "evolve_ode", None),
    ("solver.damping_basis", "jcsim.solver", "damping_basis", None),
    ("solver.dominant_frequency", "jcsim.solver", "dominant_frequency", None),
    ("solver.steady", "jcsim.solver", "steady_state", None),
    ("solver.validate", "jcsim.solver", "TimeSeries.validate_states", _samples),
    ("hilbert.diagnostics", "jcsim.hilbert", "DensityMatrix.diagnostics", None),
    ("observables.evaluate", "jcsim.observables", "evaluate", None),
)

# Call counters without a span: (counter, module, attribute, amount per call).
COUNTERS = (
    ("bath.rate_calls", "jcsim.bath", "rate", lambda result: 1),
    ("generators.channels", "jcsim.generators", "microscopic_channels", len),
)


def _span_wrapper(rec: Recorder, name: str, fn, measure):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.op is None:
            return fn(*args, **kwargs)
        return rec.call(name, fn, args, kwargs, measure)
    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn, amount):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if rec.op is not None:
            rec.counts[name] += amount(result)
        return result
    return wrapper


def _battery(rec: Recorder):
    """``run_all_criteria`` rebuilt from ``run_criterion``, one span per criterion."""
    from jcsim import acceptance

    def run_all_criteria(tolerance_scale: float = 1.0):
        runs = acceptance._SharedRuns()  # criteria share trajectories, as in the battery
        return [rec.call(f"acceptance.c{n}", acceptance.run_criterion,
                         (n, runs, tolerance_scale)) for n in CRITERIA]
    return run_all_criteria


@contextmanager
def traced(rec: Recorder):
    """Install the wrappers for the duration of the block."""
    modules = [m for n, m in sys.modules.items() if n == "jcsim" or n.startswith("jcsim.")]
    patches = []  # (owner, attribute, original)

    def patch_everywhere(module: str, attr: str, make):
        original = getattr(importlib.import_module(module), attr)
        replacement = make(original)
        for owner in modules:
            if getattr(owner, attr, None) is original:
                patches.append((owner, attr, original))
                setattr(owner, attr, replacement)

    try:
        for name, module, attr, measure in SPANS:
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(importlib.import_module(module), cls_name)
                original = cls.__dict__[method]
                patches.append((cls, method, original))
                setattr(cls, method, _span_wrapper(rec, name, original, measure))
            else:
                patch_everywhere(module, attr,
                                 lambda fn, n=name, m=measure: _span_wrapper(rec, n, fn, m))
        for name, module, attr, amount in COUNTERS:
            patch_everywhere(module, attr,
                             lambda fn, n=name, a=amount: _count_wrapper(rec, n, fn, a))
        patch_everywhere("jcsim.acceptance", "run_all_criteria", lambda fn: _battery(rec))
        yield rec
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def self_times(starts, ends, parents) -> array:
    """Duration of each span minus the union of its children's intervals.

    Needs spans in start order, so that each parent meets its children in
    the order they began.
    """
    covered = array("d", bytes(8 * len(starts)))
    reach = array("d", starts)  # end of the covered part of each span so far
    for index, parent in enumerate(parents):
        if parent >= 0:
            low = max(starts[index], reach[parent])
            high = min(ends[index], ends[parent])
            if high > low:
                covered[parent] += high - low
                reach[parent] = high
    return array("d", (end - start - cover for start, end, cover in zip(starts, ends, covered)))


def layer_metrics(rec: Recorder, passes: int) -> dict[str, float]:
    """Per-layer metrics per pass of the workload's op list."""
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = Counter()
    own = self_times(rec.starts, rec.ends, rec.parents)
    for name, start, end, own_s in zip(rec.names, rec.starts, rec.ends, own):
        self_s[name] += own_s
        total_s[name] += end - start
        calls[name] += 1
    builds = calls["scenario.generator"]
    values = {
        "scenario.parse_s": self_s["scenario.parse"],
        "scenario.generator_calls": builds,
        "generators.micro_s": self_s["generators.micro"],
        "generators.phen_s": self_s["generators.phen"],
        "generators.dressed_s": self_s["generators.dressed"],
        "generators.channels": rec.counts["generators.channels"],
        "generators.superop_mb": rec.counts["generators.superop_bytes"] / 1e6,
        "jcmodel.eigensystem_s": self_s["jcmodel.eigensystem"],
        "jcmodel.eigensystem_calls": calls["jcmodel.eigensystem"],
        "bath.rate_calls": rec.counts["bath.rate_calls"],
        "solver.spectral_self_s": self_s["solver.spectral"],
        "solver.damping_basis_s": self_s["solver.damping_basis"],
        "solver.damping_basis_calls": calls["solver.damping_basis"],
        "solver.dominant_frequency_s": self_s["solver.dominant_frequency"],
        "solver.validate_s": self_s["solver.validate"],
        "solver.samples_validated": rec.counts["solver.samples_validated"],
        "hilbert.diagnostics_s": self_s["hilbert.diagnostics"],
        "hilbert.diagnostics_calls": calls["hilbert.diagnostics"],
        "observables.evaluate_s": self_s["observables.evaluate"],
        "observables.evaluate_calls": calls["observables.evaluate"],
        "cli.self_s": self_s["cli"],
        "cli.csv_bytes": rec.counts["cli.csv_bytes"],
        "solver.steady_s": self_s["solver.steady"],
        "solver.ode_s": self_s["solver.ode"],
    }
    values.update({f"acceptance.c{n}_s": total_s[f"acceptance.c{n}"] for n in CRITERIA})
    values = {name: value / passes for name, value in values.items()}
    # A ratio, not a per-pass amount.
    values["generators.build_useful_ratio"] = (
        rec.counts["generators.distinct"] / builds if builds else 0.0)
    return values


def dump(rec: Recorder, path: str) -> None:
    """Write the spans as gzipped JSON lines, one span per line."""
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for row in zip(rec.names, rec.starts, rec.ends, rec.parents, rec.ops):
            handle.write('{"name": "%s", "start": %r, "end": %r, "parent": %d, "op": %d}\n' % row)
