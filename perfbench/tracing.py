"""Spans around calls into ``hcmu``, recorded from outside the package.

``install`` replaces each traced public function by a wrapper in every
``hcmu`` module namespace that holds it (so calls made inside the package
are seen too) and restores the originals on exit.  Spans stay in memory as
(name, start, end, parent, op) and are written out when the run ends.  The
untraced run installs nothing, so it pays no cost.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path); methods are patched on their class
SPANS = {
    "angulation.MixedAngulation": ("hcmu.angulation", "MixedAngulation.__init__"),
    "balance.solve_balance": ("hcmu.balance", "solve_balance"),
    "builders.build_surface": ("hcmu.builders", "build_surface"),
    "builders.build_one_cone": ("hcmu.builders", "build_one_cone"),
    "constraints.check_refined": ("hcmu.constraints", "check_refined"),
    "constraints.enumerate_ratios": ("hcmu.constraints", "enumerate_ratios"),
    "dataset.DataSet.__hash__": ("hcmu.dataset", "DataSet.__hash__"),
    "dataset.DataSet.__eq__": ("hcmu.dataset", "DataSet.__eq__"),
    "dataset.census": ("hcmu.dataset", "census"),
    "deformations.circles_at_level": ("hcmu.deformations", "circles_at_level"),
    "deformations.twist": ("hcmu.deformations", "twist"),
    "deformations.split": ("hcmu.deformations", "split"),
    "dimension.dimension_crosscheck": ("hcmu.dimension", "dimension_crosscheck"),
    "geometry.solve_profile": ("hcmu.geometry", "solve_profile"),
    "geometry.element_length": ("hcmu.geometry", "element_length"),
    "geometry.level_to_distance": ("hcmu.geometry", "level_to_distance"),
    "geometry.surface_area": ("hcmu.geometry", "surface_area"),
    "serialization.save": ("hcmu.serialization", "save"),
    "serialization.dumps": ("hcmu.serialization", "dumps"),
    "serialization.load_document": ("hcmu.serialization", "load_document"),
    "serialization.load": ("hcmu.serialization", "load"),
}

CLI_SUBCOMMANDS = (
    "validate", "check", "build", "one-cone", "ratios", "dim",
    "solve", "profile", "twist", "split", "export-dot",
)


def span_names():
    return list(SPANS) + [f"cli.main.{sub}" for sub in CLI_SUBCOMMANDS]


class Tracer:
    """In-memory span recorder; records only while ``op`` is not None."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, op id]
        self.op = None
        self._stack = []

    def wrap(self, fn, name):
        name_of = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            i = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name_of(*args, **kwargs), time.perf_counter_ns(), 0, parent, self.op])
            self._stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[i][2] = time.perf_counter_ns()

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _cli_name(argv=None, *args, **kwargs):
    sub = argv[0] if argv else "none"
    return f"cli.main.{sub}"


@contextlib.contextmanager
def install(tracer):
    """Wrap every traced function for the duration of the block."""
    undo = []
    targets = dict(SPANS, **{"cli.main": ("hcmu.cli", "main")})
    modules = [m for name, m in list(sys.modules.items()) if name == "hcmu" or name.startswith("hcmu.")]
    try:
        for span, (module, path) in targets.items():
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = tracer.wrap(original, _cli_name if span == "cli.main" else span)
            for home in [owner] if outer else modules:
                for key, value in list(vars(home).items()):
                    if value is original:
                        setattr(home, key, wrapped)
                        undo.append((home, key, original))
        yield tracer
    finally:
        for home, key, original in reversed(undo):
            setattr(home, key, original)


def self_times(spans):
    """Per span: its duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def per_span(spans):
    """{name: (calls, self seconds)} over every recorded span."""
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_ns[span[0]] += own
    return {name: (calls[name], self_ns[name] / 1e9) for name in calls}
