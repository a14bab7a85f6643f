"""In-memory spans around the public functions of each equilat layer.

The wrappers live here, not in the package: `install` rebinds each listed
function, by identity, in every loaded `equilat.*` namespace that holds it
(modules import each other's functions by name), and `uninstall` puts the
originals back.  Each span records its name, start, end, parent span and
input id.  Self time is a span's duration minus its children's durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Functions wrapped per module.  eisenstein arithmetic is left out on
# purpose: per-operation spans would swamp it, so its time shows up as
# self time in translation and parallelogram.
LAYERS = {
    "surface": ("vertex_orbits", "corner_vertex_map", "euler_and_genus",
                "canonical_form", "subdivide", "save_surface", "load_surface",
                "random_surface"),
    "translation": ("detect_structures", "build_period_map", "is_locally_bounded_tran"),
    "degree_bound": ("bounded_degree_map", "replace_stars", "build_TH", "check_tri_lb",
                     "separation_check", "match_pattern"),
    "parallelogram": ("decompose", "build_trajectories", "build_polytope", "develop_face"),
    "cover": ("canonical_cover", "holonomy_cocycle", "verify_cover"),
    "census": ("enumerate_surfaces", "count_table"),
    "cli": ("main",),
}

# Counters taken from return values: span -> ((counter, value of the result), ...).
COUNTERS = {
    "census.enumerate_surfaces": (("census.classes", len),),
    "degree_bound.bounded_degree_map": (
        ("degree_bound.stars_replaced", lambda r: len(r.centers)),
        ("degree_bound.output_faces", lambda r: r.surface.face_count)),
    "cover.canonical_cover": (("cover.components", lambda r: len(r.components)),),
    "degree_bound.match_pattern": (
        ("degree_bound.match_pattern.hits", lambda r: r is not None),),
}
# Spans whose first argument is a surface whose identity is tracked.
DISTINCT_ARG = ("surface.vertex_orbits",)


class Recorder:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, input id)
        self.counters = defaultdict(int)
        self.input_id = None
        self._stack = []
        self._distinct = defaultdict(dict)  # span name -> {id(arg): arg}
        self._bound = []  # (module, attribute, original)

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name, ())
        track_arg = name in DISTINCT_ARG

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            if track_arg:
                self._distinct[name][id(args[0])] = args[0]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.input_id)
            for counter, value in counters:
                self.counters[counter] += value(result)
            return result

        return wrapper

    def span(self, name: str, input_id, fn, *args):
        """Run fn(*args) under a root span for one input."""
        self.input_id = input_id
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.input_id = None
            self.end_input()

    def end_input(self):
        # Object ids are only distinct while the objects live; count per
        # input and let the surfaces go.
        for name, objs in self._distinct.items():
            self.counters[name + ".distinct"] += len(objs)
        self._distinct.clear()

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "equilat" or n.startswith("equilat."))]
        targets = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"equilat.{layer}"]
            for fname in names:
                fn = getattr(module, fname)
                targets[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._bound.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    def self_times(self) -> dict:
        """name -> (calls, total self seconds) over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, input_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, input_id]) + "\n")
