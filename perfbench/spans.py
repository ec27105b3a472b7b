"""Outside-in tracing of oddcover's layers for the traced benchmark run.

The tracer rebinds each target function in every ``oddcover`` module that
holds it (``from .core import verify_cover`` makes a second binding), plus
two methods on their classes, and records one span per call: name, parent
span, instance, start and end.  Spans stay in memory; ``metrics`` turns them
into per-layer counts and self times (a span's duration minus its direct
children's), and ``write`` dumps them as CSV.  ``restore`` puts every
original object back, and a target that no longer exists is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

PACKAGE = "oddcover"
MODULES = ("core", "cycles", "twopaths", "systems", "solver", "oracle", "io", "cli")

# (module, function or Class.method).  The layers are the package's modules.
TARGETS = (
    ("core", "Graph.__init__"),
    ("core", "degree_profile"),
    ("core", "verify_cover"),
    ("solver", "peel_odd_path"),
    ("solver", "cover_eulerian_plus_matching"),
    ("solver", "path_odd_cover"),
    ("solver", "cycle_odd_cover"),
    ("solver", "iso_cover_general"),
    ("cycles", "balanced_orientation"),
    ("cycles", "max_degree_cycle_cover"),
    ("cycles", "peel_cycle_layers"),
    ("cycles", "odd_matching"),
    ("twopaths", "cover_cycles"),
    ("twopaths", "integrate_one_edge"),
    ("twopaths", "integrate_two_edges"),
    ("twopaths", "choose_integrable_pair"),
    ("twopaths", "integrate_four_edges"),
    ("systems", "classify_endpoints"),
    ("systems", "PathSystem.parity_edges"),
    ("systems", "is_well_distributed"),
    ("systems", "join"),
    ("systems", "insert"),
    ("systems", "reduce_system"),
    ("systems", "meet"),
    ("systems", "topological_cover"),
    ("systems", "cycle_top_cover"),
    ("systems", "iso_cover_from_forests"),
    ("oracle", "exact_p2"),
    ("oracle", "exact_c2"),
    ("oracle", "exact_linear_forests"),
    ("io", "parse_edge_list"),
    ("io", "witness_json"),
    ("cli", "main"),
)

EDGES_BUILT = "core.Graph.edges_built"
OBSTRUCTED = "twopaths.integrate_two_edges.obstructed"


def span_name(module: str, target: str) -> str:
    """Metric prefix of a target: a constructor is named after its class."""
    return f"{module}.{target.removesuffix('.__init__')}"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, target in TARGETS:
        name = span_name(module, target)
        units[f"{name}.calls"] = "1/inst"
        units[f"{name}.self_s"] = "s/inst"
    units[EDGES_BUILT] = "1/inst"
    units["core.Graph.edges_built_per_input_edge"] = "ratio"
    units[OBSTRUCTED] = "1/inst"
    units["twopaths.integrate_two_edges.obstructed_frac"] = "ratio"
    units["systems.classify_endpoints.calls_per_join"] = "ratio"
    for module in MODULES:
        units[f"{module}.self_s"] = "s/inst"
        units[f"{module}.raised"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


class Tracer:
    """Span recorder for one traced run; install() and restore() bracket
    each traced call."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, instance, start, end]
        self.counters: Counter[str] = Counter()
        self.raised: Counter[str] = Counter()
        self.instance = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [
            m
            for name, m in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        absent = []
        for module, target in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{module}")
            name = span_name(module, target)
            cls_name, _, method = target.rpartition(".")
            if cls_name:
                cls = getattr(home, cls_name, None)
                orig = vars(cls).get(method) if isinstance(cls, type) else None
                if callable(orig):
                    self._patch(cls, method, self._wrap(name, module, orig))
                else:
                    absent.append(name)
                continue
            orig = getattr(home, target, None)
            if not callable(orig):
                absent.append(name)
                continue
            wrapper = self._wrap(name, module, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, attr, wrapper)
        twopaths = sys.modules.get(f"{PACKAGE}.twopaths")
        self._exceptional = getattr(twopaths, "ExceptionalCase", None)
        if self._exceptional is None:
            absent.append(OBSTRUCTED)
        self.absent = absent

    def restore(self) -> None:
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def _patch(self, obj, attr: str, new) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _wrap(self, name: str, module: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = self._after.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, self.instance, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent < 0 or not spans[parent][0].startswith(module + "."):
                    self.raised[module] += 1
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def _graph_built(self, args, result) -> None:
        self.counters[EDGES_BUILT] += len(getattr(args[0], "edges", ()))

    def _pair_tried(self, args, result) -> None:
        if isinstance(result, self._exceptional or ()):
            self.counters[OBSTRUCTED] += 1

    _after = {"core.Graph": _graph_built, "twopaths.integrate_two_edges": _pair_tried}

    def metrics(self, instances: int, input_edges: int, overhead: float) -> dict[str, float]:
        """Per-layer metrics, counts and self times per traced instance."""
        child = [0.0] * len(self.spans)
        for name, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for (name, _, _, t0, t1), below in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += t1 - t0 - below
        out = {}
        per = 1.0 / max(instances, 1)
        for module, target in TARGETS:
            name = span_name(module, target)
            if name not in self.absent:
                out[f"{name}.calls"] = calls[name] * per
                out[f"{name}.self_s"] = self_s[name] * per
        for module in MODULES:
            out[f"{module}.self_s"] = per * sum(
                s for name, s in self_s.items() if name.startswith(module + ".")
            )
            out[f"{module}.raised"] = self.raised[module]
        if "core.Graph" not in self.absent:
            out[EDGES_BUILT] = self.counters[EDGES_BUILT] * per
            out["core.Graph.edges_built_per_input_edge"] = (
                self.counters[EDGES_BUILT] / max(input_edges, 1)
            )
        pairs = calls["twopaths.integrate_two_edges"]
        if OBSTRUCTED not in self.absent and "twopaths.integrate_two_edges" not in self.absent:
            out[OBSTRUCTED] = self.counters[OBSTRUCTED] * per
            out["twopaths.integrate_two_edges.obstructed_frac"] = (
                self.counters[OBSTRUCTED] / pairs if pairs else 0.0
            )
        if not {"systems.classify_endpoints", "systems.join"} & set(self.absent):
            joins = calls["systems.join"]
            out["systems.classify_endpoints.calls_per_join"] = (
                calls["systems.classify_endpoints"] / joins if joins else 0.0
            )
        out["trace.overhead_frac"] = overhead
        return out

    def write(self, path) -> None:
        """All spans as CSV: id, parent, instance, name, start, end (seconds
        from the first span)."""
        base = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,instance,name,start_s,end_s\n")
            for i, (name, parent, inst, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{inst},{name},{t0 - base:.9f},{t1 - base:.9f}\n")
