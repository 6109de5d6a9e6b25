"""Span tracing by wrapping the package's layer-boundary functions.

``Tracer.install`` replaces each listed function with a wrapper in every
loaded ``gicgrid`` module that holds a reference to it (so
``gicgrid.thermal.assemble`` is wrapped along with
``gicgrid.dcnet.assemble``); methods are replaced on their class.
``uninstall`` puts the originals back, so untraced cycles run the
unmodified program.  Spans live in memory until the benchmark reads them.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

LAYERS = ("cli", "data", "dcnet", "coupling", "thermal", "mitigation", "lp", "highs")


@dataclass
class Span:
    name: str           # "<layer>.<function>"
    start: float
    end: float
    parent: int         # index of the enclosing span, -1 for a root

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _count(key, value_of=lambda result: 1):
    """Observer adding ``value_of(result)`` to ``counts[key]``."""
    def observe(counts, result):
        counts[key] = counts.get(key, 0) + value_of(result)
    return observe


def _assembled(counts, system):
    counts["dcnet.assemble_calls"] = counts.get("dcnet.assemble_calls", 0) + 1
    counts["dcnet.nodes"] = max(counts.get("dcnet.nodes", 0), len(system.node_ids))


def _power_flow(counts, solution):
    counts["coupling.power_flow_calls"] = counts.get("coupling.power_flow_calls", 0) + 1
    counts["coupling.nr_iterations"] = counts.get("coupling.nr_iterations", 0) + solution.iterations


def _model(counts, model):
    counts["mitigation.lp_cols"] = model.lp.n
    counts["mitigation.lp_rows_ub"] = 0 if model.lp.A_ub is None else model.lp.A_ub.shape[0]
    counts["mitigation.lp_rows_eq"] = 0 if model.lp.A_eq is None else model.lp.A_eq.shape[0]


def _lp_result(counts, result):
    counts["lp.calls"] = counts.get("lp.calls", 0) + 1
    counts["lp.optimal"] = counts.get("lp.optimal", 0) + (result.status == "optimal")


# (module, attribute, span name, observer).  Attribute "Class.method" wraps
# a method.  Leaf helpers called once per branch or per time step
# (branch_voltage, step_topoil, steady_rise, ...) are left unwrapped: their
# time is part of the caller's self time, and wrapping them would make
# tracing cost more than the work it measures.
TARGETS = (
    ("gicgrid.data", "parse_case_file", "data.parse_case_file", None),
    ("gicgrid.data", "parse_case", "data.parse_case", None),
    ("gicgrid.data", "validate_case", "data.validate_case", None),
    ("gicgrid.data", "load_scenario_file", "data.load_scenario_file", None),
    ("gicgrid.data", "load_scenario", "data.load_scenario", None),
    ("gicgrid.data", "FieldScenario.at", "data.field_at", _count("data.field_at_calls")),
    ("gicgrid.dcnet", "assemble", "dcnet.assemble", _assembled),
    ("gicgrid.dcnet", "solve_dc", "dcnet.solve_dc", _count("dcnet.solve_calls")),
    ("gicgrid.dcnet", "effective_gic", "dcnet.effective_gic", None),
    ("gicgrid.coupling", "qloss", "coupling.qloss", None),
    ("gicgrid.coupling", "ac_power_flow", "coupling.ac_power_flow", _power_flow),
    ("gicgrid.coupling", "sequential_gic_ac", "coupling.sequential_gic_ac", None),
    ("gicgrid.thermal", "simulate", "thermal.simulate", None),
    ("gicgrid.thermal", "topoil_series", "thermal.topoil_series", None),
    ("gicgrid.mitigation", "build_model", "mitigation.build_model", _model),
    ("gicgrid.mitigation", "solve", "mitigation.solve",
     _count("mitigation.nodes", lambda plan: plan.nodes)),
    ("gicgrid.mitigation", "enumerate_solve", "mitigation.enumerate_solve", None),
    ("gicgrid.mitigation", "verify_plan", "mitigation.verify_plan", None),
    ("gicgrid.lp", "lp_solve", "lp.lp_solve", _lp_result),
    ("gicgrid.lp", "linprog", "highs.linprog",
     _count("lp.simplex_iters", lambda res: int(getattr(res, "nit", 0) or 0))),
)


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = {}
        self._stack = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def _wrap(self, name: str, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(tracer.counts, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is listed in
        ``missing`` and its time falls to its caller."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "gicgrid" or k.startswith("gicgrid."))]
        for module_name, attr, name, observe in TARGETS:
            owner = sys.modules.get(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, observe))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def inclusive(spans: list[Span], names: set[str]) -> float:
    """Total duration of spans named in ``names`` that have no ancestor in it."""
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += s.end - s.start
    return total


def first_descendant_time(spans: list[Span], parent_name: str, child_name: str) -> float:
    """Sum over ``parent_name`` spans of their first ``child_name`` descendant's duration."""
    total = 0.0
    done: set[int] = set()
    for s in spans:
        if s.name != child_name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != parent_name:
            p = spans[p].parent
        if p >= 0 and p not in done:
            done.add(p)
            total += s.end - s.start
    return total
