"""Unit clock and in-memory span tracer for the benchmark.

A *unit* is the thing a workload's latency is measured on: one training
epoch, one evaluated instance or one oracle call.  `Recorder.begin`/`end`
mark unit boundaries in every run.  In a traced run, `Recorder.install`
additionally replaces vg2s functions, at the names their callers bind, with
wrappers that record a span (name, start, end, parent, unit) per call; no
file of the package changes.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import weakref
from collections import Counter

# (binding, span name).  A binding is "module:attr" or "module:Class.attr";
# a function imported by name into several modules is wrapped at each
# binding a workload reaches, under one span name.
WRAPS = (
    ("vg2s.trainer:rollout", "trainer.rollout"),
    ("vg2s.bench:rollout", "trainer.rollout"),
    ("vg2s.trainer:decode_step", "policy.decode_step"),
    ("vg2s.trainer:select_action", "policy.select_action"),
    ("vg2s.trainer:critic_value", "policy.critic_value"),
    ("vg2s.trainer:state_features", "env.state_features"),
    ("vg2s.env:ScheduleState.step", "env.step"),
    ("vg2s.env:replay", "env.replay"),
    ("vg2s.trainer:policy_loss", "trainer.policy_loss"),
    ("vg2s.trainer:critic_loss", "trainer.critic_loss"),
    ("vg2s.trainer:_sgd_step", "trainer.sgd_step"),
    ("vg2s.trainer:EncoderCache.draw", "trainer.cache_draw"),
    ("vg2s.trainer:EncoderCache.rebuild", "trainer.cache_rebuild"),
    ("vg2s.trainer:representation_loss", "vge.representation_loss"),
    ("vg2s.vge:encode", "vge.encode"),
    ("vg2s.vge:latent", "vge.latent"),
    ("vg2s.vge:decode", "vge.decode"),
    ("vg2s.autodiff:backward", "autodiff.backward"),
    ("vg2s.autodiff:zero_grad", "autodiff.zero_grad"),
    ("vg2s.trainer:build_graph", "graph.build_graph"),
    ("vg2s.bench:build_graph", "graph.build_graph"),
    ("vg2s.trainer:generate_random", "instance.generate_random"),
    ("vg2s.bench:solve_with_model", "bench.solve_with_model"),
    ("vg2s.rules:dispatch", "rules.dispatch"),
    ("vg2s.oracle:dispatch", "rules.dispatch"),
    ("vg2s.oracle:branch_and_bound", "oracle.branch_and_bound"),
)


def _tape_probe(rec: "Recorder", args, _out) -> None:
    """Count tape length per backward call and, once per tape, per unit."""
    tape = args[0].tape
    nodes = len(tape.nodes)
    rec.count("autodiff.tape_nodes_walked", nodes)
    if rec.last_tape is None or rec.last_tape() is not tape:
        rec.last_tape = weakref.ref(tape)
        rec.count("autodiff.tape_nodes", nodes)


PROBES = {"autodiff.backward": _tape_probe}


def _resolve(binding: str):
    module_name, path = binding.split(":")
    holder = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        holder = getattr(holder, name)
    return holder, attr


class Recorder:
    """Unit durations always; spans and per-unit counts while tracing."""

    def __init__(self):
        self.units: list[tuple[float, bool, str]] = []  # (seconds, traced, label)
        self._unit_start: float | None = None
        self._unit_label = ""
        self._unit_span = -1
        self.tracing = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.span_units: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.last_tape = None
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ units
    @property
    def unit_open(self) -> bool:
        return self._unit_start is not None

    def begin(self, label) -> None:
        """Close the open unit, if any, and open one; `label` names its
        epoch or instance in the spans file."""
        self.end()
        self._unit_label = str(label)
        self._unit_start = time.perf_counter()
        if self.tracing:
            self._unit_span = self._open("unit")

    def end(self) -> None:
        if self._unit_start is None:
            return
        now = time.perf_counter()
        self.units.append((now - self._unit_start, self.tracing, self._unit_label))
        self._unit_start = None
        if self._unit_span >= 0:
            self._close(self._unit_span)
            self._unit_span = -1

    def unit_seconds(self, traced: bool) -> list[float]:
        return [s for s, t, _ in self.units if t == traced]

    def count(self, name: str, value: float) -> None:
        if self.tracing and self.unit_open:
            self.counts[name] += value

    # ------------------------------------------------------------ spans
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.span_units.append(len(self.units) if self.unit_open else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        """Call fn inside a span named `name` when tracing."""
        if not self.tracing:
            return fn(*args)
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrapper(self, fn, name: str):
        rec = self
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if probe is not None:
                probe(rec, args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every binding in WRAPS and start tracing."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for binding, name in WRAPS:
            holder, attr = _resolve(binding)
            original = holder.__dict__[attr]
            self._saved.append((holder, attr, original))
            setattr(holder, attr, self._wrapper(original, name))
        self.tracing = True

    def uninstall(self) -> None:
        self.end()
        self.tracing = False
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------ results
    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self seconds, inclusive seconds) over spans that
        ran inside a unit."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, list] = {}
        for i, name in enumerate(self.names):
            if self.span_units[i] < 0:
                continue
            dur = self.ends[i] - self.starts[i]
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur - child[i]
            entry[2] += dur
        return {k: tuple(v) for k, v in totals.items()}

    def write(self, path, header: dict) -> None:
        """Spans as JSON lines: a header, then [name, start, end, parent, unit]
        per span with times relative to the first span, then {"units":
        [[seconds, traced, label], ...]} indexed by the spans' unit field."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, round(self.starts[i] - t0, 7),
                                     round(self.ends[i] - t0, 7),
                                     self.parents[i], self.span_units[i]]) + "\n")
            fh.write(json.dumps({"units": self.units}) + "\n")
