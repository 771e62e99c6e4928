"""Span tracing around the package's public callables, installed from outside.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces each
callable in :data:`TARGETS` with a timing wrapper for the duration of a traced
pass, and :func:`uninstall` puts the originals back.  Modules import each
other's functions by name (``from .degree import optimal_degree``), so a
module-level function is patched in every ``fountain_lab`` module that binds
it, not only where it is defined; methods are patched on their class.

Spans nest through an explicit stack: a span's self time is its duration
minus the durations of the spans it encloses.  Per-name totals are kept in
memory as the run goes; only outermost spans are kept individually, because a
k = 100000 session makes millions of inner calls.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter


def _count_degree(counters, args, result):
    counters["emitted_degree_sum"] += len(result.indices)


def _count_case(counters, args, result):
    counters[f"case.{result.case.name}"] += 1


def _count_xor_bytes(counters, args, result):
    counters["xor_bytes"] += len(args[0])


def _count_frame_bytes(counters, args, result):
    counters["data_frame_bytes"] += len(result)
    counters["data_payload_bytes"] += len(args[0].payload or b"")


#: (module under fountain_lab, attribute or Class.method, counter hook)
TARGETS = (
    ("sim", "run_session", None),
    ("sim", "sent_at_milestones", None),
    ("sim", "monte_carlo", None),
    ("schemes", "Encoder.next_symbol", _count_degree),
    ("schemes", "Encoder.on_feedback", None),
    ("schemes", "Receiver.receive", None),
    ("channel", "ErasureChannel.deliver", None),
    ("graph", "DecodeGraph.process", None),
    ("graph", "DecodeGraph.classify", _count_case),
    ("graph", "DecodeGraph.apply_case1", None),
    ("graph", "DecodeGraph.apply_case2", None),
    ("graph", "DecodeGraph.largest_white_component", None),
    ("graph", "SourceBlock.encode", None),
    ("graph", "xor_bytes", _count_xor_bytes),
    ("degree", "optimal_degree", None),
    ("degree", "completion_prob", None),
    ("analytics", "expected_curve", None),
    ("analytics", "compare_to_curve", None),
    ("wire", "encode_data", _count_frame_bytes),
    ("wire", "decode_frame", None),
    ("wire", "encode_feedback", None),
    ("wire", "transfer", None),
    ("cli", "main", None),
)

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual, _ in TARGETS)


class Tracer:
    """Nested wall-clock spans with per-name calls, self time and total time."""

    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, self_s, total_s]
        self.counters: Counter = Counter()
        self.outer: list[tuple[str, float, float]] = []   # (name, start, end)
        self._stack: list[list[float]] = []    # child time of each open span

    def wrap(self, name: str, fn, hook=None):
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        stack = self._stack
        outer = self.outer
        counters = self.counters

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                entry[0] += 1
                entry[1] += dur - frame[0]
                entry[2] += dur
                if stack:
                    stack[-1][0] += dur
                else:
                    outer.append((name, start, end))
            if hook is not None:
                hook(counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (for the benchmark's own steps)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def merge_child(self, child: dict) -> None:
        """Fold the stats a traced child process reported into the open span.

        The child's outermost time becomes child time of the current span, so
        the span's self time is what the child spent outside traced calls.
        """
        for name, (calls, self_s, total_s) in child["stats"].items():
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += total_s
        self.counters.update(child["counters"])
        if self._stack:
            self._stack[-1][0] += child["outer_s"]

    def export(self) -> dict:
        return {
            "stats": self.stats,
            "counters": dict(self.counters),
            "outer_s": sum(end - start for _, start, end in self.outer),
        }


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fountain_lab" or name.startswith("fountain_lab."))]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target; returns the patch list :func:`uninstall` needs."""
    patches = []
    for mod_name, qual, hook in TARGETS:
        module = importlib.import_module(f"fountain_lab.{mod_name}")
        name = f"{mod_name}.{qual}"
        if "." in qual:
            cls_name, attr = qual.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            patches.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
            continue
        original = getattr(module, qual)
        wrapper = tracer.wrap(name, original, hook)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def snapshot() -> dict[tuple[str, str], object]:
    """Identity of every package attribute a target could be bound to."""
    for mod_name in {mod for mod, _, _ in TARGETS}:
        importlib.import_module(f"fountain_lab.{mod_name}")
    snap = {}
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if callable(value):
                snap[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("fountain_lab"):
                for meth, fn in vars(value).items():
                    if callable(fn):
                        snap[(f"{mod.__name__}.{attr}", meth)] = fn
    return snap
