"""Spans around oamqkd's public functions, recorded from outside the package.

:class:`Tracer` replaces each traced function with a timing wrapper wherever a
module holds a reference to it: the defining module, the package namespace
and names re-bound by ``from ... import`` (``oamqkd.cli`` and
``oamqkd.link_budget`` call ``secret_key_rate``, ``write_csv`` and friends
through their own globals).  Nothing in the package itself changes, and
:meth:`Tracer.uninstall` puts every original back.

A traced function or the CLI's command table that cannot be found is an
error, not a layer that reads 0: a refactor that moves a traced layer has to
move its entry here too.

A span is ``(id, name, start, end, parent id)``.  Self time is a span's
duration minus the time its child spans cover; it is accumulated as spans
close, so the aggregates cost no memory.  The raw spans are kept in memory up
to ``SPAN_CAP`` and written out when the benchmark ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

clock = time.perf_counter

SPAN_CAP = 200_000

MODULES = ("oamqkd", "oamqkd.simulator", "oamqkd.keyrate", "oamqkd.link_budget",
           "oamqkd.turbulence", "oamqkd.fileio", "oamqkd.cli")

#: (module, function, span name, count taken from the call or None).
#: A count function gets (args, kwargs, result).  ``span=False`` entries only
#: count: they run below spans whose self time should include them.
TARGETS = (
    ("oamqkd.simulator", "block_generator", "simulator.block_generator", None),
    ("oamqkd.simulator", "generate_pulses", "simulator.generate_pulses",
     ("simulator.pulses", lambda a, k, r: a[0] if a else k["n"])),
    ("oamqkd.simulator", "transmit", "simulator.transmit", None),
    ("oamqkd.simulator", "estimate_observables", "simulator.estimate_observables", None),
    ("oamqkd.simulator", "run_session", "simulator.run_session",
     ("simulator.blocks", lambda a, k, r: len(r.blocks))),
    ("oamqkd.keyrate", "secret_key_rate", "keyrate.secret_key_rate", None),
    ("oamqkd.link_budget", "rate_vs_gain", "link_budget.rate_vs_gain", None),
    ("oamqkd.link_budget", "gain_threshold", "link_budget.gain_threshold", None),
    ("oamqkd.turbulence", "synthesize_frames", "turbulence.synthesize_frames", None),
    ("oamqkd.turbulence", "centroid", "turbulence.centroid", None),
    ("oamqkd.turbulence", "estimate_turbulence", "turbulence.estimate_turbulence", None),
    ("oamqkd.turbulence", "read_frame", "turbulence.read_frame", None),
    ("oamqkd.fileio", "write_csv", "fileio.write_csv", None),
    ("oamqkd.fileio", "write_key_values", "fileio.write_key_values", None),
    ("oamqkd.fileio", "read_key_values", "fileio.read_key_values", None),
    ("oamqkd.cli", "cmd_simulate", "cli.simulate", None),
    ("oamqkd.cli", "cmd_keyrate", "cli.keyrate", None),
    ("oamqkd.cli", "cmd_sweep", "cli.sweep", None),
    ("oamqkd.cli", "cmd_turbulence", "cli.turbulence", None),
)

COUNT_ONLY = (
    ("oamqkd.fileio", "atomic_write_text", "fileio.bytes_written",
     lambda a, k, r: len((a[1] if len(a) > 1 else k["text"]).encode("utf-8"))),
)

#: Per-layer metric -> (kind, source).  "self" is self seconds per op of a
#: span name, "calls" and "count" are per op.
LAYER_METRICS = {
    "simulator.generate_pulses_s": ("self", "simulator.generate_pulses"),
    "simulator.transmit_s": ("self", "simulator.transmit"),
    "simulator.pulses": ("count", "simulator.pulses"),
    "simulator.block_generator_s": ("self", "simulator.block_generator"),
    "simulator.run_session_self_s": ("self", "simulator.run_session"),
    "simulator.estimate_observables_s": ("self", "simulator.estimate_observables"),
    "simulator.blocks": ("count", "simulator.blocks"),
    "keyrate.secret_key_rate_s": ("self", "keyrate.secret_key_rate"),
    "keyrate.secret_key_rate_calls": ("calls", "keyrate.secret_key_rate"),
    "link_budget.gain_threshold_s": ("self", "link_budget.gain_threshold"),
    "link_budget.rate_vs_gain_s": ("self", "link_budget.rate_vs_gain"),
    "turbulence.synthesize_frames_s": ("self", "turbulence.synthesize_frames"),
    "turbulence.centroid_s": ("self", "turbulence.centroid"),
    "turbulence.estimate_turbulence_s": ("self", "turbulence.estimate_turbulence"),
    "turbulence.read_frame_s": ("self", "turbulence.read_frame"),
    "turbulence.frames_read": ("calls", "turbulence.read_frame"),
    "fileio.write_csv_s": ("self", "fileio.write_csv"),
    "fileio.write_key_values_s": ("self", "fileio.write_key_values"),
    "fileio.read_key_values_s": ("self", "fileio.read_key_values"),
    "fileio.bytes_written": ("count", "fileio.bytes_written"),
    "cli.simulate_self_s": ("self", "cli.simulate"),
    "cli.keyrate_self_s": ("self", "cli.keyrate"),
    "cli.sweep_self_s": ("self", "cli.sweep"),
    "cli.turbulence_self_s": ("self", "cli.turbulence"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.calls_under: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- wrapping --------------------------------------------------------------
    def _span(self, name, fn, count):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if parent is not None:
                    parent[2] += duration
                    self.calls_under[(name, parent[1])] += 1
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, name, start, end,
                                  parent[0] if parent is not None else None))
            if count is not None:
                self.counts[count[0]] += count[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name, fn, count):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += count(args, kwargs, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        replacements = []
        for module, attr, name, count in TARGETS:
            fn = getattr(importlib.import_module(module), attr)
            replacements.append((fn, self._span(name, fn, count)))
        for module, attr, name, count in COUNT_ONLY:
            fn = getattr(importlib.import_module(module), attr)
            replacements.append((fn, self._counter(name, fn, count)))
        namespaces = [vars(m) for m in modules]
        namespaces.append(importlib.import_module("oamqkd.cli")._COMMANDS)
        for original, wrapper in replacements:
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper
                        self._restore.append((namespace, key, original))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._restore):
            namespace[key] = original
        self._restore.clear()

    # -- results ---------------------------------------------------------------
    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Every per-layer metric, per op; a layer the workload never calls reads 0."""
        out = {}
        for metric, (kind, source) in LAYER_METRICS.items():
            total = {"self": self.self_s, "calls": self.calls, "count": self.counts}[kind]
            out[metric] = total.get(source, 0) / ops
        thresholds = self.calls.get("link_budget.gain_threshold", 0)
        evals = self.calls_under.get(("keyrate.secret_key_rate", "link_budget.gain_threshold"), 0)
        out["link_budget.rate_evals_per_threshold"] = evals / thresholds if thresholds else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "dropped": max(0, self._next_id - len(self.spans)),
                       "spans": self.spans}, fh)
