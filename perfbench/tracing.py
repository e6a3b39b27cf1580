"""Per-layer spans for the traced run.

The traced run calls ``neurof0.cli.cli_main`` in this process. Before it
does, the layer functions that ``neurof0.cli``, ``neurof0.pipeline`` and
``neurof0.datagen`` bind by name are swapped for wrappers that record one
span per call: name, start, end, parent and the command (``op``) it
belongs to. Nothing inside ``src/`` is changed; the original bindings are
put back when the run ends. Spans are kept in memory and written out once,
at the end.

A layer's self time is its span durations minus the part covered by its
child spans. Every time metric below is a self time; the two layers that
are mostly made of child calls are named ``.self_s`` to say so.
"""

from __future__ import annotations

import contextlib
import io
import os
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


def _size(path) -> int:
    return os.path.getsize(path)


# (module, bound name, span name, counter) -- the counter maps the call's
# positional arguments and result to work counts, named as reported.
BINDINGS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("cli", "load_recording_csv", "eeg.load_recording_csv",
     lambda a, r: {"eeg.load_recording_csv.rows": r.n_samples}),
    ("cli", "write_recording_csv", "eeg.write_recording_csv",
     lambda a, r: {"eeg.write_recording_csv.rows": a[0].n_samples}),
    ("cli", "window_frames", "eeg.window_frames",
     lambda a, r: {"eeg.window_frames.frames": len(r)}),
    ("pipeline", "window_frames", "eeg.window_frames",
     lambda a, r: {"eeg.window_frames.frames": len(r)}),
    ("cli", "split_dataset", "eeg.split_dataset", None),
    ("cli", "predict_trajectory", "forest.predict_trajectory",
     lambda a, r: {"forest.predict_trajectory.frames": len(a[1])}),
    ("pipeline", "predict_trajectory", "forest.predict_trajectory",
     lambda a, r: {"forest.predict_trajectory.frames": len(a[1])}),
    ("cli", "train_forest", "forest.train",
     lambda a, r: {"forest.train.nodes": sum(t.n_nodes for t in r.trees)}),
    ("cli", "load_model", "forest.load_model", None),
    ("cli", "save_model", "forest.save_model",
     lambda a, r: {"forest.model_bytes": _size(a[1])}),
    ("cli", "forward_dynamics", "arm.forward_dynamics",
     lambda a, r: {"arm.forward_dynamics.steps": len(r)}),
    ("pipeline", "forward_dynamics", "arm.forward_dynamics",
     lambda a, r: {"arm.forward_dynamics.steps": len(r)}),
    ("datagen", "forward_dynamics", "arm.forward_dynamics",
     lambda a, r: {"arm.forward_dynamics.steps": len(r)}),
    ("cli", "derive_labels", "arm.derive_labels", None),
    ("pipeline", "derive_labels", "arm.derive_labels", None),
    ("cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("cli", "evaluate_static", "pipeline.evaluate_static", None),
    ("cli", "map_trajectory", "voice.map_trajectory", None),
    ("pipeline", "map_trajectory", "voice.map_trajectory", None),
    ("cli", "synthesize", "voice.synthesize",
     lambda a, r: {"voice.synthesize.samples": len(r)}),
    ("pipeline", "synthesize", "voice.synthesize",
     lambda a, r: {"voice.synthesize.samples": len(r)}),
    ("cli", "write_wav", "voice.write_wav",
     lambda a, r: {"voice.write_wav.bytes": _size(a[1])}),
    ("pipeline", "accuracy", "metrics", None),
    ("pipeline", "rmse", "metrics", None),
    ("cli", "generate_dataset", "datagen.generate_dataset", None),
    ("cli", "generate_movement", "datagen.generate_movement", None),
    ("cli", "dataset_to_recording", "datagen.dataset_to_recording", None),
]

ROOT_SPAN = "cli.cli_main"
_SELF_S_SPANS = {"pipeline.run_pipeline", ROOT_SPAN}

# (metric, unit, better) for every per-layer metric the traced run prints.
PER_LAYER_METRICS: list[tuple[str, str, str]] = [
    ("eeg.load_recording_csv.s", "s", "lower"),
    ("eeg.load_recording_csv.rows", "count", "higher"),
    ("eeg.write_recording_csv.s", "s", "lower"),
    ("eeg.write_recording_csv.rows", "count", "higher"),
    ("eeg.window_frames.s", "s", "lower"),
    ("eeg.window_frames.frames", "count", "higher"),
    ("eeg.split_dataset.s", "s", "lower"),
    ("forest.predict_trajectory.s", "s", "lower"),
    ("forest.predict_trajectory.frames", "count", "higher"),
    ("forest.train.s", "s", "lower"),
    ("forest.train.nodes", "count", "lower"),
    ("forest.load_model.s", "s", "lower"),
    ("forest.save_model.s", "s", "lower"),
    ("forest.model_bytes", "bytes", "lower"),
    ("arm.forward_dynamics.s", "s", "lower"),
    ("arm.forward_dynamics.steps", "count", "higher"),
    ("arm.derive_labels.s", "s", "lower"),
    ("pipeline.run_pipeline.self_s", "s", "lower"),
    ("pipeline.evaluate_static.s", "s", "lower"),
    ("voice.map_trajectory.s", "s", "lower"),
    ("voice.synthesize.s", "s", "lower"),
    ("voice.synthesize.samples", "count", "higher"),
    ("voice.write_wav.s", "s", "lower"),
    ("voice.write_wav.bytes", "bytes", "higher"),
    ("metrics.s", "s", "lower"),
    ("datagen.generate_dataset.s", "s", "lower"),
    ("datagen.generate_movement.s", "s", "lower"),
    ("datagen.dataset_to_recording.s", "s", "lower"),
    ("cli.cli_main.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
]


def time_metric(span_name: str) -> str:
    return span_name + (".self_s" if span_name in _SELF_S_SPANS else ".s")


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    op: int
    start: float
    end: float = 0.0


class Recorder:
    """Collects spans and work counts for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._ops = 0

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._ops += 1
            span = Span(id=len(self.spans), name=name, parent=parent, op=self._ops - 1,
                        start=perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counts.update(counter(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self, modules: dict):
        """Swap the bound names for wrappers; yields the names not found."""
        saved, missing = [], []
        try:
            for mod_name, attr, span_name, counter in BINDINGS:
                mod = modules[mod_name]
                if not hasattr(mod, attr):
                    missing.append(f"{mod_name}.{attr}")
                    continue
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(span_name, original, counter))
            yield missing
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def self_times(self, op: Optional[int] = None) -> dict[str, float]:
        """Self time per layer metric, over all commands or over command ``op``."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if op is None or s.op == op:
                out[time_metric(s.name)] += (s.end - s.start) - child_time[s.id]
        return dict(out)

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)


def run_commands(cli_main: Callable, commands: list[list[str]]) -> tuple[float, list[int]]:
    """Run nf0 command lines in this process; returns (wall seconds, exit codes)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = perf_counter()
        codes = [cli_main(argv) for argv in commands]
        wall = perf_counter() - t0
    return wall, codes


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Self time per layer and work counts, zero for a layer that did not run."""
    values = dict.fromkeys((m for m, _u, _b in PER_LAYER_METRICS
                            if not m.startswith("trace.")), 0.0)
    values.update(rec.self_times())
    values.update({k: float(v) for k, v in rec.counts.items()})
    return values
