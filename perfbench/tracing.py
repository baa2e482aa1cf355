"""Spans and counters recorded around xmodal's functions, from outside the program.

Each layer function is wrapped where its callers look it up: every loaded
``xmodal.*`` module whose namespace holds the original function object gets
the wrapper, so ``from .data import load_dataset`` in ``cli`` and
``T.backward`` in ``trainer`` are both caught. ``install`` returns the
patches; ``undo`` puts every original back.

A span is ``[name, start, end, parent]``; spans live in memory and are written
out once, when the run ends. A span's self time is its duration minus the
durations of its direct children (children of one span never overlap: the
program is single-threaded).
"""

import functools
import math
import os
import statistics
import sys
import time

# (module, function, span name). A function missing from a later version of
# the program is reported by ``install``; the run counts it as a failed operation.
LAYER_FUNCTIONS = [
    ("xmodal.data", "generate_synthetic", "data.generate"),
    ("xmodal.data", "save_dataset", "data.save"),
    ("xmodal.data", "load_dataset", "data.load"),
    ("xmodal.data", "split", "data.split"),
    ("xmodal.data", "stack_features", "data.stack"),
    ("xmodal.model", "forward_backbone", "model.backbone"),
    ("xmodal.model", "forward_encoder", "model.encoder"),
    ("xmodal.model", "embed", "model.embed"),
    ("xmodal.losses", "combined_loss", "losses.combined"),
    ("xmodal.losses", "loss_mim", "losses.mim"),
    ("xmodal.losses", "loss_mde", "losses.mde"),
    ("xmodal.losses", "loss_msp", "losses.msp"),
    ("xmodal.tensor", "backward", "tensor.backward"),
    ("xmodal.trainer", "train", "trainer.train"),
    ("xmodal.trainer", "adam_step", "trainer.adam"),
    ("xmodal.trainer", "_validation_loss", "trainer.validation"),
    ("xmodal.trainer", "save_checkpoint", "trainer.save_checkpoint"),
    ("xmodal.trainer", "load_checkpoint", "trainer.load_checkpoint"),
    ("xmodal.retrieval", "build_index", "retrieval.build_index"),
    ("xmodal.retrieval", "evaluate_cross_modal", "retrieval.evaluate"),
    ("xmodal.retrieval", "metrics_to_csv", "retrieval.metrics_csv"),
]
# Public functions of xmodal.tensor that are not autodiff primitives.
NOT_PRIMITIVES = {"backward", "finite_diff_grad", "rel_error"}


class Tracer:
    """In-memory spans plus the counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []           # [name, start, end, parent index or -1]
        self._stack = []
        self.tensor_ops = 0       # calls into xmodal.tensor primitives
        self.step_ops = []        # primitive calls per training step
        self.candidates = []      # index items in the target modality, per retrieve call

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.remove(idx)

    def current(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def counted(self, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.tensor_ops += 1
            return fn(*args, **kwargs)
        return counting

    def traced_batch_iter(self, fn):
        """Each training batch, from its yield to the request for the next, is one step."""
        @functools.wraps(fn)
        def steps(*args, **kwargs):
            if self.current() == "trainer.validation":
                yield from fn(*args, **kwargs)
                return
            for batch in fn(*args, **kwargs):
                idx, ops = self.open("trainer.step"), self.tensor_ops
                try:
                    yield batch
                finally:
                    self.close(idx)
                    self.step_ops.append(self.tensor_ops - ops)
        return steps

    def traced_retrieve(self, fn):
        traced = self.wrap("retrieval.retrieve", fn)

        @functools.wraps(fn)
        def retrieve(index, query_embedding, target_modality, *args, **kwargs):
            self.candidates.append(index.size(target_modality))
            return traced(index, query_embedding, target_modality, *args, **kwargs)
        return retrieve

    def record(self):
        """The trace as written to the output file: times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {"spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
                "counters": {"tensor_ops": self.tensor_ops, "step_ops": self.step_ops,
                             "candidates": self.candidates}}


class Patches:
    def __init__(self):
        self._saved = []   # (module, attribute, original)

    def replace(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "xmodal" or name.startswith("xmodal.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def undo(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def install(tracer):
    """Wrap every layer function of the currently loaded xmodal modules.

    Returns the patches and the names of the functions that could not be found."""
    patches, missing = Patches(), []

    def find(module, attr):
        fn = getattr(sys.modules.get(module), attr, None)
        if not callable(fn):
            missing.append(f"{module}.{attr}")
            return None
        return fn

    tensor = sys.modules["xmodal.tensor"]
    for attr, fn in list(vars(tensor).items()):
        if (callable(fn) and not isinstance(fn, type) and not attr.startswith("_")
                and getattr(fn, "__module__", None) == "xmodal.tensor"
                and attr not in NOT_PRIMITIVES):
            patches.replace(fn, tracer.counted(fn))
    for module, attr, span in LAYER_FUNCTIONS:
        fn = find(module, attr)
        if fn is not None:
            patches.replace(fn, tracer.wrap(span, fn))
    for module, attr, wrapper in (("xmodal.data", "batch_iter", tracer.traced_batch_iter),
                                  ("xmodal.retrieval", "retrieve", tracer.traced_retrieve)):
        fn = find(module, attr)
        if fn is not None:
            patches.replace(fn, wrapper(fn))
    return patches, missing


class NoSamples(Exception):
    """A per-layer metric whose spans or counters never occurred in the traced rounds."""


def _median(values):
    if not values:
        raise NoSamples
    return statistics.median(values)


def _percentile(values, q):
    """Nearest-rank percentile."""
    values = sorted(values)
    if not values:
        raise NoSamples
    return values[max(0, math.ceil(q / 100 * len(values)) - 1)]


def _mean(values):
    if not values:
        raise NoSamples
    return sum(values) / len(values)


def layer_metrics(tracer, import_s, run):
    """Every per-layer metric, as ({name: (value, unit)}, [names without samples]).

    A metric without samples is left out of the first dict: reading it as 0
    would look like a gain, not like a broken measurement."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    in_step = [False] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_step[i] = in_step[parent] or spans[parent][0] == "trainer.step"

    def durations(name, step_only=False, self_time=False):
        return [(end - start) - (child[i] if self_time else 0.0)
                for i, (n, start, end, _) in enumerate(spans)
                if n == name and (in_step[i] or not step_only)]

    def med(name, scale, **kw):
        return lambda: _median(durations(name, **kw)) * scale

    def size(path):
        return lambda: os.path.getsize(path)

    def retrieve_us(q):
        return lambda: _percentile([d * 1e6 for d in durations("retrieval.retrieve")], q)

    ms, s = 1e3, 1.0
    getters = {
        "cli.import_s": (lambda: _median(import_s), "s"),
        "cli.train_self_ms": (med("cli.train", ms, self_time=True), "ms"),
        "cli.evaluate_self_ms": (med("cli.evaluate", ms, self_time=True), "ms"),
        "cli.retrieve_self_ms": (med("cli.retrieve", ms, self_time=True), "ms"),
        "data.generate_s": (med("data.generate", s), "s"),
        "data.save_s": (med("data.save", s), "s"),
        "data.load_s": (med("data.load", s), "s"),
        "data.archive_bytes": (size(run.archive), "bytes"),
        "data.split_ms": (med("data.split", ms), "ms"),
        "data.stack_ms": (med("data.stack", ms, step_only=True), "ms"),
        "model.backbone_ms": (med("model.backbone", ms, step_only=True), "ms"),
        "model.encoder_ms": (med("model.encoder", ms, step_only=True), "ms"),
        "model.embed_ms": (med("model.embed", ms), "ms"),
        "losses.combined_ms": (med("losses.combined", ms, step_only=True, self_time=True), "ms"),
        "losses.mim_ms": (med("losses.mim", ms, step_only=True), "ms"),
        "losses.mde_ms": (med("losses.mde", ms, step_only=True), "ms"),
        "losses.msp_ms": (med("losses.msp", ms, step_only=True), "ms"),
        "tensor.backward_ms": (med("tensor.backward", ms), "ms"),
        "tensor.ops_per_step": (lambda: _mean(tracer.step_ops), "count"),
        "trainer.step_ms": (med("trainer.step", ms), "ms"),
        "trainer.adam_ms": (med("trainer.adam", ms), "ms"),
        "trainer.validation_ms": (med("trainer.validation", ms), "ms"),
        "trainer.save_checkpoint_ms": (med("trainer.save_checkpoint", ms), "ms"),
        "trainer.checkpoint_bytes": (size(run.ckpt), "bytes"),
        "trainer.load_checkpoint_ms": (med("trainer.load_checkpoint", ms), "ms"),
        "retrieval.build_index_ms": (med("retrieval.build_index", ms), "ms"),
        "retrieval.retrieve_us_p50": (retrieve_us(50), "us"),
        "retrieval.retrieve_us_p90": (retrieve_us(90), "us"),
        "retrieval.evaluate_s": (med("retrieval.evaluate", s), "s"),
        "retrieval.candidates_per_query": (lambda: _mean(tracer.candidates), "count"),
        "retrieval.metrics_csv_ms": (med("retrieval.metrics_csv", ms), "ms"),
    }
    metrics, empty = {}, []
    for name, (getter, unit) in getters.items():
        try:
            metrics[name] = (getter(), unit)
        except (NoSamples, FileNotFoundError):
            empty.append(name)
    return metrics, empty
