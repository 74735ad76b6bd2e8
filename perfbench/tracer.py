"""Outside-in tracing of vulnpool, from the benchmark's own files.

The tracer replaces module attributes and class methods by name at run time,
only while it is installed, and restores them afterwards. It records one span
per call (name, start, end, parent) in memory and counts calls of every
public `numcore` callable that returns one of numcore's own objects. A target
that a later refactor renames or removes is reported as absent, not raised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import time
from collections import Counter

# (span name, module, attribute path) of the traced entry points
TARGETS = (
    ("corpus.generate", "vulnpool.corpus", "generate_synthetic"),
    ("corpus.strip_comments", "vulnpool.corpus", "strip_comments"),
    ("corpus.filter", "vulnpool.corpus", "filter_by_length"),
    ("corpus.split", "vulnpool.corpus", "split_dataset"),
    ("tokenizer.build_vocab", "vulnpool.tokenizer", "build_vocab"),
    ("tokenizer.encode", "vulnpool.tokenizer", "encode"),
    ("encoder.embed", "vulnpool.encoder", "Encoder.embed"),
    ("encoder.encode", "vulnpool.encoder", "Encoder.encode"),
    ("pool.select", "vulnpool.pool", "select"),
    ("pool.select_masked", "vulnpool.pool", "select_masked"),
    ("pool.adapt", "vulnpool.pool", "adapt"),
    ("pool.surrogate", "vulnpool.pool", "surrogate_similarity"),
    ("model.forward", "vulnpool.model", "VulnPoolModel.forward"),
    ("model.loss", "vulnpool.model", "VulnPoolModel.loss"),
    ("model.predict", "vulnpool.model", "VulnPoolModel.predict"),
    ("numcore.backward", "vulnpool.numcore", "backward"),
    ("trainer.train", "vulnpool.trainer", "train"),
    ("trainer.adam", "vulnpool.trainer", "adam_step"),
    ("trainer.save_checkpoint", "vulnpool.trainer", "save_checkpoint"),
    ("trainer.load_checkpoint", "vulnpool.trainer", "load_checkpoint"),
    ("checkpoint.save", "vulnpool.checkpoint", "save_arrays"),
    ("checkpoint.load", "vulnpool.checkpoint", "load_arrays"),
    ("evaluate.evaluate_model", "vulnpool.evaluate", "evaluate_model"),
    ("config.build_model", "vulnpool.config", "build_model"),
)
OPS_MODULE = "vulnpool.numcore"


def _rows(args, kwargs, result) -> int:
    """Rows a call encodes: every leading dimension of its input."""
    shape = getattr(args[1] if len(args) > 1 else kwargs.get("x"), "shape", ())
    return math.prod(shape[:-1])


def _bytes_written(args, kwargs, result) -> int:
    path = args[0] if args else kwargs.get("path")
    return os.path.getsize(path)


# per-call quantities recorded with the span
OBSERVERS = {"encoder.encode": _rows, "checkpoint.save": _bytes_written}

# span fields
NAME, START, END, PARENT, OPS0, OPS1, VALUE = range(7)


class Tracer:
    def __init__(self, workload: str, targets=TARGETS, ops_module: str = OPS_MODULE):
        self.workload = workload
        self.targets = targets
        self.ops_module = ops_module
        self.spans: list[list] = []
        self.ops = 0
        self.op_counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    # install / uninstall

    def __enter__(self):
        self.absent = []
        for name, module, path in self.targets:
            owner, attr = self._resolve(module, path)
            original = vars(owner).get(attr) if owner is not None else None
            if not inspect.isfunction(original):
                self.absent.append(f"{module}.{path}")
                continue
            self._patch(owner, attr, self._spanned(name, original, OBSERVERS.get(name)))
        try:
            ops = importlib.import_module(self.ops_module)
        except ImportError:
            self.absent.append(self.ops_module)
            return self
        spanned = {path for _, module, path in self.targets if module == self.ops_module}
        own_types = tuple(
            c for c in vars(ops).values() if inspect.isclass(c) and c.__module__ == ops.__name__
        )
        for attr, fn in list(vars(ops).items()):
            if (attr.startswith("_") or attr in spanned or not inspect.isfunction(fn)
                    or fn.__module__ != ops.__name__):
                continue
            self._patch(ops, attr, self._counted(attr, fn, own_types))
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    @staticmethod
    def _resolve(module: str, path: str):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None, None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        return owner, attr

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, name, fn, observe):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.ops, 0, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    span[VALUE] = observe(args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[OPS1] = self.ops
                span[END] = clock()

        return traced

    def _counted(self, name, fn, own_types):
        counts = self.op_counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if isinstance(result, own_types):
                self.ops += 1
                counts[name] += 1
            return result

        return counted

    # ------------------------------------------------------------------
    # analysis

    def within(self, ancestor: str) -> list[bool]:
        """For every span, whether it or one of its ancestors is named `ancestor`."""
        flags = []
        for span in self.spans:  # parents precede their children
            flags.append(span[NAME] == ancestor or (span[PARENT] >= 0 and flags[span[PARENT]]))
        return flags

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def totals(self, start: float = -math.inf, end: float = math.inf) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, summed value,
        over the spans that start in [start, end)."""
        own = self.self_times()
        out: dict[str, dict] = {}
        for s, self_s in zip(self.spans, own):
            if not start <= s[START] < end:
                continue
            t = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0})
            t["calls"] += 1
            t["s"] += s[END] - s[START]
            t["self_s"] += self_s
            t["value"] += s[VALUE]
        return out

    def step_times(self) -> list[float]:
        """Training steps: from the first forward after an optimizer step (or
        the start of training) to the end of the next optimizer step, leaving
        out forwards made by validation."""
        in_train = self.within("trainer.train")
        in_eval = self.within("evaluate.evaluate_model")
        steps, begin = [], None
        for s, train, ev in zip(self.spans, in_train, in_eval):
            if not train or ev:
                continue
            if s[NAME] == "model.forward" and begin is None:
                begin = s[START]
            elif s[NAME] == "trainer.adam" and begin is not None:
                steps.append(s[END] - begin)
                begin = None
        return steps

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "name": s[NAME],
                    "start": s[START] - self._t0,
                    "end": s[END] - self._t0,
                    "parent": s[PARENT],
                    "workload": self.workload,
                }) + "\n")
