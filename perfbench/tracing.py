"""Span tracing of twrnnt's layers, installed from outside the package.

A ``Tracer`` replaces each traced function with a wrapper at every place a
caller resolves it: every ``twrnnt.*`` module attribute bound to the
original function object.  Kernels are looked up as attributes of
``twrnnt.kernels`` at call time, so wrapping that attribute catches every DP
call whichever wrapper makes it; ``from .model import model_forward`` style
imports are caught by rebinding ``training.model_forward`` and the like.

Spans (name, start, end, parent) are kept in memory and written as JSON on
request.  A span's self time is its duration minus the durations of its
direct children, which cover disjoint parts of it in this single-threaded
program.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (metric prefix, module that resolves it, function name).  The prefix names
# the layer a reader looks for; ``model.normalize_logits`` is defined in
# ``lattice`` but is the normalization step of the model's forward pass.
TARGETS = (
    ("kernels.forward_fill", "kernels", "forward_fill"),
    ("kernels.backward_fill", "kernels", "backward_fill"),
    ("kernels.loglik_grad", "kernels", "loglik_grad"),
    ("kernels.emission_sweep", "kernels", "emission_sweep"),
    ("kernels.weighted_grad", "kernels", "weighted_grad"),
    ("kernels.next_symbol_masses", "kernels", "next_symbol_masses"),
    ("model.model_forward", "model", "model_forward"),
    ("model.normalize_logits", "model", "normalize_logits"),
    ("model.model_backward", "model", "model_backward"),
    ("model.adam_step", "model", "adam_step"),
    ("model.greedy_decode", "model", "greedy_decode"),
    ("lattice.rnnt_loss_grad", "lattice", "rnnt_loss_grad"),
    ("weighting.compute_weights", "weighting", "compute_weights"),
    ("weighting.weighted_loss_and_grad", "weighting", "weighted_loss_and_grad"),
    ("conditionals.conditional_profile", "conditionals", "conditional_profile"),
    ("training.train_model", "training", "train_model"),
    ("training.evaluate_wer", "training", "evaluate_wer"),
    ("training.score_confidences", "training", "score_confidences"),
    ("metrics.wer", "metrics", "wer"),
    ("corruption.corrupt_corpus", "corruption", "corrupt_corpus"),
)

ROUND = "bench.round"


class Tracer:
    def __init__(self):
        self.names = [ROUND] + [label for label, _, _ in TARGETS]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.spans = []  # (name index, start, end, parent span index or -1)
        self.cells = {}  # kernel label -> summed T * (U + 1) over calls
        self.absent = []
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, label, fn):
        idx = self._index[label]
        spans, stack = self.spans, self._stack
        count_cells = label.startswith("kernels.")
        if count_cells:
            self.cells[label] = 0
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if count_cells:
                shape = args[0].shape
                self.cells[label] += shape[0] * shape[1]
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent)

        return traced

    def install(self):
        """Rebind every twrnnt module attribute that holds a traced function."""
        modules = [m for n, m in sys.modules.items() if n == "twrnnt" or n.startswith("twrnnt.")]
        for label, module_name, fn_name in TARGETS:
            original = getattr(importlib.import_module("twrnnt." + module_name), fn_name, None)
            if original is None:
                self.absent.append(label)
                continue
            wrapper = self._wrap(label, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def round(self, fn):
        """Run fn() as one root span named ``bench.round``."""
        me = len(self.spans)
        self.spans.append(None)
        self._stack.append(me)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[me] = (0, start, end, -1)

    def summary(self):
        """Per name: calls and summed self seconds over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for idx, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, (idx, start, end, _) in enumerate(self.spans):
            calls[idx] += 1
            self_s[idx] += (end - start) - child_time[i]
        return {
            name: {"calls": calls[i], "self_s": self_s[i]}
            for i, name in enumerate(self.names)
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["name", "start", "end", "parent"],
                    "spans": [
                        [self.names[idx], start, end, parent]
                        for idx, start, end, parent in self.spans
                    ],
                },
                fh,
            )
