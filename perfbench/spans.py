"""Spans recorded from outside the program.

`Tracer.install` replaces public bbadapt functions and methods with thin
wrappers that record one span per call: name, start, end, parent span and
run id. A module-level function is replaced in every bbadapt module that
holds it, because callers such as `cli` import names like `evaluate` or
`run_distillation` directly and look them up in their own namespace.
Spans stay in memory until `write` dumps them at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import socket
import sys
import time

MODULES = ("cli", "scenarios", "nets", "tensor", "distill", "finetune", "predictors", "service")

# (module, attribute or Class.method, span name, annotate(args, result) -> dict | None)
TARGETS = (
    ("cli", "run_experiment", "cli.run_experiment", None),
    ("cli", "_write_json", "cli.io", None),
    ("cli", "_write_metrics", "cli.io", None),
    ("scenarios", "generate", "scenarios.generate", None),
    ("scenarios", "evaluate", "scenarios.evaluate", None),
    ("nets", "train_source_net", "nets.train_source_net", None),
    ("nets", "SGD.step", "nets.sgd_step", None),
    ("nets", "SourceNet.predict_proba", "nets.predict_proba", None),
    ("nets", "TargetNet.predict_proba", "nets.predict_proba", None),
    ("nets", "save_checkpoint", "nets.save_checkpoint", None),
    ("nets", "load_checkpoint", "nets.load_checkpoint", None),
    ("tensor", "GradTape.gradient", "tensor.gradient", lambda args, result: {"records": len(args[0])}),
    ("distill", "run_distillation", "distill.run_distillation", None),
    ("distill", "total_loss", "distill.total_loss", None),
    ("distill", "MemoryBank.ema_update", "distill.ema_update", None),
    ("finetune", "run_finetune", "finetune.run_finetune", None),
    ("predictors", "init_teacher", "predictors.init_teacher", None),
    ("predictors", "InProcessPredictor.query", "predictors.query", None),
    ("predictors", "quantize_probs", "predictors.quantize_probs", None),
    ("predictors", "write_cache", "predictors.write_cache", lambda args, result: {"bytes": os.path.getsize(args[0])}),
    ("predictors", "read_cache", "predictors.read_cache", None),
    ("service", "RemotePredictor.query", "service.query", lambda args, result: {"rows": len(args[1])}),
)


class Tracer:
    """In-memory span store plus the patches that feed it.

    Spans are lists `[name, start, end, parent, run, extra]`; `parent` is
    the index of the enclosing span or -1. Wrappers record only while
    `run` is set; `recording` installs them for one traced operation and
    removes them afterwards, so untraced operations run unpatched code.
    """

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []
        self._undo = []

    # recording ---------------------------------------------------------

    @contextlib.contextmanager
    def recording(self, run: str):
        self.install()
        self.run = run
        try:
            yield self
        finally:
            self.run = None
            self.uninstall()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name) if self.run is not None else None
        try:
            yield
        finally:
            if index is not None:
                self.close(index)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, extra=None):
        span = self.spans[index]
        span[2] = time.perf_counter()
        if extra:
            span[5] = {**(span[5] or {}), **extra}
        self._stack.pop()

    def bump(self, key: str):
        """Add one to counter `key` on the innermost open span."""
        if self.run is None or not self._stack:
            return
        span = self.spans[self._stack[-1]]
        extra = span[5] = span[5] or {}
        extra[key] = extra.get(key, 0) + 1

    def wrap(self, fn, name: str, annotate=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.run is None:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(index, annotate(args, result) if annotate and result is not None else None)

        return traced

    # patching ------------------------------------------------------------

    def install(self, package: str = "bbadapt"):
        modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        holders = [*modules.values(), sys.modules[package]]
        for mod_name, attr, span_name, annotate in TARGETS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self.wrap(cls.__dict__[meth], span_name, annotate))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, span_name, annotate)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapped)
        self._patch(modules["service"], "socket", _CountingSocketModule(self))

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # analysis ------------------------------------------------------------

    def self_times(self) -> list:
        """Per span: duration minus the time its direct children cover.

        Children of one span run one after another on one thread, so
        their durations never overlap and can simply be summed.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, run, extra in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1]) - child[i] for i, s in enumerate(self.spans)]

    def write(self, path: str, meta: dict):
        selfs = self.self_times()
        totals = {}
        for span, self_s in zip(self.spans, selfs):
            row = totals.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += self_s
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "by_name": totals, "fields": ["name", "start", "end", "parent", "run", "extra"]}, fh)
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


class _CountingSocket(socket.socket):
    """Client socket that counts request lines sent over it."""

    tracer = None

    def send(self, data, *flags):
        sent = super().send(data, *flags)
        self._count(memoryview(data)[:sent])
        return sent

    def sendall(self, data, *flags):
        super().sendall(data, *flags)
        self._count(memoryview(data))

    def _count(self, view):
        for _ in range(bytes(view).count(b"\n")):
            self.tracer.bump("requests")


class _CountingSocketModule:
    """Stand-in for the `socket` module as `service` sees it: counts
    connections and the newline-terminated requests written on them."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(socket, name)

    def create_connection(self, *args, **kwargs):
        sock = socket.create_connection(*args, **kwargs)
        self._tracer.bump("connections")
        timeout = sock.gettimeout()
        counted = _CountingSocket(sock.family, sock.type, sock.proto, fileno=sock.detach())
        counted.settimeout(timeout)
        counted.tracer = self._tracer
        return counted
