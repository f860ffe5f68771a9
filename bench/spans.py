"""In-memory span tracer that wraps tsvdkit's public functions from outside.

Every function named in a module's ``__all__`` (plus ``cli.main``) is
replaced at every module attribute where a caller looks it up, so that
``tsvdkit.kmsvd.dft_mode3`` and ``tsvdkit.spectral.dft_mode3`` both record
into the same span name ``spectral.dft_mode3``.  Nested calls become child
spans; all spans of one benchmark op share that op's id.  Spans are recorded
only while an op is running, so oracle checks made between ops with the same
functions leave no trace.  The library under ``src/`` is never edited.
"""

import csv
import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _array_bytes(args, result):
    # Computed bytes: the input array as passed plus the returned array.
    return np.asarray(args[0]).nbytes + result.nbytes


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# Work counters recorded beside a span's duration, keyed by span name.
BYTE_COUNTERS = {
    "spectral.dft_mode3": _array_bytes,
    "spectral.idft_mode3": _array_bytes,
    "fileio.read_tensor": _file_bytes,
    "fileio.write_tensor": _file_bytes,
}

FIELDS = ("op", "span", "parent", "name", "t0_ns", "t1_ns", "bytes")


def span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def public_functions(package):
    """The functions to trace: each submodule's ``__all__`` plus ``cli.main``."""
    found = {}
    for mod in _package_modules(package):
        names = list(getattr(mod, "__all__", ()))
        if mod.__name__.endswith(".cli"):
            names.append("main")
        for name in names:
            fn = getattr(mod, name)
            if inspect.isfunction(fn):
                found[fn] = span_name(fn)
    return found


def _package_modules(package):
    prefix = package.__name__ + "."
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package.__name__ or name.startswith(prefix))
    ]


class Tracer:
    """Collects (op, span, parent, name, t0_ns, t1_ns, bytes) tuples in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._patched = []

    def install(self, package):
        """Wrap every public function at every attribute that refers to it."""
        wrappers = {
            fn: self._wrap(fn, name) for fn, name in public_functions(package).items()
        }
        for mod in _package_modules(package):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextmanager
    def op(self, op_id):
        """Record spans under `op_id` for the duration of the block."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            self._stack.clear()

    def _wrap(self, fn, name):
        count = BYTE_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(span_id)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans[span_id] = (self._op, span_id, parent, name, t0, t1, 0)
            if count is not None:
                self.spans[span_id] = self.spans[span_id][:-1] + (count(args, result),)
            return result

        return traced

    def summary(self):
        """Per span name: calls, self seconds, inclusive seconds, bytes.

        Self time is a span's duration minus the durations of its direct
        children.  Ops run on one thread, so children never overlap.
        """
        child_ns = defaultdict(int)
        for _, _, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "bytes": 0})
        for _, span_id, _, name, t0, t1, nbytes in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += max(0, t1 - t0 - child_ns[span_id]) * 1e-9
            row["total_s"] += (t1 - t0) * 1e-9
            row["bytes"] += nbytes
        return dict(out)

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(FIELDS)
            writer.writerows(self.spans)
