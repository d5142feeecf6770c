"""Benchmark-side tracer: a span around every public function of stockdim.

`Tracer.install` replaces each public function of each stockdim module
with a wrapper that records a span, in every stockdim module that holds
the function (its own module too, so calls within a module are traced).
`Tracer.uninstall` puts the originals back. The program's source is not
changed. Time spent in methods, constructors and private helpers counts
to the nearest enclosing traced function; the benchmark opens the root
span itself, around each in-process CLI call, in the `cli` layer.

A span is `(name, layer, start, end, parent)`: `parent` is the index of
the enclosing span in `Tracer.spans`, or -1 for a root. Spans stay in
memory until the caller clears them.
"""

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import defaultdict

ROOT = -1


class Tracer:
    def __init__(self, package, observe=None):
        """Trace every submodule of `package`.

        `observe` maps "layer.function" to a callable that turns the
        function's return value into a number; each call appends it to
        `self.observed["layer.function"]`.
        """
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        self.observe = observe or {}
        self.observed = defaultdict(list)
        self.observer_errors = []
        self._stack = []
        self._patches = []
        self._key_ids = {}  # (function, layer) -> the id stored per span
        self._key = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")

    def install(self):
        wrappers = {}
        for module in self.modules[1:]:
            layer = module.__name__.rpartition(".")[2]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(layer, name, obj)
        for module in self.modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    self._patches.append((module, name, obj))

    def uninstall(self):
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def clear(self):
        for column in (self._key, self._start, self._end, self._parent):
            del column[:]
        self.observed.clear()

    @property
    def spans(self):
        """Every span recorded since the last `clear`, in the order they began."""
        names = list(self._key_ids)
        return [
            (*names[key], start, end, parent)
            for key, start, end, parent in zip(self._key, self._start, self._end, self._parent)
        ]

    def root(self, name, layer, fn, *args, **kwargs):
        """Call `fn` inside a span of its own, e.g. a whole CLI call."""
        return self._wrap(layer, name, fn)(*args, **kwargs)

    def _wrap(self, layer, name, fn):
        # Spans go into flat arrays rather than one tuple each, which keeps
        # tens of thousands of spans per iteration compact and untracked by
        # the garbage collector.
        key = f"{layer}.{name}"
        key_id = self._key_ids.setdefault((name, layer), len(self._key_ids))
        observe = self.observe.get(key)
        keys, starts, ends, parents = self._key, self._start, self._end, self._parent
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            keys.append(key_id)
            parents.append(stack[-1] if stack else ROOT)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                self._observe(key, observe, result)
            return result

        return traced

    def _observe(self, key, observe, result):
        # An observer that no longer fits the program's return values must
        # not turn a working CLI call into a failed one: the observation is
        # dropped, reported at the end, and its metric reads 0.
        try:
            self.observed[key].append(observe(result))
        except Exception as exc:  # noqa: BLE001 - instrumentation boundary
            self.observer_errors.append(f"{key}: {exc!r}")


def self_times(spans):
    """Self time per layer: each span's duration minus its children's."""
    covered = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent != ROOT:
            covered[parent] += end - start
    totals = defaultdict(float)
    for (_, layer, start, end, _), children in zip(spans, covered):
        totals[layer] += end - start - children
    return totals


def durations(spans):
    """Total duration and call count per "layer.function"."""
    total, calls = defaultdict(float), defaultdict(int)
    for name, layer, start, end, _ in spans:
        total[f"{layer}.{name}"] += end - start
        calls[f"{layer}.{name}"] += 1
    return total, calls
