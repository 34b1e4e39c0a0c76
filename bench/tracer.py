"""In-memory span tracer that instruments the package from outside.

The pipeline modules call each other through module globals (``from .graphs
import st_order`` puts ``st_order`` into ``fewslopes.twobend``). Replacing
each such global with a timing wrapper therefore records every call between
modules without editing the package; ``uninstall`` puts the originals back.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import logging
import sys
import time
from collections import Counter, defaultdict

# modules whose public functions become spans, named "<module>.<function>"
LAYERS = ("graphs", "circlepack", "straightline", "onebend", "twobend", "verify")


def sites() -> list:
    """Every loaded module of the package: each may hold a layer function."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "fewslopes" or name.startswith("fewslopes.")
    ]


class _SweepLog(logging.Handler):
    """Collects (sweeps, residual) from circlepack's debug record."""

    def __init__(self, sink: list):
        super().__init__(logging.DEBUG)
        self.sink = sink

    def emit(self, record):
        if record.msg.startswith("pack_radii converged"):
            self.sink.append((int(record.args[0]), float(record.args[1])))


class Tracer:
    """Spans are (name, instance, start, end, self seconds, parent index).

    ``observers`` maps a span name to a function called with the wrapped
    function's return value and this tracer, for counts taken where the work
    happens (for example the bit length of snapped coordinates).
    """

    def __init__(self, observers=None):
        self.observers = observers or {}
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.sweeps: list[tuple[int, float]] = []
        self.instance = None
        self._stack: list[list] = []  # [name, start, child seconds, index]
        self._saved: list[tuple] = []
        self._log_state = None

    # --- spans ---------------------------------------------------------------

    def enter(self, name: str):
        self._stack.append([name, time.perf_counter(), 0.0, len(self.spans)])
        self.spans.append(None)  # reserved so parents precede children

    def leave(self, error: BaseException | None = None):
        name, start, child, idx = self._stack.pop()
        end = time.perf_counter()
        dur = end - start
        parent = self._stack[-1][3] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += dur
        self.spans[idx] = (name, self.instance, start, end, dur - child, parent)
        self.calls[name] += 1
        if error is not None:
            self.errors[(name, type(error).__name__)] += 1

    def span(self, name: str):
        return _Span(self, name)

    def note_max(self, key: str, value: float):
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    # --- instrumentation -------------------------------------------------------

    def _wrap(self, name: str, fn):
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.leave(exc)
                raise
            self.leave()
            if observe is not None:
                observe(out, self)
            return out

        return traced

    def install(self):
        """Wrap every public layer function at every module that holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod in sites():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("fewslopes.") or layer not in LAYERS:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
        log = logging.getLogger("fewslopes.circlepack")
        handler = _SweepLog(self.sweeps)
        self._log_state = (log, log.level, log.propagate, handler)
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
        log.propagate = False

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()
        if self._log_state is not None:
            log, level, propagate, handler = self._log_state
            log.removeHandler(handler)
            log.setLevel(level)
            log.propagate = propagate
            self._log_state = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- summaries ---------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, _inst, _s, _e, self_s, _p in self.spans:
            out[name] += self_s
        return dict(out)

    def dump(self, path):
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for name, inst, start, end, self_s, parent in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "instance": inst,
                            "start": start,
                            "end": end,
                            "self_s": self_s,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.enter(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer.leave(exc)
        return False
