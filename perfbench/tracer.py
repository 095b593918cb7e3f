"""Span tracing of the simulator's layers, from outside the program.

The traced run replaces the public functions of each layer with thin
wrappers, at their module boundary, without editing ``src/``.  Every call
becomes a span ``(id, parent, request, name, start_ns, end_ns, attrs)``:
the parent is the span open in the caller's context (a ``contextvars``
variable, so it follows threads started by ``asyncio.to_thread`` and
asyncio tasks alike), and a span without a parent opens a new request id
that its descendants share.  Spans stay in memory until :func:`dump`.

Start and end times come from ``time.perf_counter_ns`` (``CLOCK_MONOTONIC``
on Linux), which every process on the host shares, so spans written by the
benchmark and by spawned servers can be laid on one time axis.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """The spans of one process, kept in memory."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def begin(self) -> tuple[str, str | None, str]:
        """``(id, parent id, request id)`` of a span opening in this context."""
        span_id = f"{self.pid}.{next(self._ids)}"
        parent = _CURRENT.get()
        if parent is None:
            return span_id, None, span_id
        return span_id, parent[0], parent[1]

    def end(self, span: tuple, name: str, start: int, attrs: dict | None) -> None:
        # list.append is atomic under the GIL; worker threads record concurrently.
        self.spans.append((span[0], span[1], span[2], name, start, time.perf_counter_ns(), attrs))


RECORDER = Recorder()


@contextlib.contextmanager
def span_context(name: str):
    """Record one span around the block (the benchmark's own root spans)."""
    span = RECORDER.begin()
    token = _CURRENT.set((span[0], span[2]))
    start = time.perf_counter_ns()
    try:
        yield
    finally:
        _CURRENT.reset(token)
        RECORDER.end(span, name, start, None)


def _wrap(name: str, fn, probe=None, attrs=None):
    """A wrapper recording a ``name`` span around each call of ``fn``.

    ``probe(args)`` runs before the call and its value goes to
    ``attrs(args, result, probed)``, which returns the span's attributes.
    """
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            span = RECORDER.begin()
            token = _CURRENT.set((span[0], span[2]))
            probed = probe(args) if probe else None
            start = time.perf_counter_ns()
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                _CURRENT.reset(token)
                RECORDER.end(span, name, start, attrs(args, result, probed) if attrs else None)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = RECORDER.begin()
        token = _CURRENT.set((span[0], span[2]))
        probed = probe(args) if probe else None
        start = time.perf_counter_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            _CURRENT.reset(token)
            RECORDER.end(span, name, start, attrs(args, result, probed) if attrs else None)

    return wrapper


def _drain_columns(args, result, _):
    masks, reaches = args[0], args[1]
    return {"columns": (masks.size // max(1, masks.shape[-1])) * len(reaches)}


def _calibration_misses(_):
    return _ORIGINALS["nn.calibration.calibrate"].cache_info().misses


def _calibration_attrs(args, result, misses_before):
    misses = _ORIGINALS["nn.calibration.calibrate"].cache_info().misses
    return {"computed": misses - misses_before}


def _remote_degraded(args):
    return args[0].remote_degraded


def _remote_attrs(args, result, degraded_before):
    return {"hit": result is not None, "degraded": args[0].remote_degraded - degraded_before}


#: span name -> (module, attribute path, probe, attrs).  One entry per public
#: function of a layer the benchmark times; the layer is the span name's prefix.
TARGETS: dict[str, tuple] = {
    "runtime.engine.simulate": ("repro.runtime.engine", "simulate", None, None),
    "nn.calibration.calibrate": (
        "repro.nn.calibration", "calibrate_network", _calibration_misses, _calibration_attrs,
    ),
    "arch.tiling.sample": (
        "repro.arch.tiling", "sample_pallet_values", None,
        lambda args, result, _: {"values": int(result[0].size)},
    ),
    "core.scheduling.masks": ("repro.core.scheduling", "encoded_drain_masks", None, None),
    "core.kernels.drain": ("repro.core.kernels", "batched_drain_cycles", None, _drain_columns),
    "core.sweep.sweep": ("repro.core.sweep", "sweep_network", None, None),
    "core.sweep.ssr": ("repro.core.sweep", "cycles_from_drain", None, None),
    "runtime.cache.get": (
        "repro.runtime.cache", "ResultCache.get", None,
        lambda args, result, _: {"hit": result is not None},
    ),
    "runtime.cache.put": ("repro.runtime.cache", "ResultCache.put", None, None),
    "serve.execute": ("repro.serve.workers", "execute_request", None, None),
    "cluster.execute": ("repro.cluster.coordinator", "ClusterService._execute_cluster", None, None),
    "cachenet.load": (
        "repro.cachenet.backend", "RemoteBackend.load", _remote_degraded, _remote_attrs,
    ),
    "cachenet.store": (
        "repro.cachenet.backend", "RemoteBackend.store", _remote_degraded, _remote_attrs,
    ),
}

_ORIGINALS: dict[str, object] = {}
_WRAPPERS: dict[str, object] = {}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def _rebind(old, new) -> None:
    """Point every ``repro`` module global that holds ``old`` at ``new``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


def install() -> None:
    """Wrap every target (idempotent).  Imports the wrapped modules."""
    for name, (module_name, path, probe, attrs) in TARGETS.items():
        if name in _WRAPPERS:
            continue
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        wrapper = _wrap(name, original, probe, attrs)
        if hasattr(original, "cache_clear"):
            wrapper.cache_clear = original.cache_clear
            wrapper.cache_info = original.cache_info
        _ORIGINALS[name] = original
        _WRAPPERS[name] = wrapper
        setattr(owner, attr, wrapper)
        if inspect.ismodule(owner):
            _rebind(original, wrapper)


def uninstall() -> None:
    """Restore every wrapped function to its original."""
    for name, wrapper in list(_WRAPPERS.items()):
        module_name, path = TARGETS[name][:2]
        owner, attr = _resolve(module_name, path)
        original = _ORIGINALS.pop(name)
        setattr(owner, attr, original)
        if inspect.ismodule(owner):
            _rebind(wrapper, original)
        del _WRAPPERS[name]


def original(name: str):
    """The unwrapped function behind target ``name`` (the live one if unwrapped)."""
    if name in _ORIGINALS:
        return _ORIGINALS[name]
    return getattr(*_resolve(*TARGETS[name][:2]))


def take_spans() -> list[tuple]:
    """Remove and return this process's recorded spans."""
    spans, RECORDER.spans = RECORDER.spans, []
    return spans


def dump(path: str) -> None:
    """Write this process's spans as JSON lines (atomically, via rename)."""
    spans = list(RECORDER.spans)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    os.replace(tmp, path)
