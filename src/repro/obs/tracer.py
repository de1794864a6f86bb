"""Structured tracing: nested spans and instant events as JSON lines.

The paper validates its engine by watching internal state evolve — the
per-generation best/sum-of-fitness traces of Figs. 8-12 and the hardware
convergence counters of Tables VII-IX.  :class:`Tracer` is the software
rendition of those probe points: engines emit *events* (one record per
generation boundary, recovery action, migration epoch, ...) and *spans*
(timed, nested scopes: a run, an epoch, a service chunk) into a single
ordered stream with monotonic timestamps.  The stream round-trips through
JSON lines, so ``repro trace`` output is greppable, diffable, and feeds
the :mod:`repro.obs.analyze` reconstruction helpers directly.

Zero cost when disabled
-----------------------

The process-wide default tracer is :data:`NULL_TRACER`, whose ``enabled``
flag is False and whose methods are no-ops.  Instrumented call sites hoist
one check (``tracing = tracer is not None and tracer.enabled``) out of
their hot loops; per-iteration probe work happens only under that flag
(the bit-identity and <2 % overhead guarantees are locked down in
``tests/obs/`` and ``benchmarks/bench_obs_overhead.py``).

Record schema (one JSON object per line)::

    {"type": "span",  "name": ..., "id": n, "parent": m | null,
     "t0": seconds, "dur": seconds, ...attrs}
    {"type": "event", "name": ..., "parent": m | null,
     "ts": seconds, ...attrs}

Timestamps are ``time.perf_counter()`` relative to the tracer's creation,
so they are monotonic within one trace and carry no wall-clock identity.
Span records are written when the span *closes* (they carry the duration);
ordering questions are therefore answered with ids and timestamps, never
with line order.  The tracer is thread-safe: the emit path takes one lock
and the span stack is thread-local, so service worker threads interleave
records without corrupting nesting.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import IO, Any, Iterator


class NullTracer:
    """The disabled tracer: every probe point is a no-op.

    ``enabled`` is False so instrumented loops skip their per-iteration
    work entirely; ``span``/``event`` still exist so coarse call sites
    (one call per run or per chunk) need no guard at all.
    """

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        yield None

    def event(self, name: str, **attrs) -> None:
        pass

    def close(self) -> None:
        pass


#: The process-wide disabled singleton (see :func:`get_tracer`).
NULL_TRACER = NullTracer()


class Tracer:
    """A live tracer collecting span/event records.

    Parameters
    ----------
    sink:
        Where JSON lines go: a path, an open text file, or None.  With a
        path the file is owned (and closed) by the tracer; with None the
        records live only in :attr:`records`.
    keep_records:
        Also keep every record in memory (default: True — analysis
        helpers and tests read :attr:`records` directly; pass False for
        long streaming runs writing to a file).
    """

    enabled = True

    def __init__(self, sink: str | IO[str] | None = None, keep_records: bool = True):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._epoch = time.perf_counter()
        self.records: list[dict] = []
        self._keep = keep_records
        self._file: IO[str] | None = None
        self._owns_file = False
        if isinstance(sink, str):
            self._file = open(sink, "w", encoding="utf-8")
            self._owns_file = True
        elif sink is not None:
            self._file = sink
        if not keep_records and self._file is None:
            raise ValueError("a tracer needs a sink, kept records, or both")

    # -- internals ------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _emit(self, record: dict) -> None:
        with self._lock:
            if self._keep:
                self.records.append(record)
            if self._file is not None:
                self._file.write(json.dumps(record) + "\n")

    # -- probe points ---------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[int]:
        """A timed, nested scope; yields the span id.

        The record is emitted at exit (it carries the duration); events
        and child spans opened inside reference it via ``parent``.
        """
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        t0 = self._now()
        stack.append(span_id)
        try:
            yield span_id
        finally:
            stack.pop()
            self._emit(
                {
                    "type": "span",
                    "name": name,
                    "id": span_id,
                    "parent": parent,
                    "t0": t0,
                    "dur": self._now() - t0,
                    **attrs,
                }
            )

    def event(self, name: str, **attrs: Any) -> None:
        """An instant record, parented to the innermost open span."""
        stack = self._stack()
        self._emit(
            {
                "type": "event",
                "name": name,
                "parent": stack[-1] if stack else None,
                "ts": self._now(),
                **attrs,
            }
        )

    def close(self) -> None:
        """Flush and (when the tracer opened it) close the sink file."""
        with self._lock:
            if self._file is not None:
                self._file.flush()
                if self._owns_file:
                    self._file.close()
                self._file = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# the process-wide default tracer
# ---------------------------------------------------------------------------

_default: NullTracer | Tracer = NULL_TRACER
_default_lock = threading.Lock()


def get_tracer() -> NullTracer | Tracer:
    """The process-wide tracer; :data:`NULL_TRACER` unless one is set.

    Call sites that cannot be handed a tracer explicitly (the service's
    slab workers, module-level helpers) read this.  The default is the
    disabled singleton, so reading it costs one global load.
    """
    return _default


def set_tracer(tracer: NullTracer | Tracer | None) -> None:
    """Install (or with None, remove) the process-wide tracer."""
    global _default
    with _default_lock:
        _default = tracer if tracer is not None else NULL_TRACER


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scope ``tracer`` as the process-wide default, restoring on exit."""
    previous = _default
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def read_trace(path: str) -> list[dict]:
    """Load a JSON-lines trace file back into record dicts."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
