"""Profiling hooks: timed scopes and a sampling wall-clock profiler.

:class:`ProfileScope` is the cheap, always-available hook — a context
manager that times its body into a registry histogram (and optionally a
tracer span).  The serving layer wraps every slab chunk in one, so
``repro stats`` can report the chunk-time distribution without any
tracing armed.

:class:`PhaseTimer` splits one GA generation into the paper's datapath
phases for the behavioural engines' per-generation ``ga.phases`` event.

:class:`SamplingProfiler` answers the *where do cycles go* question the
paper answers with post-P&R timing reports: a daemon thread samples the
target thread's Python stack at a fixed interval and aggregates frame
hit counts.  Sampling observes without instrumenting, so the profiled
run's arithmetic (and its RNG draw sequence) is untouched — the same
non-perturbation contract the tracer keeps.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracer import NULL_TRACER


class ProfileScope:
    """Time a named section into ``profile.<name>`` (histogram seconds).

    Usage::

        with ProfileScope("service.slab_chunk"):
            run_slab_chunk(spec)

    When a live tracer is supplied the scope also opens a span of the
    same name, nesting any events emitted inside the body.
    """

    def __init__(self, name: str, registry: MetricsRegistry | None = None,
                 tracer=None):
        self.name = name
        self._histogram = (registry or get_registry()).histogram(f"profile.{name}")
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._span = None
        self._t0 = 0.0
        self.elapsed: float | None = None

    def __enter__(self) -> "ProfileScope":
        if self._tracer.enabled:
            self._span = self._tracer.span(self.name)
            self._span.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self._t0
        self._histogram.observe(self.elapsed)
        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
            self._span = None


#: the phase keys every ``ga.phases`` event carries, zero when unused
GA_PHASES = ("selection", "crossover", "mutation", "eval", "elitism", "record")


class PhaseTimer:
    """Per-generation phase walls behind the ``ga.phases`` event.

    ``start()`` opens a generation with every :data:`GA_PHASES` key at
    zero, ``lap(phase)`` adds the time since the previous lap (or the
    start) to ``phase``, and ``emit(generation)`` writes the event.  A
    phase outside the six (the resilience ``scrub``) appears only once
    lapped.  Engines call it only under their hoisted ``tracing`` flag.
    """

    __slots__ = ("tracer", "phases", "_t")

    def __init__(self, tracer):
        self.tracer = tracer
        self.phases: dict[str, float] = {}
        self._t = 0.0

    def start(self) -> None:
        self.phases = dict.fromkeys(GA_PHASES, 0.0)
        self._t = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.phases[phase] = self.phases.get(phase, 0.0) + now - self._t
        self._t = now

    def emit(self, generation: int) -> None:
        self.tracer.event("ga.phases", generation=generation, phases=self.phases)

class SamplingProfiler:
    """Wall-clock stack sampler for one thread.

    Samples ``sys._current_frames()`` for the target thread (default: the
    thread that calls :meth:`start`) every ``interval_s`` seconds from a
    daemon thread, counting hits per innermost frame and per full stack.
    ``top(n)`` renders the innermost-frame ranking — the flat profile;
    :attr:`samples` is the total sample count for normalisation.
    """

    def __init__(self, interval_s: float = 0.005, target_thread_id: int | None = None):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0: {interval_s}")
        self.interval_s = interval_s
        self._target_id = target_thread_id
        self.samples = 0
        self.frame_hits: dict[tuple[str, str, int], int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        if self._target_id is None:
            self._target_id = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_loop, name="obs-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- sampling -------------------------------------------------------
    def _sample_loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            frame = sys._current_frames().get(self._target_id)
            if frame is None:  # target thread exited
                continue
            self.samples += 1
            code = frame.f_code
            key = (code.co_filename, code.co_name, frame.f_lineno)
            self.frame_hits[key] = self.frame_hits.get(key, 0) + 1

    # -- reporting ------------------------------------------------------
    def top(self, n: int = 10) -> list[dict]:
        """The ``n`` hottest innermost frames with their sample share."""
        total = max(self.samples, 1)
        ranked = sorted(self.frame_hits.items(), key=lambda kv: -kv[1])[:n]
        return [
            {
                "function": func,
                "file": filename,
                "line": lineno,
                "samples": hits,
                "share": round(hits / total, 4),
            }
            for (filename, func, lineno), hits in ranked
        ]
