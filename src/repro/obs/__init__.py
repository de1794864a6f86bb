"""Unified observability: tracing, metrics, and profiling hooks.

One package gives every layer of the stack the same three probe kinds:

* :mod:`repro.obs.tracer` — structured span/event tracing (JSON lines,
  monotonic timestamps, nested spans) wired into the behavioural, batch,
  cycle-accurate, island, resilience, and service layers;
* :mod:`repro.obs.metrics` — process-wide counters/gauges/histograms
  (the engine aggregates behind ``repro stats`` and the substrate the
  service metrics are built on);
* :mod:`repro.obs.profile` — :class:`ProfileScope` timed sections, the
  engines' per-generation :class:`PhaseTimer`, and a
  :class:`SamplingProfiler` wall-clock stack sampler;
* :mod:`repro.obs.analyze` — reconstruction helpers turning a trace
  stream back into paper artefacts (Fig. 8 convergence series, phase
  breakdowns, per-job service streams).

The whole layer is zero-cost when disabled: the default tracer is the
no-op :data:`NULL_TRACER`, engines hoist a single ``enabled`` check out
of their hot loops and guard every probe with it, and a traced run is
bit-identical to an untraced one.
"""

from repro.obs.analyze import (
    best_series,
    cycle_best_series,
    cycle_phase_breakdown,
    events,
    phase_breakdown,
    service_best_streams,
    spans,
    sum_series,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    archipelago_rates,
    engine_rates,
    get_registry,
    percentile,
    record_archipelago_run,
    record_engine_run,
)
from repro.obs.profile import PhaseTimer, ProfileScope, SamplingProfiler
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    read_trace,
    set_tracer,
    use_tracer,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "read_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "percentile",
    "record_engine_run",
    "engine_rates",
    "record_archipelago_run",
    "archipelago_rates",
    "PhaseTimer",
    "ProfileScope",
    "SamplingProfiler",
    "events",
    "spans",
    "best_series",
    "sum_series",
    "phase_breakdown",
    "cycle_best_series",
    "cycle_phase_breakdown",
    "service_best_streams",
]
