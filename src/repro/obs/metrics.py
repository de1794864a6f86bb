"""Counters, gauges, and histograms behind one thread-safe registry.

The serving layer's :class:`~repro.service.metrics.ServiceMetrics` and the
engine-level instrumentation both record into :class:`MetricsRegistry`
instruments: a :class:`Counter` is a monotonic total, a :class:`Gauge` a
last-written value, a :class:`Histogram` a bounded sample reservoir with
nearest-rank percentiles (the p50/p95 the service snapshot reports).

Two registries matter in practice:

* the process-wide default (:func:`get_registry`) absorbs engine-level
  aggregates — runs, generations, evaluations, SEU recovery actions,
  slab-chunk profile timings — recorded once per run or per rare event,
  so the cost is unmeasurable against the work being counted;
* each :class:`~repro.service.metrics.ServiceMetrics` owns a private
  registry so independent service instances (and tests) never share
  totals.

Engine counter names (the ``repro stats`` vocabulary)::

    engine.runs             completed engine runs (serial + batch replicas)
    engine.generations      generations evolved across all runs
    engine.evaluations      FEM evaluations across all runs
    engine.run_seconds      histogram of per-run wall time
    resilience.seu_corrected    SECDED single-bit corrections
    resilience.seu_double       detected-uncorrectable words
    resilience.fem_failovers    watchdog mux failovers
    resilience.rollbacks        checkpoint rollbacks
    profile.service.slab_chunk  histogram of slab-chunk wall time

The serving layer's instruments (job, queue, batching, fault-tolerance and
run-store cache counters on its private registry) are the rows of
:data:`repro.service.metrics.INSTRUMENTS`.
"""

from __future__ import annotations

import threading
import time


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values``.

    Edge cases are defined, not accidental: an empty list yields 0.0 and a
    single sample is every percentile of itself (rank arithmetic cannot
    index out of range — locked down in ``tests/obs/test_metrics.py``).
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


class Counter:
    """A monotonic total.  ``inc`` is atomic under the owning lock."""

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value


class Gauge:
    """A last-written value with a remembered maximum."""

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self._value = 0.0
        self._max = 0.0

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value
            if value > self._max:
                self._max = value

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value

    @property
    def max(self) -> int | float:
        with self._lock:
            return self._max


class Histogram:
    """A bounded reservoir of samples with count/sum kept exactly.

    The reservoir holds the first ``max_samples`` observations (the
    service's historical behaviour); count, sum, and max stay exact
    beyond the cap, so means and totals never degrade — only the
    percentile estimate freezes its sample base.
    """

    def __init__(self, name: str, lock: threading.Lock, max_samples: int = 100_000):
        self.name = name
        self._lock = lock
        self.max_samples = max_samples
        self._samples: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value
            if len(self._samples) < self.max_samples:
                self._samples.append(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    @property
    def samples(self) -> list[float]:
        """A copy of the reservoir (at most ``max_samples`` values)."""
        with self._lock:
            return list(self._samples)

    def quantile(self, q: float) -> float:
        """Nearest-rank percentile over the reservoir (0.0 when empty)."""
        with self._lock:
            samples = list(self._samples)
        return percentile(samples, q)

    def summary(self) -> dict:
        """count/mean/p50/p95/max — the standard reporting tuple."""
        with self._lock:
            samples = list(self._samples)
            count, total, peak = self._count, self._sum, self._max
        return {
            "count": count,
            "mean": total / count if count else 0.0,
            "p50": percentile(samples, 50),
            "p95": percentile(samples, 95),
            "max": peak,
        }


class MetricsRegistry:
    """A named family of instruments sharing one lock.

    ``counter``/``gauge``/``histogram`` are get-or-create (idempotent by
    name), so independent call sites converge on the same instrument.
    One lock for the whole registry keeps the recording hot path to a
    single acquisition and makes multi-instrument snapshots coherent.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.started_at = time.monotonic()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name, self._lock)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name, self._lock)
            return instrument

    def histogram(self, name: str, max_samples: int = 100_000) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    name, self._lock, max_samples
                )
            return instrument

    @property
    def uptime_s(self) -> float:
        return max(time.monotonic() - self.started_at, 1e-9)

    def rate(self, counter_name: str) -> float:
        """A counter's average per-second rate over the registry lifetime."""
        with self._lock:
            instrument = self._counters.get(counter_name)
            value = instrument._value if instrument is not None else 0
        return value / self.uptime_s

    def snapshot(self) -> dict:
        """Every instrument's state as one JSON-serializable dict."""
        with self._lock:
            counters = {n: c._value for n, c in self._counters.items()}
            gauges = {
                n: {"value": g._value, "max": g._max}
                for n, g in self._gauges.items()
            }
            histograms = list(self._histograms.values())
        return {
            "uptime_s": round(self.uptime_s, 3),
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": {
                h.name: h.summary() for h in sorted(histograms, key=lambda h: h.name)
            },
        }

    def reset(self) -> None:
        """Drop every instrument (tests isolating the process registry)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self.started_at = time.monotonic()


#: The process-wide registry absorbing engine-level aggregates.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (engine metrics, profiles)."""
    return REGISTRY


def record_engine_run(generations: int, evaluations: int, seconds: float,
                      registry: MetricsRegistry | None = None) -> None:
    """Fold one finished engine run (or batch replica set) into the
    registry — a handful of lock acquisitions per *run*, which is why the
    engines call it unconditionally."""
    reg = registry or REGISTRY
    reg.counter("engine.runs").inc()
    reg.counter("engine.generations").inc(generations)
    reg.counter("engine.evaluations").inc(evaluations)
    reg.histogram("engine.run_seconds").observe(seconds)


def engine_rates(registry: MetricsRegistry | None = None) -> dict:
    """The derived throughput view: generations/sec and evals/sec."""
    reg = registry or REGISTRY
    return {
        "generations_per_s": round(reg.rate("engine.generations"), 1),
        "evaluations_per_s": round(reg.rate("engine.evaluations"), 1),
        "runs": reg.counter("engine.runs").value,
    }


def record_archipelago_run(islands: int, generations: int, epochs: int,
                           migrations: int, seconds: float,
                           registry: MetricsRegistry | None = None) -> None:
    """Fold one finished archipelago run into the registry.

    ``island.island_generations`` counts island-generations (islands x
    generations) — the unit the vectorized slab actually advances — so
    :func:`archipelago_rates` can report islands-per-second throughput at
    any generation budget.  Called once per run, like
    :func:`record_engine_run` (which the underlying slab also reports to).
    """
    reg = registry or REGISTRY
    reg.counter("island.runs").inc()
    reg.counter("island.islands").inc(islands)
    reg.counter("island.island_generations").inc(islands * generations)
    reg.counter("island.epochs").inc(epochs)
    reg.counter("island.migrations").inc(migrations)
    reg.histogram("island.run_seconds").observe(seconds)


def archipelago_rates(registry: MetricsRegistry | None = None) -> dict:
    """Derived archipelago throughput: island-generations/sec plus the
    raw migration and run counters."""
    reg = registry or REGISTRY
    return {
        "island_generations_per_s": round(
            reg.rate("island.island_generations"), 1
        ),
        "islands": reg.counter("island.islands").value,
        "migrations": reg.counter("island.migrations").value,
        "runs": reg.counter("island.runs").value,
    }
