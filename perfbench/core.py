"""Shared pieces of the benchmark: metric names, the workload base class,
and the delegating wrappers that trace the calls made into each layer.

The benchmark measures the program from outside.  A timed run calls the
public API with tracing off.  A traced run repeats a fixed sequence of
operations inside :func:`repro.obs.observe` and wraps every call the
benchmark makes into a layer in a :class:`repro.obs.Tracer` span tagged
with the operation index, so the estimator, phase and cache metrics the
program already records land under their existing ``repro.obs`` names.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import time
from collections import defaultdict
from typing import Any, Callable, ClassVar, Iterator, Sequence

import numpy as np

from repro.core.nodeset import NodeSet
from repro.obs import MetricsRegistry, Span, Tracer
from repro.router.base import Router
from repro.service.engine import EstimationService

#: The documents are a fixed corpus, generated with this seed; the
#: workload seed drives only what the clients choose.
DOCUMENT_SEED = 42

#: End-to-end metrics every workload reports with tracing off.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Estimators the three workloads run, and the phases each records.
STAGES: dict[str, tuple[str, ...]] = {
    "PL": ("summary_build", "estimate"),
    "PH": ("summary_build", "estimate"),
    "IM": ("index_build", "probe", "scale"),
    "PM": ("index_build", "probe", "scale"),
    "CROSS": ("index_build", "probe", "scale"),
}

WIRE_FORMATS = ("json", "binary")
ROUTER_ARMS = ("IM", "PM", "CROSS")
CACHE_KINDS = ("cache", "index_cache")

#: Spans the benchmark opens around its calls into the service layer.
SERVICE_SPANS = ("service.estimate", "service.map")


def _layer_units() -> dict[str, str]:
    units = {
        "datasets.generate_s": "s",
        "truth.exact_s": "s",
        "optimizer.calls": "count",
        "optimizer.busy_s": "s",
        "optimizer.self_s": "s",
        "optimizer.pair_requests": "count",
        "service.requests": "count",
        "service.busy_s": "s",
        "service.self_s": "s",
        "service.wait_p99_s": "s",
        "service.memo_hits": "count",
        "service.inflight_hits": "count",
        "service.singleflight_hits": "count",
        "service.computed_frac": "frac",
        "service.batches": "count",
        "service.batch_size_mean": "count",
        "service.coalesced": "count",
        "service.operand_elements_mean": "count",
        "service.operand_elements_max": "count",
    }
    for kind, unit in (
        ("decode_s", "s"),
        ("encode_s", "s"),
        ("bytes", "bytes"),
        ("requests", "count"),
    ):
        for fmt in WIRE_FORMATS:
            units[f"wire.{kind}.{fmt}"] = unit
    units["router.busy_s"] = "s"
    for arm in ROUTER_ARMS:
        units[f"router.pulls.{arm}"] = "count"
    units["feedback.records"] = "count"
    for method, stages in STAGES.items():
        units[f"estimator.{method}.calls"] = "count"
        units[f"estimator.{method}.seconds"] = "s"
        units[f"estimator.{method}.samples"] = "count"
        for stage in stages:
            units[f"phase.{method}.{stage}.seconds"] = "s"
    for kind in CACHE_KINDS:
        units[f"{kind}.hits"] = "count"
        units[f"{kind}.misses"] = "count"
        units[f"{kind}.hit_frac"] = "frac"
        units[f"{kind}.evictions"] = "count"
        units[f"{kind}.nbytes"] = "bytes"
    units["service_memo.evictions"] = "count"
    units.update(
        {
            "stream.bootstrap_s": "s",
            "stream.ingest_s": "s",
            "stream.apply_s": "s",
            "stream.applied_mutations": "count",
            "stream.invalidated_entries": "count",
            "stream.pending_batches_max": "count",
            "obs.trace_overhead_frac": "frac",
        }
    )
    return units


#: Per-layer metrics every traced run reports (name -> unit).
LAYER_METRICS: dict[str, str] = _layer_units()

_NO_SPAN = contextlib.nullcontext()


def derive_seed(seed: int, *stream: int) -> int:
    """An independent sub-seed of the workload seed for one input stream."""
    return int(np.random.default_rng([seed, *stream]).integers(2**31))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict[str, Any]:
    """The interpreter, numpy and CPU count a record was measured on."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


class TraceContext:
    """A traced run's tracer plus the index of the operation in flight.

    Every span opened through :meth:`span` carries ``op=<index>``; the
    operand tally counts the elements of every request the benchmark
    hands to the service.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.op = -1
        self.operand_requests = 0
        self.operand_elements = 0
        self.operand_max = 0

    def span(self, name: str, **attributes: Any) -> Any:
        return self.tracer.span(name, op=self.op, **attributes)

    def count_operands(self, *sizes: int) -> None:
        elements = sum(sizes)
        self.operand_requests += 1
        self.operand_elements += elements
        self.operand_max = max(self.operand_max, elements)


class TracedService:
    """Delegating proxy over an :class:`EstimationService`.

    Each service call the benchmark makes, and each pair request a
    :class:`~repro.optimizer.generator.ServiceGenerator` built through
    the proxy makes, opens a span.
    """

    def __init__(self, service: EstimationService, trace: TraceContext) -> None:
        self._service = service
        self._trace = trace

    def estimate(self, ancestors: Any, descendants: Any, method: str = "PL",
                 **options: Any) -> Any:
        if isinstance(ancestors, NodeSet) and isinstance(descendants, NodeSet):
            self._trace.count_operands(len(ancestors), len(descendants))
        with self._trace.span("service.estimate", method=method):
            return self._service.estimate(
                ancestors, descendants, method, **options
            )

    def map(self, requests: Sequence[Any], timeout: float | None = None) -> Any:
        for request in requests:
            self._trace.count_operands(
                len(request.ancestors), len(request.descendants)
            )
        with self._trace.span("service.map", requests=len(requests)):
            return self._service.map(requests, timeout)

    def cardinality_generator(self, method: str = "PL", **options: Any) -> Any:
        generator = self._service.cardinality_generator(method, **options)
        generator.service = self  # its pair requests go through the proxy
        return generator


class TracedRouter(Router):
    """Delegating router: routes exactly as ``inner``, one span per call."""

    def __init__(self, inner: Router, trace: TraceContext) -> None:
        super().__init__(
            inner.candidates,
            seed=inner.seed,
            latency_weight=inner.latency_weight,
        )
        self.name = inner.name
        self._inner = inner
        self._trace = trace

    def choose(self, query_class: str, stats: Any) -> str:
        return self._inner.choose(query_class, stats)

    def route(self, request: Any, store: Any) -> tuple[str, dict[str, Any]]:
        with self._trace.span("router.route"):
            return self._inner.route(request, store)


class Workload:
    """One closed-loop, single-threaded workload.

    Lifecycle: :meth:`build_data` once (dataset generation and exact
    truth, both immutable), then any number of :meth:`start` →
    :meth:`run_op` ... → :meth:`stop` cycles.  Each :meth:`start` builds
    a fresh ``EstimationService(workers=0)`` (and live state) and resets
    the operation schedule, so two cycles run identical inputs.
    :meth:`checks` runs after the last operation and before
    :meth:`stop`, outside every timed region.

    Args:
        seed: the workload seed; every input derives from it.
    """

    name: ClassVar[str] = "?"
    #: Operations run before measurement starts (their answers are
    #: still checked).
    warmup_ops: ClassVar[int] = 0
    #: Traced-run operations per requested second: a fixed count, so
    #: every work count repeats exactly for a seed.
    trace_ops_per_s: ClassVar[int] = 100
    #: Metric-name prefixes this workload never exercises, with why.
    not_exercised: ClassVar[dict[str, str]] = {}
    #: Forwarded to the service when set (tests plant faulty
    #: estimators through it).
    estimator_factory: Callable[..., Any] | None = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.timings: dict[str, float] = {}
        self.trace: TraceContext | None = None
        self.service: EstimationService | None = None
        self.client: Any = None
        #: Operations that answered with a status other than "ok": since
        #: measurement began, and since :meth:`start`.
        self.failed = 0
        self.failed_total = 0

    # -- lifecycle ------------------------------------------------------

    def build_data(self) -> None:
        raise NotImplementedError

    def start(self, trace: TraceContext | None = None) -> None:
        raise NotImplementedError

    def run_op(self, index: int) -> tuple[float, float]:
        """Run operation ``index``.

        Returns its latency and its busy time, both in seconds: the time
        the program spent on the operation, plus any write the client
        made beside it (so far only ``churn`` writes).
        """
        raise NotImplementedError

    def stop(self) -> None:
        if self.service is not None:
            self.service.close()

    def begin_measurement(self) -> None:
        """Forget the warm-up: accumulators restart from here."""
        self.failed = 0

    def checks(self) -> dict[str, bool]:
        raise NotImplementedError

    def extra_metrics(self) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end metrics: name -> (value, unit)."""
        return {}

    def describe(self) -> dict[str, Any]:
        raise NotImplementedError

    # -- helpers for subclasses -------------------------------------------

    @contextlib.contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Store the block's wall time as ``self.timings[name]``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = time.perf_counter() - start

    def span(self, name: str, **attributes: Any) -> Any:
        """A span in a traced run; a no-op context otherwise."""
        if self.trace is None:
            return _NO_SPAN
        return self.trace.span(name, **attributes)

    def fail(self) -> None:
        """Count one operation that answered with a non-"ok" status."""
        self.failed += 1
        self.failed_total += 1

    def _open_service(
        self, trace: TraceContext | None, **options: Any
    ) -> None:
        self.trace = trace
        self.failed = self.failed_total = 0
        if self.estimator_factory is not None:
            options["estimator_factory"] = self.estimator_factory
        self.service = EstimationService(workers=0, **options)
        self.client = (
            TracedService(self.service, trace)
            if trace is not None
            else self.service
        )

    def service_description(self, **options: Any) -> dict[str, Any]:
        """The service's construction kwargs and the defaults it ran."""
        assert self.service is not None
        stats = self.service.stats()
        return {
            "workers": 0,
            **options,
            "max_batch": self.service.max_batch,
            "memo_size": stats["memo"]["maxsize"] if stats["memo"] else None,
            "summary_cache_size": self.service.summary_cache.maxsize,
            "index_cache_size": self.service.index_cache.maxsize,
        }

    # -- per-layer metrics --------------------------------------------------

    def layer_metrics(
        self, registry: MetricsRegistry, spans: Sequence[Span]
    ) -> dict[str, float]:
        """Every per-layer metric of a finished traced run.

        Reads the bench-side spans, the ambient registry the program
        recorded into, and the service's own ``stats()``; call before
        :meth:`stop`.  Metrics a workload never exercises stay 0.
        """
        assert self.service is not None and self.trace is not None
        out: dict[str, float] = dict.fromkeys(LAYER_METRICS, 0.0)
        for name in ("datasets.generate_s", "truth.exact_s",
                     "stream.bootstrap_s"):
            out[name] = self.timings.get(name, 0.0)

        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: dict[str, float] = defaultdict(float)
        for span in spans:
            key = span.name
            if key.startswith("wire."):
                fmt = span.attributes["format"]
                key = f"{key}.{fmt}"
                if span.name == "wire.decode_request":
                    out[f"wire.bytes.{fmt}"] += span.attributes["bytes"]
            busy[key] += span.duration
            calls[key] += 1
            if span.parent is not None:
                child[span.parent] += span.duration

        out["optimizer.calls"] = calls["optimizer.optimize"]
        out["optimizer.busy_s"] = busy["optimizer.optimize"]
        out["optimizer.self_s"] = (
            busy["optimizer.optimize"] - child["optimizer.optimize"]
        )
        for fmt in WIRE_FORMATS:
            out[f"wire.decode_s.{fmt}"] = busy[f"wire.decode_request.{fmt}"]
            out[f"wire.encode_s.{fmt}"] = busy[f"wire.encode_response.{fmt}"]
            out[f"wire.requests.{fmt}"] = calls[f"wire.decode_request.{fmt}"]
        out["router.busy_s"] = busy["router.route"]
        out["stream.ingest_s"] = busy["stream.ingest"]
        out["stream.apply_s"] = busy["stream.apply_pending"]

        counters = registry.counters()
        histograms = registry.histograms()
        estimator_s = 0.0
        for method, stages in STAGES.items():
            prefix = f"estimator.{method}"
            seconds = histograms.get(f"{prefix}.seconds")
            out[f"{prefix}.calls"] = counters.get(f"{prefix}.calls", 0)
            out[f"{prefix}.seconds"] = seconds.sum if seconds else 0.0
            out[f"{prefix}.samples"] = counters.get(f"{prefix}.samples", 0)
            estimator_s += out[f"{prefix}.seconds"]
            for stage in stages:
                name = f"phase.{method}.{stage}.seconds"
                out[name] = histograms[name].sum if name in histograms else 0.0
        caches = {
            "cache": self.service.summary_cache,
            "index_cache": self.service.index_cache,
        }
        for kind, cache in caches.items():
            hits = counters.get(f"{kind}.hits", 0)
            misses = counters.get(f"{kind}.misses", 0)
            out[f"{kind}.hits"] = hits
            out[f"{kind}.misses"] = misses
            out[f"{kind}.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
            out[f"{kind}.evictions"] = counters.get(f"{kind}.evictions", 0)
            out[f"{kind}.nbytes"] = cache.nbytes
        out["service_memo.evictions"] = counters.get(
            "service_memo.evictions", 0
        )

        stats = self.service.stats()
        service = stats["counters"]
        requests = service.get("service.responses", 0)
        reused = sum(
            service.get(f"service.{kind}", 0)
            for kind in ("memo_hits", "inflight_hits", "singleflight_hits")
        )
        service_busy = sum(busy[name] for name in SERVICE_SPANS)
        out.update(
            {
                "service.requests": requests,
                "service.busy_s": service_busy,
                "service.self_s": service_busy - estimator_s,
                "service.wait_p99_s": stats["wait_p99_s"],
                "service.memo_hits": service.get("service.memo_hits", 0),
                "service.inflight_hits": service.get(
                    "service.inflight_hits", 0
                ),
                "service.singleflight_hits": service.get(
                    "service.singleflight_hits", 0
                ),
                "service.computed_frac": (
                    (requests - reused) / requests if requests else 0.0
                ),
                "service.batches": service.get("service.batches", 0),
                "service.batch_size_mean": stats["mean_batch_size"],
                "service.coalesced": service.get("service.coalesced", 0),
            }
        )
        trace = self.trace
        if trace.operand_requests:
            out["service.operand_elements_mean"] = (
                trace.operand_elements / trace.operand_requests
            )
            out["service.operand_elements_max"] = trace.operand_max
        for arm in ROUTER_ARMS:
            out[f"router.pulls.{arm}"] = service.get(f"service.routed.{arm}", 0)
        if self.service.feedback is not None:
            # Records the store took in, retained or past its bound.
            feedback = self.service.feedback.stats()
            out["feedback.records"] = feedback["records"] + feedback["dropped"]
        return out
