"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything library-specific with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate untouched.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (bad shape, dtype, range, ...)."""


class GraphFormatError(ReproError, ValueError):
    """An on-disk graph file could not be parsed."""


class ResilienceError(ReproError, RuntimeError):
    """A supervised sampling run could not be recovered.

    Only raised when the retry budget is exhausted *and* serial
    fallback is disabled (``ResilienceOptions(serial_fallback=False)``);
    with the defaults the pipeline degrades instead of raising.
    """


class WorkerCrashError(ResilienceError):
    """A sampling worker died (or kept failing) past the retry budget."""


class SamplingTimeoutError(ResilienceError, TimeoutError):
    """A sampling job kept exceeding ``job_timeout`` past the retry budget."""


class CheckpointError(ReproError, RuntimeError):
    """An RRR-store checkpoint is unusable (key mismatch, bad manifest)."""


class ServiceError(ReproError, RuntimeError):
    """Base class for influence-query service failures."""


class ServiceOverloadedError(ServiceError):
    """The service refused admission: its queue is at capacity.

    Backpressure, not a bug — the caller should retry later (or the
    operator should raise ``ServiceOptions.max_queue_depth`` /
    ``max_inflight``).  Carries the depth that triggered the rejection.
    """

    def __init__(self, queue_depth: int, max_queue_depth: int):
        self.queue_depth = int(queue_depth)
        self.max_queue_depth = int(max_queue_depth)
        super().__init__(
            f"service queue full ({queue_depth} queued, "
            f"max_queue_depth={max_queue_depth}); retry later"
        )


class MemoryPressureError(ServiceOverloadedError):
    """The service shed a query: the memory budget stayed overcommitted
    after every pressure handler ran.

    Backpressure like a full queue, so it is a
    :class:`ServiceOverloadedError` to callers that back off on one;
    carries the governor's charged and budget bytes instead of a depth.
    """

    def __init__(self, charged_bytes: int, budget_bytes: int | None):
        self.charged_bytes = int(charged_bytes)
        self.budget_bytes = budget_bytes
        ServiceError.__init__(
            self,
            f"memory budget exhausted (charged {charged_bytes} of "
            f"{budget_bytes} bytes); retry later or raise --memory-budget-mb",
        )


class ServiceClosedError(ServiceError):
    """A query was submitted to a service after :meth:`close`.

    Also delivered to queries still queued when a drain times out:
    queued work always resolves — by finishing or by this error —
    never by hanging.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """A cooperative deadline expired (or was cancelled) mid-run.

    Raised at the deadline checkpoints of the query path — between
    scheduler admission and execution, between sampling supervision
    rounds, between store chunk top-ups, and between IMM estimation
    phases — so an expired or cancelled query frees its worker slot at
    the next checkpoint instead of holding it to completion.
    """

    def __init__(self, what: str = "", cancelled: bool = False):
        self.what = what
        self.cancelled = bool(cancelled)
        cause = "cancelled" if cancelled else "deadline exceeded"
        super().__init__(f"{cause}{f' during {what}' if what else ''}")


class CircuitOpenError(ServiceError):
    """The stream's circuit breaker is open and no degraded answer exists.

    Fast-fail, not a bug: the substrate behind this stream identity kept
    failing (crashes past the retry budget, OOM), so the service refuses
    to queue more work onto it until the breaker's reset timeout admits
    a probe.  Retry after ``retry_after`` seconds, or relax ``epsilon``
    far enough to hit a cached degraded answer.
    """

    def __init__(self, key_digest: str, retry_after: float):
        self.key_digest = key_digest
        self.retry_after = float(retry_after)
        super().__init__(
            f"circuit breaker open for stream {key_digest} "
            f"(substrate kept failing); retry in ~{retry_after:.1f}s"
        )


class DeviceOOMError(ReproError, MemoryError):
    """A simulated device allocation exceeded the device's global memory.

    Mirrors a CUDA out-of-memory failure: the paper's Tables 2-5 report
    ``OOM`` entries for gIM where its allocation pattern exhausts the GPU
    while eIM's packed storage still fits.
    """

    def __init__(self, requested: int, in_use: int, capacity: int, label: str = ""):
        self.requested = int(requested)
        self.in_use = int(in_use)
        self.capacity = int(capacity)
        self.label = label
        super().__init__(
            f"simulated device OOM allocating {requested} B for {label!r}: "
            f"{in_use} B already in use of {capacity} B capacity"
        )
