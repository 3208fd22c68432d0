"""Exception types shared across the repro library."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "OutOfMemoryError",
    "DeviceError",
    "DistributedError",
    "CollectiveError",
    "CollectiveTimeoutError",
    "CollectiveFailedError",
    "RankFailureError",
    "CollectiveDesyncError",
    "RankCrashedError",
    "FsdpError",
    "ShardingError",
    "ShardLayoutError",
    "DeferredInitError",
    "CheckpointError",
    "CheckpointCorruptionError",
    "RecoveryModeError",
    "StreamOrderViolation",
    "ExecOrderViolation",
]


class ReproError(Exception):
    """Base class for all library-specific errors."""


class DeviceError(ReproError):
    """Raised on invalid simulated-device operations."""


class OutOfMemoryError(DeviceError):
    """Raised when a simulated device cannot serve an allocation.

    Mirrors ``torch.cuda.OutOfMemoryError``: raised after the caching
    allocator has already attempted a cudaMalloc retry (freeing all
    cached blocks) and still cannot satisfy the request.
    """

    def __init__(self, device: object, requested: int, capacity: int, reserved: int):
        self.device = device
        self.requested = requested
        self.capacity = capacity
        self.reserved = reserved
        super().__init__(
            f"CUDA out of memory on {device}: tried to allocate "
            f"{requested / 2**30:.2f} GiB (capacity {capacity / 2**30:.2f} GiB, "
            f"reserved {reserved / 2**30:.2f} GiB)"
        )


class DistributedError(ReproError):
    """Raised on process-group misuse (rank mismatch, shape mismatch...)."""


class CollectiveError(DistributedError):
    """Base class for runtime failures of a launched collective."""


class CollectiveTimeoutError(CollectiveError):
    """A collective exceeded its deadline and the watchdog aborted it.

    Mirrors ProcessGroupNCCL's watchdog behaviour: instead of hanging
    the rank forever (the failure mode of a crashed or diverged peer),
    the group raises a typed error naming the collective kind, the
    member ranks, the configured deadline and the depth of the
    pending-op queue at abort time.
    """

    def __init__(
        self,
        *,
        kind: str,
        ranks: tuple,
        rank: int,
        timeout: float,
        pending_ops: int,
    ):
        self.kind = kind
        self.ranks = tuple(ranks)
        self.rank = rank
        self.timeout = timeout
        self.pending_ops = pending_ops
        # Filled by the process group when a flight recorder is
        # installed: a repro.profiler.FlightDump naming the in-flight
        # collectives and which ranks are missing from each.
        self.flight_dump = None
        super().__init__(
            f"collective {kind!r} on ranks {self.ranks} timed out after "
            f"{timeout:g}s on rank {rank} (watchdog abort; "
            f"{pending_ops} pending op(s) in queue)"
        )


class CollectiveFailedError(CollectiveError):
    """A collective failed to complete.

    ``retryable`` distinguishes transient faults (e.g. a link flap that
    a retry-with-backoff can ride out) from permanent ones (retry
    budget exhausted).
    """

    def __init__(self, *, kind: str, ranks: tuple, rank: int, attempts: int, retryable: bool):
        self.kind = kind
        self.ranks = tuple(ranks)
        self.rank = rank
        self.attempts = attempts
        self.retryable = retryable
        flavour = "transient" if retryable else "permanent"
        super().__init__(
            f"collective {kind!r} on ranks {self.ranks} failed on rank {rank} "
            f"after {attempts} attempt(s) ({flavour})"
        )


class RankFailureError(CollectiveError):
    """A peer rank was declared dead and the communicator was aborted.

    Mirrors NCCL's communicator abort: once any rank's watchdog (or
    health lease) declares a peer failed, the whole communicator is
    poisoned — in-flight collectives on every surviving rank wake
    immediately and subsequently issued collectives fail fast, instead
    of each survivor serially burning a full watchdog timeout per
    pending op.  Names the dead rank(s) so the controller can plan a
    targeted recovery (e.g. peer healing of exactly those ranks).
    """

    def __init__(
        self,
        *,
        kind: str,
        ranks: tuple,
        rank: int,
        failed_ranks: tuple,
        detection_s: float = 0.0,
    ):
        self.kind = kind
        self.ranks = tuple(ranks)
        self.rank = rank
        self.failed_ranks = tuple(sorted(failed_ranks))
        self.detection_s = detection_s
        # Filled by the process group when a flight recorder is
        # installed (same channel as CollectiveTimeoutError).
        self.flight_dump = None
        noun = "rank" if len(self.failed_ranks) == 1 else "ranks"
        super().__init__(
            f"collective {kind!r} on ranks {self.ranks} aborted on rank "
            f"{rank}: {noun} {self.failed_ranks} declared failed "
            f"(coordinated abort, detected in {detection_s:g}s)"
        )


class CollectiveDesyncError(CollectiveError):
    """Cross-rank collective signature mismatch (desynchronized ranks).

    The pre-launch desync check exchanges a per-collective signature
    ``(kind, nbytes, dtype, group ranks, seq)`` across the group —
    the TORCH_DISTRIBUTED_DEBUG=DETAIL analog.  A mismatch means the
    SPMD program diverged (conditional collective, shape drift,
    mismatched wrapping); launching would deadlock or silently corrupt
    data, so the group raises instead, naming the divergent ranks and
    both signatures.
    """

    def __init__(
        self,
        *,
        kind: str,
        ranks: tuple,
        rank: int,
        seq: int,
        divergent_ranks: tuple,
        expected: tuple,
        actual: tuple,
    ):
        self.kind = kind
        self.ranks = tuple(ranks)
        self.rank = rank
        self.seq = seq
        self.divergent_ranks = tuple(sorted(divergent_ranks))
        self.expected = tuple(expected)
        self.actual = tuple(actual)
        # Filled by the process group when a flight recorder is
        # installed.
        self.flight_dump = None
        noun = "rank" if len(self.divergent_ranks) == 1 else "ranks"
        super().__init__(
            f"collective desync at seq {seq} on ranks {self.ranks}: "
            f"{noun} {self.divergent_ranks} diverged "
            f"(expected signature {self.expected!r}, got {self.actual!r})"
        )


class RankCrashedError(DistributedError):
    """An injected (or detected) rank crash.

    Elastic training loops catch this, restore the latest sharded
    checkpoint and resume; everything else should let it propagate.
    """

    def __init__(self, *, rank: int, iteration: int):
        self.rank = rank
        self.iteration = iteration
        super().__init__(f"rank {rank} crashed at iteration {iteration}")


class FsdpError(ReproError):
    """Raised on invalid FSDP configuration or runtime state."""


class ShardingError(FsdpError):
    """Raised when a sharding configuration is inconsistent."""


class ShardLayoutError(FsdpError, KeyError):
    """A sharded state dict does not match the model's shard layout.

    Raised instead of silently mis-loading when a checkpoint was taken
    with a different world size, wrap granularity or unit composition
    than the model being restored.  Such checkpoints must go through the
    resharding loader (:func:`repro.checkpoint.load_resharded`), which
    reassembles per-FQN logical tensors from the saved shard metadata.

    Subclasses :class:`KeyError` for backward compatibility with callers
    that treated a missing shard key as a plain dictionary miss.
    """

    def __init__(self, message: str, *, key: str = "", expected=None, actual=None):
        self.key = key
        self.expected = expected
        self.actual = actual
        # Bypass KeyError's repr-quoting of the message.
        Exception.__init__(self, message)

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


class DeferredInitError(FsdpError):
    """Raised when deferred initialization cannot record or replay."""


class CheckpointError(ReproError):
    """Base class for distributed-checkpoint storage failures."""


class CheckpointCorruptionError(CheckpointError):
    """A checkpoint shard failed its integrity check at load time.

    Carries the iteration, the storage path and the expected/actual
    checksums.  The store quarantines the whole checkpoint and recovery
    proceeds from the last *verified-good* iteration instead.
    """

    def __init__(
        self,
        message: str,
        *,
        iteration: int = -1,
        path: str = "",
        expected_crc: int = 0,
        actual_crc: int = 0,
    ):
        self.iteration = iteration
        self.path = path
        self.expected_crc = expected_crc
        self.actual_crc = actual_crc
        super().__init__(message)


class RecoveryModeError(ReproError, ValueError):
    """An elastic driver was asked for a recovery mode it does not have."""


class StreamOrderViolation(ReproError):
    """A cross-stream ordering hazard detected by ``repro.cuda.sanitizer``.

    Carries both racing accesses (``prev`` and ``cur``, as
    ``LaunchRecord`` instances naming the kernel, stream and launch
    site) plus a short description of the storage involved.  ``kind``
    is one of the violation taxonomy entries documented in DESIGN.md:
    ``read-after-write``, ``write-after-write``, ``write-after-read``,
    ``use-after-free``, ``unretired-block-reuse`` or
    ``exec-order-divergence``.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str,
        prev: object = None,
        cur: object = None,
        storage: str = "",
    ):
        self.kind = kind
        self.prev = prev
        self.cur = cur
        self.storage = storage
        super().__init__(message)


class ExecOrderViolation(StreamOrderViolation):
    """FSDP units unsharded in a different order than the recorded warmup
    iteration — prefetching would target the wrong unit (Section 3.3.2).
    """

    def __init__(
        self,
        message: str,
        *,
        expected: object = None,
        actual: object = None,
        position: object = None,
    ):
        super().__init__(message, kind="exec-order-divergence")
        self.expected = expected
        self.actual = actual
        self.position = position
