"""Process-group abstraction and the ``Work`` handle.

Semantics follow PyTorch's ``ProcessGroupNCCL`` as described in
Sections 3.3.1–3.3.2 of the paper:

- every collective runs on a caller-supplied *communication stream* on
  the rank's device (FSDP passes one stream for both AllGather and
  ReduceScatter, reproducing the serialization that motivates backward
  prefetching);
- collectives are asynchronous with respect to the CPU and return a
  :class:`Work`; ``Work.wait()`` blocks the CPU thread, while
  ``Work.wait(stream)`` only inserts a GPU-side dependency — the
  distinction FSDP exploits to overlap communication with computation.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro import dtypes
from repro.cuda import sanitizer
from repro.cuda.device import Device
from repro.cuda.stream import Event, Stream
from repro.distributed.fault import FaultDecision
from repro.errors import (
    CollectiveDesyncError,
    CollectiveFailedError,
    CollectiveTimeoutError,
    DistributedError,
    RankFailureError,
)
from repro.hw.comm_model import CollectiveKind, CommModel
from repro.resilience.desync import collective_signature, perturb_signature
from repro.tensor import Tensor

__all__ = [
    "Work",
    "ProcessGroup",
    "ReduceOp",
    "DEFAULT_COLLECTIVE_TIMEOUT",
    "retry_backoff",
]

#: Watchdog deadline for one collective, in seconds.  Interpreted on the
#: simulated clock by the symmetric backend and on the wall clock by the
#: threaded backend's rendezvous (where a crashed peer really does hang
#: the calling thread).
DEFAULT_COLLECTIVE_TIMEOUT = 60.0

#: First retry-with-backoff sleep after a transient collective failure
#: (simulated seconds; doubles per attempt like NCCL's comm re-init
#: backoff).
_RETRY_BACKOFF_BASE = 2e-3


def _mix64(x: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value."""
    x &= 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def retry_backoff(seed: int, rank: int, attempt: int) -> float:
    """Jittered exponential backoff for transient-collective retries.

    A pure function of ``(seed, rank, attempt)``: deterministic for
    chaos replay, but *decorrelated across ranks* — the un-jittered
    ``base * 2**(attempt-1)`` schedule was identical on every rank, so
    synchronized retry storms hit the injector (and, in production, the
    network) in lockstep.  The jitter factor spans ``[0.5, 1.5)`` of
    the exponential step, keeping the expected schedule unchanged.
    """
    step = _RETRY_BACKOFF_BASE * (2 ** (attempt - 1))
    u = _mix64(_mix64(seed ^ 0x9E3779B97F4A7C15) + (rank << 20) + attempt)
    return step * (0.5 + (u >> 11) / float(1 << 53))


class ReduceOp:
    SUM = "sum"
    AVG = "avg"
    MAX = "max"


class Work:
    """Handle to an asynchronously running collective."""

    def __init__(self, event: Event, on_complete: Optional[Callable[[], None]] = None):
        self._event = event
        self._on_complete = on_complete
        self._completed = False

    def wait(self, stream: Optional[Stream] = None) -> None:
        """Block the CPU (no stream) or order a stream after the collective."""
        if stream is None:
            self._event.synchronize()
            self._mark_complete()
        else:
            stream.wait_event(self._event)

    def query(self) -> bool:
        done = self._event.query()
        if done:
            self._mark_complete()
        return done

    @property
    def completion_time(self) -> float:
        return self._event.time or 0.0

    def _mark_complete(self) -> None:
        if not self._completed:
            self._completed = True
            if self._on_complete is not None:
                self._on_complete()


class ProcessGroup:
    """A group of ranks that can run collectives together."""

    def __init__(
        self,
        *,
        rank: int,
        ranks: Sequence[int],
        device: Device,
        comm_model: CommModel,
        concurrent_groups: int = 1,
        timeout: float = DEFAULT_COLLECTIVE_TIMEOUT,
        max_collective_retries: int = 5,
    ):
        self.global_rank = rank
        self.ranks = tuple(ranks)
        if rank not in self.ranks:
            raise DistributedError(f"rank {rank} is not a member of group {self.ranks}")
        self.rank = self.ranks.index(rank)
        self.device = device
        self.comm_model = comm_model
        self.concurrent_groups = concurrent_groups
        self.timeout = timeout
        self.max_collective_retries = max_collective_retries
        # The group's internal communication stream (one per device, like
        # ProcessGroupNCCL's internal NCCL stream).
        self.comm_stream = device.new_stream(f"pg{id(self) & 0xFFFF:x}-comm")
        self.bytes_sent = 0
        self.cross_host_bytes = 0
        self.collective_count = 0
        self.retries_attempted = 0
        # NCCL-style watchdog bookkeeping: ops launched but not yet
        # observed complete by the CPU, keyed by a launch token.
        self._pending_ops: dict[int, tuple[str, Event]] = {}
        self._op_counter = 0
        # The group's membership is fixed, so whether it crosses hosts
        # is too — computed once instead of per collective.
        self._spans_hosts = len(comm_model.topology.hosts_spanned(self.ranks)) > 1

    @property
    def world_size(self) -> int:
        return len(self.ranks)

    # ------------------------------------------------------------------
    # Watchdog: pending-op queue, fault consultation, retry-with-backoff
    # ------------------------------------------------------------------
    def pending_collectives(self) -> int:
        """Depth of the launched-but-not-retired collective queue."""
        return len(self._pending_ops)

    def _track_launch(self, kind: CollectiveKind, event: Event) -> int:
        # Purge ops whose completion the CPU clock has already passed, so
        # GPU-side-only waits (``Work.wait(stream)``) don't pile up.
        now = self.device.cpu_time()
        done = [t for t, (_, e) in self._pending_ops.items() if e.time is not None and e.time <= now]
        for token in done:
            del self._pending_ops[token]
        token = self._op_counter
        self._op_counter += 1
        self._pending_ops[token] = (kind.value, event)
        return token

    def _retire_op(self, token: int) -> None:
        self._pending_ops.pop(token, None)

    def _attach_flight_dump(self, error):
        recorder = self.device.flight_recorder
        if recorder is not None:
            error.flight_dump = recorder.dump(now=self.device.cpu_time())
        return error

    def _timeout_error(self, kind: CollectiveKind) -> CollectiveTimeoutError:
        return self._attach_flight_dump(
            CollectiveTimeoutError(
                kind=kind.value,
                ranks=self.ranks,
                rank=self.global_rank,
                timeout=self.timeout,
                pending_ops=self.pending_collectives() + 1,
            )
        )

    def _rank_failure_error(self, kind: CollectiveKind) -> RankFailureError:
        abort = self.device.abort
        return self._attach_flight_dump(
            RankFailureError(
                kind=kind.value,
                ranks=self.ranks,
                rank=self.global_rank,
                failed_ranks=abort.failed_ranks(),
                detection_s=abort.detection_s(),
            )
        )

    def _abort_check(self, kind: CollectiveKind) -> None:
        """Fail fast when the communicator has been poisoned.

        Coordinated-abort semantics: once any rank's failure is
        declared, every subsequently issued collective on any group
        sharing the world raises immediately — no further simulated
        stall beyond the one watchdog interval the declarer paid.
        """
        abort = self.device.abort
        if abort is None or not abort.enabled or not abort.poisoned:
            return
        raise self._rank_failure_error(kind)

    def _watchdog(self, kind: CollectiveKind, since: float, live_pending: int):
        """Block until ``since + timeout``, then abort with a typed error.

        The collective would never complete (or not before the
        deadline), so the watchdog raises :class:`CollectiveTimeoutError`
        instead of hanging forever.  With coordinated abort, the
        declaration poisons every group sharing the world: one watchdog
        interval covers the whole teardown and later launches fail
        fast.  Without it (the negative control), each of the
        ``live_pending`` already-pending collectives is drained to its
        own deadline, one serial timeout each.
        """
        device = self.device
        device.advance_cpu_to(since + self.timeout)
        device.emit_mark(f"watchdog:{kind.value}")
        abort = device.abort
        if abort is not None and abort.enabled:
            abort.declare(
                self.global_rank,
                sim_time=device.cpu_time(),
                detection_s=self.timeout,
            )
        elif abort is not None:
            for _ in range(live_pending):
                device.consume_cpu(self.timeout)
                device.emit_mark(f"watchdog-drain:{kind.value}")
        raise self._timeout_error(kind)

    def _live_pending(self) -> int:
        """Pending ops the CPU clock has not yet observed complete."""
        now = self.device.cpu_time()
        return sum(
            1
            for _, e in self._pending_ops.values()
            if e.time is None or e.time > now
        )

    def _injector_seq(self) -> int:
        injector = self.device.fault_injector
        if injector is None:
            return max(self.collective_count, 0)
        # on_collective already advanced the counter for this launch.
        return max(injector.collective_seq(self.global_rank) - 1, 0)

    def _desync_error(
        self, kind: CollectiveKind, nbytes: int, dtype: str = ""
    ) -> CollectiveDesyncError:
        """Injected-desync verdict surfaced locally, with no peer check.

        Used by the lockstep backend, whose simulated peers report the
        true signature by construction, and by a threaded rank running
        without the cross-rank checker.  The injected rank's divergence
        is the deterministic perturbation.
        """
        seq = self._injector_seq()
        expected = collective_signature(
            kind=kind.value, nbytes=nbytes, dtype=dtype, ranks=self.ranks, seq=seq
        )
        return self._attach_flight_dump(
            CollectiveDesyncError(
                kind=kind.value,
                ranks=self.ranks,
                rank=self.global_rank,
                seq=seq,
                divergent_ranks=(self.global_rank,),
                expected=expected,
                actual=perturb_signature(expected),
            )
        )

    def _consult_faults(self, kind: CollectiveKind) -> FaultDecision:
        """Ask the installed fault injector about this collective.

        Transient failures are retried here with exponential backoff on
        the simulated clock; the sequence number advances once per
        logical collective, so every rank of an SPMD program stays
        aligned regardless of how many retries any rank performed.
        """
        injector = self.device.fault_injector
        if injector is None:
            return FaultDecision()
        attempt = 0
        while True:
            decision = injector.on_collective(
                rank=self.global_rank, kind=kind.value, ranks=self.ranks, attempt=attempt
            )
            if not decision.fail:
                return decision
            attempt += 1
            self.retries_attempted += 1
            if attempt > self.max_collective_retries:
                raise CollectiveFailedError(
                    kind=kind.value,
                    ranks=self.ranks,
                    rank=self.global_rank,
                    attempts=attempt,
                    retryable=False,
                )
            seed = getattr(injector.schedule, "seed", 0)
            backoff = retry_backoff(seed, self.global_rank, attempt)
            self.device.consume_cpu(backoff)
            self.device.emit_mark(f"retry:{kind.value}#{attempt}")

    # ------------------------------------------------------------------
    # Cost accounting shared by backends
    # ------------------------------------------------------------------
    def _collective_duration(
        self, kind: CollectiveKind, nbytes: int, shard_nbytes=None
    ) -> float:
        return self.comm_model.time(
            kind,
            nbytes,
            self.ranks,
            concurrent_groups=self.concurrent_groups,
            shard_nbytes=shard_nbytes,
        )

    def _order_after_caller(self, stream: Optional[Stream]) -> Stream:
        """Resolve the collective's stream with NCCL's implicit ordering.

        ProcessGroupNCCL runs collectives on its internal stream but
        first makes that stream wait for the caller's *current* stream,
        so tensors produced there are ready before the collective reads
        them.  Callers that pass an explicit ``stream`` (FSDP's overlap
        machinery) take full control and skip the edge.
        """
        if stream is not None:
            return stream
        stream = self.comm_stream
        current = self.device.current_stream
        if current is not None and current is not stream:
            stream.wait_stream(current)
        return stream

    def _note_data_use(
        self,
        stream: Optional[Stream],
        *,
        reads: Sequence[Tensor] = (),
        writes: Sequence[Tensor] = (),
    ) -> None:
        """Record the collective's tensor accesses on ``stream``.

        Feeds both the allocator's cross-stream reuse gate
        (``record_stream`` semantics) and, when enabled, the
        stream-order sanitizer.  Call after ``_collective`` so
        the accesses attribute to the collective kernel just enqueued.
        """
        stream = stream or self.comm_stream
        device = self.device
        if not device.is_sim_gpu:
            return
        end = stream.ready_time
        for t in (*reads, *writes):
            block = t._storage.block
            if block is not None:
                device.allocator.record_use(block, stream, end)
        san = sanitizer.active()
        if san is not None:
            san.on_access(
                device,
                stream,
                reads=tuple(t._storage for t in reads),
                writes=tuple(t._storage for t in writes),
            )

    def _account_traffic(self, kind: CollectiveKind, nbytes: int) -> None:
        world = self.world_size
        if world <= 1:
            return
        if kind is CollectiveKind.ALL_REDUCE:
            per_rank = 2.0 * nbytes * (world - 1) / world
        else:
            per_rank = nbytes * (world - 1) / world
        self.bytes_sent += int(per_rank)
        self.collective_count += 1
        if self._spans_hosts:
            self.cross_host_bytes += int(per_rank)

    def _collective(
        self,
        kind: CollectiveKind,
        nbytes: int,
        stream: Optional[Stream],
        *,
        payload: Optional[np.ndarray] = None,
        combine: Optional[Callable[[list], object]] = None,
        shard_nbytes=None,
        dtype: str = "",
    ) -> tuple[Work, object]:
        """Launch one collective; return its Work and combined payload.

        The one template behind every collective of both backends.
        Consults the installed fault injector first: injected delays
        push the issue time, degraded links stretch the duration, and a
        hang (or a stretch past ``timeout``) trips the watchdog, which
        raises :class:`CollectiveTimeoutError` instead of completing.
        An injected desync raises here unless a cross-rank checker is
        installed (never on the lockstep backend).  The backend's
        :meth:`_agree_start` then fixes when the group starts and what
        ``combine`` made of the members' payloads — faults change
        timing, never math.
        """
        self._abort_check(kind)
        decision = self._consult_faults(kind)
        if decision.desync and not self.device.desync_checker:
            raise self._desync_error(kind, nbytes, dtype)
        stream = self._order_after_caller(stream)
        device = self.device
        device.consume_cpu(device.spec.kernel_launch_cpu)
        duration = self._collective_duration(kind, nbytes, shard_nbytes)
        duration *= decision.duration_factor
        issue = device.cpu_time() + decision.delay_s
        ready = max(issue, stream.ready_time)
        recorder = device.flight_recorder
        profiler = device.profiler
        record = None
        if recorder is not None:
            # Recorded before the start is agreed: a rank blocked on a
            # missing peer shows up as issued-but-unlaunched.
            record = recorder.record_issue(
                rank=self.global_rank,
                kind=kind.value,
                nbytes=nbytes,
                group_ranks=self.ranks,
                stream=stream.name,
                time=issue,
                scope=profiler.scope if profiler is not None else "",
            )
        if decision.hang or duration > self.timeout:
            # The flight record stays un-launched: the dump shows this
            # rank issued but never reached the kernel.
            self._watchdog(kind, ready, self._live_pending())
        start, combined = self._agree_start(
            kind, ready, payload, combine, nbytes=nbytes, dtype=dtype, desync=decision.desync
        )
        launch_start, launch_end = stream.enqueue(duration, issue_time=start, label=kind.value)
        if record is not None:
            recorder.record_launch(record, launch_start, launch_end)
            if profiler is not None:
                profiler.on_collective(record)
        self._account_traffic(kind, nbytes)
        event = stream.record_event()
        token = self._track_launch(kind, event)
        return Work(event, on_complete=lambda: self._retire_op(token)), combined

    def _agree_start(
        self,
        kind: CollectiveKind,
        ready: float,
        payload: Optional[np.ndarray],
        combine: Optional[Callable[[list], object]],
        *,
        nbytes: int,
        dtype: str,
        desync: bool,
    ) -> tuple[float, object]:
        """Backend hook: the group's start time and combined payload.

        ``ready`` is when this rank's stream can start the collective.
        Returns the group's start time and ``combine`` applied to every
        member's ``payload`` in rank order (``None`` when any member
        carries no data); ``desync`` asks a cross-rank checker to see
        this rank's signature diverge.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Collective API
    # ------------------------------------------------------------------
    def all_gather_into_tensor(
        self, output: Tensor, input: Tensor, *, stream: Optional[Stream] = None
    ) -> Work:
        self._check_all_gather_shapes(output, input)
        return self._gather_pairs(((output, input),), stream)

    def all_gather_into_tensor_coalesced(
        self,
        pairs: Sequence[tuple[Tensor, Tensor]],
        *,
        stream: Optional[Stream] = None,
    ) -> Work:
        """Gather several ``(output, input)`` pairs with ONE collective.

        Semantically identical to issuing ``all_gather_into_tensor`` per
        pair (each output is the rank-major concatenation of the pair's
        inputs), but the launch overhead and ring latency are paid once
        for the whole bucket — the Figure-2 payoff the compile passes
        target.  The fault injector is consulted once: a bucket is one
        logical collective, keeping SPMD fault sequences aligned.
        """
        self._check_coalesced_pairs(pairs, kind="all_gather_into_tensor_coalesced")
        return self._gather_pairs(pairs, stream)

    def reduce_scatter_tensor(
        self, output: Tensor, input: Tensor, op: str = ReduceOp.SUM, *, stream: Optional[Stream] = None
    ) -> Work:
        self._check_reduce_scatter_shapes(output, input)
        return self._reduce_scatter(
            CollectiveKind.REDUCE_SCATTER,
            ((output, input, self.rank * output.numel),),
            op,
            stream,
        )

    def reduce_scatter_tensor_coalesced(
        self,
        pairs: Sequence[tuple[Tensor, Tensor]],
        op: str = ReduceOp.SUM,
        *,
        stream: Optional[Stream] = None,
    ) -> Work:
        """Reduce-scatter several ``(output, input)`` pairs at once.

        Bitwise identical to per-pair ``reduce_scatter_tensor``: the
        reduction is elementwise, so reducing the concatenation of the
        inputs and slicing per-pair rank segments yields exactly the
        same values as separate collectives.
        """
        self._check_coalesced_pairs(pairs, kind="reduce_scatter_tensor_coalesced")
        return self._reduce_scatter(
            CollectiveKind.REDUCE_SCATTER,
            tuple((o, i, self.rank * o.numel) for o, i in pairs),
            op,
            stream,
        )

    def reduce_scatter(
        self,
        output: Tensor,
        input: Tensor,
        input_sizes: Sequence[int],
        op: str = ReduceOp.SUM,
        *,
        stream: Optional[Stream] = None,
    ) -> Work:
        """Reduce-scatter with *uneven* per-rank output sizes.

        ``input`` is the 1-D concatenation of ``world_size`` segments of
        ``input_sizes[r]`` elements each; after the elementwise
        reduction rank ``r`` receives segment ``r`` in ``output``
        (``output.numel == input_sizes[rank]``, possibly zero).  The
        per-parameter backend uses this for exact dim-0 shards whose
        tail chunks are short.
        """
        self._check_reduce_scatter_uneven_shapes(output, input, input_sizes)
        sizes = list(input_sizes)
        if len(set(sizes)) == 1:
            kind, shard_nbytes = CollectiveKind.REDUCE_SCATTER, None
        else:
            kind = CollectiveKind.REDUCE_SCATTER_UNEVEN
            shard_nbytes = [s * input.dtype.itemsize for s in sizes]
        return self._reduce_scatter(
            kind,
            ((output, input, sum(sizes[: self.rank])),),
            op,
            stream,
            shard_nbytes=shard_nbytes,
        )

    def all_reduce(
        self, tensor: Tensor, op: str = ReduceOp.SUM, *, stream: Optional[Stream] = None
    ) -> Work:
        _check_op(op)
        return self._in_place(
            CollectiveKind.ALL_REDUCE, tensor, lambda datas: _reduce(datas, op), stream
        )

    def broadcast(self, tensor: Tensor, src: int, *, stream: Optional[Stream] = None) -> Work:
        if src not in self.ranks:
            raise DistributedError(f"broadcast src {src} not in group {self.ranks}")
        src_index = self.ranks.index(src)
        return self._in_place(
            CollectiveKind.BROADCAST, tensor, lambda datas: datas[src_index], stream
        )

    def all_gather(
        self, outputs: Sequence[Tensor], input: Tensor, *, stream: Optional[Stream] = None
    ) -> Work:
        if len(outputs) != self.world_size:
            raise DistributedError("all_gather needs one output tensor per rank")
        sizes = [o.numel for o in outputs]
        even = len(set(sizes)) == 1 and sizes[0] == input.numel
        kind = CollectiveKind.ALL_GATHER_LIST if even else CollectiveKind.ALL_GATHER_UNEVEN
        work, shards = self._collective(
            kind,
            sum(sizes) * input.dtype.itemsize,
            stream,
            payload=_payload(input),
            combine=list,
            shard_nbytes=[s * input.dtype.itemsize for s in sizes],
            dtype=input.dtype.name,
        )
        if shards is not None:
            for out, shard in zip(outputs, shards):
                if out.is_materialized:
                    _write(out, shard)
        self._note_data_use(stream, reads=(input,), writes=tuple(outputs))
        return work

    def all_to_all_bytes(self, nbytes: int, *, stream: Optional[Stream] = None) -> Work:
        """Cost-only all-to-all of ``nbytes`` total payload.

        Used for the sparse-embedding exchange of the DHEN workload,
        where only the communication time and traffic matter to the
        simulation (the lookup itself is rank-local).
        """
        work, _ = self._collective(CollectiveKind.ALL_TO_ALL, nbytes, stream)
        return work

    def barrier(self) -> None:
        raise NotImplementedError

    def all_reduce_scalar(self, value: float, op: str = ReduceOp.SUM) -> float:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Collective bodies shared by the public API
    # ------------------------------------------------------------------
    def _gather_pairs(
        self, pairs: Sequence[tuple[Tensor, Tensor]], stream: Optional[Stream]
    ) -> Work:
        """One all-gather over the concatenated inputs of ``pairs``."""

        def combine(datas):
            # Each pair's output is the rank-major concatenation of the
            # pair's slice of every member's payload.
            gathered, offset = [], 0
            for _, input in pairs:
                n = input.numel
                gathered.append(np.concatenate([d[offset : offset + n] for d in datas]))
                offset += n
            return gathered

        work, gathered = self._collective(
            CollectiveKind.ALL_GATHER_BASE,
            sum(o.numel * i.dtype.itemsize for o, i in pairs),
            stream,
            payload=_concat_payloads(i for _, i in pairs),
            combine=combine,
            dtype=pairs[0][1].dtype.name,
        )
        if gathered is not None:
            for (output, _), values in zip(pairs, gathered):
                if output.is_materialized:
                    _write(output, values)
        self._note_data_use(
            stream,
            reads=tuple(i for _, i in pairs),
            writes=tuple(o for o, _ in pairs),
        )
        return work

    def _reduce_scatter(
        self,
        kind: CollectiveKind,
        segments: Sequence[tuple[Tensor, Tensor, int]],
        op: str,
        stream: Optional[Stream],
        *,
        shard_nbytes=None,
    ) -> Work:
        """One reduce-scatter over the concatenated inputs of ``segments``.

        Each ``(output, input, start)`` segment's output receives its
        input's reduced elements ``[start, start + output.numel)``.
        Reducing the concatenation is elementwise, so coalescing is
        bitwise-neutral.
        """
        _check_op(op)
        work, reduced = self._collective(
            kind,
            sum(i.numel * i.dtype.itemsize for _, i, _ in segments),
            stream,
            payload=_concat_payloads(i for _, i, _ in segments),
            combine=lambda datas: _reduce(datas, op),
            shard_nbytes=shard_nbytes,
            dtype=segments[0][1].dtype.name,
        )
        if reduced is not None:
            offset = 0
            for output, input, start in segments:
                if output.is_materialized:
                    begin = offset + start
                    _write(output, reduced[begin : begin + output.numel])
                offset += input.numel
        self._note_data_use(
            stream,
            reads=tuple(i for _, i, _ in segments),
            writes=tuple(o for o, _, _ in segments),
        )
        return work

    def _in_place(self, kind: CollectiveKind, tensor: Tensor, combine, stream) -> Work:
        """A collective that overwrites ``tensor`` with ``combine``'s result."""
        work, result = self._collective(
            kind,
            tensor.numel * tensor.dtype.itemsize,
            stream,
            payload=_payload(tensor),
            combine=combine,
            dtype=tensor.dtype.name,
        )
        if result is not None and tensor.is_materialized:
            _write(tensor, result)
        self._note_data_use(stream, reads=(tensor,), writes=(tensor,))
        return work

    # ------------------------------------------------------------------
    # Shared validation
    # ------------------------------------------------------------------
    def _check_all_gather_shapes(self, output: Tensor, input: Tensor) -> None:
        if output.numel != input.numel * self.world_size:
            raise DistributedError(
                f"all_gather_into_tensor: output numel {output.numel} != "
                f"world_size {self.world_size} * input numel {input.numel}"
            )

    def _check_reduce_scatter_shapes(self, output: Tensor, input: Tensor) -> None:
        if input.numel != output.numel * self.world_size:
            raise DistributedError(
                f"reduce_scatter_tensor: input numel {input.numel} != "
                f"world_size {self.world_size} * output numel {output.numel}"
            )

    def _check_coalesced_pairs(
        self, pairs: Sequence[tuple[Tensor, Tensor]], *, kind: str
    ) -> None:
        if not pairs:
            raise DistributedError(f"{kind}: empty coalescing bucket")
        check = (
            self._check_all_gather_shapes
            if kind == "all_gather_into_tensor_coalesced"
            else self._check_reduce_scatter_shapes
        )
        for output, input in pairs:
            check(output, input)

    def _check_reduce_scatter_uneven_shapes(
        self, output: Tensor, input: Tensor, input_sizes: Sequence[int]
    ) -> None:
        if len(input_sizes) != self.world_size:
            raise DistributedError(
                f"reduce_scatter: {len(input_sizes)} segment sizes for a "
                f"group of {self.world_size} ranks"
            )
        if sum(input_sizes) != input.numel:
            raise DistributedError(
                f"reduce_scatter: segment sizes sum to {sum(input_sizes)} but "
                f"input has {input.numel} elements"
            )
        if output.numel != input_sizes[self.rank]:
            raise DistributedError(
                f"reduce_scatter: output numel {output.numel} != this rank's "
                f"segment size {input_sizes[self.rank]}"
            )


def _check_op(op: str) -> None:
    if op not in (ReduceOp.SUM, ReduceOp.AVG, ReduceOp.MAX):
        raise DistributedError(f"unknown reduce op {op!r}")


def _reduce(datas: list, op: str):
    """Elementwise SUM/AVG/MAX over the members' payloads (rank axis 0)."""
    if op == ReduceOp.MAX:
        return np.max(datas, axis=0)
    total = np.sum(datas, axis=0)
    if op == ReduceOp.AVG:
        total = total / len(datas)
    return total


def _payload(t: Tensor) -> Optional[np.ndarray]:
    if not t.is_materialized:
        return None
    return np.ascontiguousarray(t._np.reshape(-1), dtype=np.float64)


def _concat_payloads(tensors) -> Optional[np.ndarray]:
    payloads = [_payload(t) for t in tensors]
    if any(p is None for p in payloads):
        return None
    return payloads[0] if len(payloads) == 1 else np.concatenate(payloads)


def _write(t: Tensor, values: np.ndarray) -> None:
    t._np.reshape(-1)[...] = dtypes.quantize(values, t.dtype)
