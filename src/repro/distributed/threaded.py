"""Threaded SPMD backend: N ranks as N python threads, real data.

Used by tests and examples to check numerical equivalence (FSDP vs
local training) with the simulated clocks still advancing.  The
collectives themselves are :class:`ProcessGroup`'s one collective path,
shared with the symmetric backend; this backend supplies only the start
hook: the members join a rendezvous, each collective starts at the max
of their communication stream frontiers (like a real NCCL collective
that cannot begin until every participant has joined), and the last
arrival combines every member's payload.
"""

from __future__ import annotations

from repro.distributed.fault import FaultDecision
from repro.distributed.process_group import ProcessGroup, ReduceOp, _check_op, _reduce
from repro.distributed.rendezvous import (
    Rendezvous,
    RendezvousAbortedError,
    RendezvousTimeoutError,
)
from repro.errors import CollectiveDesyncError
from repro.hw.comm_model import CollectiveKind
from repro.resilience.desync import (
    DesyncVerdict,
    collective_signature,
    compare_signatures,
    perturb_signature,
)

__all__ = ["ThreadedProcessGroup"]


class ThreadedProcessGroup(ProcessGroup):
    """Process group whose collectives rendezvous across rank threads."""

    def __init__(self, *, rendezvous: Rendezvous, **kwargs):
        super().__init__(**kwargs)
        self.rendezvous = rendezvous
        # Per-group launch counter for desync signatures.  Each rank
        # holds its own group instance, and SPMD programs issue group
        # collectives in lockstep, so counters agree across ranks
        # exactly when the program is in sync — which is the check.
        self._desync_seq = 0

    def _consult_faults(self, kind: CollectiveKind) -> FaultDecision:
        decision = super()._consult_faults(kind)
        if decision.hang:
            # A hung rank never reaches the collective, so it issues
            # nothing — the flight dump's "missing ranks".  Its own
            # watchdog trips ``timeout`` simulated seconds from now;
            # peers trip their wall-clock rendezvous deadline — or, with
            # coordinated abort, wake on this rank's declaration.
            self._watchdog(kind, self.device.cpu_time(), live_pending=0)
        return decision

    def _agree_start(self, kind, ready, payload, combine, *, nbytes, dtype, desync):
        """Join the rendezvous: start at the latest member's ready time.

        With a desync checker installed, every payload carries a
        ``(kind, nbytes, dtype, group, seq)`` signature, cross-checked
        before combining.
        """
        seq = self._desync_seq
        self._desync_seq += 1
        signature = None
        if self.device.desync_checker:
            signature = collective_signature(
                kind=kind.value, nbytes=nbytes, dtype=dtype, ranks=self.ranks, seq=seq
            )
            if desync:
                signature = perturb_signature(signature)

        def combiner(payloads):
            start = max(t for t, _, _ in payloads)
            sigs = [s for _, _, s in payloads]
            if all(s is not None for s in sigs):
                verdict = compare_signatures(sigs)
                if verdict is not None:
                    return start, verdict
            datas = [d for _, d, _ in payloads]
            if combine is None or any(d is None for d in datas):
                return start, None
            return start, combine(datas)

        start, combined = self._exchange(kind, (ready, payload, signature), combiner)
        if isinstance(combined, DesyncVerdict):
            raise self._verdict_error(kind, combined)
        return start, combined

    def _exchange(self, kind: CollectiveKind, payload, combiner):
        """One rendezvous round, with its failures turned into typed errors.

        A peer's watchdog declaring a failure mid-round wakes this rank
        (wall clock) with :class:`RankFailureError`, charging the
        simulated clock only up to the declaration point — the whole
        group pays ~one watchdog interval, not one per survivor.
        Without coordinated abort, this survivor burns the full deadline
        on its own watchdog and raises :class:`CollectiveTimeoutError`.
        """
        device = self.device
        try:
            return self.rendezvous.exchange(
                self.rank, payload, combiner, timeout=self.timeout, abort=device.abort
            )
        except RendezvousAbortedError:
            device.emit_mark(f"abort:{kind.value}")
            device.advance_cpu_to(max(device.cpu_time(), device.abort.declared_time()))
            raise self._rank_failure_error(kind) from None
        except RendezvousTimeoutError as err:
            device.emit_mark(f"watchdog:{kind.value}")
            device.advance_cpu_to(device.cpu_time() + self.timeout)
            raise self._timeout_error(kind) from err

    def _verdict_error(
        self, kind: CollectiveKind, verdict: DesyncVerdict
    ) -> CollectiveDesyncError:
        """Convert a cross-rank signature verdict into a typed error."""
        divergent_global = tuple(
            self.ranks[m] for m in verdict.divergent_members
        )
        if self.rank in verdict.divergent_members:
            actual = verdict.actual_for(self.rank)
        else:
            actual = verdict.actual_for(verdict.divergent_members[0])
        return self._attach_flight_dump(
            CollectiveDesyncError(
                kind=kind.value,
                ranks=self.ranks,
                rank=self.global_rank,
                seq=verdict.expected[4],
                divergent_ranks=divergent_global,
                expected=verdict.expected,
                actual=actual,
            )
        )

    def barrier(self) -> None:
        work, _ = self._collective(CollectiveKind.BROADCAST, 0, None)
        work.wait()

    def all_reduce_scalar(self, value: float, op: str = ReduceOp.SUM) -> float:
        _check_op(op)
        kind = CollectiveKind.ALL_REDUCE
        self._abort_check(kind)

        def combiner(payloads):
            start = max(t for t, _ in payloads)
            return start, float(_reduce([v for _, v in payloads], op))

        start, result = self._exchange(
            kind, (self.device.cpu_time(), float(value)), combiner
        )
        self.device.advance_cpu_to(start + self.comm_model.launch_overhead)
        return result
