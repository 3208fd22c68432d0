"""The recovery controller shared by both elastic drivers.

:func:`repro.perf.simulate_training` (symmetric, ``elastic=True``) and
:func:`repro.perf.train_elastic` (threaded, real data) recover from the
same failures with the same policy; this module is that policy:

- which errors are recoverable (:data:`RECOVERABLE_ERRORS`);
- how long the job takes to *notice* a failure
  (:meth:`RecoveryController.detect`);
- whether to heal from a replicate-group peer or restore from the
  checkpoint store, counting every requested heal that had to fall
  back (:meth:`RecoveryController.choose_heal` /
  :meth:`RecoveryController.plan_heal`);
- what either path costs in simulated time, charged to the device under
  the ``heal:peer-restore`` / ``recovery:restore`` profiler scopes.

The serving fleet prices replica provisioning with the same
:func:`restore_seconds` / :func:`verify_seconds`, so serving and
training recovery stay calibrated to one another.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import (
    CheckpointCorruptionError,
    CollectiveFailedError,
    CollectiveTimeoutError,
    RankCrashedError,
    RankFailureError,
    RecoveryModeError,
)
from repro.resilience.abort import DEFAULT_HEALTH_PROBE_S
from repro.resilience.heal import HealContext, HealPlan

__all__ = [
    "RECOVERABLE_ERRORS",
    "RECOVERY_MODES",
    "CHECKPOINT_RESTORE_BANDWIDTH",
    "CHECKPOINT_VERIFY_BANDWIDTH",
    "PEER_HEAL_BANDWIDTH",
    "RecoveryController",
    "restore_seconds",
    "verify_seconds",
]

GiB = float(1 << 30)

#: Errors the elastic drivers treat as recoverable rank failures.  A
#: corrupted checkpoint is recoverable too: the store quarantines it and
#: the respawned world restores from an older verified-good iteration.
RECOVERABLE_ERRORS = (
    RankCrashedError,
    RankFailureError,
    CollectiveTimeoutError,
    CollectiveFailedError,
    CheckpointCorruptionError,
)

#: ``"restore"`` rewinds every rank to the latest checkpoint; ``"heal"``
#: restores only the failed ranks from surviving replicate-group peers.
RECOVERY_MODES = ("restore", "heal")

#: Simulated host→device restore bandwidth for checkpoint reloads.
CHECKPOINT_RESTORE_BANDWIDTH = 5 * GiB  # bytes/s

#: Simulated checksum-verify throughput at restore time (CRC pass over
#: every shard before trusting it — see repro.checkpoint.store).
CHECKPOINT_VERIFY_BANDWIDTH = 10 * GiB  # bytes/s

#: Peer-to-peer healing bandwidth (bytes/s): a direct NIC-to-NIC copy
#: between two hosts, faster than the shared checkpoint store's
#: restore path (5 GiB/s read + 10 GiB/s verify for *every* rank).
PEER_HEAL_BANDWIDTH = 25 * GiB


def restore_seconds(nbytes: int) -> float:
    """Simulated time to read ``nbytes`` of checkpoint from storage."""
    return nbytes / CHECKPOINT_RESTORE_BANDWIDTH


def verify_seconds(nbytes: int, world_size: int = 1) -> float:
    """Simulated CRC pass over ``world_size`` shards of ``nbytes`` each."""
    return nbytes * world_size / CHECKPOINT_VERIFY_BANDWIDTH


def _charge(device, scope: str, seconds: float) -> None:
    profiler = device.profiler
    if profiler is None:
        device.consume_cpu(seconds)
        return
    with profiler.scoped(scope):
        device.consume_cpu(seconds)


class RecoveryController:
    """Recovery policy and pricing for one elastic run.

    Healing is eligible only when the layout replicates every shard
    (hybrid sharding, or a :class:`HealPlan` found a surviving donor),
    the restart keeps the world size, and the failure is not a
    corrupted checkpoint.  Any ineligible failure under ``"heal"``
    restores from the checkpoint store and adds one to the result's
    ``heal_fallbacks``.
    """

    def __init__(self, mode: str = "restore"):
        if mode not in RECOVERY_MODES:
            raise RecoveryModeError(
                f"unknown recovery mode {mode!r}; expected one of {RECOVERY_MODES}"
            )
        self.mode = mode

    def detect(self, result, failure: BaseException, device=None) -> float:
        """Add the fault-to-detection latency to ``result.detection_s``.

        A hang is noticed by the collective watchdog (one timeout
        interval, or the coordinated abort's declared detection time); a
        silent crash by the out-of-band elastic-agent health probe, whose
        interval also stalls ``device`` when given; a corrupted
        checkpoint surfaces synchronously at load and costs nothing
        extra.
        """
        if isinstance(failure, RankFailureError):
            seconds = failure.detection_s
        elif isinstance(failure, CollectiveTimeoutError):
            seconds = failure.timeout
        elif isinstance(failure, RankCrashedError):
            seconds = DEFAULT_HEALTH_PROBE_S
            if device is not None:
                device.consume_cpu(seconds)
        else:
            seconds = 0.0
        result.detection_s += seconds
        return seconds

    def choose_heal(self, result, failure: BaseException, *, hybrid: bool) -> bool:
        """Heal (True) or restore (False) after ``failure``."""
        return self._count(result, self._eligible(failure, hybrid, resized=False))

    def plan_heal(
        self,
        result,
        failure: BaseException,
        ledger: Optional[HealContext],
        failed: tuple,
        world_size: int,
        *,
        resized: bool,
    ) -> Optional[HealPlan]:
        """Donor plan for the ``failed`` ranks, or ``None`` to restore.

        Survivors' deposits in ``ledger`` stay live for planning; on a
        fallback they are dropped, since they would be *ahead* of the
        restored checkpoint.
        """
        if ledger is None:
            return None
        ledger.invalidate(failed)
        plan = None
        if self._eligible(failure, bool(failed), resized=resized):
            plan = ledger.plan(failed, world_size)
        if self._count(result, plan is not None):
            result.healed_ranks.append(failed)
        else:
            ledger.clear()
        return plan

    def charge_heal(self, device, nbytes: int) -> float:
        """Charge one rank's peer-to-peer shard transfer; returns seconds."""
        seconds = nbytes / PEER_HEAL_BANDWIDTH
        _charge(device, "heal:peer-restore", seconds)
        device.emit_mark("heal:peer-restore")
        return seconds

    def charge_restore(self, device, nbytes: int, world_size: int) -> tuple:
        """Charge a checkpoint reload of ``nbytes`` per rank, verifying all
        ``world_size`` shards; returns ``(restore_s, verify_s)``."""
        restore = restore_seconds(nbytes)
        verify = verify_seconds(nbytes, world_size)
        _charge(device, "recovery:restore", verify + restore)
        return restore, verify

    def _eligible(self, failure: BaseException, layout: bool, *, resized: bool) -> bool:
        return (
            self.mode == "heal"
            and layout
            and not resized
            and not isinstance(failure, CheckpointCorruptionError)
        )

    def _count(self, result, heal: bool) -> bool:
        if self.mode == "heal" and not heal:
            result.heal_fallbacks += 1
        return heal
