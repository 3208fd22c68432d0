"""Symmetric single-rank backend for performance simulation.

SPMD training is symmetric: every rank runs the same program on the
same-sized shards, so for *timing and memory* purposes one rank's
timeline plus group-aware collective costs is enough.  The collectives
themselves are :class:`ProcessGroup`'s one collective path, shared with
the threaded backend; this backend supplies only the lockstep start
hook: every peer reaches each collective at the same simulated instant
as the local rank, and no data moves (it is used with abstract tensors
for the paper-scale sweeps of Sections 5.2–5.4).

For numerics-preserving runs use :class:`ThreadedProcessGroup`.
"""

from __future__ import annotations

from repro.distributed.process_group import ProcessGroup, ReduceOp, _check_op
from repro.errors import DistributedError

__all__ = ["SymmetricProcessGroup"]


class SymmetricProcessGroup(ProcessGroup):
    """Single-process stand-in for a full group of lockstep ranks."""

    def _agree_start(self, kind, ready, payload, combine, *, nbytes, dtype, desync):
        # Lockstep peers are ready when this rank is; nothing to combine.
        return ready, None

    def _check_all_gather_shapes(self, output, input) -> None:
        super()._check_all_gather_shapes(output, input)
        if output.is_materialized and self.world_size > 1:
            raise DistributedError(
                "SymmetricProcessGroup cannot produce real gathered data; "
                "use the threaded backend for materialized tensors"
            )

    def barrier(self) -> None:
        self.device.consume_cpu(self.comm_model.launch_overhead)

    def all_reduce_scalar(self, value: float, op: str = ReduceOp.SUM) -> float:
        _check_op(op)
        if op == ReduceOp.SUM:
            return float(value) * self.world_size
        return float(value)
