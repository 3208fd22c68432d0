"""The benchmark's four workloads and the layers it traces.

Three workloads run the simulator on shape-only (meta) inputs through
``repro.perf.simulate_training``; one trains a small minGPT on real
data across two threaded ranks.  Every workload runs in *repetitions*:
one repetition is a set-up (model build, FSDP wrap, optimizer) followed
by a fixed number of iterations, so the simulated results of every
repetition are identical and host times can be sampled many times.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import repro
from repro import distributed as dist, nn
from repro.autograd import engine as autograd_engine
from repro.autograd.function import Function
from repro.cuda.allocator import CachingAllocator
from repro.cuda.device import Device
from repro.ddp import DistributedDataParallel
from repro.distributed.process_group import ProcessGroup
from repro.distributed.symmetric import SymmetricProcessGroup
from repro.distributed.threaded import ThreadedProcessGroup
from repro.fsdp import FullyShardedDataParallel, ModuleWrapPolicy, ShardingStrategy
from repro.fsdp.mixed_precision import BF16_MIXED
from repro.fsdp.runtime import FsdpUnit
from repro.fsdp.state_dict import full_state_dict
from repro.hw.comm_model import CommModel
from repro.hw.kernel_model import KernelCostModel
from repro.models import GPT_MEDIUM_SIM, T5_11B, GptConfig, MinGPT
from repro.models.transformer import TransformerBlock
from repro.optim import SGD, Adam
from repro.perf import GiB, SimConfig, merge_intervals, simulate_training
from repro.perf.workloads import gpt_builder, gpt_loss_fn, t5_builder, t5_loss_fn
from repro.profiler import ProfilerSession

import hostspeed
from tracing import Tracer

COLLECTIVES = (
    "all_gather_into_tensor",
    "reduce_scatter_tensor",
    "all_gather_into_tensor_coalesced",
    "reduce_scatter_tensor_coalesced",
    "reduce_scatter",
    "all_reduce",
    "broadcast",
    "all_gather",
    "all_to_all_bytes",
    "barrier",
    "all_reduce_scalar",
)

PROFILER_CALLBACKS = (
    "on_kernel",
    "on_collective",
    "on_unshard_issue",
    "on_prefetch_outcome",
    "on_pre_backward",
    "on_reshard",
    "on_rate_limit_admit",
    "_on_alloc_sample",
)

#: Session methods that build the profiler's report rather than record
#: an event; their time is reported apart from the callbacks.
PROFILER_REPORT = ("begin_measurement", "finalize", "totals", "summary")


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every traced layer."""

    def allocator_counts(args):
        stats = args[0].stats
        mallocs, retries = stats.num_cuda_mallocs, stats.num_alloc_retries

        def after():
            tracer.count("alloc.device_mallocs", stats.num_cuda_mallocs - mallocs)
            tracer.count("alloc.retries", stats.num_alloc_retries - retries)

        return after

    def collective_counts(method: str):
        kind = (
            "allgather"
            if method.startswith("all_gather")
            else "reduce_scatter"
            if method.startswith("reduce_scatter")
            else "other"
        )

        def around(args):
            group = args[0]
            if tracer.is_active("pg.collective"):
                return lambda: None  # counted by the outer collective
            before = group.bytes_sent

            def after():
                sent = group.bytes_sent - before
                tracer.count("pg.bytes", sent)
                tracer.count(f"pg.{kind}_bytes", sent)

            return after

        return around

    def unit_count(args):
        return lambda: tracer.count("fsdp.units")

    tracer.patch(Device, "launch", "cuda.launch")
    tracer.patch(CachingAllocator, "allocate", "alloc.allocate", allocator_counts)
    tracer.patch(CachingAllocator, "free", "alloc.free")
    tracer.patch(KernelCostModel, "duration", "hw.kernel_cost")
    tracer.patch(CommModel, "time", "hw.comm_cost")
    tracer.patch(Function, "apply", "autograd.apply")
    tracer.patch(autograd_engine, "run_backward", "autograd.backward")
    tracer.patch(FsdpUnit, "__init__", "fsdp.unit_init", unit_count)
    tracer.patch(FsdpUnit, "pre_forward", "fsdp.hook")
    tracer.patch(FsdpUnit, "post_forward", "fsdp.hook")
    tracer.patch(FullyShardedDataParallel, "__init__", "fsdp.wrap")
    for cls in (ProcessGroup, SymmetricProcessGroup, ThreadedProcessGroup):
        for method in COLLECTIVES:
            if method in cls.__dict__:
                tracer.patch(cls, method, "pg.collective", collective_counts(method))
    for cls in (Adam, SGD):
        tracer.patch(cls, "step", "optim.step")
    for callback in PROFILER_CALLBACKS:
        tracer.patch(ProfilerSession, callback, "profiler.callback")
    for method in PROFILER_REPORT:
        tracer.patch(ProfilerSession, method, "profiler.report")


def params_digest(state: dict) -> str:
    """Digest of a full state dict; equal digests mean bitwise-equal
    parameters, without keeping every repetition's copy alive."""
    digest = hashlib.sha256()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name].numpy())
        digest.update(f"{name}:{array.dtype}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def config_hash(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Rep:
    """One repetition: a set-up followed by the workload's iterations."""

    setup_s: float
    #: Host ms of each executed iteration after warm-up whose end was
    #: observed (the next iteration's start).
    iter_ms: list = field(default_factory=list)
    #: Host seconds from the first measured iteration to the end.
    window_s: float = 0.0
    executed: int = 0
    fast_forwarded: int = 0
    #: Measured (post-warm-up) iterations, their simulated seconds and
    #: the tokens they trained.
    measured: int = 0
    sim_s: float = 0.0
    tokens: int = 0
    #: Simulated outputs; equal across repetitions of one workload.
    sim: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


class _SetupDone(Exception):
    """Raised by the loss callback to stop a set-up-only repetition."""


def sim_outputs(result) -> dict:
    return {
        "iter_ms": result.iteration_latency * 1e3,
        "peak_reserved_gib": result.peak_reserved_gib,
        "peak_active_gib": result.peak_active_gib,
        "alloc_retries": result.num_alloc_retries,
        "collectives_per_iter": result.collectives,
        "oom": result.oom,
    }


def profile_breakdown(session: ProfilerSession, iterations: int, sim: dict) -> dict:
    """Simulated-cluster layer metrics from a profiled run's session and
    its simulated outputs (:func:`sim_outputs`)."""
    totals = session.totals()
    hits, misses = totals["prefetch_hits"], totals["prefetch_misses"]
    streams: dict[str, list] = {}
    for event in session.kernel_events:
        streams.setdefault(event.stream, []).append((event.start, event.end))
    busy = {
        name: sum(end - start for start, end in merge_intervals(spans)) * 1e3 / iterations
        for name, spans in sorted(streams.items())
    }
    units = {
        unit["label"]: unit["exposed_comm_s"] * 1e3 / iterations
        for unit in session.summary()["units"]
    }
    worst = max(units, key=units.get) if units else ""
    return {
        "sim.kernels_per_iter": len(session.kernel_events) / iterations,
        "sim.collectives_per_iter": float(sim["collectives_per_iter"]),
        "sim.allgather_gib_per_iter": totals["allgather_bytes"] / GiB / iterations,
        "sim.reduce_scatter_gib_per_iter": totals["reduce_scatter_bytes"] / GiB / iterations,
        "sim.exposed_comm_ms": totals["exposed_comm_s"] * 1e3 / iterations,
        "sim.overlapped_comm_ms": totals["overlapped_comm_s"] * 1e3 / iterations,
        "sim.prefetch_hit_ratio": hits / (hits + misses) if hits + misses else 1.0,
        "sim.prefetch_attempts": float(hits + misses),
        "sim.rate_limit_stall_ms": totals["rate_limit_stall_s"] * 1e3 / iterations,
        "sim.peak_active_gib": sim["peak_active_gib"],
        "sim.alloc_retries_per_iter": sim["alloc_retries"] / iterations,
        "sim.unit_exposed_comm_ms_max": units.get(worst, 0.0),
        "streams": busy,
        "units": units,
        "worst_unit": worst,
    }


# ----------------------------------------------------------------------
# Meta workloads (simulate_training on shape-only inputs)
# ----------------------------------------------------------------------
class MetaWorkload:
    """A ``SimConfig`` run end to end, ``warmup + iterations`` per repetition."""

    #: Ranks whose host work one repetition executes (one simulated rank).
    ranks = 1
    warmup = 1
    #: Measured iterations of a profiled breakdown repetition.
    breakdown_iterations = 4
    # Subclasses fill these in.
    iterations = 0
    profiled = False
    tokens_per_iter = 0

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed  # shape-only inputs: the seed changes nothing
        self.planned = self.warmup + self.iterations

    def sim_config(self) -> SimConfig:
        """The workload's config without its iteration counts."""
        raise NotImplementedError

    def base_config(self) -> SimConfig:
        return dataclasses.replace(
            self.sim_config(), iterations=self.iterations, warmup=self.warmup
        )

    def describe(self) -> dict:
        config = self.base_config()
        fields = {
            f.name: getattr(config, f.name)
            for f in dataclasses.fields(config)
            if f.name not in ("build_model", "make_loss", "auto_wrap_policy", "profiler")
        }
        return {"workload": self.name, "sim_config": fields, "model": self.model_config()}

    def model_config(self) -> dict:
        raise NotImplementedError

    def rep(self, tracer: Optional[Tracer] = None, *, setup_only: bool = False,
            profiled: Optional[bool] = None, iterations: Optional[int] = None,
            scaled: bool = False) -> Rep:
        """One repetition.  With ``scaled``, the host speed is taken at
        every boundary (start, each iteration's start, end) and host
        times read in reference seconds (:mod:`hostspeed`)."""
        base = self.base_config()
        profiled = self.profiled if profiled is None else profiled
        iterations = iterations or base.iterations
        # Callback entry and exit times, and the kernel seconds taken
        # between them when scaled.
        enter: list[float] = []
        leave: list[float] = []
        kernel_s: list[float] = []
        make_loss_inner = base.make_loss

        def make_loss(model, device):
            enter.append(time.perf_counter())
            if scaled:
                kernel_s.append(hostspeed.kernel_seconds())
            leave.append(time.perf_counter())
            if setup_only:
                raise _SetupDone
            return make_loss_inner(model, device)

        build = base.build_model
        if tracer is not None:
            make_loss = tracer.wrap("workload.make_loss", make_loss)
            build = tracer.wrap("nn.build", build)
        session = ProfilerSession() if profiled else None
        config = dataclasses.replace(
            base,
            build_model=build,
            make_loss=make_loss,
            profiler=session,
            iterations=iterations,
        )
        before = hostspeed.kernel_seconds() if scaled else 0.0
        start = time.perf_counter()
        try:
            if tracer is not None:
                result = tracer.span("trainer", simulate_training, config)
            else:
                result = simulate_training(config)
        except _SetupDone:
            factor = hostspeed.scale(before, kernel_s[0]) if scaled else 1.0
            return Rep(setup_s=(enter[0] - start) * factor,
                       extras={"raw": {"setup_s": enter[0] - start}})
        end = time.perf_counter()
        after = hostspeed.kernel_seconds() if scaled else 0.0
        # Host seconds of set-up, of each executed iteration, and of
        # the last one together with the fast-forward and the final
        # synchronize; each lies between two kernel calls.
        raw = [enter[0] - start]
        raw += [b - a for a, b in zip(leave, enter[1:])]
        raw.append(end - leave[-1])
        if scaled:
            bounds = [before, *kernel_s, after]
            factors = [hostspeed.scale(a, b) for a, b in zip(bounds, bounds[1:])]
        else:
            factors = [1.0] * len(raw)
        host = [r * f for r, f in zip(raw, factors)]
        warmup = config.warmup
        # Iteration i is host[i + 1]; the last executed one is followed
        # by the fast-forward, so it is part of the window only.
        rep = Rep(
            setup_s=host[0],
            iter_ms=[t * 1e3 for t in host[warmup + 1 : -1]],
            window_s=sum(host[warmup + 1 :]),
            executed=len(enter),
            fast_forwarded=result.extras.get("fast_forwarded_iterations", 0),
            measured=iterations,
            sim_s=result.iteration_latency * iterations,
            tokens=self.tokens_per_iter * iterations,
            sim=sim_outputs(result),
        )
        rep.extras["raw"] = {
            "setup_s": raw[0],
            "iter_ms": [t * 1e3 for t in raw[warmup + 1 : -1]],
            "window_s": sum(raw[warmup + 1 :]),
        }
        if session is not None:
            rep.extras["breakdown"] = profile_breakdown(session, iterations, rep.sim)
        return rep

    def breakdown_rep(self) -> Rep:
        """Profiled repetition for the simulated-cluster layer metrics."""
        return self.rep(profiled=True, iterations=self.breakdown_iterations)

    def checks(self, reps: list[Rep]) -> list[tuple[str, bool, str]]:
        return same_sim(reps)


def same_sim(reps: list[Rep]) -> list[tuple[str, bool, str]]:
    """Every repetition reports the same simulated outputs."""
    full = [r for r in reps if r.sim]
    if not full:
        return []
    first = full[0].sim
    bad = [r.sim for r in full if r.sim != first]
    return [("sim outputs repeat across repetitions", not bad,
             f"{len(bad)} of {len(full)} differ from {first}" if bad else "")]


def pair_check(a: Rep, b: Rep, label: str) -> list[tuple[str, bool, str]]:
    """Fast-forwarded and event-by-event runs of one config agree."""
    x, y = a.sim, b.sim
    rel = abs(x["iter_ms"] - y["iter_ms"]) / y["iter_ms"]
    return [
        (f"{label}: sim_iter_ms within 1e-9 relative", rel <= 1e-9,
         f"{x['iter_ms']!r} vs {y['iter_ms']!r}"),
        (f"{label}: peak reserved equal", x["peak_reserved_gib"] == y["peak_reserved_gib"],
         f"{x['peak_reserved_gib']} vs {y['peak_reserved_gib']}"),
        (f"{label}: alloc retries equal", x["alloc_retries"] == y["alloc_retries"],
         f"{x['alloc_retries']} vs {y['alloc_retries']}"),
        (f"{label}: no OOM", not (x["oom"] or y["oom"]), ""),
    ]


class _GptMeta(MetaWorkload):
    """minGPT GPT_MEDIUM_SIM at 512 ranks, bs 2, seq 512, BF16, per-block wrap."""

    world, batch, seq = 512, 2, 512
    iterations = 32
    tokens_per_iter = world * batch * seq

    def sim_config(self) -> SimConfig:
        return SimConfig(
            name=self.name,
            build_model=gpt_builder(GPT_MEDIUM_SIM),
            make_loss=gpt_loss_fn(GPT_MEDIUM_SIM, self.batch, self.seq),
            batch_size=self.batch,
            world_size=self.world,
            auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}),
            mixed_precision=BF16_MIXED,
        )

    def model_config(self) -> dict:
        return dataclasses.asdict(GPT_MEDIUM_SIM) | {"seq": self.seq}


class GptFF(_GptMeta):
    """Default sweep mode: meta inputs plus steady-state fast-forward."""

    def checks(self, reps):
        # Same config, short: the fast-forward must reproduce the
        # profiled event-by-event engine.
        n = self.breakdown_iterations
        return same_sim(reps) + pair_check(
            self.rep(iterations=n), self.rep(profiled=True, iterations=n),
            f"gpt-ff vs profiled at 1+{n} iterations",
        )


class GptProfiled(_GptMeta):
    """gpt-ff's config with a ProfilerSession: the event-by-event engine."""

    profiled = True

    def checks(self, reps):
        # gpt-ff's exact run must report this workload's outputs.
        return same_sim(reps) + pair_check(
            self.rep(profiled=False), reps[-1], "gpt-ff vs gpt-profiled"
        )


class T5Pressure(MetaWorkload):
    """Fig 6(c) T5-11B, no checkpointing, bs 3, seq 512, 16 ranks, no limiter."""

    world, batch, seq = 16, 3, 512
    iterations = 8
    breakdown_iterations = 8
    tokens_per_iter = world * batch * seq

    def model(self):
        return dataclasses.replace(T5_11B, checkpoint_blocks=False)

    def sim_config(self) -> SimConfig:
        t5 = self.model()
        return SimConfig(
            name=self.name,
            build_model=t5_builder(t5),
            make_loss=t5_loss_fn(t5, self.batch, self.seq),
            batch_size=self.batch,
            world_size=self.world,
            auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}),
            mixed_precision=BF16_MIXED,
            limit_all_gathers=False,
        )

    def model_config(self) -> dict:
        return dataclasses.asdict(self.model()) | {"seq": self.seq}


# ----------------------------------------------------------------------
# Real-data workload (threaded ranks, numpy kernels)
# ----------------------------------------------------------------------
class GptReal:
    """minGPT, FSDP FULL_SHARD, FP32, Adam, 2 threaded ranks, real tokens.

    The seed generates the initial weights and the token stream.  Every
    repetition starts from those weights and replays the same tokens,
    so one DDP reference run checks them all.
    """

    model = GptConfig(vocab_size=512, block_size=64, n_layer=4, n_head=4, n_embd=128)
    world, batch = 2, 4
    ranks = world
    warmup = 1
    iterations = 6
    lr = 1e-3

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.steps = self.planned = self.warmup + self.iterations
        repro.manual_seed(seed)
        self.init_state = {k: v.numpy().copy() for k, v in MinGPT(self.model).state_dict().items()}
        rng = np.random.default_rng(seed)
        self.tokens = rng.integers(
            0, self.model.vocab_size, (self.steps, self.world, self.batch, self.model.block_size + 1)
        )
        self.tokens_per_iter = self.world * self.batch * self.model.block_size
        self._reference = None

    def describe(self) -> dict:
        return {
            "workload": self.name,
            "model": dataclasses.asdict(self.model),
            "world": self.world,
            "batch_per_rank": self.batch,
            "warmup": self.warmup,
            "iterations": self.steps - self.warmup,
            "optimizer": f"Adam(lr={self.lr})",
            "sharding": "FULL_SHARD",
            "wrap": "TransformerBlock",
        }

    def _build(self) -> MinGPT:
        model = MinGPT(self.model)
        model.load_state_dict({k: repro.tensor(v) for k, v in self.init_state.items()})
        return model

    def _worker(self, rank: int, tracer: Optional[Tracer], parallel: str, setup_only: bool,
                session: Optional[ProfilerSession]):
        device = dist.get_device()
        build = self._build if tracer is None else tracer.wrap("nn.build", self._build)
        model = build()
        if parallel == "fsdp":
            wrapped = FullyShardedDataParallel(
                model,
                device=device,
                auto_wrap_policy=ModuleWrapPolicy({TransformerBlock}),
                sharding_strategy=ShardingStrategy.FULL_SHARD,
            )
        else:
            wrapped = DistributedDataParallel(model, broadcast_parameters=False)
        optimizer = Adam(wrapped.parameters(), lr=self.lr)
        setup_end = time.perf_counter()
        if setup_only:
            return {"setup_end": setup_end}
        if session is not None and rank == 0:
            session.install(device)

        def make_loss(inputs, targets):
            return nn.functional.cross_entropy(wrapped(inputs), targets)

        if tracer is not None:
            make_loss = tracer.wrap("workload.make_loss", make_loss)

        def loop():
            stamps, losses, sim = [], [], []
            for step in range(self.steps):
                if session is not None and rank == 0 and step == self.warmup:
                    session.begin_measurement()
                stamps.append(time.perf_counter())
                sim.append(device.now())
                batch = self.tokens[step, rank]
                inputs = repro.tensor(batch[:, :-1], device=device)
                targets = repro.tensor(batch[:, 1:], device=device)
                optimizer.zero_grad()
                loss = make_loss(inputs, targets)
                loss.backward()
                optimizer.step()
                losses.append(float(loss.numpy()))
            stamps.append(time.perf_counter())
            device.synchronize()
            sim.append(device.now())
            return stamps, losses, sim

        if tracer is not None:
            stamps, losses, sim = tracer.span("trainer", loop)
        else:
            stamps, losses, sim = loop()
        if session is not None and rank == 0:
            session.uninstall(device)
        state = full_state_dict(wrapped) if parallel == "fsdp" else model.state_dict()
        stats = device.memory_stats()
        return {
            "setup_end": setup_end,
            "stamps": stamps,
            "losses": losses,
            "sim": sim,
            "params": params_digest(state),
            "peak_reserved": stats["reserved_bytes.all.peak"],
            "peak_active": stats["active_bytes.all.peak"],
            "retries": stats["num_alloc_retries"],
        }

    def _spawn(self, tracer=None, parallel="fsdp", setup_only=False, session=None):
        start = time.perf_counter()
        outs = dist.spawn(self._worker, self.world, args=(tracer, parallel, setup_only, session))
        return start, outs

    def rep(self, tracer: Optional[Tracer] = None, *, setup_only: bool = False,
            session: Optional[ProfilerSession] = None, scaled: bool = False) -> Rep:
        """One repetition.  With ``scaled``, a set-up-only repetition's
        set-up reads in reference seconds (:mod:`hostspeed`); the steps
        of a full one occupy both cores, so they are never scaled."""
        before = hostspeed.kernel_seconds() if scaled and setup_only else 0.0
        start, outs = self._spawn(tracer, setup_only=setup_only, session=session)
        setup_s = max(o["setup_end"] for o in outs) - start
        if setup_only:
            factor = hostspeed.scale(before, hostspeed.kernel_seconds()) if scaled else 1.0
            return Rep(setup_s=setup_s * factor, extras={"raw": {"setup_s": setup_s}})
        w = self.warmup
        # A step ends when the slower rank finishes it.
        iter_ms = [
            max(o["stamps"][k + 1] - o["stamps"][k] for o in outs) * 1e3
            for k in range(w, self.steps)
        ]
        window = max(o["stamps"][-1] for o in outs) - min(o["stamps"][w] for o in outs)
        sim_s = max(o["sim"][-1] - o["sim"][w] for o in outs)
        measured = self.steps - w
        skew_ms = [
            abs(outs[0]["stamps"][k + 1] - outs[1]["stamps"][k + 1]) * 1e3
            for k in range(w, self.steps)
        ]
        rep = Rep(
            setup_s=setup_s,
            iter_ms=iter_ms,
            window_s=float(window),
            executed=self.steps,
            measured=measured,
            sim_s=sim_s,
            tokens=self.tokens_per_iter * measured,
            sim={
                "iter_ms": sim_s / measured * 1e3,
                "peak_reserved_gib": max(o["peak_reserved"] for o in outs) / GiB,
                "peak_active_gib": max(o["peak_active"] for o in outs) / GiB,
                "alloc_retries": sum(o["retries"] for o in outs),
                "oom": False,
            },
        )
        rep.extras.update(
            raw={"setup_s": setup_s, "iter_ms": iter_ms, "window_s": float(window)},
            rank_skew_ms=skew_ms,
            losses=[o["losses"] for o in outs],
            params=[o["params"] for o in outs],
        )
        return rep

    def breakdown_rep(self) -> Rep:
        """Repetition profiled on rank 0, like the single simulated rank
        of the meta workloads."""
        session = ProfilerSession()
        rep = self.rep(session=session)
        measured = rep.measured
        sim = dict(rep.sim, collectives_per_iter=len(session.comm_intervals) // measured)
        rep.extras["breakdown"] = profile_breakdown(session, measured, sim)
        return rep

    def reference(self) -> dict:
        """DDP run of the same seed (§3.1 FP32 FULL_SHARD parity)."""
        if self._reference is None:
            _, outs = self._spawn(parallel="ddp")
            self._reference = {
                "losses": [o["losses"] for o in outs],
                "params": [o["params"] for o in outs],
            }
        return self._reference

    def checks(self, reps: list[Rep]) -> list[tuple[str, bool, str]]:
        ref = self.reference()
        out = []
        for i, r in enumerate(reps):
            if "losses" not in r.extras:
                continue
            losses_equal = r.extras["losses"] == ref["losses"]
            params_equal = r.extras["params"] == ref["params"]
            out.append((f"repetition {i}: losses bitwise equal to DDP", losses_equal, ""))
            out.append((f"repetition {i}: final parameters bitwise equal to DDP", params_equal, ""))
        return out + same_sim(reps)


WORKLOADS: dict[str, Callable] = {
    "gpt-ff": GptFF,
    "gpt-profiled": GptProfiled,
    "t5-pressure": T5Pressure,
    "gpt-real": GptReal,
}
