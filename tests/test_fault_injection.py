"""Fault-injection subsystem: schedules, injector, watchdog, retries."""

import pytest

import repro
from repro import distributed as dist
from repro.cuda.device import Device
from repro.distributed import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
)
from repro.distributed.fault import TIMING_ONLY_KINDS
from repro.errors import (
    CollectiveFailedError,
    CollectiveTimeoutError,
    RankCrashedError,
)

WORLD = 4


@pytest.fixture()
def faulty_world(request):
    """Symmetric world factory: call with a schedule/injector."""
    created = []

    def make(schedule=None, injector=None, timeout=60.0):
        dist.shutdown()
        ctx = dist.init_single_process(
            WORLD,
            materialize=False,
            fault_schedule=schedule,
            fault_injector=injector,
            collective_timeout=timeout,
        )
        created.append(ctx)
        return ctx

    yield make
    dist.shutdown()


def _one_all_gather(device):
    group = dist.default_group()
    shard = repro.empty(1_000_000, device=device)
    out = repro.empty(WORLD * 1_000_000, device=device)
    group.all_gather_into_tensor(out, shard).wait()
    device.synchronize()
    return group


class TestSchedule:
    def test_random_is_seed_deterministic(self):
        kwargs = dict(
            world_size=8, iterations=10, stragglers=2, delays=3, transients=2,
            hangs=1, crashes=1, pressure_events=1,
        )
        a = FaultSchedule.random(seed=7, **kwargs)
        b = FaultSchedule.random(seed=7, **kwargs)
        assert a == b
        assert a.events == b.events
        c = FaultSchedule.random(seed=8, **kwargs)
        assert a != c

    def test_timing_only_classification(self):
        timing = FaultSchedule.random(
            seed=1, world_size=4, iterations=4, stragglers=1, delays=2,
            transients=1, hangs=0, crashes=0, pressure_events=0,
        )
        assert timing.timing_only()
        assert all(e.kind in TIMING_ONLY_KINDS for e in timing)
        crashing = timing.with_events(
            FaultEvent(kind=FaultKind.CRASH, rank=0, iteration=1)
        )
        assert not crashing.timing_only()
        assert len(crashing.crash_events()) == 1

    def test_event_matching(self):
        event = FaultEvent(
            kind=FaultKind.DELAY, rank=1, start_iteration=2, end_iteration=5,
            collective_index=3, collective_kind="all_gather",
        )
        assert event.matches_rank(1) and not event.matches_rank(0)
        assert event.in_window(2) and event.in_window(4)
        assert not event.in_window(1) and not event.in_window(5)
        assert event.matches_collective(rank=1, iteration=3, seq=3, kind="all_gather")
        assert not event.matches_collective(rank=1, iteration=3, seq=4, kind="all_gather")
        assert not event.matches_collective(rank=1, iteration=3, seq=3, kind="all_reduce")


class TestInjectorBookkeeping:
    def test_seq_advances_once_per_logical_collective(self):
        injector = FaultInjector(FaultSchedule())
        injector.on_collective(rank=0, kind="all_gather", attempt=0)
        injector.on_collective(rank=0, kind="all_gather", attempt=1)
        injector.on_collective(rank=0, kind="all_gather", attempt=2)
        assert injector.collective_seq(0) == 1
        injector.on_collective(rank=0, kind="all_reduce", attempt=0)
        assert injector.collective_seq(0) == 2
        assert injector.collective_seq(1) == 0  # per-rank counters

    def test_crash_fires_once_per_observer(self):
        schedule = FaultSchedule([FaultEvent(kind=FaultKind.CRASH, rank=1, iteration=2)])
        injector = FaultInjector(schedule)
        injector.begin_iteration(0, 1)  # outside window: no crash
        for rank in range(2):
            with pytest.raises(RankCrashedError) as exc_info:
                injector.begin_iteration(rank, 2)
            assert exc_info.value.rank == 1
            assert exc_info.value.iteration == 2
        # Survives an elastic restart: same injector, no re-fire.
        injector.begin_iteration(0, 2)
        injector.begin_iteration(1, 2)
        assert [f.kind for f in injector.injected] == [FaultKind.CRASH]

    def test_pressure_bytes_windowed(self):
        schedule = FaultSchedule([
            FaultEvent(kind=FaultKind.OOM_PRESSURE, rank=0,
                       start_iteration=1, end_iteration=3, pressure_bytes=100),
            FaultEvent(kind=FaultKind.OOM_PRESSURE, rank=None,
                       iteration=2, pressure_bytes=50),
        ])
        injector = FaultInjector(schedule)
        assert injector.pressure_bytes(0, 0) == 0
        assert injector.pressure_bytes(0, 1) == 100
        assert injector.pressure_bytes(0, 2) == 150
        assert injector.pressure_bytes(1, 2) == 50
        assert injector.pressure_bytes(0, 3) == 0


class TestCollectiveFaults:
    def test_delay_shifts_simulated_time_only(self, faulty_world):
        ctx = faulty_world()
        _one_all_gather(ctx.device)
        baseline = ctx.device.now()

        delayed = faulty_world(
            schedule=FaultSchedule([
                FaultEvent(kind=FaultKind.DELAY, collective_index=0, delay_s=5e-3)
            ])
        )
        _one_all_gather(delayed.device)
        assert delayed.device.now() >= baseline + 5e-3 - 1e-12

    def test_straggler_slows_every_collective(self, faulty_world):
        ctx = faulty_world()
        group = _one_all_gather(ctx.device)
        _one_all_gather(ctx.device)
        baseline = ctx.device.now()

        slow = faulty_world(
            schedule=FaultSchedule([
                FaultEvent(kind=FaultKind.STRAGGLER, rank=0, delay_s=2e-3)
            ])
        )
        _one_all_gather(slow.device)
        _one_all_gather(slow.device)
        assert slow.device.now() >= baseline + 2 * 2e-3 - 1e-12
        assert len(slow.fault_injector.injected) == 2

    def test_transient_retries_then_succeeds(self, faulty_world):
        ctx = faulty_world(
            schedule=FaultSchedule([
                FaultEvent(kind=FaultKind.TRANSIENT, rank=0,
                           collective_index=0, failures=2)
            ])
        )
        group = _one_all_gather(ctx.device)
        assert group.retries_attempted == 2
        kinds = [f.kind for f in ctx.fault_injector.injected]
        assert kinds == [FaultKind.TRANSIENT, FaultKind.TRANSIENT]
        # The budget is consumed: the next collective is clean.
        before = group.retries_attempted
        _one_all_gather(ctx.device)
        assert group.retries_attempted == before

    def test_transient_exhausts_into_permanent_failure(self, faulty_world):
        ctx = faulty_world(
            schedule=FaultSchedule([
                FaultEvent(kind=FaultKind.TRANSIENT, rank=0,
                           collective_index=0, failures=50)
            ])
        )
        group = dist.default_group()
        group.max_collective_retries = 3
        device = ctx.device
        shard = repro.empty(1024, device=device)
        out = repro.empty(WORLD * 1024, device=device)
        with pytest.raises(CollectiveFailedError) as exc_info:
            group.all_gather_into_tensor(out, shard)
        error = exc_info.value
        assert error.kind == "all_gather_base"
        assert error.attempts == 4  # initial try + 3 retries
        assert not error.retryable

    def test_hang_trips_watchdog_with_context(self, faulty_world):
        ctx = faulty_world(
            schedule=FaultSchedule([
                FaultEvent(kind=FaultKind.HANG, rank=0, collective_index=0)
            ]),
            timeout=0.25,
        )
        device = ctx.device
        group = dist.default_group()
        shard = repro.empty(1024, device=device)
        out = repro.empty(WORLD * 1024, device=device)
        before = device.now()
        with pytest.raises(CollectiveTimeoutError) as exc_info:
            group.all_gather_into_tensor(out, shard)
        error = exc_info.value
        assert error.kind == "all_gather_base"
        assert error.ranks == tuple(range(WORLD))
        assert error.timeout == 0.25
        assert error.pending_ops >= 1
        assert "all_gather_base" in str(error)
        # The watchdog charges exactly the deadline on the simulated clock.
        assert device.cpu_time() >= before + 0.25

    @pytest.mark.parametrize("backend", ["symmetric", "threaded"])
    def test_slow_collective_beyond_deadline_times_out(self, faulty_world, backend):
        schedule = FaultSchedule([
            FaultEvent(kind=FaultKind.DELAY, collective_index=0,
                       duration_factor=1e9)
        ])
        if backend == "symmetric":
            ctx = faulty_world(schedule=schedule, timeout=0.5)
            with pytest.raises(CollectiveTimeoutError):
                _one_all_gather(ctx.device)
            return

        def worker(rank):
            with pytest.raises(CollectiveTimeoutError):
                _one_all_gather(dist.get_device())

        # Without coordinated abort every rank's own watchdog must fire.
        dist.spawn(
            worker,
            WORLD,
            materialize=False,
            fault_schedule=schedule,
            collective_timeout=0.5,
            coordinated_abort=False,
        )


class TestAllocatorPressure:
    def test_set_pressure_validates(self):
        device = Device("sim_gpu", index=0, capacity=1 << 20)
        with pytest.raises(ValueError):
            device.allocator.set_pressure(-1)

    def test_pressure_shrinks_usable_capacity(self):
        device = Device("sim_gpu", index=0, capacity=1 << 20)
        allocator = device.allocator
        assert allocator.usable_capacity == 1 << 20
        allocator.set_pressure(1 << 19)
        assert allocator.usable_capacity == 1 << 19
        allocator.set_pressure(1 << 21)
        assert allocator.usable_capacity == 0
        allocator.set_pressure(0)
        assert allocator.usable_capacity == 1 << 20

    def test_pressure_provokes_cudamalloc_retries(self):
        MiB = 1 << 20
        device = Device("sim_gpu", index=0, capacity=100 * MiB)
        allocator = device.allocator
        block = allocator.allocate(40 * MiB, device.default_stream)
        allocator.free(block)  # cached: 40 MiB reserved
        allocator.set_pressure(30 * MiB)
        # 60 MiB fits no cached block; the fresh cudaMalloc (40 + 60)
        # exceeds the 70 MiB usable capacity, so the allocator must
        # flush its cache and retry — the paper's fragmentation signal.
        allocator.allocate(60 * MiB, device.default_stream)
        assert allocator.memory_stats()["num_alloc_retries"] == 1
