"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload gpt-ff --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no
wrappers installed.  With ``--trace 1`` it measures half the time
untraced and half with span wrappers on every traced layer, reports the
per-layer metrics and the tracing overhead, and checks that tracing
left every simulated output unchanged.  Either way it checks the
workload's outputs, prints one ``name value unit`` line per metric,
writes a record under ``perfbench/results/`` and prints as its last line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: (name, unit) of every end-to-end metric, reported on every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("iter_host_ms_p50", "ms"),
    ("iter_host_ms_tail", "ms"),
    ("sim_s_per_wall_s", "sim_s/s"),
    ("host_peak_rss_mib", "MiB"),
    ("sim_iter_ms", "sim_ms"),
    ("sim_peak_reserved_gib", "GiB"),
)

#: (name, unit) of every per-layer metric, reported on every workload
#: by a traced run.  Host times are per executed iteration and rank
#: unless the name says otherwise.
PER_LAYER = (
    ("nn.build_s", "s"),
    ("fsdp.wrap_s", "s"),
    ("fsdp.units", "count"),
    ("fsdp.hook_calls", "count"),
    ("fsdp.hook_self_ms", "ms"),
    ("workload.make_loss_self_ms", "ms"),
    ("autograd.apply_calls", "count"),
    ("autograd.apply_self_ms", "ms"),
    ("autograd.backward_self_ms", "ms"),
    ("cuda.launch_calls", "count"),
    ("cuda.launch_self_ms", "ms"),
    ("alloc.allocate_calls", "count"),
    ("alloc.allocate_self_ms", "ms"),
    ("alloc.free_calls", "count"),
    ("alloc.free_self_ms", "ms"),
    ("alloc.cache_hit_ratio", "ratio"),
    ("alloc.retries", "count"),
    ("hw.kernel_cost_calls", "count"),
    ("hw.kernel_cost_self_ms", "ms"),
    ("hw.comm_cost_calls", "count"),
    ("hw.comm_cost_self_ms", "ms"),
    ("pg.collective_calls", "count"),
    ("pg.collective_self_ms", "ms"),
    ("pg.bytes_per_iter", "bytes"),
    ("optim.step_ms", "ms"),
    ("profiler.callback_calls", "count"),
    ("trainer.executed_iters", "count"),
    ("trainer.fast_forwarded_iters", "count"),
    ("trainer.driver_self_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans_per_iter", "count"),
    ("sim.kernels_per_iter", "count"),
    ("sim.collectives_per_iter", "count"),
    ("sim.allgather_gib_per_iter", "GiB"),
    ("sim.reduce_scatter_gib_per_iter", "GiB"),
    ("sim.exposed_comm_ms", "sim_ms"),
    ("sim.overlapped_comm_ms", "sim_ms"),
    ("sim.prefetch_hit_ratio", "ratio"),
    ("sim.rate_limit_stall_ms", "sim_ms"),
    ("sim.peak_active_gib", "GiB"),
    ("sim.alloc_retries_per_iter", "count"),
    ("sim.unit_exposed_comm_ms_max", "sim_ms"),
    ("sim.stream.default.busy_ms", "sim_ms"),
    ("sim.stream.fsdp-unshard.busy_ms", "sim_ms"),
)

SETUP_ONLY_REPS = 20


def source_stamp() -> dict:
    """Commit (when the tree is a git checkout) and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    # Only this tree's own repository: a checkout without one, nested
    # in some other repository, must not report that one's commit.
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile with at least ten samples
    above it: (value, percentile).  Fewer than 11 samples give the max."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


class Run:
    """Repetitions of one workload plus the bookkeeping for fail_frac."""

    def __init__(self, workload, scaled: bool = False):
        self.workload = workload
        #: Host times in reference seconds (see hostspeed.py).
        self.scaled = scaled
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: list[dict] = []

    def rep(self, **kwargs):
        planned = 0 if kwargs.get("setup_only") else self.workload.planned
        self.attempted += max(planned, 1)
        start = time.perf_counter()
        try:
            rep = self.workload.rep(scaled=self.scaled, **kwargs)
        except Exception:  # noqa: BLE001 - counted and reported, run continues
            self.failed += max(planned, 1)
            self.errors.append(traceback.format_exc())
            return None
        rep.extras["wall_s"] = time.perf_counter() - start
        if rep.sim.get("oom"):
            self.failed += planned
            self.errors.append("out of memory")
        return rep

    def setup_sample(self, setups: list) -> None:
        gc.collect()
        rep = self.rep(setup_only=True)
        if rep is not None:
            setups.append(rep)

    def measure(self, seconds: float, tracer=None, setup_reps: int = 0) -> tuple[list, list]:
        """Repetitions until ``seconds`` have passed (at least one).

        With ``setup_reps``, half of them precede the window, one
        precedes every measured repetition and the rest follow, so
        set-up is sampled across the whole run.
        """
        setups, reps = [], []
        for _ in range(setup_reps // 2):
            self.setup_sample(setups)
        start = time.perf_counter()
        while True:
            if setup_reps:
                self.setup_sample(setups)
            # Every repetition starts from a collected heap, so garbage
            # left by the previous one does not land in its timings.
            gc.collect()
            rep = self.rep(tracer=tracer)
            if rep is not None:
                reps.append(rep)
            if time.perf_counter() - start >= seconds:
                break
        while len(setups) < setup_reps:
            self.setup_sample(setups)
        return setups, reps

    def check(self, results) -> None:
        for name, ok, detail in results:
            self.attempted += 1
            self.failed += 0 if ok else 1
            self.checks.append({"check": name, "ok": bool(ok), "detail": detail})

    def run_checks(self, reps) -> None:
        try:
            self.check(self.workload.checks(reps))
        except Exception:  # noqa: BLE001 - a check that raises fails
            self.check([("output checks ran", False, traceback.format_exc())])


def end_to_end(setups: list, reps: list, rss_mib: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics from the set-up-only samples and the measured
    repetitions.  Host times are as the repetitions report them
    (scaled to the reference speed unless the run traces); the detail
    also gives the unscaled ones."""
    samples = [ms for r in reps for ms in r.iter_ms]
    tail_value, tail_pct = tail(samples)
    ratio = [r.sim_s / r.window_s for r in reps]
    tokens = [r.tokens / r.window_s for r in reps]
    raw = [r.extras["raw"] for r in reps]
    raw_samples = [ms for r in raw for ms in r["iter_ms"]]
    sim = reps[0].sim
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in setups),
        "iter_host_ms_p50": statistics.median(samples),
        "iter_host_ms_tail": tail_value,
        "sim_s_per_wall_s": statistics.median(ratio),
        "host_peak_rss_mib": rss_mib,
        "sim_iter_ms": sim["iter_ms"],
        "sim_peak_reserved_gib": sim["peak_reserved_gib"],
    }
    detail = {
        # Tokens and simulated seconds per iteration are both fixed, so
        # this moves exactly with sim_s_per_wall_s.
        "tokens_per_s": statistics.median(tokens),
        "iter_host_ms_tail_percentile": tail_pct,
        "iter_host_ms_samples": len(samples),
        "setup_samples": len(setups),
        "repetitions": len(reps),
        "unscaled.setup_s": statistics.median(r.extras["raw"]["setup_s"] for r in setups),
        "unscaled.iter_host_ms_p50": statistics.median(raw_samples),
        "unscaled.iter_host_ms_tail": tail(raw_samples)[0],
        "unscaled.sim_s_per_wall_s": statistics.median(
            r.sim_s / x["window_s"] for r, x in zip(reps, raw)
        ),
        "sim_alloc_retries_per_iter": sim["alloc_retries"] / reps[0].measured,
        "executed_iters_per_rep": reps[0].executed,
        "fast_forwarded_iters_per_rep": reps[0].fast_forwarded,
    }
    if "rank_skew_ms" in reps[0].extras:
        detail["pg.rank_skew_ms_p50"] = statistics.median(
            s for r in reps for s in r.extras["rank_skew_ms"]
        )
    samples = {
        "iter_host_ms": samples,
        "sim_s_per_wall_s": ratio,
        "setup_s": [r.setup_s for r in setups],
        "unscaled": {
            "iter_host_ms": raw_samples,
            "window_s": [x["window_s"] for x in raw],
            "setup_s": [r.extras["raw"]["setup_s"] for r in setups],
        },
    }
    return metrics, detail, samples


def per_layer(workload, tracer, traced: list, untraced: list, breakdown) -> tuple[dict, dict]:
    totals = tracer.totals()
    counts = tracer.counts()
    ranks = workload.ranks
    setups = len(traced) * ranks
    iters = sum(r.executed for r in traced) * ranks

    def calls(name):
        t = totals.get(name)
        return t.calls / iters if t else 0.0

    def self_ms(name):
        t = totals.get(name)
        return t.self_ns / 1e6 / iters if t else 0.0

    def outer(name):
        t = totals.get(name)
        return t.outer_ns if t else 0

    allocations = totals["alloc.allocate"].calls if "alloc.allocate" in totals else 0
    wall = statistics.median(r.extras["wall_s"] for r in traced)
    base = statistics.median(r.extras["wall_s"] for r in untraced)
    metrics = {
        "nn.build_s": outer("nn.build") / 1e9 / setups,
        "fsdp.wrap_s": outer("fsdp.wrap") / 1e9 / setups,
        "fsdp.units": counts.get("fsdp.units", 0) / setups,
        "fsdp.hook_calls": calls("fsdp.hook"),
        "fsdp.hook_self_ms": self_ms("fsdp.hook"),
        "workload.make_loss_self_ms": self_ms("workload.make_loss"),
        "autograd.apply_calls": calls("autograd.apply"),
        "autograd.apply_self_ms": self_ms("autograd.apply"),
        "autograd.backward_self_ms": self_ms("autograd.backward"),
        "cuda.launch_calls": calls("cuda.launch"),
        "cuda.launch_self_ms": self_ms("cuda.launch"),
        "alloc.allocate_calls": calls("alloc.allocate"),
        "alloc.allocate_self_ms": self_ms("alloc.allocate"),
        "alloc.free_calls": calls("alloc.free"),
        "alloc.free_self_ms": self_ms("alloc.free"),
        "alloc.cache_hit_ratio": (
            1.0 - counts.get("alloc.device_mallocs", 0) / allocations if allocations else 0.0
        ),
        "alloc.retries": counts.get("alloc.retries", 0) / iters,
        "hw.kernel_cost_calls": calls("hw.kernel_cost"),
        "hw.kernel_cost_self_ms": self_ms("hw.kernel_cost"),
        "hw.comm_cost_calls": calls("hw.comm_cost"),
        "hw.comm_cost_self_ms": self_ms("hw.comm_cost"),
        "pg.collective_calls": calls("pg.collective"),
        "pg.collective_self_ms": self_ms("pg.collective"),
        "pg.bytes_per_iter": counts.get("pg.bytes", 0) / iters,
        "optim.step_ms": outer("optim.step") / 1e6 / iters,
        "profiler.callback_calls": calls("profiler.callback"),
        "trainer.executed_iters": float(traced[0].executed),
        "trainer.fast_forwarded_iters": float(traced[0].fast_forwarded),
        "trainer.driver_self_ms": self_ms("trainer"),
        "trace.overhead_pct": (wall / base - 1.0) * 100.0,
        "trace.spans_per_iter": sum(t.calls for t in totals.values()) / iters,
    }
    sim = breakdown.extras["breakdown"]
    for name, _ in PER_LAYER:
        if name.startswith("sim.stream."):
            metrics[name] = sim["streams"].get(name.split(".")[2], 0.0)
        elif name.startswith("sim."):
            metrics[name] = sim[name]
    detail = {
        "profiler.callback_self_ms": self_ms("profiler.callback"),
        "profiler.report_ms": outer("profiler.report") / 1e6 / iters,
        "alloc.cache_hit_ratio_base_allocations": allocations,
        "pg.allgather_bytes_per_iter": counts.get("pg.allgather_bytes", 0) / iters,
        "pg.reduce_scatter_bytes_per_iter": counts.get("pg.reduce_scatter_bytes", 0) / iters,
        "trace.overhead_ms_per_iter": (wall - base) * 1e3 / traced[0].executed,
        "trace.traced_rep_wall_s": wall,
        "trace.untraced_rep_wall_s": base,
        "trace.spans_total": sum(t.calls for t in totals.values()),
        "trace.spans_kept": len(tracer.spans()),
        "sim.prefetch_attempts": sim["sim.prefetch_attempts"],
        "sim.worst_unit": sim["worst_unit"],
        "sim.breakdown_iters": breakdown.measured,
    }
    detail.update({f"sim.stream.{k}.busy_ms": v for k, v in sim["streams"].items()})
    detail.update({f"sim.unit.{k}.exposed_comm_ms": v for k, v in sim["units"].items()})
    layer_self = {
        name: {"calls": t.calls, "self_ms": t.self_ns / 1e6, "outer_ms": t.outer_ns / 1e6}
        for name, t in sorted(totals.items())
    }
    return metrics, {"detail": detail, "layers": layer_self}


def tracing_preserves(traced: list, untraced: list) -> list:
    """The wrappers must leave the simulation, and the trainer's path
    through it, exactly as they were."""
    a, b = traced[0], untraced[0]
    return [
        ("traced run: simulated outputs equal the untraced run's", a.sim == b.sim,
         f"{a.sim} vs {b.sim}"),
        ("traced run: executed iterations equal", a.executed == b.executed,
         f"{a.executed} vs {b.executed}"),
        ("traced run: fast-forwarded iterations equal", a.fast_forwarded == b.fast_forwarded,
         f"{a.fast_forwarded} vs {b.fast_forwarded}"),
    ]


def _breakdown(run: Run):
    """Profiled repetition for the simulated-cluster layer metrics."""
    try:
        return run.workload.breakdown_rep()
    except Exception:  # noqa: BLE001 - reported as a failed check
        run.check([("simulated-cluster breakdown ran", False, traceback.format_exc())])
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy

    import hostspeed
    from tracing import Tracer
    from workloads import WORKLOADS, config_hash, install_layers

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.workload, args.seed)
    run = Run(workload, scaled=args.trace == 0)
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "config": workload.describe(),
        "config_hash": config_hash(workload.describe()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        **source_stamp(),
    }

    if args.trace == 0:
        setups, reps = run.measure(args.seconds, setup_reps=SETUP_ONLY_REPS)
        # The host-speed kernel's data is the benchmark's, not the program's.
        rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
               - hostspeed.RESIDENT_BYTES) / 2**20
        run.run_checks(reps)
        units = dict(END_TO_END)
        metrics, detail, samples = end_to_end(setups, reps, rss) if reps else ({}, {}, {})
        record["detail"] = detail
        record["samples"] = samples
    else:
        _, untraced = run.measure(args.seconds / 2)
        tracer = Tracer()
        install_layers(tracer)
        try:
            _, traced = run.measure(args.seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
        # A profiled workload's own repetitions carry the breakdown.
        breakdown = next((r for r in untraced if "breakdown" in r.extras), None)
        if breakdown is None:
            breakdown = _breakdown(run)
        run.run_checks(untraced + traced)
        units = dict(PER_LAYER)
        metrics = {}
        if traced and untraced and breakdown is not None:
            run.check(tracing_preserves(traced, untraced))
            metrics, layer_record = per_layer(workload, tracer, traced, untraced, breakdown)
            record.update(layer_record)
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"{args.workload}.spans.jsonl"
        tracer.write(str(spans_path))
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    correct = run.failed == 0 and set(metrics) == set(units)
    record.update(
        attempted=run.attempted,
        failed=run.failed,
        fail_frac=run.failed / run.attempted if run.attempted else 1.0,
        checks=run.checks,
        errors=run.errors,
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    )
    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, default=str) + "\n")

    for error in run.errors:
        print(error, file=sys.stderr)
    for check in run.checks:
        status = "ok  " if check["ok"] else "FAIL"
        print(f"check {status} {check['check']}" + (f" ({check['detail']})" if not check["ok"] else ""))
    for name, value in record.get("detail", {}).items():
        print(f"detail {name} {value}")
    print(f"fail_frac {record['fail_frac']} ({run.failed} of {run.attempted} attempted)")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} {metrics[name]!r} {unit}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
