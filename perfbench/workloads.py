"""The four benchmark workloads, their timed loops and output checks.

Only the simulator's public API is used: ``MachineConfig``,
``make_benchmark``, ``Multicore.run`` / ``audit`` /
``handshake_counters``, ``state_digest`` and the campaign entry points
of ``repro.recovery``.  Every run builds a fresh machine, so the
modelled caches start empty.

Each workload is a closed loop with one client: the next run starts
when the previous one (and its output check) has finished, until the
time budget is spent.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, List, Optional

from repro import BarrierDesign, MachineConfig, Multicore, PersistencyModel
from repro.recovery import (
    VIOLATION,
    CampaignSpec,
    campaign_selftest,
    run_campaign,
    triage,
)
from repro.sim.digest import state_digest
from repro.sim.faults import FaultConfig
from repro.workloads.micro import make_benchmark

from hostspeed import HostClock
from layers import profile_layers, simulated_counters

# Even on a slow host the loop makes at least this many runs.
MIN_RUNS = 5

SERVING_TXNS = 1000
PINGPONG_CORES = 4
PINGPONG_TXNS = 200
BSP_STREAM_TXNS = 4000
BSP_STREAM_CHUNK = 1 << 14
CAMPAIGN_CORES = 2
CAMPAIGN_TXNS = 3
CAMPAIGN_MC_STRIDE = 2
CAMPAIGN_RANDOM_ROUNDS = 20
CAMPAIGN_ACK_DROP_RATE = 0.1
CAMPAIGN_CHECK_TXNS = 100
# Set-ups timed per campaign: one takes under a millisecond, so the
# median of setup_s rests on many.
CAMPAIGN_SETUPS = 20
# Campaigns rotate over this many programs, seeded seed + k * stride:
# which fault combinations are slow depends on the program, so one
# program alone makes the latency tail jump from seed to seed.
CAMPAIGN_PROGRAMS = 3
CAMPAIGN_SEED_STRIDE = 7919


@contextmanager
def reference_engine():
    """Build machines on the reference (pure-heap) engine in the block.

    The engine reads ``REPRO_SLOW_ENGINE`` at construction.
    """
    key = "REPRO_SLOW_ENGINE"
    saved = os.environ.get(key)
    os.environ[key] = "1"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = saved


def sim_ops(result) -> int:
    """Simulated ops completed: loads + stores + barriers + txn marks."""
    stats = result.stats
    return int(stats.total("loads") + stats.total("stores")
               + stats.total("barriers") + stats.total("txns"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_run(machine, result, want_digest: Optional[str]) -> str:
    """Output check for one finished run; returns '' or the failure."""
    if not result.finished or result.cycles_durable is None:
        return "run did not finish durably"
    digest = state_digest(machine, result)
    try:
        machine.audit()
    except AssertionError as exc:
        return f"audit failed: {exc}"
    if want_digest is not None and digest != want_digest:
        return "fast-engine digest differs from the reference engine"
    return ""


@dataclass
class Outcome:
    """What one benchmark invocation measured and checked."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    # Printed beside the metrics but not gated (see README.md):
    # name -> (value, unit).
    report_only: Dict[str, tuple] = field(default_factory=dict)
    # Per-layer metrics, filled by the traced run only.
    layers: Dict[str, float] = field(default_factory=dict)

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def traced(self, fn: Callable[[], object]):
        """Run ``fn`` under the profiler; keep its per-layer metrics and
        return ``fn``'s result with the traced wall time."""
        result, wall, metrics, error = profile_layers(fn)
        self.layers.update(metrics)
        if error:
            self.fail(error)
        return result, wall


# ----------------------------------------------------------------------
# Simulation workloads: serving, pingpong, bsp_stream
# ----------------------------------------------------------------------
@dataclass
class SimWorkload:
    name: str
    config: MachineConfig
    # seed -> per-core programs (lists, or lazy iterables)
    programs: Callable[[int], list]

    def setup(self, seed: int):
        return Multicore(self.config), self.programs(seed)

    def reference_digest(self, seed: int) -> str:
        with reference_engine():
            machine, programs = self.setup(seed)
        result = machine.run(programs)
        return state_digest(machine, result)


def _serving_programs(config: MachineConfig):
    def build(seed: int) -> list:
        bench = make_benchmark("serving", thread_id=0, seed=seed,
                               line_size=config.line_size)
        return [list(bench.ops(SERVING_TXNS))]
    return build


def _pingpong_programs(config: MachineConfig, transactions: int):
    def build(seed: int) -> list:
        return [
            list(make_benchmark(
                "pingpong", thread_id=tid, seed=seed,
                line_size=config.line_size, conflict_rate=1.0,
            ).ops(transactions))
            for tid in range(config.num_cores)
        ]
    return build


def _chunked(ops, block: int = BSP_STREAM_CHUNK):
    # Pull the lazy generator a block at a time, as the million-run
    # configuration does: generation stays inside the timed run while
    # memory stays bounded at one block.
    while True:
        chunk = list(islice(ops, block))
        if not chunk:
            return
        yield from chunk


def _bsp_stream_programs(config: MachineConfig):
    def build(seed: int) -> list:
        bench = make_benchmark("pingpong", thread_id=0, seed=seed,
                               line_size=config.line_size)
        return [_chunked(bench.ops(BSP_STREAM_TXNS))]
    return build


def _pingpong_config(cores: int) -> MachineConfig:
    return MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=cores, llc_banks=cores, mesh_rows=2,
    )


def make_sim_workloads() -> Dict[str, SimWorkload]:
    serving = MachineConfig.tiny(persistency=PersistencyModel.BEP,
                                 barrier_design=BarrierDesign.LB_PP,
                                 num_cores=1)
    pingpong = _pingpong_config(PINGPONG_CORES)
    bsp = MachineConfig.tiny(persistency=PersistencyModel.BSP,
                             barrier_design=BarrierDesign.LB_PP,
                             num_cores=1)
    return {
        "serving": SimWorkload("serving", serving,
                               _serving_programs(serving)),
        "pingpong": SimWorkload("pingpong", pingpong,
                                _pingpong_programs(pingpong, PINGPONG_TXNS)),
        "bsp_stream": SimWorkload("bsp_stream", bsp,
                                  _bsp_stream_programs(bsp)),
    }


WORKLOADS = ("serving", "pingpong", "bsp_stream", "fault_campaign")


def run_sim(work: SimWorkload, seed: int, seconds: float,
            trace: bool) -> Outcome:
    """Timed closed loop of fresh runs, then (optionally) a traced run."""
    out = Outcome()
    want = work.reference_digest(seed)
    clock = HostClock()
    setups: List[float] = []
    walls: List[float] = []
    first = None
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_RUNS or time.perf_counter() < deadline:
        clock.tick()
        gc.collect()
        t0 = time.perf_counter()
        machine, programs = work.setup(seed)
        t1 = time.perf_counter()
        result = machine.run(programs)
        t2 = time.perf_counter()
        setups.append(t1 - t0)
        walls.append(t2 - t1)
        out.attempted += 1
        why = check_run(machine, result, want)
        if why:
            out.fail(f"{work.name} run {len(walls)}: {why}")
        if first is None:
            first = result
    clock.sample()
    rss = peak_rss_mb()

    result = first
    ops = sim_ops(result)
    raw_wall = statistics.fmean(walls)
    scale = clock.scale
    wall = raw_wall * scale
    out.metrics = {
        "sim_ops_per_s": ops / wall,
        "wall_s": wall,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": rss,
        "sim_cycles_per_txn": result.cycles_visible / result.transactions,
        "probes_per_s": 1.0 / wall,
        "probe_ms_p90": 1e3 * statistics.quantiles(walls, n=10)[-1] * scale,
    }
    out.report_only = _report_only([1e3 * w * scale for w in walls],
                                   raw_wall, clock)
    out.samples = {"runs": len(walls), "probes": len(walls),
                   "ops_per_run": ops}
    if trace:
        def one():
            m, p = work.setup(seed)
            return m, m.run(p)
        (m, r), traced_wall = out.traced(one)
        why = check_run(m, r, want)
        if why:
            out.fail(f"{work.name} traced run: {why}")
        out.layers.update(_counters(m, r))
        out.layers["trace_overhead"] = traced_wall / raw_wall
    return out


# ----------------------------------------------------------------------
# fault_campaign
# ----------------------------------------------------------------------
def campaign_spec(seed: int) -> CampaignSpec:
    return CampaignSpec(workload="pingpong", num_cores=CAMPAIGN_CORES,
                        transactions=CAMPAIGN_TXNS, seed=seed,
                        mc_stride=CAMPAIGN_MC_STRIDE)


def campaign_machine(seed: int, faults: FaultConfig,
                     transactions: int = CAMPAIGN_TXNS):
    """A probe's machine and programs, built as each probe builds its
    own: the per-machine set-up cost this workload pays hundreds of
    times."""
    config = _pingpong_config(CAMPAIGN_CORES)
    machine = Multicore(config, track_values=True, track_persist_order=True,
                        keep_epoch_log=True, faults=faults)
    return machine, _pingpong_programs(config, transactions)(seed)


def _campaign(spec: CampaignSpec):
    return run_campaign(spec, random_rounds=CAMPAIGN_RANDOM_ROUNDS)


def _check_campaign(report, out: Outcome, what: str) -> None:
    out.attempted += len(report.entries)
    for entry in report.violations:
        out.fail(f"{what}: violation at {entry.inject}: {entry.detail}")


def run_campaign_workload(seed: int, seconds: float, trace: bool) -> Outcome:
    """Whole campaigns alternate with a pass that re-probes each of the
    campaign's fault combinations alone, timing every probe; the
    re-probe must reach the campaign's verdict.  Successive campaigns
    rotate over CAMPAIGN_PROGRAMS programs, the first seeded ``seed``."""
    out = Outcome()
    specs = [campaign_spec(seed + k * CAMPAIGN_SEED_STRIDE)
             for k in range(CAMPAIGN_PROGRAMS)]
    spec = specs[0]
    ops_per_probe = []
    for each in specs:
        probe_machine, probe_programs = campaign_machine(each.seed,
                                                         FaultConfig())
        ops_per_probe.append(sim_ops(probe_machine.run(probe_programs)))

    # The campaign's machine on a longer program under seeded BankAck
    # loss, so the retry paths run and show in the counters: fast vs
    # reference engine.
    lossy = FaultConfig(seed=seed, drop_ack_rate=CAMPAIGN_ACK_DROP_RATE)
    with reference_engine():
        machine, programs = campaign_machine(seed, lossy, CAMPAIGN_CHECK_TXNS)
    ref = machine.run(programs)
    want = state_digest(machine, ref)
    machine, programs = campaign_machine(seed, lossy, CAMPAIGN_CHECK_TXNS)
    base = machine.run(programs)
    out.attempted += 1
    why = check_run(machine, base, want)
    if why:
        out.fail(f"lossy pingpong: {why}")

    clock = HostClock()
    setups: List[float] = []
    walls: List[float] = []
    # Each program's campaigns repeat the same fault combinations; every
    # re-probe of one is kept, keyed by program and what was injected.
    probe_ms: Dict[tuple, List[float]] = {}
    reports: Dict[int, list] = {k: [] for k in range(len(specs))}
    probed = ops = 0
    deadline = time.perf_counter() + seconds
    while len(walls) < 2 * len(specs) or time.perf_counter() < deadline:
        k = len(walls) % len(specs)
        clock.tick()
        gc.collect()
        for _ in range(CAMPAIGN_SETUPS):
            t0 = time.perf_counter()
            campaign_machine(specs[k].seed, FaultConfig())
            setups.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        report = _campaign(specs[k])
        walls.append(time.perf_counter() - t0)
        _check_campaign(report, out, "campaign")
        reports[k].append(report)
        probed += len(report.entries)
        ops += len(report.entries) * ops_per_probe[k]
        clock.tick()
        for entry in report.entries:
            t0 = time.perf_counter()
            again = triage(specs[k], entry.inject, None)
            probe_ms.setdefault((k, entry.inject), []).append(
                (time.perf_counter() - t0) * 1e3)
            out.attempted += 1
            if again.verdict != entry.verdict:
                out.fail(f"re-probe of {entry.inject} gave {again.verdict}"
                         f", campaign said {entry.verdict}")
    clock.sample()
    rss = peak_rss_mb()
    out.attempted += 1
    if any(r.verdict_map() != runs[0].verdict_map()
           for runs in reports.values() for r in runs):
        out.fail("repeated campaigns disagree on verdicts")

    out.attempted += 1
    selftest = campaign_selftest(spec)
    if selftest.verdict != VIOLATION:
        out.fail(f"campaign self-test missed the reorder fault "
                 f"({selftest.verdict})")

    raw_wall = statistics.fmean(walls)
    scale = clock.scale
    wall = raw_wall * scale
    timed = sum(walls) * scale
    # A fault combination's latency is the mean of its re-probes, so the
    # tail is over combinations, not over moments the host ran slowly.
    per_probe = [statistics.fmean(ms) for ms in probe_ms.values()]
    out.metrics = {
        "sim_ops_per_s": ops / timed,
        "wall_s": wall,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": rss,
        "sim_cycles_per_txn": base.cycles_visible / base.transactions,
        "probes_per_s": probed / timed,
        "probe_ms_p90": statistics.quantiles(per_probe, n=10)[-1] * scale,
    }
    out.report_only = _report_only([ms * scale for ms in per_probe],
                                   raw_wall, clock)
    out.samples = {"runs": len(walls),
                   "probes": sum(len(ms) for ms in probe_ms.values()),
                   "ops_per_run": ops // len(walls)}
    if trace:
        report, traced_wall = out.traced(lambda: _campaign(spec))
        _check_campaign(report, out, "traced campaign")
        out.layers.update(_counters(machine, base))
        out.layers.update({
            "recovery.points_checked": report.exhaustive_points,
            "recovery.aborted_clean": report.aborted,
            "recovery.violations": len(report.violations),
        })
        out.layers["trace_overhead"] = traced_wall / raw_wall
    return out


def _report_only(latency_ms: List[float], raw_wall: float,
                 clock: HostClock) -> Dict[str, tuple]:
    return {
        "probe_ms_p50": (statistics.median(latency_ms), "ms"),
        "probe_ms_p95": (statistics.quantiles(latency_ms, n=20)[-1], "ms"),
        "raw_wall_s": (raw_wall, "s"),
        "host_scale": (clock.scale, "ratio"),
        "host_samples": (len(clock.samples), "count"),
    }


def _counters(machine, result) -> Dict[str, float]:
    counters = simulated_counters(machine, result)
    counters.update({"recovery.points_checked": 0,
                     "recovery.aborted_clean": 0,
                     "recovery.violations": 0})
    return counters


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> Outcome:
    if name == "fault_campaign":
        return run_campaign_workload(seed, seconds, trace)
    return run_sim(make_sim_workloads()[name], seed, seconds, trace)
