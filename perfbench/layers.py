"""Per-layer attribution for the traced run.

Host time and call counts come from a ``cProfile`` hook that this
benchmark installs around one run and folds by module; nothing inside
the simulator is instrumented.  Simulated counters come from the run's
``RunResult.stats`` and ``Multicore.handshake_counters()``.

A layer is a simulator module (or package, for ``workloads`` and
``recovery``).  ``other`` collects the remaining ``repro`` modules
(``sim.stats``, ``sim.config``, ``sim.trace``, ``mem.address``,
``repro.harness``); ``harness`` is the remainder of the traced wall
time: this benchmark's own code, the standard library and the profiler.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Callable, Dict, Tuple

import repro

LAYERS = (
    "workloads", "sim.engine", "cpu.processor", "system", "mem.cache",
    "mem.coherence", "mem.interconnect", "mem.nvram", "core.epoch",
    "core.idt", "core.flush", "core.arbiter", "core.undo_log",
    "core.checkpoint", "sim.faults", "recovery", "sim.digest",
)
BUCKETS = LAYERS + ("other", "harness")

# Simulated counters by layer.  Exact and repeatable for one seed.
COUNTERS = {
    "mem.cache": ("l1_hit_ratio", "llc_hit_ratio", "llc_dirty_evictions"),
    "mem.coherence": ("llc_forwards",),
    "mem.nvram": ("reads", "writes", "queue_wait_mean"),
    "core.epoch": ("conflict_epoch_pct", "inter_conflicts",
                   "intra_conflicts", "splits", "online_stall_cycles"),
    "core.idt": ("edges",),
    "core.flush": ("epoch_flushes", "lines_per_flush", "msgs_per_flush"),
    "core.arbiter": ("ack_retries",),
    "cpu.processor": ("wb_full_stalls", "mem_latency_mean", "ff_batches",
                      "ff_fallbacks", "ff_accept_ratio"),
    "recovery": ("points_checked", "aborted_clean", "violations"),
}

_COUNTER_UNITS = {
    "l1_hit_ratio": "ratio", "llc_hit_ratio": "ratio",
    "ff_accept_ratio": "ratio", "conflict_epoch_pct": "%",
    "queue_wait_mean": "cycles", "online_stall_cycles": "cycles",
    "mem_latency_mean": "cycles", "lines_per_flush": "lines",
    "msgs_per_flush": "msgs",
}

# Attribution sanity: the harness remainder (wall minus every layer's
# self time) must agree with the profiler's own self time outside the
# simulator to within this share of the traced wall time.
RESIDUAL_LIMIT = 0.05


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    for bucket in BUCKETS:
        yield f"{bucket}.self_s", "s"
        yield f"{bucket}.share", "ratio"
        yield f"{bucket}.calls", "count"
    for layer, names in COUNTERS.items():
        for name in names:
            yield f"{layer}.{name}", _COUNTER_UNITS.get(name, "count")
    yield "trace_overhead", "ratio"


def is_deterministic(name: str) -> bool:
    """Whether a per-layer metric must repeat exactly for one seed.

    Host times do not.  Nor does ``harness.calls``: it counts standard
    library calls whose internal caches depend on the process's history.
    """
    return not (name.endswith(".self_s") or name.endswith(".share")
                or name in ("trace_overhead", "harness.calls"))


def _bucket_of(filename: str, src_root: str) -> str:
    """Fold a profiled function's source file into its layer."""
    rel = os.path.relpath(filename, src_root)
    if rel.startswith("..") or not rel.startswith("repro" + os.sep):
        return "harness"
    parts = rel[:-3].split(os.sep)[1:]       # drop "repro" and ".py"
    if parts and parts[0] in ("workloads", "recovery"):
        return parts[0]
    module = ".".join(parts)
    return module if module in LAYERS else "other"


def profile_layers(fn: Callable[[], object]
                   ) -> Tuple[object, float, Dict[str, float], str]:
    """Run ``fn`` under the profiler and fold the profile by layer.

    Returns ``fn``'s result, the traced wall time, the per-layer
    metrics (self time, share, calls for every bucket) and an error
    string that is empty when the attribution adds up.
    """
    profiler = cProfile.Profile(builtins=False)
    start = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start

    self_s = dict.fromkeys(BUCKETS, 0.0)
    calls = dict.fromkeys(BUCKETS, 0)
    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    for (filename, _line, _func), (_cc, nc, tt, _ct, _callers) in \
            pstats.Stats(profiler).stats.items():
        bucket = _bucket_of(os.path.abspath(filename), root)
        self_s[bucket] += tt
        calls[bucket] += nc
    profiled_harness = self_s["harness"]
    self_s["harness"] = wall - sum(self_s[b] for b in BUCKETS[:-1])
    error = ""
    residual = abs(self_s["harness"] - profiled_harness)
    if self_s["harness"] < 0 or residual > RESIDUAL_LIMIT * wall:
        error = (f"layer self times do not add up: remainder "
                 f"{self_s['harness']:.4f} s vs profiled harness "
                 f"{profiled_harness:.4f} s of {wall:.4f} s traced")

    metrics: Dict[str, float] = {}
    for bucket in BUCKETS:
        metrics[f"{bucket}.self_s"] = self_s[bucket]
        metrics[f"{bucket}.share"] = self_s[bucket] / wall
        metrics[f"{bucket}.calls"] = calls[bucket]
    return result, wall, metrics, error


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def simulated_counters(machine, result) -> Dict[str, float]:
    """The modelled machine's counters for one finished run."""
    stats = result.stats
    l1_hits = sum(d.get("hits") for n, d in stats if n.startswith("l1."))
    l1_fills = sum(d.get("fills") for n, d in stats if n.startswith("l1."))
    llc = stats.domain("llc")
    nvram = stats.domain("nvram")
    conflicts = stats.domain("conflicts")
    lat_total = sum(d.total("mem_latency") for n, d in stats
                    if n.startswith("core"))
    lat_count = sum(d.count("mem_latency") for n, d in stats
                    if n.startswith("core"))
    hs = machine.handshake_counters()
    batches = sum(c.ff_batches for c in machine.cores)
    fallbacks = sum(c.ff_fallbacks for c in machine.cores)
    return {
        "mem.cache.l1_hit_ratio": _ratio(l1_hits, l1_hits + l1_fills),
        "mem.cache.llc_hit_ratio": _ratio(
            llc.get("hits"), llc.get("hits") + llc.get("misses")),
        "mem.cache.llc_dirty_evictions": llc.get("dirty_evictions"),
        "mem.coherence.llc_forwards": llc.get("forwards"),
        "mem.nvram.reads": nvram.get("reads"),
        "mem.nvram.writes": nvram.get("writes"),
        "mem.nvram.queue_wait_mean": nvram.mean("queue_wait"),
        "core.epoch.conflict_epoch_pct": result.conflict_epoch_pct,
        "core.epoch.inter_conflicts": result.inter_conflicts,
        "core.epoch.intra_conflicts": result.intra_conflicts,
        "core.epoch.splits": stats.total("epoch_splits"),
        "core.epoch.online_stall_cycles":
            conflicts.total("online_stall_cycles"),
        "core.idt.edges": stats.domain("idt").get("idt_edges"),
        "core.flush.epoch_flushes": hs["flushes"],
        "core.flush.lines_per_flush": _ratio(hs["persist_ack_msgs"],
                                             hs["flushes"]),
        "core.flush.msgs_per_flush": hs["mean_flush_msgs"],
        "core.arbiter.ack_retries": stats.total("flush_ack_retries"),
        "cpu.processor.wb_full_stalls": stats.total("wb_full_stalls"),
        "cpu.processor.mem_latency_mean": _ratio(lat_total, lat_count),
        "cpu.processor.ff_batches": batches,
        "cpu.processor.ff_fallbacks": fallbacks,
        "cpu.processor.ff_accept_ratio": _ratio(batches,
                                                batches + fallbacks),
    }
