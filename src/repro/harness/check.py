"""Fast-vs-reference parity checks: ``python -m repro check``.

The simulator's fast paths -- the two-tier event queue, the fused
request paths, the pooled flush handshake, the virtual handshake legs
and the fast-forward drain -- must be
*observationally identical* to the reference engine that
``REPRO_SLOW_ENGINE=1`` selects.  This module runs the comparisons
that back the claim.  Each family is one entry of :data:`CHECKS`:

* ``single``, ``flush`` and ``serving`` -- one-core runs, digests
  compared: ``hotset`` sits on the hit path, ``flushbound`` on the miss
  and flush path, zipfian ``serving`` on the fused store paths, and the
  long-epoch BSP stream (``serving/bsp_stream``) on the fast-forward
  engine;
* ``multicore`` -- contended 4-core ``pingpong`` (digest plus the
  conflict-path counters) and the {4, 8} cores x {LB, LB++} digest
  matrix;
* ``models`` -- the digest matrix over all six persistency models;
* ``recovery`` -- crash-recovery checker verdicts on a run crashed
  mid-flight;
* ``scaling`` -- handshake-counter parity at the largest core count and
  the log-log slope bands of messages per flush (arbiter ~linear,
  all-to-all ~quadratic);
* ``crash`` -- exhaustive crash-point sweeps, the reorder-fault
  self-test, and faulted runs on the BankAck retry path;
* ``campaign`` -- a small exhaustive fault campaign and its self-test;
* ``farm`` -- the delta planner's warm-no-op, sharded-complete and
  scoped-bump invariants.

A family returns ``{row: {"match": bool, ...}}``; ``python -m repro
check`` exits 1 unless every row of every family it ran matched.
Nothing here reads a clock: host-time measurement lives in
``perfbench/`` (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import tempfile
from typing import Callable, Dict, List, Optional, Tuple

from repro.harness.cache import SUBSYSTEM_VERSIONS, ResultCache
from repro.harness.executor import RunSpec
from repro.harness.experiments import (
    bep_sweep_plan,
    fig13_plan,
    fig14_plan,
)
from repro.harness.plan import build_plan, run_plan, shard_plan
from repro.harness.report import scaling_table
from repro.harness.runner import Scale
from repro.sim.config import (
    BarrierDesign,
    HandshakeProtocol,
    MachineConfig,
    PersistencyModel,
)
from repro.sim.digest import run_digest, state_digest
from repro.sim.engine import reference_mode
from repro.sim.stats import Stats
from repro.system import Multicore
from repro.workloads.micro import make_benchmark

Rows = Dict[str, dict]

# Headline runs, one per fast-path family; ``--transactions`` overrides
# all four.  ``hotset`` is a cache-resident read-mostly loop (the hit
# path).  ``flushbound`` streams a footprint four times the L1 with a
# barrier every 8 lines under BEP + LB++, so nearly every access takes
# the fused miss path and every epoch walks the pooled flush handshake.
# ``pingpong`` pairs hammer a shared mailbox on 4 cores: directory
# lookups, epoch-tag probes, IDT edges and epoch splits.  ``serving`` is
# the zipfian key-value front-end (fused store fills and upgrades).  The
# BSP stream is 1-core ``pingpong`` under BSP + LB++, whose long
# hardware epochs rewrite the same lines: the same-epoch dirty hits the
# fast-forward engine drains analytically.
_SINGLE_TRANSACTIONS = 300
_FLUSH_TRANSACTIONS = 600
_FLUSH_BENCHMARK = "flushbound"
_MULTI_TRANSACTIONS = 250
_MULTI_BENCHMARK = "pingpong"
_MULTI_CORES = 4
_MULTI_CONFLICT_RATE = 1.0
_SERVING_TRANSACTIONS = 5000
_BSP_STREAM_TRANSACTIONS = 4000

# Digest matrix: every persistency model, on the richer ``queue``
# structure and the stock 2-core tiny config, so coherence, conflicts
# and epoch machinery are exercised, not just the hit path.
_DIGEST_BENCHMARK = "queue"
_DIGEST_TRANSACTIONS = 12
_DIGEST_MODELS = tuple(PersistencyModel)

# Multicore digest matrix: contended pingpong at 4 and 8 cores on both
# sides of the with/without-IDT divide -- real inter-thread conflicts,
# IDT edges and deadlock-avoiding splits, which the 2-core model matrix
# never reaches.
_MULTICORE_DIGEST_CONFIGS = (
    (4, BarrierDesign.LB),
    (4, BarrierDesign.LB_PP),
    (8, BarrierDesign.LB),
    (8, BarrierDesign.LB_PP),
)

# Crash-recovery verdicts: a queue run crashed at a fixed cycle.  BEP
# exercises the epoch-order checker; BSP adds the undo-log checker.
_CRASH_MODELS = (PersistencyModel.BEP, PersistencyModel.BSP)
_CRASH_TRANSACTIONS = 40
_CRASH_CYCLE = 20_000

# Crash-point sweeps: histories in the hundreds-to-low-thousands of
# persists, so every truncation point is validated (incrementally and
# by the truncate-and-recheck oracle) in seconds.  Serving is ~70%
# reads; 60 transactions land in the same band.
_SWEEP_QUEUE_TRANSACTIONS = 15
_SWEEP_MULTI_TRANSACTIONS = 12
_SWEEP_FAULT_TRANSACTIONS = 8
_SWEEP_SERVING_TRANSACTIONS = 60

# Core-count scaling: contended pingpong and sharded serving, plus the
# all-to-all accounting contrast.  Transactions shrink with core count
# so total work per point stays bounded; messages per flush converge
# after a handful of flushes per core.
_SCALING_CORES = (4, 8, 16, 32, 64)
_SCALING_TXN_BUDGET = 768       # ~transactions x cores per point
_SCALING_TXN_MIN = 12
_SCALING_SHARDED_KEYS = 1024
_SCALING_MIGRATE_FRACTION = 0.2
# Log-log slope bands: the arbiter's per-flush message count must grow
# ~linearly in cores, the all-to-all strawman ~quadratically.
_SCALING_LINEAR_MAX_SLOPE = 1.35
_SCALING_QUADRATIC_MIN_SLOPE = 1.65

# Farm planner invariants run over a fixed tiny multi-figure sweep.
_FARM_TRANSACTIONS = 20
_FARM_MEM_OPS = 1500
_FARM_APPS = ("radix", "cholesky", "ssca2")


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _parity(fn: Callable[[], object],
            ok: Optional[Callable[[object], bool]] = None) -> dict:
    """Run ``fn`` on the fast engine, then in reference mode.

    The fast leg forces fast mode, so the comparison still means
    something when ``REPRO_SLOW_ENGINE=1`` is set.  The row matches when
    both results are equal and, if given, ``ok(fast_result)`` holds.
    """
    with reference_mode(False):
        fast = fn()
    with reference_mode():
        ref = fn()
    return {"fast": fast, "reference": ref,
            "match": fast == ref and (ok is None or ok(fast))}


def _txns(opts: argparse.Namespace, default: int) -> int:
    return opts.transactions if opts.transactions is not None else default


def _programs(config: MachineConfig, benchmark: str, seed: int,
              transactions: int, **knobs) -> List[list]:
    return [
        list(make_benchmark(benchmark, thread_id=tid, seed=seed,
                            line_size=config.line_size,
                            **knobs).ops(transactions))
        for tid in range(config.num_cores)
    ]


def _setup(seed: int, transactions: int, benchmark: str,
           model: PersistencyModel = PersistencyModel.BEP,
           barrier_design: BarrierDesign = BarrierDesign.LB_PP,
           **overrides) -> Tuple[MachineConfig, List[list]]:
    """A tiny config plus one program per core.  BSP gets small
    hardware epochs so barriers and checkpoints actually fire."""
    if model is PersistencyModel.BSP:
        overrides.setdefault("bsp_epoch_stores", 30)
    config = MachineConfig.tiny(
        persistency=model, barrier_design=barrier_design, **overrides
    )
    return config, _programs(config, benchmark, seed, transactions)


def _multicore_setup(
    seed: int, transactions: int,
    num_cores: int = _MULTI_CORES,
    barrier_design: BarrierDesign = BarrierDesign.LB_PP,
    conflict_rate: float = _MULTI_CONFLICT_RATE,
) -> Tuple[MachineConfig, List[list]]:
    """Contended pingpong under BEP, one LLC bank per tile on a 2D mesh
    as in Figure 2 (the stock 2-tile chain gives every bank a distinct
    hop distance and undersells the flush handshake's bank fan-out)."""
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=barrier_design,
        num_cores=num_cores,
        llc_banks=num_cores,
        mesh_rows=2,
    )
    return config, _programs(config, _MULTI_BENCHMARK, seed, transactions,
                             conflict_rate=conflict_rate)


def _sharded_setup(seed: int, transactions: int,
                   num_cores: int) -> Tuple[MachineConfig, List[list]]:
    """Sharded serving: one shard per core, cross-shard ownership
    migration driving inter-thread handshake traffic."""
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=num_cores,
        llc_banks=num_cores,
        mesh_rows=2,
    )
    return config, _programs(
        config, "sharded_serving", seed, transactions,
        num_keys=_SCALING_SHARDED_KEYS, num_shards=num_cores,
        migrate_fraction=_SCALING_MIGRATE_FRACTION,
    )


def _image_digest(image) -> str:
    digest = hashlib.sha256()
    for line, value in sorted(image.values.items()):
        digest.update(f"{line:x}={value!r};".encode())
    return digest.hexdigest()[:16]


def conflict_counters(stats: Stats) -> Dict[str, int]:
    """The conflict-path counters a fast path could silently skew.

    Inter-/intra-thread conflict detections and IDT trackings live in
    the machine-wide ``conflicts`` domain; edge recordings and register
    overflows in ``idt``; splits and persisted-epoch counts are summed
    across the per-core domains.  Each counter names one mechanism, so a
    mismatch is more legible than a digest mismatch alone.
    """
    conflicts = stats.domain("conflicts")
    idt = stats.domain("idt")
    return {
        "inter_thread": int(conflicts.get("inter_thread")),
        "intra_thread": int(conflicts.get("intra_thread")),
        "idt_tracked": int(conflicts.get("idt_tracked")),
        "idt_edges": int(idt.get("idt_edges")),
        "idt_register_overflow": int(idt.get("idt_register_overflow")),
        "epoch_splits": int(stats.total("epoch_splits")),
        "epochs_persisted": int(stats.total("epochs_persisted")),
    }


def ff_counters(machine: Multicore) -> Dict[str, int]:
    """Fast-forward session counters summed across cores.

    Diagnostics only: they live as plain attributes on the ``Core``
    objects, never in the stat domains, so the reference engine (which
    has no fast-forward sessions and leaves them at zero) still digests
    identically.
    """
    return {
        "batches": sum(c.ff_batches for c in machine.cores),
        "stores": sum(c.ff_stores for c in machine.cores),
        "fallbacks": sum(c.ff_fallbacks for c in machine.cores),
    }


def handshake_parity(config: MachineConfig,
                     programs: List[list]) -> Dict[str, object]:
    """Fast-vs-reference digest *and* handshake-counter comparison.

    The handshake counters are digest-invisible by design (they are
    bumped from batched fast paths), so the digest alone cannot catch a
    fast path that miscounts messages.
    """

    def one() -> Tuple[str, dict]:
        machine = Multicore(config)
        result = machine.run(programs)
        return state_digest(machine, result), machine.handshake_counters()

    row = _parity(one)
    return {
        "digest_match": row["fast"][0] == row["reference"][0],
        "counters_match": row["fast"][1] == row["reference"][1],
        "counters": row["fast"][1],
    }


# ----------------------------------------------------------------------
# Headline runs and digest matrices
# ----------------------------------------------------------------------
def check_single(opts: argparse.Namespace) -> Rows:
    config, programs = _setup(
        opts.seed, _txns(opts, _SINGLE_TRANSACTIONS), "hotset",
        barrier_design=BarrierDesign.LB_IDT, num_cores=1,
    )
    return {"hotset": _parity(lambda: run_digest(config, programs))}


def check_flush(opts: argparse.Namespace) -> Rows:
    benchmark = opts.workload or _FLUSH_BENCHMARK
    config, programs = _setup(
        opts.seed, _txns(opts, _FLUSH_TRANSACTIONS), benchmark,
        num_cores=1,
    )
    return {benchmark: _parity(lambda: run_digest(config, programs))}


def check_multicore(opts: argparse.Namespace) -> Rows:
    config, programs = _multicore_setup(
        opts.seed, _txns(opts, _MULTI_TRANSACTIONS))

    def contended() -> Tuple[str, dict]:
        machine = Multicore(config, track_values=True,
                            track_persist_order=True)
        result = machine.run(programs)
        return state_digest(machine, result), conflict_counters(result.stats)

    row = _parity(contended)
    counters = row["fast"][1]
    row["note"] = (f"{counters['inter_thread']} inter-thread conflicts, "
                   f"{counters['idt_edges']} IDT edges, "
                   f"{counters['epoch_splits']} splits")
    rows = {f"{_MULTI_BENCHMARK}{_MULTI_CORES}": row}
    for cores, design in _MULTICORE_DIGEST_CONFIGS:
        config_n, programs_n = _multicore_setup(
            opts.seed, _DIGEST_TRANSACTIONS, num_cores=cores,
            barrier_design=design,
        )
        rows[f"{cores}c/{design.value}"] = _parity(
            lambda: run_digest(config_n, programs_n))
    return rows


def _ff_parity(config: MachineConfig, programs: List[list]) -> dict:
    """Digest parity of one run, noting the fast run's fast-forward
    counters."""
    ff: List[Dict[str, int]] = []

    def run() -> str:
        machine = Multicore(config, track_values=True,
                            track_persist_order=True)
        result = machine.run(programs)
        ff.append(ff_counters(machine))
        return state_digest(machine, result)

    row = _parity(run)
    row["note"] = (f"fast-forward: {ff[0]['stores']} stores in "
                   f"{ff[0]['batches']} batches, "
                   f"{ff[0]['fallbacks']} fallbacks")
    return row


def check_serving(opts: argparse.Namespace) -> Rows:
    config, programs = _setup(
        opts.seed, _txns(opts, _SERVING_TRANSACTIONS), "serving",
        num_cores=1,
    )
    # The BSP stream keeps the config's long hardware epochs (_setup
    # would shrink them), as perfbench's ``bsp_stream`` runs it.
    bsp = MachineConfig.tiny(persistency=PersistencyModel.BSP,
                             barrier_design=BarrierDesign.LB_PP,
                             num_cores=1)
    bsp_programs = _programs(bsp, "pingpong", opts.seed,
                             _txns(opts, _BSP_STREAM_TRANSACTIONS))
    return {"serving": _ff_parity(config, programs),
            "bsp_stream": _ff_parity(bsp, bsp_programs)}


def check_models(opts: argparse.Namespace) -> Rows:
    rows: Rows = {}
    for model in _DIGEST_MODELS:
        config, programs = _setup(
            opts.seed, _DIGEST_TRANSACTIONS, _DIGEST_BENCHMARK,
            model=model, barrier_design=BarrierDesign.LB_IDT,
        )
        rows[model.value] = _parity(lambda: run_digest(config, programs))
    return rows


def _crash_verdict(seed: int, model: PersistencyModel) -> dict:
    """Crash one run and summarise what the recovery checkers see."""
    from repro.recovery import (
        check_bsp_recoverable,
        check_epoch_order,
        run_with_crash,
    )

    config, programs = _setup(seed, _CRASH_TRANSACTIONS, "queue",
                              model=model)
    machine = Multicore(config, track_values=True,
                        track_persist_order=True, keep_epoch_log=True)
    outcome = run_with_crash(machine, programs, crash_cycle=_CRASH_CYCLE)
    verdict = {
        "crash_cycle": outcome.crash_cycle,
        "persists_checked": check_epoch_order(outcome),
        "durable_epochs": sum(
            1 for r in outcome.epochs.values() if r.persisted
        ),
        "image": _image_digest(outcome.image),
    }
    if model is PersistencyModel.BSP:
        verdict["log_covered"] = check_bsp_recoverable(outcome)
    return verdict


def check_recovery(opts: argparse.Namespace) -> Rows:
    """A crashed run never reaches the end-of-run drain, so the digest
    matrices alone would not catch a fast path that reorders persists
    within the window the crash truncates."""
    return {
        model.value: _parity(lambda: _crash_verdict(opts.seed, model))
        for model in _CRASH_MODELS
    }


# ----------------------------------------------------------------------
# Core-count scaling
# ----------------------------------------------------------------------
def parse_cores(text: str) -> Tuple[int, ...]:
    """Validate a ``--cores`` list: powers of two between 2 and 64.

    Raises :class:`argparse.ArgumentTypeError` with a usable message on
    anything else.
    """
    try:
        values = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--cores wants a comma-separated list of core counts "
            f"(e.g. 4,8,16,32,64), got {text!r}"
        )
    for v in values:
        if v < 2 or v > 64 or v & (v - 1):
            raise argparse.ArgumentTypeError(
                f"--cores values must be powers of two between 2 and 64 "
                f"(e.g. 4,8,16,32,64), got {v}"
            )
    if not values:
        raise argparse.ArgumentTypeError("--cores list is empty")
    return tuple(sorted(set(values)))


def _scaling_txns(cores: int) -> int:
    """Per-thread transactions for one sweep point (bounded total work)."""
    return max(_SCALING_TXN_MIN, _SCALING_TXN_BUDGET // cores)


def _handshake_point(config: MachineConfig, programs: List[list]) -> dict:
    machine = Multicore(config)
    machine.run(programs)
    hs = machine.handshake_counters()
    return {"handshake": {"mean_flush_msgs": round(hs["mean_flush_msgs"], 2)}}


def _loglog_slope(xs: List[float], ys: List[float]) -> Optional[float]:
    """Least-squares slope of log(y) against log(x); None under 3 points."""
    if len(xs) < 3:
        return None
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx = sum(lx) / n
    my = sum(ly) / n
    den = sum((a - mx) ** 2 for a in lx)
    if not den:
        return None
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / den


def check_scaling(opts: argparse.Namespace) -> Rows:
    """The paper's O(n) headline, measured in messages.

    Per-flush handshake message counts at each core count for pingpong
    (contended mailbox handoff) and sharded serving (cross-shard
    ownership migration) under LB++, plus an all-to-all accounting
    contrast (same timeline, every ack announced to every bank).  A
    log-log slope fit checks the measured complexity, and the largest
    point is re-run on the reference engine with digest and
    handshake-counter parity checked.
    """
    cores = opts.cores or _SCALING_CORES
    lbpp = BarrierDesign.LB_PP.value
    record: dict = {"cores": list(cores), "pingpong": {lbpp: {}},
                    "sharded_serving": {lbpp: {}}, "all_to_all": {lbpp: {}}}
    for n in cores:
        txns = _scaling_txns(n)
        config, programs = _multicore_setup(opts.seed, txns, num_cores=n)
        record["pingpong"][lbpp][str(n)] = _handshake_point(config, programs)
        record["all_to_all"][lbpp][str(n)] = _handshake_point(
            config.with_(handshake_protocol=HandshakeProtocol.ALL_TO_ALL),
            programs,
        )
        record["sharded_serving"][lbpp][str(n)] = _handshake_point(
            *_sharded_setup(opts.seed, max(_SCALING_TXN_MIN, txns // 2), n))
    print(f"[check] scaling (cores {','.join(map(str, cores))}):")
    for line in scaling_table(record).render(precision=1).splitlines():
        print(f"[check]   {line}")

    def slope(key: str) -> Optional[float]:
        return _loglog_slope(
            [float(n) for n in cores],
            [record[key][lbpp][str(n)]["handshake"]["mean_flush_msgs"]
             for n in cores],
        )

    rows: Rows = {}
    arb, a2a = slope("pingpong"), slope("all_to_all")
    if arb is None:
        print("[check] scaling: slope fit needs >= 3 core counts; skipped")
    else:
        rows["slopes"] = {
            "match": (arb < _SCALING_LINEAR_MAX_SLOPE
                      and a2a > _SCALING_QUADRATIC_MIN_SLOPE),
            "note": f"arbiter {arb:.2f} (< {_SCALING_LINEAR_MAX_SLOPE}), "
                    f"all-to-all {a2a:.2f} "
                    f"(> {_SCALING_QUADRATIC_MIN_SLOPE})",
        }
    top = cores[-1]
    parity = handshake_parity(*_multicore_setup(
        opts.seed, _scaling_txns(top), num_cores=top))
    rows[f"parity@{top}c"] = {
        "match": parity["digest_match"] and parity["counters_match"],
        "note": f"{parity['counters']['flushes']} flushes, "
                f"{parity['counters']['total_msgs']} handshake messages",
    }
    return rows


# ----------------------------------------------------------------------
# Exhaustive crash-point sweeps and fault injection
# ----------------------------------------------------------------------
def _sweep_scenarios(seed: int) -> List[tuple]:
    """(name, build) pairs for the sweep matrix.

    ``build()`` returns ``(config, programs, queues, bsp)``.  The queue
    semantic check applies only under BEP: BSP's atomicity is *via the
    undo log* -- a torn epoch may durably advance the head cursor before
    the entry, relying on rollback -- so the BSP scenario checks undo
    coverage instead.
    """
    def queue(model):
        config = MachineConfig.tiny(
            persistency=model, barrier_design=BarrierDesign.LB_PP,
            **({"bsp_epoch_stores": 30}
               if model is PersistencyModel.BSP else {}),
        )
        bench = make_benchmark("queue", thread_id=0, seed=seed,
                               line_size=config.line_size)
        bsp = model is PersistencyModel.BSP
        return (config, [list(bench.ops(_SWEEP_QUEUE_TRANSACTIONS))],
                [] if bsp else [bench], bsp)

    def one_core(benchmark, transactions):
        config, programs = _setup(seed, transactions, benchmark,
                                  num_cores=1)
        return (config, programs, [], False)

    def pingpong(design):
        config, programs = _multicore_setup(
            seed, _SWEEP_MULTI_TRANSACTIONS, barrier_design=design)
        return (config, programs, [], False)

    return [
        ("queue_bep", lambda: queue(PersistencyModel.BEP)),
        ("queue_bsp", lambda: queue(PersistencyModel.BSP)),
        ("flushbound_bep",
         lambda: one_core(_FLUSH_BENCHMARK, _SWEEP_QUEUE_TRANSACTIONS)),
        ("pingpong4_lb", lambda: pingpong(BarrierDesign.LB)),
        ("pingpong4_lbpp", lambda: pingpong(BarrierDesign.LB_PP)),
        ("serving_bep",
         lambda: one_core("serving", _SWEEP_SERVING_TRANSACTIONS)),
    ]


def _sweep_once(build) -> dict:
    """Capture one run, sweep it incrementally, and cross-check the
    verdict against the truncate-and-recheck oracle at stride 1."""
    from repro.recovery import (
        capture_run,
        sweep_crash_points,
        sweep_reference,
    )

    config, programs, queues, bsp = build()
    machine = Multicore(config, track_values=True,
                        track_persist_order=True, keep_epoch_log=True)
    outcome = capture_run(machine, programs)
    fast = sweep_crash_points(outcome, queues=queues, bsp=bsp,
                              raise_on_violation=False)
    oracle = sweep_reference(outcome, queues=queues, bsp=bsp, stride=1,
                             raise_on_violation=False)
    return {
        "points": fast.points,
        "history_len": fast.history_len,
        "data_persists": fast.data_persists,
        "queue_checks": fast.queue_checks,
        "bsp_checked": fast.bsp_checked,
        "ok": fast.ok,
        "first_violation": fast.first_violation,
        "oracle_match": (fast.merge_key() == oracle.merge_key()
                         and fast.data_persists == oracle.data_persists),
        "image": _image_digest(outcome.image),
    }


def _fault_run(seed: int, fault_config) -> dict:
    """One faulted pingpong run: completion, counters, state digest."""
    config, programs = _multicore_setup(seed, _SWEEP_FAULT_TRANSACTIONS)
    machine = Multicore(config, track_values=True,
                        track_persist_order=True, faults=fault_config)
    result = machine.run(programs)
    return {
        "finished": result.finished,
        "digest": state_digest(machine, result),
        "ack_drops": int(result.stats.total("flush_ack_drops")),
        "ack_retries": int(result.stats.total("flush_ack_retries")),
        "ack_delays": int(result.stats.total("flush_ack_delays")),
        "mc_stalls": int(result.stats.total("fault_stalls")),
        "mc_stall_cycles": int(result.stats.total("fault_stall_cycles")),
    }


def _reorder_selftest(seed: int) -> dict:
    """The checker self-test: a reorder-persists fault must make the
    sweep flag a violation."""
    from repro.recovery import capture_run, sweep_crash_points
    from repro.sim.faults import FaultConfig

    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=BarrierDesign.LB_PP,
    )
    queue = make_benchmark("queue", thread_id=0, seed=seed,
                           line_size=config.line_size)
    machine = Multicore(config, track_values=True,
                        track_persist_order=True, keep_epoch_log=True,
                        faults=FaultConfig(reorder_window=6))
    outcome = capture_run(machine,
                          [list(queue.ops(_SWEEP_QUEUE_TRANSACTIONS))])
    report = sweep_crash_points(outcome, queues=[queue],
                                raise_on_violation=False)
    return {
        "raised": not report.ok,
        "first_violation": report.first_violation,
        "history_len": report.history_len,
    }


def check_crash(opts: argparse.Namespace) -> Rows:
    """Every sweep scenario is captured and swept under both engine
    modes; the verdicts (and the incremental-vs-oracle cross-check
    inside each) must agree and accept every point.  The faulted runs
    must *complete* -- the retry path bounds every dropped ack -- with
    identical digests and nonzero retries."""
    from repro.sim.faults import FaultConfig

    rows: Rows = {}
    for name, build in _sweep_scenarios(opts.seed):
        row = _parity(lambda: _sweep_once(build),
                      ok=lambda v: v["ok"] and v["oracle_match"])
        row["note"] = f"{row['fast']['points']} crash points"
        rows[name] = row

    row = _parity(lambda: _reorder_selftest(opts.seed),
                  ok=lambda v: v["raised"])
    row["note"] = f"violation at point {row['fast']['first_violation']}"
    rows["reorder_selftest"] = row

    fault_config = FaultConfig(
        seed=opts.seed, drop_ack_rate=0.3, delay_ack_rate=0.2,
        mc_stall_rate=0.1,
    )
    row = _parity(lambda: _fault_run(opts.seed, fault_config),
                  ok=lambda v: v["finished"] and v["ack_retries"] > 0)
    f = row["fast"]
    row["note"] = (f"{f['ack_drops']} drops / {f['ack_retries']} retries / "
                   f"{f['ack_delays']} delays / {f['mc_stalls']} MC stalls")
    rows["faults"] = row
    return rows


def check_campaign(opts: argparse.Namespace) -> Rows:
    """A small exhaustive single-fault campaign over contended
    pingpong: both engines must produce *identical* verdict maps (the
    injector draws from stable simulated coordinates) with zero
    violations, and the reorder self-test must be flagged in both."""
    from repro.recovery import (
        VIOLATION,
        CampaignSpec,
        campaign_selftest,
        run_campaign,
    )

    spec = CampaignSpec(workload="pingpong", num_cores=2, transactions=3,
                        seed=opts.seed, mc_stride=2)
    reports = []

    def campaign():
        reports.append(run_campaign(spec, random_rounds=2))
        return reports[-1].verdict_map()

    row = _parity(campaign)
    row["match"] = row["match"] and all(r.ok for r in reports)
    row["note"] = reports[0].summary()
    selftest = _parity(lambda: campaign_selftest(spec).verdict,
                       ok=lambda v: v == VIOLATION)
    return {"campaign": row, "selftest": selftest}


# ----------------------------------------------------------------------
# Sweep farm planner invariants
# ----------------------------------------------------------------------
def _farm_specs(seed: int) -> List[RunSpec]:
    """A fixed tiny-scale multi-figure sweep, deduplicated."""
    seen = {}
    for plan in (
        bep_sweep_plan(Scale.TINY, seed, transactions=_FARM_TRANSACTIONS),
        fig13_plan(Scale.TINY, seed, mem_ops=_FARM_MEM_OPS,
                   apps=_FARM_APPS),
        fig14_plan(Scale.TINY, seed, mem_ops=_FARM_MEM_OPS,
                   apps=_FARM_APPS),
    ):
        for spec in plan[0]:
            seen.setdefault(spec, None)
    return list(seen)


def check_farm(opts: argparse.Namespace) -> Rows:
    """A warm replan finds nothing pending, two shards through one cache
    cover the plan, and a one-subsystem version bump invalidates a
    strict subset."""
    specs = _farm_specs(opts.seed)
    universe = {"farm": specs}
    n = len(specs)
    with tempfile.TemporaryDirectory(prefix="repro-farm-cache-") as tmp:
        run_plan(build_plan(universe, ResultCache(tmp)), ResultCache(tmp),
                 jobs=opts.jobs)
        warm = len(build_plan(universe, ResultCache(tmp)).pending)
        bumped = ResultCache(
            tmp, versions={"flush": SUBSYSTEM_VERSIONS["flush"] + 1})
        bump = len(build_plan(universe, bumped).pending)
    with tempfile.TemporaryDirectory(prefix="repro-farm-shard-") as tmp:
        cache = ResultCache(tmp)
        plan = build_plan(universe, cache)
        for index in (1, 2):
            run_plan(shard_plan(plan, index, 2), cache, jobs=opts.jobs)
        leftover = len(build_plan(universe, ResultCache(tmp)).pending)
    return {
        "warm_noop": {"match": warm == 0,
                      "note": f"{warm}/{n} specs pending after a cold run"},
        "sharded_complete": {
            "match": leftover == 0,
            "note": f"{leftover}/{n} specs pending after two shards"},
        "scoped_bump_partial": {
            "match": 0 < bump < n,
            "note": f"flush+1 invalidates {bump}/{n} specs"},
    }


# ----------------------------------------------------------------------
CHECKS: Dict[str, Callable[[argparse.Namespace], Rows]] = {
    "single": check_single,
    "flush": check_flush,
    "multicore": check_multicore,
    "serving": check_serving,
    "models": check_models,
    "recovery": check_recovery,
    "scaling": check_scaling,
    "crash": check_crash,
    "campaign": check_campaign,
    "farm": check_farm,
}


def run_checks(opts: argparse.Namespace) -> Dict[str, Rows]:
    """Run every family (or just ``opts.only``), printing one line per
    row; returns ``{family: rows}``."""
    results: Dict[str, Rows] = {}
    for family, check in CHECKS.items():
        if opts.only not in (None, family):
            continue
        results[family] = rows = check(opts)
        for name, row in rows.items():
            note = f" ({row['note']})" if row.get("note") else ""
            print(f"[check] {family}/{name}: "
                  f"{'ok' if row['match'] else 'MISMATCH'}{note}")
            if not row["match"] and "fast" in row:
                print(f"[check]   fast:      {row['fast']}")
                print(f"[check]   reference: {row['reference']}")
    return results


def all_match(results: Dict[str, Rows]) -> bool:
    return all(row["match"] for rows in results.values()
               for row in rows.values())
