"""Soundness of the epoch-granular fast-forward drain engine.

The fast-forward session (cpu/processor.py) claims to be
*observationally invisible*: any stretch of the write-buffer drain it
advances analytically must leave stats, cycle counts, the NVRAM image,
and the persist order byte-identical to the event-per-op reference
engine (``REPRO_SLOW_ENGINE=1``).  A session applies only same-epoch
dirty hits, and ``_drain`` admits one only when the buffer-head line's
epoch tag is the core's current epoch.  These tests attack that claim
from three sides:

* randomized interleavings -- serving and pingpong program prefixes
  across seeds and core counts, fast vs reference digests, where the
  admission must refuse for free; long-epoch BSP streams and EP
  barriers, where sessions run, including the full-buffer stall, park
  and re-issue the session loop runs itself and runs cut mid-session;
* the guard predicates, one by one -- a line tagged by another core's
  epoch, an admitted line that has left the L1, and a configured fault
  injector must each keep the session from running, without perturbing
  the outcome;
* the counters -- fast-forward diagnostics are plain attributes, never
  digest inputs, so a fast run and a reference run of the same program
  still digest identically even though only one of them fast-forwards.
"""

import pytest

from repro.cpu.processor import Core
from repro.harness.check import ff_counters
from repro.sim.config import BarrierDesign, MachineConfig, PersistencyModel
from repro.sim.digest import run_digest, state_digest
from repro.sim.engine import reference_mode
from repro.sim.faults import FaultConfig
from repro.system import Multicore
from repro.workloads.micro import make_benchmark


def _programs(benchmark, config, seed, transactions, **kwargs):
    return [
        list(
            make_benchmark(
                benchmark,
                thread_id=tid,
                seed=seed,
                line_size=config.line_size,
                **kwargs,
            ).ops(transactions)
        )
        for tid in range(config.num_cores)
    ]


def _fast_and_reference(config, programs, **run_kwargs):
    """Run the same programs both ways; return (fast machine, digests).

    Fast mode is forced explicitly so the comparison stays meaningful
    when the whole suite runs under ``REPRO_SLOW_ENGINE=1``.
    ``run_kwargs`` go to both ``Multicore.run`` calls.
    """
    with reference_mode(False):
        machine = Multicore(config, track_values=True,
                            track_persist_order=True)
        result = machine.run([list(p) for p in programs], **run_kwargs)
    fast_digest = state_digest(machine, result)
    with reference_mode():
        ref_machine = Multicore(
            config, track_values=True, track_persist_order=True
        )
        ref_result = ref_machine.run([list(p) for p in programs],
                                     **run_kwargs)
        ref_digest = state_digest(ref_machine, ref_result)
    # Every virtual event draws the sequence number its scheduled twin
    # would have drawn, so both engines hand out the same count.
    assert machine.engine._seq == ref_machine.engine._seq
    return machine, fast_digest, ref_digest


# ----------------------------------------------------------------------
# Randomized interleavings: fast == reference, digest for digest
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [2, 11, 29])
def test_serving_prefix_digest_parity(seed):
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=1,
    )
    programs = _programs("serving", config, seed, 120)
    machine, fast, ref = _fast_and_reference(config, programs)
    assert fast == ref
    # Serving's stores are fills and upgrades, never a same-epoch hit at
    # the buffer head: the tag admission refuses before any session.
    counters = ff_counters(machine)
    assert counters["batches"] == 0 and counters["fallbacks"] == 0


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("cores,design", [
    (2, BarrierDesign.LB_PP),
    (2, BarrierDesign.LB_IDT),
])
def test_pingpong_prefix_digest_parity(seed, cores, design):
    # Both cores of a pair hammer shared mailbox lines under short BEP
    # epochs: the head store is an upgrade, never a same-epoch hit, so
    # the tag admission refuses every drain before a session opens.
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=design,
        num_cores=cores,
    )
    programs = _programs("pingpong", config, seed, 80)
    machine, fast, ref = _fast_and_reference(config, programs)
    assert fast == ref
    counters = ff_counters(machine)
    assert counters["batches"] == 0 and counters["fallbacks"] == 0


@pytest.mark.parametrize("model", [
    PersistencyModel.EP,
    PersistencyModel.BSP,
])
def test_stalling_models_digest_parity(model):
    # EP stalls at every barrier and BSP closes epochs by store count:
    # both interleave drain bursts with flush traffic, and under BSP
    # sessions run between the flushes.
    config = MachineConfig.tiny(
        persistency=model,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=2,
    )
    programs = _programs("queue", config, 5, 60)
    machine, fast, ref = _fast_and_reference(config, programs)
    assert fast == ref


def _bsp_stream_config():
    # perfbench's bsp_stream machine: 1-core BSP/LB++, stock
    # 10,000-store hardware epochs.
    return MachineConfig.tiny(
        persistency=PersistencyModel.BSP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=1,
    )


def _spy_rematerialize(monkeypatch):
    """Record, per session bail-out, whether a store completion was in
    flight and whether the pending issue slot was a same-cycle one."""
    seen = []
    original = Core._ff_rematerialize

    def spy(core, d_slot, n_slot):
        now = core._engine.now
        seen.append((d_slot is not None,
                     n_slot is not None and n_slot[0] == now))
        original(core, d_slot, n_slot)

    monkeypatch.setattr(Core, "_ff_rematerialize", spy)
    return seen


@pytest.mark.parametrize("think", [0, 3])
def test_bsp_stream_sessions_digest_parity(think, monkeypatch):
    # The streaming steady state runs inside the session loop: a store
    # that meets the full write buffer is counted and parked there, the
    # completion that frees a slot re-issues it, and txn marks, ignored
    # barriers, compute (think > 0) and buffer-forwarded loads become
    # virtual issue events.  1,200 txns cross one hardware epoch
    # boundary, where think=3 ends sessions with a same-cycle issue
    # continuation outstanding.
    config = _bsp_stream_config()
    seen = _spy_rematerialize(monkeypatch)
    programs = _programs("pingpong", config, 1, 1200,
                         think_cycles=think)
    machine, fast, ref = _fast_and_reference(config, programs)
    assert fast == ref
    assert ff_counters(machine)["stores"] > 0
    assert machine.stats.domain("core0").get("wb_full_stalls") > 0
    if think:
        assert any(same_cycle for _, same_cycle in seen)


@pytest.mark.parametrize("cut", [5003, 12007, 20011])
def test_mid_session_cut_digest_parity(cut, monkeypatch):
    # run(max_cycles=...) stops the clock while a session has a store
    # completion in flight (and, unless the core is parked on a full
    # buffer, its issue continuation): both must land in the heap under
    # their original sequence numbers, so the cut machine digests
    # exactly like the reference one cut at the same cycle.
    config = _bsp_stream_config()
    seen = _spy_rematerialize(monkeypatch)
    programs = _programs("pingpong", config, 1, 600, think_cycles=3)
    machine, fast, ref = _fast_and_reference(
        config, programs, max_cycles=cut, drain=False
    )
    assert fast == ref
    assert ff_counters(machine)["stores"] > 0
    assert seen and seen[-1][0]  # the cut landed mid-session


# ----------------------------------------------------------------------
# Guard predicates, one by one
# ----------------------------------------------------------------------
def test_faults_configured_refuses_every_session():
    # Fault decisions are keyed by splitmix64 coordinates that include
    # per-event attempt counts; fast-forwarding could shift a draw, so a
    # configured injector (even an all-zero one) disables the engine at
    # construction: no session, and no admission probe to fall back.
    # The program is one where sessions run without an injector.
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BSP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=2,
    )
    programs = _programs("pingpong", config, 3, 80, conflict_rate=1.0)
    faults = FaultConfig(seed=9)
    with reference_mode(False):
        machine = Multicore(config, track_values=True,
                            track_persist_order=True, faults=faults)
        result = machine.run([list(p) for p in programs])
    assert ff_counters(machine) == {"batches": 0, "stores": 0,
                                    "fallbacks": 0}
    # The refusal is also invisible: same digest as the reference
    # engine under the same (all-zero) fault plan.
    with reference_mode():
        ref_machine = Multicore(config, track_values=True,
                                track_persist_order=True,
                                faults=FaultConfig(seed=9))
        ref_result = ref_machine.run([list(p) for p in programs])
    assert state_digest(machine, result) == state_digest(
        ref_machine, ref_result
    )


def test_foreign_tag_refuses_the_store():
    # A line dirty under another core's epoch is tagged with that epoch,
    # so _drain's admission refuses it; ff_store_try, asked anyway, must
    # see no same-epoch dirty hit, return -1 and leave no trace.  Stage
    # it directly: core 1 dirties a line under its epoch, then core 0
    # asks for the same line.
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=2,
    )
    with reference_mode(False):
        machine = Multicore(config)
    line = 0x0C00_0000
    done = []
    machine.engine.schedule_call(
        0, lambda: machine.store(
            1, line, None, machine.managers[1].current_or_new(),
            on_done=done.append,
        )
    )
    machine.engine.run()
    assert done, "staging store never completed"
    epoch0 = machine.managers[0].current_or_new()
    assert machine._epoch_tags[line] is not epoch0
    tags_before = dict(machine._epoch_tags)
    assert machine.ff_store_try(0, line, None, epoch0) == -1
    assert machine._epoch_tags == tags_before
    assert not epoch0.lines


def test_evicted_tagged_line_refuses_the_store():
    # The admission is necessary, not sufficient: a line written back
    # out of the L1 keeps its epoch tag until it persists, so the tag
    # still names the current epoch while the probe finds no L1 entry.
    # Stage it: core 0 dirties a line, the line is written back to the
    # LLC, then core 0 asks for it again.
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BEP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=1,
    )
    with reference_mode(False):
        machine = Multicore(config)
    line = 0x0C00_0000
    epoch0 = machine.managers[0].current_or_new()
    done = []
    machine.engine.schedule_call(
        0, lambda: machine.store(0, line, None, epoch0, on_done=done.append)
    )
    machine.engine.run()
    assert done, "staging store never completed"
    entry = machine.l1s[0].lookup(line)
    assert machine._writeback_to_llc(0, entry, None, invalidate=True)
    assert machine.l1s[0].lookup(line) is None
    assert machine._epoch_tags[line] is epoch0  # admission would pass
    tags_before = dict(machine._epoch_tags)
    lines_before = set(epoch0.lines)
    assert machine.ff_store_try(0, line, None, epoch0) == -1
    assert machine._epoch_tags == tags_before
    assert epoch0.lines == lines_before
    assert machine.l1s[0].lookup(line) is None


def test_evicted_tagged_lines_fall_back_end_to_end():
    # flushbound's footprint is four times the L1, so under long BSP
    # epochs the head store's line is often still tagged with the
    # current epoch but already evicted: every such drain is admitted,
    # refused by the probe and handed back with no trace.
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BSP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=1,
    )
    programs = _programs("flushbound", config, 5, 60)
    machine, fast, ref = _fast_and_reference(config, programs)
    assert fast == ref
    counters = ff_counters(machine)
    assert counters["fallbacks"] > 0
    assert counters["batches"] == 0 and counters["stores"] == 0


def test_contended_run_falls_back_and_recovers():
    # End-to-end: two cores ping-pong every mailbox line under long BSP
    # epochs.  Each session ends at the first store that is not a
    # same-epoch hit (a contended mailbox line, a barrier), re-
    # materializes its outstanding issue event and hands the drain back;
    # later drains must re-enter and keep absorbing the payload stores.
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BSP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=2,
    )
    programs = _programs("pingpong", config, 3, 80, conflict_rate=1.0)
    machine, fast, ref = _fast_and_reference(config, programs)
    assert fast == ref
    counters = ff_counters(machine)
    assert counters["batches"] > 1
    assert counters["stores"] > counters["batches"]


def test_ep_flush_stalls_fall_back():
    # Under EP every barrier waits for the closed epoch to persist, so
    # drains regularly start while flush handshakes are in flight.
    # hotset rewrites its few lines inside each epoch, so sessions do
    # run between the stalls; the drains they cannot take (a clock held
    # by an epoch fan-out, a line that left the L1) fall back.
    config = MachineConfig.tiny(
        persistency=PersistencyModel.EP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=2,
    )
    programs = _programs("hotset", config, 5, 60)
    machine, fast, ref = _fast_and_reference(config, programs)
    assert fast == ref
    counters = ff_counters(machine)
    assert counters["batches"] > 0
    assert counters["fallbacks"] > 0


# ----------------------------------------------------------------------
# Counters are diagnostics, not state
# ----------------------------------------------------------------------
def test_ff_counters_never_reach_the_digest():
    # A reference run never fast-forwards, so if the counters leaked
    # into the digest the two modes could not match -- this pins the
    # invariant the parity tests above rely on.
    config = MachineConfig.tiny(
        persistency=PersistencyModel.BSP,
        barrier_design=BarrierDesign.LB_PP,
        num_cores=1,
    )
    programs = _programs("pingpong", config, 19, 80)
    machine, fast, ref = _fast_and_reference(config, programs)
    assert ff_counters(machine)["stores"] > 0  # fast run did fast-forward
    assert fast == ref                          # ...and it cannot be seen
