"""Hierarchical fanout, handshake message accounting, and the
scaling-sweep plumbing.

The 64-core scale-out work has three seams worth pinning:

* the tree fanout (``FanoutTopology.TREE``) must degenerate to the flat
  star at ``llc_banks <= fanout_degree`` -- identical schedules, hence
  identical digests -- and obey its latency-model invariants at scale;
* the per-flush message accounting must be exact: a pinned count for a
  hand-built single-line epoch on 8 banks, the quadratic all-to-all
  contrast, and fast-vs-reference parity (the counters are
  digest-invisible, so the digest alone cannot catch a miscount);
* the ``--cores`` CLI validation must reject non-powers-of-two with a
  usable message.

The engine's batched fanout APIs are gone: every broadcast leg of the
flush handshake became virtual, so nothing scheduled through them, and
their ordering tests went with them.
"""

import argparse
import types

import pytest

from repro.core.flush import _ACKED
from repro.harness.check import (
    _multicore_setup,
    handshake_parity,
    parse_cores,
)
from repro.sim.config import (
    BarrierDesign,
    FanoutTopology,
    HandshakeProtocol,
    MachineConfig,
    PersistencyModel,
)
from repro.sim.digest import run_digest
from repro.sim.engine import reference_mode
from repro.system import Multicore
from repro.workloads.base import Program


def make_machine(num_cores=1, **overrides):
    config = MachineConfig.tiny(
        num_cores=num_cores,
        barrier_design=BarrierDesign.LB_PP,
        persistency=PersistencyModel.BEP,
        **overrides,
    )
    return Multicore(config, track_persist_order=True)


# ----------------------------------------------------------------------
# Tree fanout
# ----------------------------------------------------------------------
def test_tree_degenerates_to_flat_at_4_cores():
    """At ``llc_banks <= fanout_degree`` (4 <= 4) every bank is a root
    child, so tree and flat mode produce the same delivery offsets and
    therefore identical (time, priority, seq) event orderings -- checked
    end to end via the digest of a contended run."""
    digests = {}
    for topo in (FanoutTopology.FLAT, FanoutTopology.TREE):
        config, programs = _multicore_setup(seed=3, transactions=12)
        config = config.with_(fanout_topology=topo)
        digests[topo] = run_digest(config, programs)
    assert digests[FanoutTopology.FLAT] == digests[FanoutTopology.TREE]


def test_flush_tree_invariants_at_64_banks():
    config = MachineConfig.tiny(num_cores=64, llc_banks=64, mesh_rows=4)
    mesh = Multicore(config).mesh
    for core in (0, 17, 63):
        tree = mesh.flush_tree(core)
        row = mesh.c2b[core]
        # Full coverage: the order is a permutation of the banks.
        assert sorted(tree.order) == list(range(64))
        # A routed delivery can never beat the direct mesh distance
        # (triangle inequality of the hop metric), and root children
        # pay exactly the direct distance.
        for bank in range(64):
            assert tree.delivery[bank] >= row[bank]
        for bank in tree.order[:config.fanout_degree]:
            assert tree.delivery[bank] == row[bank]
        assert tree.bcast == max(tree.delivery)
        # Deeper positions hang off earlier ones: parent delivered
        # before child.
        for pos, bank in enumerate(tree.order):
            if pos >= config.fanout_degree:
                parent = tree.order[pos // config.fanout_degree - 1]
                assert tree.delivery[bank] > tree.delivery[parent]


def test_small_tree_equals_direct_row():
    config = MachineConfig.tiny(num_cores=4, llc_banks=4, mesh_rows=2)
    mesh = Multicore(config).mesh
    tree = mesh.flush_tree(2)
    assert tuple(tree.delivery) == tuple(mesh.c2b[2])


def test_tree_fanout_digest_matches_reference_at_16_cores():
    """Above the degree the tree genuinely reroutes (different arrival
    times than flat); both engine modes must still agree on it."""
    config, programs = _multicore_setup(seed=3, transactions=8,
                                        num_cores=16)
    config = config.with_(fanout_topology=FanoutTopology.TREE)
    fast = run_digest(config, programs)
    with reference_mode():
        ref = run_digest(config, programs)
    assert fast == ref


def test_double_ack_still_raises_under_tree_fanout():
    """The single-BankAck-per-bank invariant survives the tree rework."""
    m = make_machine(num_cores=4, llc_banks=4, mesh_rows=2,
                     fanout_topology=FanoutTopology.TREE)
    op = m.arbiters[0]._flush_op
    op._epoch = types.SimpleNamespace(core_id=0)
    op._bank_state[0] = _ACKED
    with pytest.raises(RuntimeError, match="second BankAck"):
        op._bank_ack(0)


# ----------------------------------------------------------------------
# Message accounting
# ----------------------------------------------------------------------
def _single_line_flush(protocol: HandshakeProtocol):
    """8-core / 8-bank machine; core 0 flushes exactly one line."""
    m = make_machine(num_cores=8, llc_banks=8, mesh_rows=2,
                     handshake_protocol=protocol)
    programs = [Program() for _ in range(8)]
    programs[0].store(0x1000, 8).barrier()
    m.run(programs)
    return m.handshake_counters()


def test_pinned_messages_per_flush_8_cores():
    """The hand-built epoch: one dirty line, eight banks, arbiter
    protocol.  Figure 8 costs exactly: 8 FlushEpoch legs, 8 BankAcks
    (7 degenerate + 1 data-bearing), 1 PersistAck for the line, and 8
    PersistCMP legs -- 25 messages."""
    hs = _single_line_flush(HandshakeProtocol.ARBITER)
    assert hs["flushes"] == 1
    assert hs["flush_epoch_msgs"] == 8
    assert hs["bank_ack_msgs"] == 8
    assert hs["persist_ack_msgs"] == 1
    assert hs["persist_cmp_msgs"] == 8
    assert hs["total_msgs"] == 25
    assert hs["last_flush_msgs"] == 25
    assert hs["max_flush_msgs"] == 25
    assert hs["mean_flush_msgs"] == 25.0


def test_all_to_all_accounting_is_quadratic():
    """Same epoch under the strawman protocol: every one of the 8 acks
    is announced to all 8 participants (n^2 = 64 messages) and there is
    no PersistCMP broadcast.  8 + 64 + 1 = 73."""
    hs = _single_line_flush(HandshakeProtocol.ALL_TO_ALL)
    n = 8
    assert hs["flushes"] == 1
    assert hs["flush_epoch_msgs"] == n
    assert hs["bank_ack_msgs"] == n * n
    assert hs["persist_cmp_msgs"] == 0
    assert hs["persist_ack_msgs"] == 1
    assert hs["total_msgs"] == n + n * n + 1


def test_all_to_all_timing_identical_to_arbiter():
    """The protocol knob is accounting-only: completion is known the
    cycle the last ack lands either way, so the digests must agree."""
    config, programs = _multicore_setup(seed=3, transactions=10)
    base = run_digest(config, programs)
    a2a = run_digest(
        config.with_(handshake_protocol=HandshakeProtocol.ALL_TO_ALL),
        programs,
    )
    assert base == a2a


def test_handshake_counters_match_reference_at_16_cores():
    """The explicit counter-parity check ``repro check`` runs at 64
    cores, here at a unit-test-sized 16."""
    config, programs = _multicore_setup(seed=3, transactions=8,
                                        num_cores=16)
    parity = handshake_parity(config, programs)
    assert parity["digest_match"]
    assert parity["counters_match"]
    assert parity["counters"]["flushes"] > 0


def test_scaling_table_renders_per_core_rows():
    """The report helper turns a scaling record into one row per core
    count with no summary row (means across a scaling curve would be
    meaningless)."""
    from repro.harness.report import scaling_table

    def point(msgs):
        return {"handshake": {"mean_flush_msgs": msgs}}

    record = {
        "cores": [4, 8],
        "pingpong": {"LB++": {"4": point(19.6), "8": point(31.7)}},
        "sharded_serving": {"LB++": {"4": point(20.2), "8": point(31.9)}},
        "all_to_all": {"LB++": {"4": point(27.6), "8": point(79.7)}},
    }
    table = scaling_table(record)
    assert table.summary_row() is None
    data = table.as_dict()
    assert data["8 cores"]["all-to-all"] == 79.7
    assert data["4 cores"]["arbiter"] == 19.6
    text = table.render(precision=1)
    assert "4 cores" in text and "8 cores" in text


# ----------------------------------------------------------------------
# --cores validation
# ----------------------------------------------------------------------
def test_parse_cores_accepts_powers_of_two():
    assert parse_cores("4,8,16,32,64") == (4, 8, 16, 32, 64)
    assert parse_cores("16") == (16,)
    # Normalised: sorted, deduplicated.
    assert parse_cores("32,4,4") == (4, 32)


@pytest.mark.parametrize("bad", ["3", "0", "128", "4,12", "-8", "four", ""])
def test_parse_cores_rejects_bad_values(bad):
    with pytest.raises(argparse.ArgumentTypeError,
                       match="powers of two|comma-separated"):
        parse_cores(bad)
