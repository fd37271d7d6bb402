"""Unit: settled puts leave the initiator's put window.

A put is settled once the target has placed every byte of its first
attempt and NACKed none of it, and, when the put rides the reliability
transport, the transport has its ack.  No NACK can name a settled put,
so the initiating NIC stops holding it.  An unsettled put stays exactly
as before: a late NACK still matches it, a NIC that journals its sends
holds every put, and the put window still evicts an unsettled put at
the ``put_window``-th put after its own.
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.core import RvmaApi
from repro.faults import FaultInjector
from repro.network import MTU
from repro.nic.headers import NackReason, ReliAckHeader, RvmaPutHeader
from repro.nic.rvma import RvmaNicConfig
from repro.recovery import SendJournal
from repro.reliability import ReliabilityConfig

from tests.helpers import run_gens

RELIABLE = ReliabilityConfig(retransmit_timeout=5_000.0, max_retries=6)


def _cluster(fidelity: str = "flow", **nic_kw) -> Cluster:
    return Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity=fidelity,
        nic_config=RvmaNicConfig(**nic_kw),
    )


def _window(node, mailbox: int, size: int):
    """Generator: a byte-threshold window on *node* with one *size* buffer."""
    api = RvmaApi(node)
    win = yield from api.init_window(mailbox, epoch_threshold=size)
    yield from api.post_buffer(win, size=size)
    return win


def test_no_buffer_nacked_put_stays_held_and_its_retry_matches():
    cl = _cluster()
    nic0 = cl.node(0).nic
    api1 = RvmaApi(cl.node(1))
    seen = []

    def consumer():
        win = yield from api1.init_window(0x9, epoch_threshold=16)
        yield 5_000.0  # the first attempt finds an empty bucket
        yield from api1.post_buffer(win, size=16)

    def producer():
        yield 500.0
        op = nic0.hw_put(1, 0x9, 16, b"x" * 16)
        yield 2_000.0
        seen.append((op.nacked, op.op_id in nic0._puts))
        return op

    _, op = run_gens(cl.sim, consumer(), producer())
    assert seen == [(NackReason.NO_BUFFER, True)]
    assert nic0.stat("nic.rvma.put_retries").value >= 1
    assert cl.node(1).nic.stat("nic.rvma.bytes_placed").value == 16
    assert nic0.stat("nic.rvma.puts_lost").value == 0
    # The retry landed, but a NACKed put stays until the window evicts it.
    assert op.op_id in nic0._puts


def test_a_nacked_put_never_settles():
    # The NACK choke point marks the put, so bytes counted after it (a
    # duplicate of the first attempt, say) cannot settle it.
    cl = _cluster()
    nic0, nic1 = cl.node(0).nic, cl.node(1).nic
    op = nic0.hw_put(1, 0x9, 16, b"x" * 16)
    hdr = RvmaPutHeader(mailbox=0x9, offset=0, total_size=16, op_id=op.op_id, op=op)
    nic1._nack(0, hdr, NackReason.CLOSED)
    op.settle(16)
    assert op.op_id in nic0._puts


def test_multi_packet_put_stays_held_until_its_last_packet_lands():
    cl = _cluster(fidelity="packet")
    nic0, nic1 = cl.node(0).nic, cl.node(1).nic
    size = 3 * MTU
    ops = []
    held_after_place = []
    place = nic1._place

    def recording_place(*args):
        place(*args)
        held_after_place.append(ops[0].op_id in nic0._puts)

    nic1._place = recording_place

    def producer():
        yield 500.0
        ops.append(nic0.hw_put(1, 0x9, size, bytes(size)))

    run_gens(cl.sim, _window(cl.node(1), 0x9, size), producer())
    assert held_after_place == [True, True, False]


def test_journaling_nic_holds_every_put():
    # A rejoin can replay a journaled send and the replay can be NACKed,
    # so a journaling NIC keeps today's window; its peer, which does not
    # journal, lets each put go once it is placed and acked.
    cl = _cluster(reliability=RELIABLE)
    nic0, nic1 = cl.node(0).nic, cl.node(1).nic
    nic0.transport.journal = SendJournal()

    def producer(src, dst):
        yield 1_000.0
        for _ in range(4):
            op = yield from RvmaApi(cl.node(src)).put(dst, 0x9, data=b"x" * 16)
            yield op.local_done

    run_gens(
        cl.sim,
        _window(cl.node(0), 0x9, 64), _window(cl.node(1), 0x9, 64),
        producer(0, 1), producer(1, 0),
    )
    assert nic0.stat("nic.rvma.bytes_placed").value == 64
    assert nic1.stat("nic.rvma.bytes_placed").value == 64
    assert len(nic0._puts) == 4
    assert len(nic1._puts) == 0


def test_unacked_put_stays_held_across_a_target_crash():
    # The put is placed but its transport ack is lost, and the target
    # crash-restarts without the recovery stack.  The retransmission
    # reaches an empty LUT and is NACKed NO_MAILBOX: the initiator must
    # still match that NACK, retry and finally count the put lost.
    cl = _cluster(reliability=RELIABLE, put_retries=3, put_retry_timeout=500.0)
    nic0 = cl.node(0).nic
    cl.fabric.fault_filter = lambda d: (
        isinstance(d.message.header, ReliAckHeader) and d.message.src == 1
        and cl.sim.now < 4_000.0
    )
    FaultInjector(cl).crash_restart(1, 3_000.0, 3_500.0)

    def producer():
        yield 1_000.0
        op = yield from RvmaApi(cl.node(0)).put(1, 0x9, data=b"x" * 16)
        return op

    _, op = run_gens(cl.sim, _window(cl.node(1), 0x9, 4096), producer())
    assert op.nacked is NackReason.NO_MAILBOX
    assert nic0.stat("nic.rvma.put_retries").value == 3
    assert nic0.stat("nic.rvma.puts_lost").value == 1


def test_unsettled_put_is_evicted_at_the_same_put_as_before():
    # The first put is lost in flight, so it never settles; every later
    # put is placed before the next one is issued.  The window counts
    # puts issued: the lost put goes at the third put, as it always did,
    # and settled puts are never counted as evictions.
    cl = _cluster(put_window=2)
    nic0 = cl.node(0).nic
    evictions = nic0.stat("nic.rvma.put_window_evictions")
    lost = []
    cl.fabric.fault_filter = lambda d: (
        isinstance(d.message.header, RvmaPutHeader) and d.message.header.op_id in lost
    )
    log = []

    def producer():
        yield 1_000.0
        for i in range(5):
            op = nic0.hw_put(1, 0x9, 16, b"x" * 16)
            if i == 0:
                lost.append(op.op_id)
            log.append((evictions.value, lost[0] in nic0._puts))
            yield 1_000.0

    run_gens(cl.sim, _window(cl.node(1), 0x9, 80), producer())
    assert log == [(0, True), (0, True), (1, False), (1, False), (1, False)]
    assert len(nic0._puts) == 0
