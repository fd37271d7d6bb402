"""Unit: settled puts leave the initiator's put window.

A put is settled once every byte of every attempt was placed or NACKed,
the initiator has handled every NACK (a retried one adds its resend's
bytes first), and, when the put rides the reliability transport, the
transport has the ack of every attempt.  No NACK can name a settled
put, so the initiating NIC stops holding it.  An unsettled put stays
exactly as before: a late NACK still matches it, a NIC that journals
its sends holds every put, a lost put or one refused without a NACK is
held, and the put window still evicts an unsettled put at the
``put_window``-th put after its own.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.core import RvmaApi
from repro.faults import FaultInjector
from repro.network import MTU
from repro.nic.headers import NackReason, ReliAckHeader, RvmaNackHeader, RvmaPutHeader
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
    # The retry landed and no NACK is outstanding: the put settled.
    assert op.op_id not in nic0._puts and op.unsettled == 0


def test_a_lost_put_never_settles():
    # A NACK that is not retried makes the put lost, so bytes counted
    # after it (a stray duplicate, say) cannot settle it: a NACK for its
    # other packets must still find it.
    cl = _cluster(put_retries=0)
    nic0 = cl.node(0).nic

    def producer():
        yield 500.0
        return nic0.hw_put(1, 0x9, 16, b"x" * 16)  # no window at the target

    (op,) = run_gens(cl.sim, producer())
    assert op.lost and op.nacked is NackReason.NO_MAILBOX
    op.settle(16)
    assert op.op_id in nic0._puts


def test_put_refused_without_a_nack_stays_held():
    # NACKs switched off at the target: nothing hands the refused bytes
    # back, so the put stays held (and is never retried).
    cl = _cluster(send_nacks=False)
    nic0 = cl.node(0).nic

    def producer():
        yield 500.0
        return nic0.hw_put(1, 0x9, 16, b"x" * 16)

    (op,) = run_gens(cl.sim, producer())
    assert op.unsettled is None and op.nacked is None
    assert op.op_id in nic0._puts


@pytest.mark.parametrize("placed", [1, 2])
def test_partly_nacked_multi_packet_put_settles_after_every_attempt(placed):
    # The target's bucket takes *placed* packets of a 3-packet put and
    # runs dry, so the rest are NACKed NO_BUFFER and each NACK makes a
    # full resend.  The put must stay held until every resend is placed:
    # settling while a NACK is in flight would skip that NACK's resend,
    # settling before a resend is counted would drop the put before its
    # bytes land.
    cl = _cluster(fidelity="packet", put_retry_timeout=10_000.0)
    nic0, nic1 = cl.node(0).nic, cl.node(1).nic
    size = 3 * MTU
    ops = []
    held = []
    place, on_nack = nic1._place, nic0._on_nack

    def recording_place(*args):
        place(*args)
        held.append(("place", ops[0].op_id in nic0._puts))

    def recording_on_nack(delivery):
        on_nack(delivery)
        held.append(("nack", ops[0].op_id in nic0._puts))

    nic1._place = recording_place
    nic0.register_handler(RvmaNackHeader, recording_on_nack)
    api1 = RvmaApi(cl.node(1))

    def consumer():
        win = yield from api1.init_window(0x9, epoch_threshold=placed * MTU)
        yield from api1.post_buffer(win, size=size)
        yield 5_000.0  # the resends leave at 10 us: room for six packets
        for _ in range(6):
            yield from api1.post_buffer(win, size=size)

    def producer():
        yield 1_000.0
        ops.append(nic0.hw_put(1, 0x9, size, bytes(range(256)) * (size // 256)))

    run_gens(cl.sim, consumer(), producer())
    nacked = 3 - placed
    assert nic0.stat("nic.rvma.put_retries").value == nacked
    assert nic1.stat("nic.rvma.nacks_no_buffer").value == nacked
    assert held == [
        *[("place", True)] * placed, *[("nack", True)] * nacked,
        *[("place", True)] * (3 * nacked - 1), ("place", False),
    ]
    assert ops[0].unsettled == 0


def test_journaling_nic_holds_a_retried_put():
    # The first attempt is NACKed NO_BUFFER and its retry is placed and
    # acked, but the send is journaled: a rejoin can replay it, so the
    # put stays held.
    cl = _cluster(reliability=RELIABLE)
    nic0 = cl.node(0).nic
    nic0.transport.journal = SendJournal()
    api1 = RvmaApi(cl.node(1))

    def consumer():
        win = yield from api1.init_window(0x9, epoch_threshold=16)
        yield 5_000.0  # the first attempt finds an empty bucket
        yield from api1.post_buffer(win, size=16)

    def producer():
        yield 500.0
        return nic0.hw_put(1, 0x9, 16, b"x" * 16)

    _, op = run_gens(cl.sim, consumer(), producer())
    assert op.nacked is NackReason.NO_BUFFER
    assert nic0.stat("nic.rvma.put_retries").value >= 1
    assert cl.node(1).nic.stat("nic.rvma.bytes_placed").value == 16
    assert op.unsettled is None and op.op_id in nic0._puts


def test_retried_put_over_the_transport_settles_on_its_last_ack():
    # Without a journal, each attempt that rides the transport also
    # waits for its ack: the retried put settles once the retry is
    # placed and every attempt is acked.
    cl = _cluster(reliability=RELIABLE)
    nic0 = cl.node(0).nic
    api1 = RvmaApi(cl.node(1))

    def consumer():
        win = yield from api1.init_window(0x9, epoch_threshold=16)
        yield 5_000.0
        yield from api1.post_buffer(win, size=16)

    def producer():
        yield 500.0
        return nic0.hw_put(1, 0x9, 16, b"x" * 16)

    _, op = run_gens(cl.sim, consumer(), producer())
    assert op.nacked is NackReason.NO_BUFFER
    assert nic0.stat("nic.rvma.put_retries").value >= 1
    assert nic0.transport.unacked() == 0
    assert op.unsettled == 0 and op.op_id not in nic0._puts


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
