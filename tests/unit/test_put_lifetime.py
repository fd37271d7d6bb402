"""Unit: a put handle lives exactly as long as a message names it.

No table on the initiating NIC holds a :class:`PutOp`.  Each attempt's
header links it, and a target's NACK takes the link from the header
it refuses, so the handle stays alive while a put attempt or a NACK is
in flight, the reliability transport holds an unacked record of it or
a send journal keeps it, and reference counting frees it after that.
A NACK still finds its put however many puts were issued since, and
two rules replace what the table did: a NACK for a put from before an
initiator crash-restart is ignored, and a put issued before its target
was last suspected is not retried.
"""

from __future__ import annotations

import gc

import pytest

from repro.cluster import Cluster
from repro.core import RvmaApi
from repro.faults import FaultInjector
from repro.network import MTU
from repro.nic.headers import NackReason, ReliAckHeader, RvmaNackHeader
from repro.nic.rvma import PutOp, RvmaNicConfig
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


def _live_puts(dst: int) -> int:
    return sum(1 for o in gc.get_objects() if isinstance(o, PutOp) and o.dst == dst)


def test_no_buffer_nacked_put_is_retried_and_lands():
    cl = _cluster()
    nic0 = cl.node(0).nic
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
    assert nic0.stat("nic.rvma.puts_lost").value == 0


def test_a_later_nack_of_a_lost_put_counts_no_new_loss():
    # The put's first NACK is not retried, so the put is lost.  A second
    # NACK naming it (as one for another of its packets would) finds it
    # through the link and counts no second loss.
    cl = _cluster(put_retries=0)
    nic0, nic1 = cl.node(0).nic, cl.node(1).nic

    def producer():
        yield 500.0
        op = nic0.hw_put(1, 0x9, 16, b"x" * 16)  # no window at the target
        yield 5_000.0
        nic1.send_control(
            0, RvmaNackHeader(op_id=op.op_id, mailbox=0x9, reason=NackReason.NO_MAILBOX, op=op)
        )
        return op

    (op,) = run_gens(cl.sim, producer())
    assert op.lost and op.nacked is NackReason.NO_MAILBOX
    assert nic0.stat("nic.rvma.nacks_received").value == 2
    assert nic0.stat("nic.rvma.puts_lost").value == 1
    assert nic0.stat("nic.rvma.put_giveups").value == 1


@pytest.mark.parametrize("placed", [1, 2])
def test_partly_nacked_multi_packet_put_resends_once_per_nack(placed):
    # The target's bucket takes *placed* packets of a 3-packet put and
    # runs dry, so the rest are NACKed NO_BUFFER and each NACK makes a
    # full resend, which lands in the buffers posted meanwhile.
    cl = _cluster(fidelity="packet", put_retry_timeout=10_000.0)
    nic0, nic1 = cl.node(0).nic, cl.node(1).nic
    size = 3 * MTU
    placements = []
    place = nic1._place

    def recording_place(*args):
        place(*args)
        placements.append(args[3])

    nic1._place = recording_place
    api1 = RvmaApi(cl.node(1))

    def consumer():
        win = yield from api1.init_window(0x9, epoch_threshold=placed * MTU)
        yield from api1.post_buffer(win, size=size)
        yield 5_000.0  # the resends leave at 10 us: room for six packets
        for _ in range(6):
            yield from api1.post_buffer(win, size=size)

    def producer():
        yield 1_000.0
        nic0.hw_put(1, 0x9, size, bytes(range(256)) * (size // 256))

    run_gens(cl.sim, consumer(), producer())
    nacked = 3 - placed
    assert nic0.stat("nic.rvma.put_retries").value == nacked
    assert nic1.stat("nic.rvma.nacks_no_buffer").value == nacked
    assert len(placements) == placed + 3 * nacked
    assert nic0.stat("nic.rvma.puts_lost").value == 0


@pytest.mark.parametrize(
    "fidelity, reliability",
    [("flow", None), ("packet", None), ("flow", RELIABLE)],
    ids=["flow", "packet", "transport"],
)
def test_no_put_handle_outlives_a_placed_and_acked_put(fidelity, reliability):
    cl = _cluster(fidelity=fidelity, reliability=reliability)
    nic0 = cl.node(0).nic
    size = 3 * MTU if fidelity == "packet" else 64
    gc.collect()
    before = _live_puts(1)
    gc.disable()  # reference counting alone must free every handle
    try:
        def producer():
            yield 500.0
            for _ in range(4):
                op = yield from RvmaApi(cl.node(0)).put(1, 0x9, data=bytes(size))
                yield op.local_done

        run_gens(cl.sim, _window(cl.node(1), 0x9, 4 * size), producer())
        assert cl.node(1).nic.stat("nic.rvma.bytes_placed").value == 4 * size
        if reliability is not None:
            assert nic0.transport.unacked() == 0
        assert _live_puts(1) == before
    finally:
        gc.enable()


def test_journaling_nic_keeps_a_retried_put_alive():
    # The first attempt is NACKed NO_BUFFER and its retry is placed and
    # acked, but the send is journaled: a rejoin can replay it (and the
    # replay can be NACKed), so the journal keeps the handle alive.
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
        op = nic0.hw_put(1, 0x9, 16, b"x" * 16)
        return op.op_id

    gc.collect()
    before = _live_puts(1)
    _, op_id = run_gens(cl.sim, consumer(), producer())
    assert nic0.stat("nic.rvma.put_retries").value >= 1
    assert cl.node(1).nic.stat("nic.rvma.bytes_placed").value == 16
    assert nic0.transport.unacked() == 0
    (op,) = [o for o in gc.get_objects() if isinstance(o, PutOp) and o.op_id == op_id]
    assert op.nacked is NackReason.NO_BUFFER
    assert _live_puts(1) == before + 1


def test_journaling_nic_keeps_every_put_alive():
    # Its peer, which does not journal, lets each put go once it is
    # placed and acked.
    cl = _cluster(reliability=RELIABLE)
    nic0, nic1 = cl.node(0).nic, cl.node(1).nic
    nic0.transport.journal = SendJournal()

    def producer(src, dst):
        yield 1_000.0
        for _ in range(4):
            op = yield from RvmaApi(cl.node(src)).put(dst, 0x9, data=b"x" * 16)
            yield op.local_done

    gc.collect()
    before = _live_puts(1), _live_puts(0)
    run_gens(
        cl.sim,
        _window(cl.node(0), 0x9, 64), _window(cl.node(1), 0x9, 64),
        producer(0, 1), producer(1, 0),
    )
    assert nic0.stat("nic.rvma.bytes_placed").value == 64
    assert nic1.stat("nic.rvma.bytes_placed").value == 64
    assert (_live_puts(1), _live_puts(0)) == (before[0] + 4, before[1])


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


def test_nack_after_an_initiator_crash_restart_is_ignored():
    # The put leaves, the initiator crash-restarts, and only then does
    # the target's NO_MAILBOX NACK arrive: the new incarnation counts it
    # received but neither retries the old put nor counts it lost.
    cl = _cluster(put_retries=1)
    nic0 = cl.node(0).nic
    FaultInjector(cl).crash_restart(0, 900.0, 1_000.0)

    def producer():
        yield 500.0
        return nic0.hw_put(1, 0x9, 16, b"x" * 16)

    (op,) = run_gens(cl.sim, producer())
    assert nic0.incarnation == 1 and op.incarnation == 0
    assert nic0.stat("nic.rvma.nacks_received").value == 1
    assert nic0.stat("nic.rvma.put_retries").value == 0
    assert nic0.stat("nic.rvma.puts_lost").value == 0
    assert op.nacked is None and not op.lost


def test_put_issued_before_its_peer_was_suspected_is_not_retried():
    # Put A's NO_MAILBOX NACK arrives after node 1 was suspected: A is
    # lost, and not as a give-up.  After a reinstate, put B is retried
    # once (its budget) and then given up.
    cl = _cluster(reliability=RELIABLE, put_retries=1)
    nic0 = cl.node(0).nic
    detector = nic0.detector

    def producer():
        yield 500.0
        a = nic0.hw_put(1, 0x9, 16, b"x" * 16)
        yield 100.0
        detector.force_suspect(1, "test")
        yield 5_000.0
        assert a.lost and a.retry is None
        assert nic0.stat("nic.rvma.put_retries").value == 0
        assert nic0.stat("nic.rvma.put_giveups").value == 0
        detector.reinstate(1)
        b = nic0.hw_put(1, 0x9, 16, b"x" * 16)
        yield 10_000.0
        return a, b

    ((a, b),) = run_gens(cl.sim, producer())
    assert a.nacked is b.nacked is NackReason.NO_MAILBOX
    assert b.lost
    assert nic0.stat("nic.rvma.put_retries").value == 1
    assert nic0.stat("nic.rvma.put_giveups").value == 1
    assert nic0.stat("nic.rvma.puts_lost").value == 2
