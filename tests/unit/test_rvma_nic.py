"""Unit tests for the RVMA NIC hardware model."""

import pytest

from repro.cluster import Cluster
from repro.memory.buffer import HostBuffer
from repro.nic.headers import NackReason
from repro.nic.lut import BufferMode, EpochType, RetiredBuffer
from repro.nic.rvma import RvmaNicConfig
from repro.motifs import Incast, RvmaProtocol
from repro.network import LINK_RATES, NetworkConfig, RoutingMode

from tests.helpers import run_gen, run_gens


def _alloc_slot(node):
    alloc = node.memory.alloc(64, align=64)
    node.memory.write(alloc.base, b"\x00" * 16)
    return alloc.base, alloc.base + 8


def _arm(node, mailbox, size, threshold=None, etype=EpochType.EPOCH_BYTES,
         mode=BufferMode.STEERED):
    """Generator: window + one posted buffer; returns (buffer, notify, len)."""
    nic = node.nic
    yield nic.hw_init_window(mailbox, etype, mode)
    buf = HostBuffer.allocate(node.memory, size)
    notify, length_addr = _alloc_slot(node)
    yield nic.hw_post_buffer(mailbox, buf, threshold or size, notify, length_addr)
    return buf, notify, length_addr


def test_put_places_data_and_completes(rvma_pair):
    cl = rvma_pair
    payload = bytes(range(200))

    def receiver():
        buf, notify, length_addr = yield from _arm(cl.node(1), 0xA, 200)
        yield cl.node(1).waiter.wait_for_nonzero_u64(notify)
        return (
            buf.contents(),
            cl.node(1).memory.read_u64(notify),
            cl.node(1).memory.read_u64(length_addr),
            buf.addr,
        )

    def sender():
        yield 500.0
        op = cl.node(0).nic.hw_put(1, 0xA, 200, payload)
        yield op.local_done

    (contents, head, length, addr), _ = run_gens(cl.sim, receiver(), sender())
    assert contents == payload
    assert head == addr and length == 200


def test_put_local_done_resolves_with_none(rvma_pair):
    # Not with the op: the op holds local_done, so that value would make
    # every put handle a reference cycle.
    cl = rvma_pair

    def receiver():
        _, notify, _ = yield from _arm(cl.node(1), 0xA, 8)
        yield cl.node(1).waiter.wait_for_nonzero_u64(notify)

    def sender():
        yield 500.0
        op = cl.node(0).nic.hw_put(1, 0xA, 8, b"8 bytes!")
        return op, (yield op.local_done)

    _, (op, value) = run_gens(cl.sim, receiver(), sender())
    assert op.local_done.done
    assert value is None and op.local_done.value is None


def test_put_offset_places_at_offset(rvma_pair):
    cl = rvma_pair

    def receiver():
        buf, notify, _ = yield from _arm(cl.node(1), 0xB, 100, threshold=10)
        yield cl.node(1).waiter.wait_for_nonzero_u64(notify)
        return buf.contents()

    def sender():
        yield 500.0
        op = cl.node(0).nic.hw_put(1, 0xB, 10, b"ABCDEFGHIJ", offset=50)
        yield op.local_done

    contents, _ = run_gens(cl.sim, receiver(), sender())
    assert contents[50:60] == b"ABCDEFGHIJ"
    assert contents[:50] == b"\x00" * 50


def test_ops_threshold_counts_operations(rvma_pair):
    cl = rvma_pair

    def receiver():
        node = cl.node(1)
        yield node.nic.hw_init_window(0xC, EpochType.EPOCH_OPS)
        buf = HostBuffer.allocate(node.memory, 128)
        notify, length_addr = _alloc_slot(node)
        yield node.nic.hw_post_buffer(0xC, buf, 3, notify, length_addr)
        yield node.waiter.wait_for_nonzero_u64(notify)
        entry = node.nic.lut.lookup(0xC)
        return (entry.epoch, node.memory.read_u64(length_addr))

    def sender():
        yield 500.0
        for i in range(3):
            op = cl.node(0).nic.hw_put(1, 0xC, 16, b"x" * 16, offset=16 * i)
            yield op.local_done

    (epoch, length), _ = run_gens(cl.sim, receiver(), sender())
    assert epoch == 1
    assert length == 48  # high-water mark of the three writes


def test_no_completion_below_threshold(rvma_pair):
    cl = rvma_pair

    def receiver():
        buf, notify, _ = yield from _arm(cl.node(1), 0xD, 100, threshold=100)
        yield 20000.0
        return cl.node(1).memory.read_u64(notify)

    def sender():
        yield 500.0
        op = cl.node(0).nic.hw_put(1, 0xD, 60, b"y" * 60)
        yield op.local_done

    notify_val, _ = run_gens(cl.sim, receiver(), sender())
    assert notify_val == 0  # threshold not reached: host sees nothing


def test_put_to_unknown_mailbox_retries_then_fails(rvma_pair):
    cl = rvma_pair

    def sender():
        op = cl.node(0).nic.hw_put(1, 0xDEAD, 8, b"12345678")
        yield op.local_done
        return op

    op = run_gen(cl.sim, sender())  # drains all retries
    assert op.nacked is NackReason.NO_MAILBOX
    # The put is retried (the mailbox might have been mid-initialisation)
    # and, with the window never appearing, is eventually declared lost.
    retries = cl.node(0).nic.cfg.put_retries
    assert cl.node(1).nic.stat("nic.rvma.nacks_no_mailbox").value == retries + 1
    assert cl.node(0).nic.stat("nic.rvma.nacks_received").value == retries + 1
    assert cl.node(0).nic.stat("nic.rvma.put_retries").value == retries
    assert cl.node(0).nic.stat("nic.rvma.puts_lost").value == 1


def test_puts_lost_counts_each_abandoned_put_once():
    """Regression: a multi-packet put draws one NACK per packet, and
    every NACK that arrived after the retry budget was spent used to
    count as another lost put — NICs reported more losses than puts.
    Loss, give-up and quota-loss accounting is once per put."""
    cl = Cluster.build(
        n_nodes=33, topology="dragonfly", nic_type="rvma", fidelity="packet", seed=3,
        net_config=NetworkConfig(link_bw=LINK_RATES["400Gbps"], routing=RoutingMode.ADAPTIVE),
        nic_config=RvmaNicConfig(put_retries=4),
    )
    with pytest.raises(RuntimeError, match="puts_lost"):
        Incast(cl, RvmaProtocol(), msgs_per_client=8, msg_bytes=8 * 1024).run()
    total_lost = 0
    for node in range(1, cl.n_nodes):
        stat = lambda name: cl.node(node).nic.stat(f"nic.rvma.{name}").value
        puts = stat("tx_messages") - stat("put_retries")
        assert puts == 8
        assert stat("puts_lost") <= puts
        assert stat("put_giveups") == stat("puts_lost")
        total_lost += stat("puts_lost")
    assert total_lost > 0, "the incast must exhaust some retry budgets"


def test_put_to_closed_window_nacks(rvma_pair):
    cl = rvma_pair

    def receiver():
        yield from _arm(cl.node(1), 0xE, 64)
        yield cl.node(1).nic.hw_close(0xE)

    def sender():
        yield 2000.0
        op = cl.node(0).nic.hw_put(1, 0xE, 8, b"12345678")
        yield op.local_done
        yield 5000.0
        return op

    _, op = run_gens(cl.sim, receiver(), sender())
    assert op.nacked is NackReason.CLOSED


def test_out_of_bounds_put_nacks(rvma_pair):
    cl = rvma_pair

    def receiver():
        yield from _arm(cl.node(1), 0xF, 32)

    def sender():
        yield 2000.0
        op = cl.node(0).nic.hw_put(1, 0xF, 16, b"z" * 16, offset=20)
        yield op.local_done
        yield 5000.0
        return op

    _, op = run_gens(cl.sim, receiver(), sender())
    assert op.nacked is NackReason.OUT_OF_BOUNDS


def test_no_buffer_nack_retries_then_succeeds(rvma_pair):
    cl = rvma_pair

    def receiver():
        node = cl.node(1)
        yield node.nic.hw_init_window(0x10, EpochType.EPOCH_BYTES)
        # Post the buffer only after the put has been NACKed once.
        yield 8000.0
        buf = HostBuffer.allocate(node.memory, 64)
        notify, length_addr = _alloc_slot(node)
        yield node.nic.hw_post_buffer(0x10, buf, 64, notify, length_addr)
        yield node.waiter.wait_for_nonzero_u64(notify)
        return buf.contents()

    def sender():
        yield 2000.0
        op = cl.node(0).nic.hw_put(1, 0x10, 64, b"R" * 64)
        yield op.local_done

    contents, _ = run_gens(cl.sim, receiver(), sender())
    assert contents == b"R" * 64
    assert cl.node(0).nic.stat("nic.rvma.put_retries").value >= 1
    assert cl.node(0).nic.stat("nic.rvma.puts_lost").value == 0


def test_nacks_can_be_disabled(rvma_pair):
    cl = rvma_pair
    cl.node(1).nic.cfg.send_nacks = False

    def sender():
        op = cl.node(0).nic.hw_put(1, 0xBAD, 8, b"12345678")
        yield op.local_done
        yield 5000.0
        return op

    op = run_gen(cl.sim, sender())
    assert op.nacked is None
    assert cl.node(0).nic.stat("nic.rvma.nacks_received").value == 0


def test_catch_all_receives_unmatched(rvma_pair):
    cl = rvma_pair

    def receiver():
        node = cl.node(1)
        yield node.nic.hw_init_window(0xCA, EpochType.EPOCH_OPS, BufferMode.MANAGED)
        buf = HostBuffer.allocate(node.memory, 256)
        notify, length_addr = _alloc_slot(node)
        yield node.nic.hw_post_buffer(0xCA, buf, 1, notify, length_addr)
        yield node.nic.hw_set_catch_all(0xCA)
        yield node.waiter.wait_for_nonzero_u64(notify)
        return buf.contents()[:9]

    def sender():
        yield 2000.0
        op = cl.node(0).nic.hw_put(1, 0x404, 9, b"unmatched")
        yield op.local_done

    contents, _ = run_gens(cl.sim, receiver(), sender())
    assert contents == b"unmatched"
    assert cl.node(1).nic.stat("nic.rvma.catch_all_hits").value >= 1


def test_inc_epoch_preempts_completion(rvma_pair):
    cl = rvma_pair

    def receiver():
        node = cl.node(1)
        buf, notify, length_addr = yield from _arm(cl.node(1), 0x11, 100, threshold=100)
        yield 5000.0  # partial data has arrived by now
        record = yield node.nic.hw_inc_epoch(0x11)
        yield node.waiter.wait_for_nonzero_u64(notify)
        return record, node.memory.read_u64(length_addr)

    def sender():
        yield 500.0
        op = cl.node(0).nic.hw_put(1, 0x11, 40, b"p" * 40)
        yield op.local_done

    (record, length), _ = run_gens(cl.sim, receiver(), sender())
    assert isinstance(record, RetiredBuffer)
    assert length == 40  # partial length reported


def test_get_reads_active_buffer(rvma_pair):
    cl = rvma_pair

    def receiver():
        buf, _, _ = yield from _arm(cl.node(1), 0x12, 64, threshold=64)
        buf.write(0, b"G" * 64)

    def getter():
        yield 3000.0
        node = cl.node(0)
        dest = HostBuffer.allocate(node.memory, 32)
        op = node.nic.hw_get(1, 0x12, 32, dest, offset=16)
        ok = yield op.done
        return ok, dest.contents()

    _, (ok, data) = run_gens(cl.sim, receiver(), getter())
    assert ok is True
    assert data == b"G" * 32


def test_get_out_of_bounds_fails(rvma_pair):
    cl = rvma_pair

    def receiver():
        yield from _arm(cl.node(1), 0x13, 64)

    def getter():
        yield 3000.0
        node = cl.node(0)
        dest = HostBuffer.allocate(node.memory, 128)
        op = node.nic.hw_get(1, 0x13, 128, dest)
        ok = yield op.done
        return ok

    _, ok = run_gens(cl.sim, receiver(), getter())
    assert ok is False


def test_epoch_query_and_rewind(rvma_pair):
    cl = rvma_pair

    def receiver():
        node = cl.node(1)
        yield node.nic.hw_init_window(0x14, EpochType.EPOCH_BYTES)
        for _ in range(2):
            buf = HostBuffer.allocate(node.memory, 16)
            notify, length_addr = _alloc_slot(node)
            yield node.nic.hw_post_buffer(0x14, buf, 16, notify, length_addr)
        yield 20000.0
        epoch = yield node.nic.hw_get_epoch(0x14)
        record = yield node.nic.hw_rewind(0x14, 1)
        return epoch, record

    def sender():
        yield 500.0
        for _ in range(2):
            op = cl.node(0).nic.hw_put(1, 0x14, 16, b"e" * 16)
            yield op.local_done
            yield 3000.0

    (epoch, record), _ = run_gens(cl.sim, receiver(), sender())
    assert epoch == 2
    assert record.epoch == 1 and record.length == 16


def test_failed_nic_drops_traffic(rvma_pair):
    cl = rvma_pair

    def receiver():
        yield from _arm(cl.node(1), 0x15, 64)
        cl.node(1).nic.fail()

    def sender():
        yield 3000.0
        op = cl.node(0).nic.hw_put(1, 0x15, 64, b"d" * 64)
        yield op.local_done
        yield 10000.0

    run_gens(cl.sim, receiver(), sender())
    assert cl.node(1).nic.stat("nic.rvma.rx_dropped_failed").value >= 1
    assert cl.node(1).nic.stat("nic.rvma.bytes_placed").value == 0


def test_zero_byte_put_signals_ops_threshold(rvma_pair):
    """A 0-byte put is a pure doorbell: no data, but it counts as one
    operation — usable as a lightweight remote signal."""
    cl = rvma_pair

    def receiver():
        node = cl.node(1)
        yield node.nic.hw_init_window(0x20, EpochType.EPOCH_OPS)
        buf = HostBuffer.allocate(node.memory, 8)
        notify, length_addr = _alloc_slot(node)
        yield node.nic.hw_post_buffer(0x20, buf, 1, notify, length_addr)
        yield node.waiter.wait_for_nonzero_u64(notify)
        return node.memory.read_u64(length_addr)

    def sender():
        yield 2000.0
        op = cl.node(0).nic.hw_put(1, 0x20, 0)
        yield op.local_done

    length, _ = run_gens(cl.sim, receiver(), sender())
    assert length == 0  # completed with zero payload bytes


def test_zero_byte_put_never_completes_byte_threshold(rvma_pair):
    cl = rvma_pair

    def receiver():
        buf, notify, _ = yield from _arm(cl.node(1), 0x21, 16, threshold=16)
        yield 20000.0
        return cl.node(1).memory.read_u64(notify)

    def sender():
        yield 2000.0
        op = cl.node(0).nic.hw_put(1, 0x21, 0)
        yield op.local_done

    notify_val, _ = run_gens(cl.sim, receiver(), sender())
    assert notify_val == 0


def test_managed_window_ignores_put_offsets(rvma_pair):
    """Receiver-Managed placement appends in arrival order; initiator
    offsets are meaningless and must not move the write cursor."""
    cl = rvma_pair

    def receiver():
        node = cl.node(1)
        yield node.nic.hw_init_window(0x22, EpochType.EPOCH_BYTES, BufferMode.MANAGED)
        buf = HostBuffer.allocate(node.memory, 8)
        notify, length_addr = _alloc_slot(node)
        yield node.nic.hw_post_buffer(0x22, buf, 8, notify, length_addr)
        yield node.waiter.wait_for_nonzero_u64(notify)
        return buf.contents()

    def sender():
        yield 2000.0
        op = cl.node(0).nic.hw_put(1, 0x22, 4, b"ABCD", offset=100)  # bogus offset
        yield op.local_done
        yield 3000.0
        op = cl.node(0).nic.hw_put(1, 0x22, 4, b"EFGH", offset=0)
        yield op.local_done

    contents, _ = run_gens(cl.sim, receiver(), sender())
    assert contents == b"ABCDEFGH"  # pure append, offsets ignored


def test_zero_byte_put_counts_op_on_managed_window(rvma_pair):
    cl = rvma_pair

    def receiver():
        node = cl.node(1)
        yield node.nic.hw_init_window(0x24, EpochType.EPOCH_OPS, BufferMode.MANAGED)
        buf = HostBuffer.allocate(node.memory, 16)
        notify, length_addr = _alloc_slot(node)
        yield node.nic.hw_post_buffer(0x24, buf, 1, notify, length_addr)
        yield node.waiter.wait_for_nonzero_u64(notify)
        return node.memory.read_u64(length_addr)

    def sender():
        yield 2000.0
        op = cl.node(0).nic.hw_put(1, 0x24, 0)
        yield op.local_done

    length, _ = run_gens(cl.sim, receiver(), sender())
    assert length == 0
