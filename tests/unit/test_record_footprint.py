"""Per-window, per-buffer and per-op records cost only their fields.

The simulator makes one of these records per mailbox, per posted buffer
or per operation, so a per-instance ``__dict__``, an empty ``deque`` or
a waiter list nobody uses is paid thousands of times per run.
"""

import sys

import pytest

from repro.core import RvmaApi
from repro.core.window import CompletionInfo, PostedRecord, alloc_notification_slot
from repro.memory.buffer import HostBuffer, PostedBuffer
from repro.memory.memory import NodeMemory
from repro.nic.cq import CqEntry, CqKind
from repro.nic.lut import BufferMode, EpochType, MailboxEntry, MailboxLUT, RetiredBuffer
from repro.nic.rdma import RdmaOp
from repro.sim.engine import Simulator
from repro.sim.process import AllOf, Future, SimProcess

from tests.helpers import run_gens


def _posted(mem, size=64):
    buf = HostBuffer.allocate(mem, size)
    return PostedBuffer(buffer=buf, notification_addr=0, length_addr=8, threshold=size)


def _records():
    mem, sim = NodeMemory(), Simulator()
    pb = _posted(mem)
    rec = PostedRecord(buffer=pb.buffer, posted=pb, notification_addr=0, length_addr=8)

    def idle():
        yield 0.0

    return {
        "PostedBuffer": pb,
        "RetiredBuffer": RetiredBuffer(head_addr=pb.buffer.addr, length=8, epoch=0, buffer=pb),
        "MailboxEntry": MailboxEntry(0x10, EpochType.EPOCH_BYTES, BufferMode.STEERED),
        "PostedRecord": rec,
        "CompletionInfo": CompletionInfo(head_addr=pb.buffer.addr, length=8, record=rec),
        "CqEntry": CqEntry(CqKind.RECV, op_id=1),
        "RdmaOp": RdmaOp(op_id=1, kind=CqKind.WRITE_DONE, dst=0, size=8, done=Future(sim)),
        "SimProcess": SimProcess(sim, idle()),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_record_has_no_instance_dict(name):
    record = _records()[name]
    assert not hasattr(record, "__dict__"), f"{name} carries a per-instance __dict__"


def test_empty_mailbox_entry_costs_lists_not_deques():
    entry = MailboxEntry(0x10, EpochType.EPOCH_BYTES, BufferMode.STEERED)
    empty = sys.getsizeof([])
    assert sys.getsizeof(entry.queue) == sys.getsizeof(entry.retired) == empty


def test_empty_completion_and_receive_queues_cost_one_list_each(rdma_pair):
    nic = rdma_pair.node(0).nic
    empty = sys.getsizeof([])
    assert sys.getsizeof(nic.cq.entries) == sys.getsizeof(nic.cq._consumers) == empty
    assert sys.getsizeof(nic.recv_queue) == empty


def test_posted_buffer_recovery_and_span_fields_stay_out_of_its_interface():
    mem = NodeMemory()
    a, b = _posted(mem), _posted(mem)
    b.buffer = a.buffer
    assert (a.replay_boundary, a._obs_span) == (False, None)
    b.replay_boundary, b._obs_span = True, object()
    assert a == b
    assert "replay_boundary" not in repr(b) and "_obs_span" not in repr(b)
    with pytest.raises(TypeError):
        PostedBuffer(buffer=a.buffer, notification_addr=0, length_addr=8,
                     threshold=8, replay_boundary=True)


# --- Future waiters ---------------------------------------------------------------


def test_future_without_waiters_holds_the_empty_tuple():
    sim = Simulator()
    fut = Future(sim)
    assert fut._waiters == () and type(fut._waiters) is tuple
    fut.resolve(1)
    assert fut._waiters == () and type(fut._waiters) is tuple


def test_resolved_future_drops_its_waiter_list():
    sim = Simulator()
    single, joint, other = Future(sim), Future(sim), Future(sim)
    seen = []

    def one():
        seen.append((yield single))

    def both():
        seen.append((yield AllOf([joint, other])))

    SimProcess(sim, one())
    SimProcess(sim, both())
    sim.run()
    assert [len(f._waiters) for f in (single, joint, other)] == [1, 1, 1]
    for i, fut in enumerate((single, joint, other)):
        fut.resolve(i)
        assert fut._waiters == () and type(fut._waiters) is tuple
    sim.run()
    assert seen == [0, [1, 2]]


# --- notification lines -------------------------------------------------------------


def test_fresh_notification_line_reads_zero_without_backing_bytes():
    mem = NodeMemory()
    notify, length_addr = alloc_notification_slot(mem)
    assert mem.find(notify)._data is None
    assert (mem.read_u64(notify), mem.read_u64(length_addr)) == (0, 0)


def test_line_materializes_only_when_the_nic_completes(rvma_pair):
    cl = rvma_pair
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    mem = cl.node(1).memory
    seen = {}

    def receiver():
        win = yield from api1.init_window(0x120, epoch_threshold=8)
        first = yield from api1.post_buffer(win, size=8)
        seen["posted"] = mem.find(first.notification_addr)._data is None
        yield from api1.wait_completion(win)
        seen["completed"] = mem.read_u64(first.notification_addr)
        again = yield from api1.post_buffer(win, buffer=first.buffer)
        seen["reposted"] = (mem.read_u64(again.notification_addr),
                            mem.read_u64(again.length_addr))
        yield from api1.wait_completion(win)
        return first, again

    def sender():
        yield 2000.0
        for _ in range(2):
            op = yield from api0.put(1, 0x120, data=b"8 bytes!")
            yield op.local_done
            yield 20000.0

    (first, again), _ = run_gens(cl.sim, receiver(), sender())
    assert seen["posted"] is True
    assert seen["completed"] == first.buffer.addr
    assert again.notification_addr == first.notification_addr
    assert seen["reposted"] == (0, 0)


# --- the bucket and the rewind ring ------------------------------------------------


def test_reopened_window_starts_with_empty_bucket_and_ring():
    mem = NodeMemory()
    lut = MailboxLUT()
    entry = lut.init_entry(0x40, EpochType.EPOCH_BYTES)
    for _ in range(3):
        lut.post(entry, _posted(mem))
    lut.retire_active(entry)
    entry.closed = True
    again = lut.init_entry(0x40, EpochType.EPOCH_OPS)
    assert again is entry
    assert again.queue == [] and again.retired == []
    assert again.active is None and lut.rewind(again, 1) is None


def test_rewind_ring_is_bounded_and_keeps_the_newest_epochs():
    mem = NodeMemory()
    lut = MailboxLUT(retain_epochs=3)
    entry = lut.init_entry(0x41, EpochType.EPOCH_BYTES)
    posted = [_posted(mem) for _ in range(7)]
    for pb in posted:
        lut.post(entry, pb)
    for n in range(1, 8):
        lut.retire_active(entry)
        assert len(entry.retired) == min(n, 3)
    for back in (1, 2, 3):
        record = lut.rewind(entry, back)
        assert record.epoch == 7 - back
        assert record.buffer is posted[7 - back]
        assert record.head_addr == posted[7 - back].buffer.addr
    assert lut.rewind(entry, 4) is None
