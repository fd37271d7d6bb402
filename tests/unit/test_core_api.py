"""Unit tests for the user-facing RVMA API (paper §III-C surface)."""

import pytest

from repro.core import (
    BufferMode,
    EpochType,
    RvmaApi,
    RvmaApiError,
    RvmaStatus,
)
from repro.memory.buffer import HostBuffer
from repro.memory.mwait import POLL

from tests.helpers import run_gen, run_gens


def _apis(cluster):
    return RvmaApi(cluster.node(0)), RvmaApi(cluster.node(1))


def test_init_window_returns_handle(rvma_pair):
    api0, api1 = _apis(rvma_pair)

    def proc():
        win = yield from api1.init_window(0x100, epoch_threshold=64)
        return win

    win = run_gen(rvma_pair.sim, proc())
    assert win.virtual_addr == 0x100
    assert win.epoch_type is EpochType.EPOCH_BYTES
    assert win.key != 0
    assert win.buffers_outstanding == 0


def test_init_window_validates_threshold(rvma_pair):
    _, api1 = _apis(rvma_pair)
    with pytest.raises(RvmaApiError):
        next(api1.init_window(0x100, epoch_threshold=0))


def test_init_window_lut_exhaustion_surfaces_status(rvma_pair):
    _, api1 = _apis(rvma_pair)
    api1.nic.lut.max_entries = 1

    def proc():
        yield from api1.init_window(0x1, epoch_threshold=8)
        yield from api1.init_window(0x2, epoch_threshold=8)

    with pytest.raises(RvmaApiError) as exc:
        run_gen(rvma_pair.sim, proc())
    assert exc.value.status is RvmaStatus.ERR_NO_RESOURCES


def test_post_buffer_allocates_or_wraps(rvma_pair):
    _, api1 = _apis(rvma_pair)

    def proc():
        win = yield from api1.init_window(0x101, epoch_threshold=32)
        rec1 = yield from api1.post_buffer(win, size=32)
        own = HostBuffer.allocate(api1.node.memory, 64)
        rec2 = yield from api1.post_buffer(win, buffer=own)
        return win, rec1, rec2, own

    win, rec1, rec2, own = run_gen(rvma_pair.sim, proc())
    assert rec1.buffer.size == 32
    assert rec2.buffer is own
    assert win.buffers_outstanding == 2
    # Notification slots are distinct cache lines, zeroed.
    assert rec1.notification_addr != rec2.notification_addr
    assert rec1.length_addr == rec1.notification_addr + 8


def test_post_buffer_argument_validation(rvma_pair):
    _, api1 = _apis(rvma_pair)

    def both():
        win = yield from api1.init_window(0x102, epoch_threshold=8)
        buf = HostBuffer.allocate(api1.node.memory, 8)
        yield from api1.post_buffer(win, size=8, buffer=buf)

    with pytest.raises(RvmaApiError):
        run_gen(rvma_pair.sim, both())


def test_post_buffer_threshold_exceeding_buffer_rejected(rvma_pair):
    _, api1 = _apis(rvma_pair)

    def proc():
        win = yield from api1.init_window(0x103, epoch_threshold=128)
        yield from api1.post_buffer(win, size=64)  # 128B threshold > 64B buffer

    with pytest.raises(RvmaApiError):
        run_gen(rvma_pair.sim, proc())


def test_put_wait_completion_roundtrip(rvma_pair):
    cl = rvma_pair
    api0, api1 = _apis(cl)
    payload = b"roundtrip!" * 10

    def receiver():
        win = yield from api1.init_window(0x104, epoch_threshold=len(payload))
        yield from api1.post_buffer(win, size=len(payload))
        info = yield from api1.wait_completion(win)
        return info

    def sender():
        yield 2000.0
        op = yield from api0.put(1, 0x104, data=payload)
        yield op.local_done

    info, _ = run_gens(cl.sim, receiver(), sender())
    assert info.length == len(payload)
    assert info.read_data() == payload


def test_wait_completion_with_poll_model(rvma_pair):
    cl = rvma_pair
    api0, api1 = _apis(cl)

    def receiver():
        win = yield from api1.init_window(0x105, epoch_threshold=8)
        yield from api1.post_buffer(win, size=8)
        info = yield from api1.wait_completion(win, POLL)
        return info.length

    def sender():
        yield 2000.0
        yield from api0.put(1, 0x105, data=b"12345678")

    length, _ = run_gens(cl.sim, receiver(), sender())
    assert length == 8


def test_wait_completion_without_posted_buffer_raises(rvma_pair):
    _, api1 = _apis(rvma_pair)

    def proc():
        win = yield from api1.init_window(0x106, epoch_threshold=8)
        yield from api1.wait_completion(win)

    with pytest.raises(IndexError):
        run_gen(rvma_pair.sim, proc())


def test_win_get_buf_ptrs_harvests_completed_only(rvma_pair):
    cl = rvma_pair
    api0, api1 = _apis(cl)

    def receiver():
        win = yield from api1.init_window(0x107, epoch_threshold=8)
        for _ in range(3):
            yield from api1.post_buffer(win, size=8)
        yield 25000.0  # two puts arrive, third buffer stays incomplete
        return win, api1.win_get_buf_ptrs(win, count=10)

    def sender():
        yield 2000.0
        for _ in range(2):
            op = yield from api0.put(1, 0x107, size=8)
            yield op.local_done
            yield 3000.0

    (win, ptrs), _ = run_gens(cl.sim, receiver(), sender())
    assert len(ptrs) == 2
    assert ptrs[0] == win.posted[0].buffer.addr
    assert ptrs[1] == win.posted[1].buffer.addr
    # count limits the harvest
    assert len(api1.win_get_buf_ptrs(win, count=1)) == 1


def test_win_get_epoch_and_inc_epoch(rvma_pair):
    cl = rvma_pair
    api0, api1 = _apis(cl)

    def receiver():
        win = yield from api1.init_window(0x108, epoch_threshold=100)
        yield from api1.post_buffer(win, size=100)
        e0 = yield from api1.win_get_epoch(win)
        status = yield from api1.win_inc_epoch(win)
        e1 = yield from api1.win_get_epoch(win)
        return e0, status, e1

    e0, status, e1 = run_gen(cl.sim, receiver())
    assert (e0, e1) == (0, 1)
    assert status is RvmaStatus.SUCCESS


def test_inc_epoch_with_empty_bucket(rvma_pair):
    _, api1 = _apis(rvma_pair)

    def proc():
        win = yield from api1.init_window(0x109, epoch_threshold=8)
        status = yield from api1.win_inc_epoch(win)
        return status

    assert run_gen(rvma_pair.sim, proc()) is RvmaStatus.ERR_NO_BUFFER


def test_close_win_discards_future_puts(rvma_pair):
    cl = rvma_pair
    api0, api1 = _apis(cl)

    def receiver():
        win = yield from api1.init_window(0x10A, epoch_threshold=8)
        yield from api1.post_buffer(win, size=8)
        status = yield from api1.close_win(win)
        return win, status

    def sender():
        yield 5000.0
        op = yield from api0.put(1, 0x10A, size=8)
        yield op.local_done
        yield 5000.0
        return op

    (win, status), op = run_gens(cl.sim, receiver(), sender())
    assert status is RvmaStatus.SUCCESS and win.closed
    assert op.nacked is not None


def test_get_api(rvma_pair):
    cl = rvma_pair
    api0, api1 = _apis(cl)

    def receiver():
        win = yield from api1.init_window(0x10B, epoch_threshold=64)
        rec = yield from api1.post_buffer(win, size=64)
        rec.buffer.write(0, b"S" * 64)

    def getter():
        yield 3000.0
        op = yield from api0.get(1, 0x10B, length=64)
        ok = yield op.done
        return ok

    _, ok = run_gens(cl.sim, receiver(), getter())
    assert ok is True


def test_rewind_api(rvma_pair):
    cl = rvma_pair
    api0, api1 = _apis(cl)

    def receiver():
        win = yield from api1.init_window(0x10C, epoch_threshold=16)
        yield from api1.post_buffer(win, size=16)
        yield from api1.post_buffer(win, size=16)
        yield from api1.wait_completion(win)
        record = yield from api1.rewind(win, 1)
        return record

    def sender():
        yield 2000.0
        yield from api0.put(1, 0x10C, data=b"F" * 16)

    record, _ = run_gens(cl.sim, receiver(), sender())
    assert record is not None and record.length == 16


def test_api_requires_rvma_nic(rdma_pair):
    with pytest.raises(TypeError):
        RvmaApi(rdma_pair.node(0))


def test_put_negative_args_rejected(rvma_pair):
    api0, _ = _apis(rvma_pair)
    with pytest.raises(RvmaApiError):
        next(api0.put(1, 0x1, size=-5))


# --- retention: consumed postings and notification lines -----------------------


def _line(api, record):
    mem = api.node.memory
    return mem.read_u64(record.notification_addr), mem.read_u64(record.length_addr)


def test_win_get_buf_ptrs_skips_consumed_buffers(rvma_pair):
    cl = rvma_pair
    api0, api1 = _apis(cl)

    def receiver():
        win = yield from api1.init_window(0x110, epoch_threshold=8)
        first = yield from api1.post_buffer(win, size=8)
        second = yield from api1.post_buffer(win, size=8)
        yield from api1.wait_completion(win)
        # Re-arm the consumed buffer; a harvest must not hand it out
        # while the NIC may refill it.
        yield from api1.post_buffer(win, buffer=first.buffer)
        yield 25000.0  # the second put completes the second buffer
        return win, first, second

    def sender():
        yield 2000.0
        for _ in range(2):
            op = yield from api0.put(1, 0x110, size=8)
            yield op.local_done
            yield 3000.0

    (win, first, second), _ = run_gens(cl.sim, receiver(), sender())
    assert api1.win_get_buf_ptrs(win, count=10) == [second.buffer.addr]
    assert win.consumed == 1 and win.buffers_outstanding == 2
    assert [r.buffer for r in win.posted] == [second.buffer, first.buffer]


def test_reposting_consumed_buffer_reuses_zeroed_line(rvma_pair):
    cl = rvma_pair
    api0, api1 = _apis(cl)
    seen = {}

    def receiver():
        win = yield from api1.init_window(0x111, epoch_threshold=8)
        first = yield from api1.post_buffer(win, size=8)
        yield from api1.wait_completion(win)
        seen["completed"] = _line(api1, first)
        again = yield from api1.post_buffer(win, buffer=first.buffer)
        seen["reposted"] = _line(api1, again)
        info = yield from api1.wait_completion(win)
        return first, again, info

    def sender():
        yield 2000.0
        for _ in range(2):
            op = yield from api0.put(1, 0x111, data=b"8 bytes!")
            yield op.local_done
            yield 20000.0

    (first, again, info), _ = run_gens(cl.sim, receiver(), sender())
    assert again.notification_addr == first.notification_addr
    assert again.length_addr == first.length_addr
    assert seen["completed"] == (first.buffer.addr, 8)
    assert seen["reposted"] == (0, 0)
    assert (info.head_addr, info.length) == (first.buffer.addr, 8)
    assert info.read_data() == b"8 bytes!"


def test_buffer_posted_twice_unconsumed_gets_two_lines(rvma_pair):
    _, api1 = _apis(rvma_pair)

    def proc():
        win = yield from api1.init_window(0x112, epoch_threshold=8)
        buf = HostBuffer.allocate(api1.node.memory, 8)
        one = yield from api1.post_buffer(win, buffer=buf)
        two = yield from api1.post_buffer(win, buffer=buf)
        return one, two

    one, two = run_gen(rvma_pair.sim, proc())
    assert one.buffer is two.buffer
    assert one.notification_addr != two.notification_addr
    assert _line(api1, one) == _line(api1, two) == (0, 0)
