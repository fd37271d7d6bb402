"""Unit tests for the host memory substrate."""

import gc

import pytest

from repro.memory import (
    CACHE_LINE,
    GEN6,
    HostBuffer,
    MemoryFault,
    MemoryRegion,
    MemoryWaiter,
    MWAIT,
    NodeMemory,
    PAPER_SIM,
    PcieBus,
    POLL,
    align_down,
    align_up,
    cache_line_of,
    is_aligned,
    same_cache_line,
)
from repro.sim import Simulator, spawn


# --- address helpers -----------------------------------------------------------


def test_alignment_helpers():
    assert align_up(0x1001, 64) == 0x1040
    assert align_up(0x1000, 64) == 0x1000
    assert align_down(0x107F, 64) == 0x1040
    assert is_aligned(0x1000, 64) and not is_aligned(0x1001, 64)
    assert cache_line_of(0x1039) == 0x1000
    assert same_cache_line(0x1000, 0x103F)
    assert not same_cache_line(0x103F, 0x1040)


def test_alignment_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        align_up(10, 3)
    with pytest.raises(ValueError):
        align_down(10, 0)


# --- NodeMemory -----------------------------------------------------------------


def test_alloc_write_read_roundtrip():
    mem = NodeMemory()
    a = mem.alloc(128, label="buf")
    mem.write(a.base + 10, b"hello")
    assert mem.read(a.base + 10, 5) == b"hello"
    assert mem.read(a.base, 4) == b"\x00" * 4


def test_allocations_are_aligned_and_disjoint():
    mem = NodeMemory()
    allocs = [mem.alloc(100, align=CACHE_LINE) for _ in range(10)]
    for a in allocs:
        assert a.base % CACHE_LINE == 0
    spans = sorted((a.base, a.end) for a in allocs)
    for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert e1 <= s2


def test_access_outside_allocation_faults():
    mem = NodeMemory()
    a = mem.alloc(64)
    with pytest.raises(MemoryFault):
        mem.read(a.end, 1)
    with pytest.raises(MemoryFault):
        mem.write(a.base + 60, b"12345")  # crosses the end
    with pytest.raises(MemoryFault):
        mem.read(0x10, 1)  # below all allocations


def test_zero_length_access_is_noop():
    mem = NodeMemory()
    mem.alloc(16)
    mem.write(0xDEAD, b"")  # no fault: nothing written
    assert mem.read(0xDEAD, 0) == b""


def test_u64_roundtrip_and_fill():
    mem = NodeMemory()
    a = mem.alloc(64)
    mem.write_u64(a.base, 0xDEADBEEF12345678)
    assert mem.read_u64(a.base) == 0xDEADBEEF12345678
    mem.fill(a.base, 8, 0xAB)
    assert mem.read(a.base, 8) == b"\xab" * 8


def test_watchpoint_fires_on_overlap_only():
    mem = NodeMemory()
    a = mem.alloc(256)
    hits = []
    mem.add_watchpoint(a.base + 64, 64, lambda addr, data: hits.append((addr, data)))
    mem.write(a.base, b"x" * 10)  # below range
    mem.write(a.base + 200, b"y")  # above range
    assert hits == []
    mem.write(a.base + 100, b"z" * 4)  # inside
    mem.write(a.base + 60, b"w" * 8)  # straddles start
    assert len(hits) == 2


def test_watchpoint_removal():
    mem = NodeMemory()
    a = mem.alloc(64)
    hits = []
    token = mem.add_watchpoint(a.base, 64, lambda *args: hits.append(args))
    mem.write(a.base, b"1")
    mem.remove_watchpoint(token)
    mem.remove_watchpoint(token)  # idempotent
    mem.write(a.base, b"2")
    assert len(hits) == 1


def test_lazy_backing_storage():
    mem = NodeMemory()
    a = mem.alloc(1 << 20)
    assert a._data is None  # no bytearray until written
    assert mem.read(a.base + 100, 8) == bytes(8)
    assert a._data is None  # reads never create backing
    mem.write(a.base, b"x")
    assert len(a._data) == 1  # backed to the highest byte written
    mem.write(a.base + 1, b"yz")  # an append at the mark
    mem.write(a.base, b"X")  # an overwrite below it
    assert len(a._data) == 3
    assert mem.read(a.base, 3) == b"Xyz"


def test_unwritten_and_partly_written_ranges_read_as_zeros():
    mem = NodeMemory()
    a = mem.alloc(64)
    b = mem.alloc(64)
    assert mem.read(a.base, 64) == bytes(64)
    mem.write(b.base, b"abcd")
    assert mem.read(b.base + 2, 6) == b"cd" + bytes(4)  # straddles the mark
    assert mem.read(b.base + 10, 4) == bytes(4)  # wholly past it
    assert mem.read_u64(b.base + 56) == 0
    assert mem.bytes_read == 64 + 6 + 4 + 8
    assert len(b._data) == 4 and a._data is None


def test_gap_write_zero_fills_and_overlap_extends():
    mem = NodeMemory()
    a = mem.alloc(64)
    mem.write(a.base + 10, b"ab")  # past the mark: zeros before it
    assert bytes(a._data) == bytes(10) + b"ab"
    mem.write(a.base + 11, b"XYZ")  # overlaps the mark and runs past it
    assert bytes(a._data) == bytes(10) + b"aXYZ"
    mem.write(a.base + 30, b"q")
    assert len(a._data) == 31
    assert mem.read(a.base, 32) == bytes(10) + b"aXYZ" + bytes(16) + b"q" + bytes(1)
    mem.fill(a.base + 60, 4, 0xEE)  # up to the allocation's last byte
    assert len(a._data) == 64 and mem.read(a.base + 56, 8) == bytes(4) + b"\xee" * 4
    assert mem.bytes_written == 2 + 3 + 1 + 4
    with pytest.raises(MemoryFault):
        mem.write(a.base + 63, b"xy")  # bounds are the allocation's, not the backing's


def test_watchpoints_fire_on_gap_writes_and_appends():
    mem = NodeMemory()
    a = mem.alloc(256)
    hits = []
    mem.add_watchpoint(a.base + 64, 8, lambda addr, data: hits.append((addr, data)))
    mem.write(a.base, b"head")  # an append, below the range
    mem.write(a.base + 66, b"gap")  # past the mark, inside the range
    mem.write(a.base + 69, b"append")  # at the mark, straddling the range end
    mem.write(a.base + 100, b"far")  # past the mark, above the range
    mem.write(a.base + 60, b"straddle")  # below the mark, straddling the start
    assert hits == [
        (a.base + 66, b"gap"), (a.base + 69, b"append"), (a.base + 60, b"straddle")
    ]


def test_accounting_counters():
    mem = NodeMemory()
    a = mem.alloc(64)
    mem.write(a.base, b"abcd")
    mem.read(a.base, 2)
    assert mem.bytes_written == 4 and mem.bytes_read == 2


# --- HostBuffer / MemoryRegion ----------------------------------------------------


def test_host_buffer_bounds_checks():
    mem = NodeMemory()
    buf = HostBuffer.allocate(mem, 32)
    buf.write(0, b"a" * 32)
    assert buf.contents() == b"a" * 32
    with pytest.raises(ValueError):
        buf.write(30, b"xyz")
    with pytest.raises(ValueError):
        buf.read(0, 33)
    with pytest.raises(ValueError):
        buf.read(-1, 2)


def test_memory_region_contains():
    mr = MemoryRegion(addr=0x1000, length=0x100, rkey=7, node_id=0)
    assert mr.contains(0x1000, 0x100)
    assert mr.contains(0x10FF, 1)
    assert not mr.contains(0x10FF, 2)
    assert not mr.contains(0xFFF, 1)


# --- MWait / polling ---------------------------------------------------------------


def test_wait_for_write_wakes_with_model_delay():
    sim = Simulator()
    mem = NodeMemory()
    a = mem.alloc(64)
    waiter = MemoryWaiter(sim, mem)

    def proc():
        addr = yield waiter.wait_for_write(a.base, MWAIT)
        return (addr, sim.now)

    p = spawn(sim, proc())
    sim.schedule(100.0, mem.write, a.base, b"x")
    sim.run()
    addr, when = p.result
    assert addr == a.base
    assert when == pytest.approx(100.0 + MWAIT.wake_latency)


def test_wait_for_nonzero_u64_ignores_zero_writes():
    sim = Simulator()
    mem = NodeMemory()
    a = mem.alloc(64)
    waiter = MemoryWaiter(sim, mem)

    def proc():
        value = yield waiter.wait_for_nonzero_u64(a.base, MWAIT)
        return value

    p = spawn(sim, proc())
    sim.schedule(10.0, mem.write_u64, a.base, 0)  # spurious
    sim.schedule(20.0, mem.write_u64, a.base, 0xABC)
    sim.run()
    assert p.result == 0xABC


def test_wait_for_nonzero_u64_already_set():
    sim = Simulator()
    mem = NodeMemory()
    a = mem.alloc(64)
    mem.write_u64(a.base, 5)
    waiter = MemoryWaiter(sim, mem)

    def proc():
        value = yield waiter.wait_for_nonzero_u64(a.base)
        return value

    p = spawn(sim, proc())
    sim.run()
    assert p.result == 5


def test_wait_for_byte_sentinel():
    sim = Simulator()
    mem = NodeMemory()
    a = mem.alloc(64)
    waiter = MemoryWaiter(sim, mem)

    def proc():
        yield waiter.wait_for_byte(a.base + 63, 7, POLL)
        return sim.now

    p = spawn(sim, proc())
    sim.schedule(10.0, mem.write, a.base + 63, b"\x05")  # wrong value
    sim.schedule(30.0, mem.write, a.base + 63, b"\x07")
    sim.run()
    assert p.result == pytest.approx(30.0 + POLL.delay_after_store())


# Each wait: (arm it at a base address, an unrelated store that must
# leave it armed, the store that ends it, the value it resolves with).
# Stores are (offset, bytes) into one 128-byte allocation: two cache
# lines.  A write wait resolves with the store's address.
WAITS = {
    "write": (lambda w, base: w.wait_for_write(base + 8),
              (64, b"x"), (0, b"y"), lambda base: base),
    "byte": (lambda w, base: w.wait_for_byte(base + 63, 7),
             (63, b"\x05"), (63, b"\x07"), lambda base: 7),
    "nonzero_u64": (lambda w, base: w.wait_for_nonzero_u64(base + 8),
                    (16, b"\x01"), (8, (0xABC).to_bytes(8, "little")), lambda base: 0xABC),
}


def _run_wait(kind):
    """Arm *kind* on a fresh memory, store unrelated then matching bytes,
    then store to the line once more after the wait resolved."""
    arm, unrelated, matching, value = WAITS[kind]
    sim, mem = Simulator(), NodeMemory()
    base = mem.alloc(128).base
    fut = arm(MemoryWaiter(sim, mem), base)
    states = []
    for at, (offset, data) in ((10.0, unrelated), (20.0, matching), (30.0, matching)):
        sim.schedule(at, mem.write, base + offset, data)
        sim.run()
        states.append((fut.done, len(mem._watchpoints)))
    return fut, value(base), states, (sim, mem)


@pytest.mark.parametrize("kind", sorted(WAITS))
def test_wait_resolves_once_with_its_value(kind):
    fut, value, states, _ = _run_wait(kind)
    assert fut.value == value
    # Armed across the unrelated store, disarmed by the matching one,
    # and a later store to the line finds nothing to resolve again.
    assert states == [(False, 1), (True, 0), (True, 0)]


@pytest.mark.parametrize("kind", sorted(WAITS))
def test_resolved_wait_leaves_no_cycle(kind):
    gc.collect()
    gc.disable()
    try:
        fut, _, _, _alive = _run_wait(kind)
        assert fut.done
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_poll_model_costs_more_idle_overhead_than_mwait():
    assert POLL.delay_after_store() > MWAIT.delay_after_store() - MWAIT.wake_latency
    assert MWAIT.delay_after_store() == MWAIT.wake_latency


# --- PCIe -----------------------------------------------------------------------


def test_pcie_generations_ordered():
    assert GEN6.latency < PAPER_SIM.latency


def test_pcie_bus_transactions():
    bus = PcieBus(PAPER_SIM)
    assert bus.transaction_time() == PAPER_SIM.latency
    assert bus.round_trip() == 2 * PAPER_SIM.latency
    t = bus.transaction_time(size_bytes=int(PAPER_SIM.bandwidth * 100))
    assert t == pytest.approx(PAPER_SIM.latency + 100.0)
    assert bus.transactions == 2
