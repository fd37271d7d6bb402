"""Unit: active mailboxes — NIC-side compute-on-arrival (PR 9 tentpole).

Conformance-first: every handler-visible behaviour is checked against
its pure host-dispatch oracle — the word update against
:func:`apply_word_op`, the filter against
:meth:`PredicateFilter.matches`, and the KV scanner's served replies
against a host model replaying the same byte stream.  Plus the
straddle-resumable scanner state machine, attach validation, the
pending-write consistency protocol, and the journal-replay branch.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.core.api import RvmaApi
from repro.faults import FaultInjector
from repro.nic.active import (
    ActiveBinding,
    ActiveEffect,
    ActiveRegistry,
    AtomicWordHandler,
    KvServeHandler,
    PredicateFilter,
    apply_word_op,
)
from repro.nic.lut import EpochType
from repro.nic.rvma import RvmaNicConfig
from repro.observability import MetricsRegistry
from repro.recovery import InvariantAuditor, RecoveryConfig, RecoveryManager
from repro.reliability import ReliabilityConfig
from repro.services.wire import (
    OP_DELETE,
    OP_GET,
    OP_PUT,
    OP_SERVED,
    STATUS_HANDLER_FLAG,
    STATUS_OK,
    RequestDecoder,
    encode_reply,
    encode_request,
)
from repro.core.status import RvmaApiError

from tests.helpers import run_gens

# ------------------------------------------------------------------ pure oracles


def test_apply_word_op_oracle():
    add = AtomicWordHandler(op="add", operand=3)
    assert apply_word_op(10, add, 999) == (13, True)
    add_bytes = AtomicWordHandler(op="add_bytes")
    assert apply_word_op(10, add_bytes, 256) == (266, True)
    cas = AtomicWordHandler(op="cas", expect=10, update=77)
    assert apply_word_op(10, cas, 0) == (77, True)
    assert apply_word_op(11, cas, 0) == (11, False)  # expectation failed
    with pytest.raises(ValueError):
        AtomicWordHandler(op="xor")


def test_predicate_filter_oracle():
    flt = PredicateFilter(prefix=b"OK")
    assert flt.matches(b"OK-payload") and not flt.matches(b"no")
    inv = PredicateFilter(prefix=b"OK", invert=True)
    assert not inv.matches(b"OK-payload") and inv.matches(b"no")
    # Empty prefix matches everything (invert drops everything).
    assert PredicateFilter().matches(b"") is True


# ------------------------------------------------------------------ word handlers


def _word_window(api, mailbox, threshold, handler, etype=EpochType.EPOCH_BYTES, bufsize=None):
    win = yield from api.init_window(mailbox, epoch_threshold=threshold, epoch_type=etype)
    for _ in range(4):
        yield from api.post_buffer(win, size=bufsize or threshold)
    binding = yield from api.attach_handler(win, handler)
    return win, binding


def test_word_handler_matches_host_oracle(rvma_pair):
    """NIC word after N epochs == host folding apply_word_op N times."""
    cl = rvma_pair
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    handler = AtomicWordHandler(op="add_bytes", initial=5)
    lens = (64, 96, 32)

    def consumer():
        # One op per epoch, so the epoch length the handler sees is the
        # put size — that exercises add_bytes on unequal epochs.
        win, _ = yield from _word_window(
            api1, 0x9, 1, handler, etype=EpochType.EPOCH_OPS, bufsize=128
        )
        words = []
        for _ in lens:
            yield from api1.wait_completion(win)
            words.append((yield from api1.active_word(win)))
        return words

    def producer():
        yield 5_000.0
        for n in lens:
            op = yield from api0.put(1, 0x9, data=b"w" * n)
            yield op.local_done
            yield 3_000.0

    words, _ = run_gens(cl.sim, consumer(), producer())
    # Host oracle: same pure rule, folded over the same epoch lengths.
    oracle, expect = handler.initial, []
    for n in lens:
        oracle, applied = apply_word_op(oracle, handler, n)
        assert applied
        expect.append(oracle)
    assert words == expect == [69, 165, 197]
    reg = MetricsRegistry.collect(cl.sim)
    assert reg.counters["nic.rvma.active.word_ops"] == len(lens)
    assert reg.counters["nic.rvma.active.attached"] == 1
    assert reg.counters["nic.rvma.active.invocations"] == len(lens)
    assert reg.undocumented() == []


def test_cas_word_fires_once_then_fails(rvma_pair):
    cl = rvma_pair
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    handler = AtomicWordHandler(op="cas", expect=0, update=7)

    def consumer():
        win, _ = yield from _word_window(api1, 0xC, 32, handler)
        for _ in range(2):
            yield from api1.wait_completion(win)
        return (yield from api1.active_word(win))

    def producer():
        yield 5_000.0
        for _ in range(2):
            op = yield from api0.put(1, 0xC, data=b"c" * 32)
            yield op.local_done
            yield 2_000.0

    word, _ = run_gens(cl.sim, consumer(), producer())
    assert word == 7  # first epoch swapped; second CAS saw 7 != 0
    assert cl.node(1).nic.stat("nic.rvma.active.cas_failures").value == 1


def test_attach_validation(rvma_pair):
    cl = rvma_pair
    api1 = RvmaApi(cl.node(1))
    outcome = {}

    def driver():
        # Unknown mailbox refuses.
        win = yield from api1.init_window(0xE, epoch_threshold=64)
        fake = type(win)(node=win.node, virtual_addr=0xDEAD, key=0,
                         epoch_threshold=64, epoch_type=win.epoch_type,
                         mode=win.mode)
        try:
            yield from api1.attach_handler(fake, AtomicWordHandler())
        except RvmaApiError:
            outcome["unknown"] = True
        # One handler per kind per mailbox.
        yield from api1.attach_handler(win, AtomicWordHandler())
        try:
            yield from api1.attach_handler(win, AtomicWordHandler())
        except RvmaApiError:
            outcome["dup"] = True
        # KV handlers need a receiver-managed stream.
        try:
            yield from api1.attach_handler(win, KvServeHandler(hot_keys=(b"k",)))
        except RvmaApiError:
            outcome["steered_kv"] = True
        # A filter composes fine alongside the word handler.
        binding = yield from api1.attach_handler(win, PredicateFilter(prefix=b"x"))
        outcome["handlers"] = len(binding.handlers)

    run_gens(cl.sim, driver())
    assert outcome == {"unknown": True, "dup": True, "steered_kv": True, "handlers": 2}


# ------------------------------------------------------------------ filters


def test_filter_placement_matches_host_oracle(rvma_pair):
    """Placed payloads == host-side filter of the send stream."""
    cl = rvma_pair
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    flt = PredicateFilter(prefix=b"OK")
    slot = 32
    payloads = [
        (b"OK" + bytes([i]) * (slot - 2)) if i % 3 else (b"no" + bytes([i]) * (slot - 2))
        for i in range(6)
    ]
    passing = [p for p in payloads if flt.matches(p)]

    def consumer():
        win = yield from api1.init_window(0xF, epoch_threshold=len(passing) * slot)
        record = yield from api1.post_buffer(win, size=len(payloads) * slot)
        yield from api1.attach_handler(win, flt)
        yield from api1.wait_completion(win)
        return record.buffer.contents()

    def producer():
        yield 5_000.0
        for i, data in enumerate(payloads):
            op = yield from api0.put(1, 0xF, data=data, offset=i * slot)
            yield op.local_done
            yield 1_500.0

    contents, _ = run_gens(cl.sim, consumer(), producer())
    for i, data in enumerate(payloads):
        expect = data if flt.matches(data) else b"\x00" * slot
        assert contents[i * slot : (i + 1) * slot] == expect, f"slot {i}"
    nic1 = cl.node(1).nic
    assert nic1.stat("nic.rvma.active.filter_passed").value == len(passing)
    assert nic1.stat("nic.rvma.active.filtered_puts").value == len(payloads) - len(passing)
    reg = MetricsRegistry.collect(cl.sim)
    assert reg.counters["nic.rvma.nacks_filtered"] == len(payloads) - len(passing)
    # A FILTERED NACK is terminal for the initiator (no blind retry).
    assert cl.node(0).nic.stat("nic.rvma.put_retries").value == 0
    assert reg.undocumented() == []


# ------------------------------------------------------------------ KV scanner


class _Counter:
    def __init__(self):
        self.value = 0

    def add(self, n=1):
        self.value += n


class _StubBuf:
    """Duck-typed PostedBuffer.buffer: read/write over a bytearray."""

    def __init__(self, data: bytes):
        self.raw = bytearray(data)
        self.buffer = self

    def read(self, off, n):
        return bytes(self.raw[off : off + n])

    def write(self, off, data):
        self.raw[off : off + len(data)] = data


class _StubNic:
    """Just what _scan_and_serve touches: stats + reply injection."""

    def __init__(self):
        self.counters = {}
        self.injected = []

    def stat(self, name):
        return self.counters.setdefault(name, _Counter())

    def inject(self, dst, size, header, data=b"", mode=None, after=0.0):
        self.injected.append((dst, header.mailbox, bytes(data), after))


HOT = (b"hotkey",)
BASE = 0x4000


def _kv_binding(view=None):
    nic = _StubNic()
    reg = ActiveRegistry(nic)
    binding = ActiveBinding(
        mailbox=0x9, kv=KvServeHandler(hot_keys=HOT, reply_mailbox_base=BASE)
    )
    binding.kv_state.view.update(view or {})
    reg.bindings[0x9] = binding
    return nic, reg, binding


def _scan_chunks(reg, binding, chunks):
    served_offsets = []
    out_chunks = []
    for chunk in chunks:
        buf = _StubBuf(chunk)
        served = []
        reg._scan_and_serve(binding, buf, len(chunk), served, 0.0)
        served_offsets.append(tuple(served))
        out_chunks.append(bytes(buf.raw))
    return served_offsets, out_chunks


def _host_oracle(chunks, view):
    """Host-dispatch twin: decode the raw stream, serve hot GETs."""
    dec = RequestDecoder()
    replies = []
    for chunk in chunks:
        for req in dec.feed(chunk):
            if req.op == OP_GET and req.key in HOT and req.key in view:
                replies.append(
                    encode_reply(STATUS_OK | STATUS_HANDLER_FLAG, req.req_id, view[req.key])
                )
    return replies


def test_scanner_serves_hot_get_byte_identical_to_oracle():
    view = {b"hotkey": b"the-value"}
    nic, reg, binding = _kv_binding(view)
    client_id = (3 << 8) | 1
    chunk = (
        encode_request(OP_GET, client_id, 11, b"hotkey")
        + encode_request(OP_GET, client_id, 12, b"coldkey")
        + encode_request(OP_GET, client_id, 13, b"hotkey")
    )
    served, out = _scan_chunks(reg, binding, [chunk])
    # Both hot GETs tombstoned in place, frame lengths untouched.
    assert len(served[0]) == 2
    dec = RequestDecoder()
    survivors = dec.feed(out[0])
    assert [(r.op, r.key) for r in survivors] == [(OP_GET, b"coldkey")]
    for off in served[0]:
        assert out[0][off] == OP_SERVED
    # Injected replies byte-identical to the host-dispatch oracle,
    # routed to (node 3, reply mailbox base + client_id).
    expect = _host_oracle([chunk], view)
    assert [d for (_dst, _mb, d, _t) in nic.injected] == expect
    assert all(dst == 3 and mb == BASE + client_id for (dst, mb, _d, _t) in nic.injected)
    assert nic.stat("nic.rvma.active.served").value == 2
    assert nic.stat("nic.rvma.active.passed_cold").value == 0  # coldkey is not hot


def test_scanner_pending_writes_gate_serving():
    """The consistency protocol: a scanned write parks its key until the
    host syncs; shed writes un-park without touching the view."""
    view = {b"hotkey": b"v0"}
    nic, reg, binding = _kv_binding(view)
    get = encode_request(OP_GET, 0x0101, 1, b"hotkey")
    put = encode_request(OP_PUT, 0x0101, 2, b"hotkey", b"v1")
    _scan_chunks(reg, binding, [get + put + get])
    # First GET served (clean); the one after the PUT passed to host.
    assert nic.stat("nic.rvma.active.served").value == 1
    assert nic.stat("nic.rvma.active.passed_dirty").value == 1
    # Host executes the write and syncs: serving resumes with new bytes.
    assert reg.kv_sync(0x9, b"hotkey", value=b"v1")
    _scan_chunks(reg, binding, [encode_request(OP_GET, 0x0101, 3, b"hotkey")])
    assert nic.injected[-1][2] == encode_reply(STATUS_OK | STATUS_HANDLER_FLAG, 3, b"v1")
    # Shed path: pending decremented, view untouched, key not wedged.
    _scan_chunks(reg, binding, [encode_request(OP_DELETE, 0x0101, 4, b"hotkey")])
    assert reg.kv_sync(0x9, b"hotkey", executed=False)
    assert binding.kv_state.view[b"hotkey"] == b"v1"
    assert not binding.kv_state.pending
    # Floor at zero: an unpaired post-crash sync is absorbed silently.
    assert reg.kv_sync(0x9, b"hotkey", value=b"v2")
    assert binding.kv_state.view[b"hotkey"] == b"v2"


@pytest.mark.parametrize("cut", ["header", "key", "value"])
def test_scanner_straddling_frames_resume_and_never_serve(cut):
    """A frame split across epochs is classified in stream order but
    never served; the stream re-syncs exactly at the next frame."""
    view = {b"hotkey": b"val"}
    nic, reg, binding = _kv_binding(view)
    straddler = encode_request(OP_PUT, 0x0101, 1, b"hotkey", b"body-bytes")
    cuts = {"header": 5, "key": 17 + 3, "value": 17 + 6 + 4}
    k = cuts[cut]
    tail_get = encode_request(OP_GET, 0x0101, 2, b"hotkey")
    chunks = [straddler[:k], straddler[k:] + tail_get]
    _scan_chunks(reg, binding, chunks)
    # The straddling PUT was pending-counted exactly once, so the GET
    # behind it must pass to the host (dirty), not serve stale bytes.
    assert binding.kv_state.pending == {b"hotkey": 1}
    assert nic.stat("nic.rvma.active.served").value == 0
    assert nic.stat("nic.rvma.active.passed_dirty").value == 1
    assert not binding.kv_state.carry and binding.kv_state.skip == 0
    # After the sync the stream position is clean again.
    reg.kv_sync(0x9, b"hotkey", value=b"new")
    _scan_chunks(reg, binding, [encode_request(OP_GET, 0x0101, 3, b"hotkey")])
    assert nic.injected[-1][2] == encode_reply(STATUS_OK | STATUS_HANDLER_FLAG, 3, b"new")


def test_scanner_conformance_random_streams():
    """Byte-for-byte oracle over randomized chunkings of a mixed stream."""
    import random

    rnd = random.Random(0xAC71)
    for trial in range(20):
        view = {b"hotkey": bytes(rnd.randrange(256) for _ in range(rnd.randrange(1, 40)))}
        nic, reg, binding = _kv_binding(view)
        frames = []
        for req_id in range(12):
            roll = rnd.random()
            if roll < 0.6:
                key = b"hotkey" if rnd.random() < 0.7 else b"cold%d" % req_id
                frames.append(encode_request(OP_GET, 0x0101, req_id, key))
            else:
                # Writes on cold keys only: the oracle below has no
                # pending model, and hot writes are covered above.
                frames.append(
                    encode_request(OP_PUT, 0x0101, req_id, b"cold%d" % req_id, b"x" * rnd.randrange(20))
                )
        stream = b"".join(frames)
        # Random chunk boundaries, including mid-frame cuts.
        chunks, pos = [], 0
        while pos < len(stream):
            n = min(rnd.randrange(5, 60), len(stream) - pos)
            chunks.append(stream[pos : pos + n])
            pos += n
        _scan_chunks(reg, binding, chunks)
        got = [d for (_dst, _mb, d, _t) in nic.injected]
        # Oracle counts only *whole-frame* hot GETs: straddlers are
        # passed to the host by design, so drop them from the oracle.
        starts, pos = [], 0
        for f in frames:
            starts.append(pos)
            pos += len(f)
        bounds = set()
        acc = 0
        for c in chunks:
            acc += len(c)
            bounds.add(acc)
        expect = []
        for f, s in zip(frames, starts):
            contained = not any(s < b < s + len(f) for b in bounds)
            if contained:
                for r in _host_oracle([f], view):
                    expect.append(r)
        assert got == expect, f"trial {trial}"


def test_replay_branch_reasserts_effects_without_reserving():
    """Journal-hit epochs re-apply word + tombstones and inject nothing."""

    class _Journal:
        def __init__(self, effect):
            self.effect = effect
            self.noted = []

        def active_effect(self, mailbox, epoch):
            return self.effect

        def note_active_effect(self, mailbox, epoch, effect):
            self.noted.append(effect)

    class _Spans:
        active = False

        def wants(self, _c):
            return False

    get = encode_request(OP_GET, 0x0101, 9, b"hotkey")
    nic, reg, binding = _kv_binding({b"hotkey": b"v"})
    nic.op_journal = _Journal(ActiveEffect(word=42, served=(0,)))
    nic.sim = type("S", (), {"spans": _Spans()})()
    binding.word_handler = AtomicWordHandler(op="add")

    class _Entry:
        mailbox = 0x9
        epoch = 0
        active = _StubBuf(get)

    _Entry.active.bytes_received = len(get)
    cost = reg.on_epoch_complete(_Entry)
    assert cost > 0
    assert binding.word == 42  # journaled value, not initial+1
    assert _Entry.active.raw[0] == OP_SERVED  # tombstone re-asserted
    assert nic.injected == []  # no duplicate reply
    assert nic.stat("nic.rvma.active.replayed").value == 1
    assert nic.op_journal.noted == []  # replay never re-journals


# ------------------------------------------------------------------ crash-restart


def test_word_handler_survives_crash_restart():
    """End-to-end: attach journaled, crash destroys the binding, rejoin
    re-attaches cold and replayed epochs re-assert journaled words — the
    final word equals the fault-free oracle, auditor clean."""
    rel = ReliabilityConfig(retransmit_timeout=8_000.0, max_backoff=50_000.0, max_retries=10)
    cl = Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="flow",
        nic_config=RvmaNicConfig(reliability=rel),
    )
    aud = InvariantAuditor().attach(cl)
    mgr = RecoveryManager(
        cl, RecoveryConfig(checkpoint_interval_ns=5_000.0, horizon_ns=400_000.0)
    ).start()
    inj = FaultInjector(cl)
    mgr.arm(inj)
    inj.crash_restart(1, 23_000.0, 60_000.0)
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    size, epochs = 512, 6
    handler = AtomicWordHandler(op="add_bytes")

    def producer():
        yield 5_000.0
        for step in range(epochs):
            op = yield from api0.put(1, 0x9, data=bytes([step]) * size)
            yield op.local_done
            yield 7_000.0

    def consumer():
        win = yield from api1.init_window(0x9, epoch_threshold=size)
        for _ in range(epochs):
            yield from api1.post_buffer(win, size=size)
        yield from api1.attach_handler(win, handler)
        for _ in range(epochs):
            yield from api1.wait_completion(win)
        return (yield from api1.active_word(win))

    _, word = run_gens(cl.sim, producer(), consumer())
    assert word == epochs * size  # the fault-free oracle value
    nic1 = cl.node(1).nic
    assert nic1.incarnation == 1
    assert nic1.stat("nic.rvma.active.attached").value >= 2  # original + cold re-attach
    assert nic1.stat("nic.rvma.active.replayed").value >= 1
    report = aud.report()
    assert report["ok"], report["violations"]
