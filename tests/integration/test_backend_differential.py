"""Differential backend suite: RVMA vs RDMA-verbs vs UCX, byte-for-byte.

The three protocol adapters ride completely different software stacks
(mailbox puts, registered-region writes with ready/ack/signal, UCP tag
matching) over the same fabric model.  For every traffic motif and
pinned seed, all three must deliver *byte-identical* payload sequences
and identical completion counts — any divergence is a protocol-adapter
bug, not a modelling choice.

Patterns are deliberately tiny (4 nodes, a handful of messages, <=512B)
so the matrix (3 backends x 3 patterns x 5 seeds x 2 engine modes)
stays cheap.
"""

import pytest

from repro.cluster import Cluster
from repro.motifs import RdmaProtocol, RvmaProtocol, UcxProtocol, assign_targets
from repro.network.routing import RoutingMode
from repro.sim.process import spawn

N_NODES = 4
MAX_MSG = 512
SEEDS = (11, 23, 37, 41, 59)

BACKENDS = {
    "rvma": lambda: RvmaProtocol(mode=RoutingMode.STATIC),
    "verbs": lambda: RdmaProtocol(mode=RoutingMode.STATIC),
    "ucx": lambda: UcxProtocol(mode=RoutingMode.STATIC),
}

PATTERNS = ("transfer", "randompairs", "incast")


def _channels(pattern: str, seed: int) -> dict[tuple[int, int], int]:
    """{(src, dst): n_msgs} for the pattern; deterministic in seed."""
    if pattern == "transfer":
        return {(0, 1): 4}
    if pattern == "incast":
        return {(s, 0): 2 for s in range(1, N_NODES)}
    targets = assign_targets(N_NODES, 3, seed)
    out: dict[tuple[int, int], int] = {}
    for src, dsts in targets.items():
        for dst in dsts:
            out[(src, dst)] = out.get((src, dst), 0) + 1
    return out


def _size(seed: int, src: int, dst: int, i: int) -> int:
    return 64 + ((src * 13 + dst * 7 + i * 29 + seed) % (MAX_MSG - 64))


def _payload(seed: int, src: int, dst: int, i: int) -> bytes:
    size = _size(seed, src, dst, i)
    base = src * 31 + dst * 17 + i * 3 + seed
    return bytes((base + j) % 256 for j in range(size))


def _run_pattern(factory, pattern: str, seed: int):
    """One backend, one pattern, one seed.  Returns (delivered, counts)."""
    proto = factory()
    cluster = Cluster.build(
        n_nodes=N_NODES, topology="star", nic_type=proto.nic_type,
        fidelity="flow", seed=seed,
    )
    delivered: dict[tuple, bytes] = {}
    counts: dict[tuple, int] = {}
    channels = _channels(pattern, seed)
    tags = {ch: 100 + k for k, ch in enumerate(sorted(channels))}

    def receiver(src, dst, tag, n_msgs):
        ep = yield from proto.recv_setup(
            cluster.nodes[dst], src, tag, MAX_MSG, slots=n_msgs
        )
        for i in range(n_msgs):
            data = yield from ep.recv_data(_size(seed, src, dst, i))
            delivered[(pattern, src, dst, i)] = data
        counts[(src, dst)] = ep.received

    def sender(src, dst, tag, n_msgs):
        ep = yield from proto.send_setup(cluster.nodes[src], dst, tag, MAX_MSG)
        for i in range(n_msgs):
            payload = _payload(seed, src, dst, i)
            yield from ep.send(len(payload), payload)

    procs = []
    for (src, dst), n_msgs in sorted(channels.items()):
        tag = tags[(src, dst)]
        procs.append(spawn(cluster.sim, receiver(src, dst, tag, n_msgs), f"recv-{src}-{dst}"))
        procs.append(spawn(cluster.sim, sender(src, dst, tag, n_msgs), f"send-{src}-{dst}"))
    cluster.sim.run(until=50_000_000.0)
    stuck = [p.name for p in procs if not p.finished]
    assert not stuck, f"{proto.name}/{pattern}/seed={seed} stalled: {stuck}"
    return delivered, counts


@pytest.mark.parametrize("seed", SEEDS)
def test_backends_deliver_identical_bytes(seed):
    """All three backends: byte-identical payloads, identical counts."""
    results = {}
    for name, factory in BACKENDS.items():
        delivered: dict[tuple, bytes] = {}
        counts: dict[tuple, tuple] = {}
        for pattern in PATTERNS:
            d, c = _run_pattern(factory, pattern, seed)
            delivered.update(d)
            counts.update({(pattern, *k): v for k, v in c.items()})
        results[name] = (delivered, counts)

    # Ground truth: every delivered message matches the generator.
    base_delivered, base_counts = results["rvma"]
    for (pattern, src, dst, i), data in base_delivered.items():
        assert data == _payload(seed, src, dst, i), (pattern, src, dst, i)

    for name in ("verbs", "ucx"):
        got_delivered, got_counts = results[name]
        assert got_delivered == base_delivered, f"{name} diverged from rvma"
        assert got_counts == base_counts, f"{name} completion counts diverged"


def test_channel_matrix_covers_expected_shapes():
    """The pattern generator itself: full coverage, no self-sends."""
    for seed in SEEDS:
        for pattern in PATTERNS:
            ch = _channels(pattern, seed)
            assert ch, pattern
            assert all(src != dst for src, dst in ch)
            total = sum(ch.values())
            if pattern == "transfer":
                assert total == 4
            elif pattern == "incast":
                assert set(dst for _, dst in ch) == {0} and total == 6
            else:
                assert total == N_NODES * 3  # every rank sends 3
