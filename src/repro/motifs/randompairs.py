"""Random-pairs motif: uniform random traffic (extension experiment).

Every rank sends ``msgs_per_rank`` messages to pseudo-randomly chosen
peers.  This is the communication shape of graph analytics, key-value
sharding and AMR regridding — and the starkest protocol contrast:

* **RVMA**: each rank exposes *one* mailbox; any peer may put to it
  anonymously.  The receiver sizes its bucket; transient overruns NACK
  and retry.  Senders need zero per-peer state.
* **RDMA**: every communicating (src, dst) pair needs a negotiated
  channel — registered region, descriptor exchange, and the per-message
  ready/ack/signal cycle.  Pair state grows with the traffic pattern.

The target assignment is deterministic in (seed, n, msgs_per_rank), so
both protocols move byte-identical traffic and receivers know their
expected in-degree.
"""

from __future__ import annotations

from collections import Counter
from typing import Generator

from ..cluster.builder import Cluster
from ..core.api import RvmaApi
from ..nic.lut import BufferMode, EpochType
from ..sim.process import AllOf, spawn
from .base import Motif, MotifResult
from .transfer import RvmaProtocol, TransferProtocol, mailbox_for

RP_TAG = 500
#: Shared-bucket depth each RVMA receiver maintains.
RP_BUCKET = 12
#: RDMA channel tags must be unique per (src, dst) pair (wr_id/mailbox
#: namespaces are per-channel); this caps the motif at ~240 ranks for
#: the RDMA flavour, plenty for its purpose.
MAX_RDMA_RANKS = 240


def assign_targets(n: int, msgs_per_rank: int, seed: int) -> dict[int, list[int]]:
    """Deterministic pseudo-random targets; never self."""
    out: dict[int, list[int]] = {}
    state = seed & 0xFFFFFFFF
    for rank in range(n):
        targets = []
        for j in range(msgs_per_rank):
            # xorshift32: portable, seed-stable, no RNG state shared
            # with the simulator's streams.
            state ^= (state << 13) & 0xFFFFFFFF
            state ^= state >> 17
            state ^= (state << 5) & 0xFFFFFFFF
            t = state % (n - 1)
            targets.append(t if t < rank else t + 1)
        out[rank] = targets
    return out


class RandomPairs(Motif):
    """Uniform random point-to-point traffic."""

    name = "randompairs"
    strict_nacks = False  # bucket overruns retry by design

    def __init__(
        self,
        cluster: Cluster,
        protocol: TransferProtocol,
        msgs_per_rank: int = 8,
        msg_bytes: int = 4096,
        pattern_seed: int = 0xD1CE,
    ) -> None:
        super().__init__(cluster, protocol)
        if cluster.n_nodes < 2:
            raise ValueError("random pairs needs at least two ranks")
        self.msgs_per_rank = msgs_per_rank
        self.msg_bytes = msg_bytes
        self.targets = assign_targets(cluster.n_nodes, msgs_per_rank, pattern_seed)
        #: per-destination expected in-degree (both protocols know this).
        self.in_degree = Counter(t for ts in self.targets.values() for t in ts)
        self.is_rvma = isinstance(protocol, RvmaProtocol)
        if not self.is_rvma and cluster.n_nodes > MAX_RDMA_RANKS:
            raise ValueError(
                f"RDMA random-pairs needs a unique tag per pair; "
                f"max {MAX_RDMA_RANKS} ranks"
            )
        #: RDMA pair state for reporting (the resource story).
        self.pairs = {(s, d) for s, ts in self.targets.items() for d in ts}

    def _pair_tag(self, src: int, dst: int) -> int:
        return RP_TAG + src * self.cluster.n_nodes + dst

    # --- RVMA: one anonymous mailbox per receiver -----------------------------------

    def _rvma_setup(self, rank: int) -> Generator:
        api: RvmaApi = self.protocol.api(self.cluster.node(rank))
        win = yield from api.init_window(
            mailbox_for(rank, RP_TAG), epoch_threshold=1,
            epoch_type=EpochType.EPOCH_OPS, mode=BufferMode.STEERED,
        )
        for _ in range(min(RP_BUCKET, max(1, self.in_degree[rank]))):
            yield from api.post_buffer(win, size=self.msg_bytes)
        return (api, win)

    def _rvma_run(self, rank: int, state) -> Generator:
        api, win = state

        def send_all():
            for target in self.targets[rank]:
                op = yield from api.put(
                    target, mailbox_for(target, RP_TAG), size=self.msg_bytes
                )
                yield op.local_done
                self.count_send(self.msg_bytes)

        def recv_all():
            for _ in range(self.in_degree[rank]):
                info = yield from api.wait_completion(win)
                yield from api.post_buffer(win, buffer=info.record.buffer)

        tx = spawn(self.sim, send_all(), f"rp-tx{rank}")
        rx = spawn(self.sim, recv_all(), f"rp-rx{rank}")
        yield AllOf([tx, rx])

    # --- RDMA: negotiated channel per communicating pair ----------------------------

    def _rdma_setup(self, rank: int) -> Generator:
        node = self.cluster.node(rank)
        recvs = {}
        for src in sorted({s for (s, d) in self.pairs if d == rank}):
            count = sum(1 for t in self.targets[src] if t == rank)
            recvs[src] = (
                (yield from self.protocol.recv_setup(
                    node, src, self._pair_tag(src, rank), self.msg_bytes, slots=1
                )),
                count,
            )
        sends = {}
        for dst in sorted(set(self.targets[rank])):
            sends[dst] = yield from self.protocol.send_setup(
                node, dst, self._pair_tag(rank, dst), self.msg_bytes
            )
        return (recvs, sends)

    def _rdma_run(self, rank: int, state) -> Generator:
        recvs, sends = state

        def drain(ep, count):
            for _ in range(count):
                yield from ep.recv()

        def feed(dst, ep):
            for t in self.targets[rank]:
                if t == dst:
                    yield from ep.send(self.msg_bytes)
                    self.count_send(self.msg_bytes)

        procs = [
            spawn(self.sim, drain(ep, count), f"rp-rx{rank}-{src}")
            for src, (ep, count) in recvs.items()
        ] + [
            spawn(self.sim, feed(dst, ep), f"rp-tx{rank}-{dst}")
            for dst, ep in sends.items()
        ]
        yield AllOf(procs)

    # --- plumbing -----------------------------------------------------------------------

    def setup_rank(self, rank: int) -> Generator:
        if self.is_rvma:
            return (yield from self._rvma_setup(rank))
        return (yield from self._rdma_setup(rank))

    def run_rank(self, rank: int, state) -> Generator:
        if self.is_rvma:
            yield from self._rvma_run(rank, state)
        else:
            yield from self._rdma_run(rank, state)

    def run(self) -> MotifResult:
        result = super().run()
        result.extras["pair_channels"] = 0 if self.is_rvma else len(self.pairs)
        result.extras["registered_regions"] = (
            0
            if self.is_rvma
            else sum(len(n.nic.mr_table) for n in self.cluster.nodes)
        )
        return result
