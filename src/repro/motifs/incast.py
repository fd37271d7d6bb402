"""Incast motif: many clients, one server (the paper's §I motivation).

RDMA forces a many-to-one server to dedicate a registered buffer (and a
handshake, and per-transfer coordination) to *every* client for an
unbounded time.  RVMA lets all clients target one mailbox whose bucket
the server replenishes at its own pace — receiver-side resource
management.  This motif measures total completion time and reports the
resource footprint difference (dedicated regions vs shared bucket).
"""

from __future__ import annotations

from typing import Generator

from ..cluster.builder import Cluster
from ..core.api import RvmaApi
from ..nic.lut import BufferMode, EpochType
from ..sim.process import AllOf, spawn
from .base import Motif, MotifResult
from .transfer import RvmaProtocol, TransferProtocol, mailbox_for

SERVER_RANK = 0
INCAST_TAG = 77
#: Shared-bucket depth the RVMA server maintains.
BUCKET_DEPTH = 16


class Incast(Motif):
    """All ranks > 0 send ``msgs_per_client`` messages to rank 0."""

    name = "incast"
    # Bucket underruns are expected under incast pressure; clients retry.
    strict_nacks = False

    def __init__(
        self,
        cluster: Cluster,
        protocol: TransferProtocol,
        msgs_per_client: int = 4,
        msg_bytes: int = 4096,
    ) -> None:
        super().__init__(cluster, protocol)
        if cluster.n_nodes < 2:
            raise ValueError("incast needs a server and at least one client")
        self.msgs_per_client = msgs_per_client
        self.msg_bytes = msg_bytes
        self.is_rvma = isinstance(protocol, RvmaProtocol)

    # --- RVMA flavour: one mailbox, shared bucket --------------------------------

    def _rvma_server_setup(self) -> Generator:
        api: RvmaApi = self.protocol.api(self.cluster.node(SERVER_RANK))
        win = yield from api.init_window(
            mailbox_for(SERVER_RANK, INCAST_TAG),
            epoch_threshold=1,
            epoch_type=EpochType.EPOCH_OPS,
            mode=BufferMode.STEERED,
        )
        for _ in range(BUCKET_DEPTH):
            yield from api.post_buffer(win, size=self.msg_bytes)
        return (api, win)

    def _rvma_server_run(self, state) -> Generator:
        api, win = state
        expected = (self.cluster.n_nodes - 1) * self.msgs_per_client
        for _ in range(expected):
            info = yield from api.wait_completion(win)
            yield from api.post_buffer(win, buffer=info.record.buffer)

    def _rvma_client_run(self, rank: int) -> Generator:
        api: RvmaApi = self.protocol.api(self.cluster.node(rank))
        mailbox = mailbox_for(SERVER_RANK, INCAST_TAG)
        for _ in range(self.msgs_per_client):
            op = yield from api.put(SERVER_RANK, mailbox, size=self.msg_bytes)
            yield op.local_done
            self.count_send(self.msg_bytes)

    # --- RDMA flavour: a dedicated channel per client ------------------------------

    def _rdma_server_setup(self) -> Generator:
        node = self.cluster.node(SERVER_RANK)
        recvs = {}
        for client in range(1, self.cluster.n_nodes):
            recvs[client] = yield from self.protocol.recv_setup(
                node, client, INCAST_TAG, self.msg_bytes, slots=1
            )
        return recvs

    def _rdma_server_run(self, recvs) -> Generator:
        # Drain every client channel concurrently; each message needs the
        # ready/write/ack/signal cycle on its dedicated buffer.
        def drain(ep):
            for _ in range(self.msgs_per_client):
                yield from ep.recv()

        procs = [
            spawn(self.sim, drain(ep), f"incast-drain{c}") for c, ep in recvs.items()
        ]
        yield AllOf(procs)

    def _rdma_client_run(self, rank: int, send_ep) -> Generator:
        for _ in range(self.msgs_per_client):
            yield from send_ep.send(self.msg_bytes)
            self.count_send(self.msg_bytes)

    # --- Motif plumbing ---------------------------------------------------------------

    def setup_rank(self, rank: int) -> Generator:
        if self.is_rvma:
            if rank == SERVER_RANK:
                return (yield from self._rvma_server_setup())
            if False:  # pragma: no cover - keeps this a generator
                yield None
            return None
        if rank == SERVER_RANK:
            return (yield from self._rdma_server_setup())
        return (
            yield from self.protocol.send_setup(
                self.cluster.node(rank), SERVER_RANK, INCAST_TAG, self.msg_bytes
            )
        )

    def run_rank(self, rank: int, state) -> Generator:
        if rank == SERVER_RANK:
            if self.is_rvma:
                yield from self._rvma_server_run(state)
            else:
                yield from self._rdma_server_run(state)
        else:
            if self.is_rvma:
                yield from self._rvma_client_run(rank)
            else:
                yield from self._rdma_client_run(rank, state)

    def run(self) -> MotifResult:
        result = super().run()
        server = self.cluster.node(SERVER_RANK)
        if self.is_rvma:
            result.extras["server_buffers"] = BUCKET_DEPTH
            result.extras["server_regions"] = 0
        else:
            result.extras["server_buffers"] = self.cluster.n_nodes - 1
            result.extras["server_regions"] = len(server.nic.mr_table)
        return result
