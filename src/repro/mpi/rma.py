"""MPI RMA over RVMA and RDMA (paper §IV-E/F).

The paper argues MPI's RMA epoch model maps *naturally* onto RVMA —
epochs are a hardware concept, fences need no receiver polling, and
retained epoch buffers enable ``MPIX_Rewind``.  This veneer makes that
concrete: an ``MPI_Win_allocate / MPI_Put / MPI_Get / MPI_Win_fence``
surface over either backend, with every synchronization built from
*real* simulated traffic (the tree collectives), so the two backends'
costs diverge exactly where the protocols do:

* **window allocation** — RDMA must allgather every rank's
  ``(addr, len, rkey)`` (3 u64s per rank through the reduction tree);
  RVMA mailboxes are derived from (rank, window id) and need nothing.
* **fence** — both sides allreduce per-target put counts; an RVMA
  receiver then installs the now-known count as the hardware threshold
  (``RVMA_Win_set_threshold``) and sleeps on its completion pointer,
  rotating to a fresh epoch buffer; RDMA relies on initiator-side ack
  fences and re-exposes the same static buffer.
* **MPIX_Rewind** — RVMA restores a previous epoch from the NIC's
  retained ring; on RDMA it raises: the buffer was overwritten in
  place, exactly the paper's §IV-F diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ..cluster.builder import Cluster
from ..collectives.tree import TreeComm
from ..core.api import RvmaApi
from ..memory.buffer import HostBuffer
from ..nic.lut import EpochType
from ..rdma.verbs import VerbsEndpoint
from ..motifs.transfer import RdmaProtocol, RvmaProtocol

#: Mailbox tag space for MPI windows (distinct from motif/collective tags).
WIN_TAG_BASE = 2000

#: Host memcpy bandwidth for the fence copy-forward / rewind restore
#: (bytes per ns; ~16 GB/s single-core stream).
MEMCPY_BPNS = 16.0

#: A threshold no realistic epoch reaches (before the fence installs
#: the real one).
OPEN_THRESHOLD = 2**62


class RewindUnsupportedError(RuntimeError):
    """MPIX_Rewind on an RDMA-backed window: the exposure buffer was
    overwritten in place, so no previous epoch exists to return to —
    the precise limitation the paper's multi-epoch buffers remove."""


def win_mailbox(rank: int, win_id: int) -> int:
    """Mailbox for rank's exposure window — derived, never exchanged."""
    return ((rank & 0xFFFFFFFF) << 16) | (WIN_TAG_BASE + win_id)


@dataclass
class _EpochLedger:
    """Outgoing-op bookkeeping for the current access epoch."""

    counts: list[int]
    pending: list = field(default_factory=list)  # ops awaiting local/ack completion

    def reset(self) -> None:
        self.counts = [0] * len(self.counts)
        self.pending = []


class MpiRma:
    """Factory/communicator for MPI-style windows on one cluster."""

    def __init__(self, cluster: Cluster, ring_depth: int = 4) -> None:
        if ring_depth < 2:
            raise ValueError("ring_depth must be >= 2 (current + 1 retained)")
        self.cluster = cluster
        self.backend = cluster.nic_type
        self.ring_depth = ring_depth
        self.n = cluster.n_nodes
        protocol = RvmaProtocol() if self.backend == "rvma" else RdmaProtocol()
        # Count vectors need n slots; the RDMA descriptor allgather 3n.
        self.comm = TreeComm(cluster, protocol, vector_slots=max(self.n, 3 * self.n))
        self._protocol = protocol

    def win_allocate(self, rank: int, size: int, win_id: int) -> Generator:
        """Collective: every rank calls this with the same *win_id*.

        Returns that rank's :class:`RankWindow`.
        """
        comm = yield from self.comm.setup(rank)
        win = RankWindow(self, rank, size, win_id, comm)
        yield from win._allocate()
        return win


class RankWindow:
    """One rank's view of an MPI RMA window."""

    def __init__(self, rma: MpiRma, rank: int, size: int, win_id: int, comm) -> None:
        self.rma = rma
        self.rank = rank
        self.size = size
        self.win_id = win_id
        self.comm = comm
        self.node = rma.cluster.node(rank)
        self.epoch = 0
        self.ledger = _EpochLedger(counts=[0] * rma.n)
        self.freed = False
        # backend state
        self._api: Optional[RvmaApi] = None
        self._win = None  # repro.core.window.Window
        self._ring: list[HostBuffer] = []
        self._verbs: Optional[VerbsEndpoint] = None
        self._local: Optional[HostBuffer] = None
        self._regions: dict[int, object] = {}  # RDMA: rank -> MemoryRegion

    # ------------------------------------------------------------------ allocate

    def _allocate(self) -> Generator:
        if self.rma.backend == "rvma":
            yield from self._allocate_rvma()
        else:
            yield from self._allocate_rdma()

    def _allocate_rvma(self) -> Generator:
        self._api = self.rma._protocol.api(self.node)
        self._win = yield from self._api.init_window(
            win_mailbox(self.rank, self.win_id),
            epoch_threshold=OPEN_THRESHOLD,
            epoch_type=EpochType.EPOCH_OPS,
        )
        for i in range(self.rma.ring_depth):
            buf = HostBuffer.allocate(self.node.memory, self.size, label=f"mpiwin{i}")
            self._ring.append(buf)
            yield from self._api.post_buffer(self._win, buffer=buf)
        self._local = self._ring[0]
        # Mailboxes are derived: nothing to exchange.  Synchronize so no
        # rank puts before every window exists.
        yield from self.rma.comm.barrier(self.comm)

    def _allocate_rdma(self) -> Generator:
        self._verbs = self.rma._protocol.verbs(self.node)
        self._local = HostBuffer.allocate(self.node.memory, self.size, label="mpiwin")
        region = yield from self._verbs.reg_mr(self._local)
        # Allgather (addr, len, rkey) of every rank through the tree:
        # each rank contributes its 3 slots of the 3n-vector; the sum of
        # one-hot contributions is the concatenated table.
        vector = [0] * (3 * self.rma.n)
        vector[3 * self.rank : 3 * self.rank + 3] = [region.addr, region.length, region.rkey]
        table = yield from self.rma.comm.allreduce_sum(self.comm, vector)
        from ..memory.buffer import MemoryRegion

        for r in range(self.rma.n):
            addr, length, rkey = table[3 * r : 3 * r + 3]
            self._regions[r] = MemoryRegion(addr=addr, length=length, rkey=rkey, node_id=r)

    # ------------------------------------------------------------------ RMA ops

    def put(self, target: int, data: bytes = b"", size: Optional[int] = None,
            disp: int = 0) -> Generator:
        """MPI_Put: nonblocking; completes at the next fence."""
        if self.freed:
            raise RuntimeError("window is freed")
        nbytes = size if size is not None else len(data)
        if disp + nbytes > self.size:
            raise ValueError(f"put [{disp}, +{nbytes}) beyond window of {self.size}B")
        if self.rma.backend == "rvma":
            op = yield from self._api.put(
                target, win_mailbox(target, self.win_id), data=data,
                size=nbytes, offset=disp,
            )
            self.ledger.pending.append(op.local_done)
        else:
            region = self._regions[target]
            op = yield from self._verbs.rdma_write(
                target, region, nbytes, data, offset=disp, signaled=False
            )
            self.ledger.pending.append(op.done)
        self.ledger.counts[target] += 1
        return op

    def get(self, target: int, length: int, disp: int = 0) -> Generator:
        """MPI_Get: blocking convenience; returns the fetched bytes."""
        dest = HostBuffer.allocate(self.node.memory, length, label="mpi-get")
        if self.rma.backend == "rvma":
            op = yield from self._api.get(
                target, win_mailbox(target, self.win_id), length, dest, offset=disp
            )
            ok = yield op.done
            if not ok:
                raise RuntimeError(f"MPI_Get from rank {target} failed")
        else:
            region = self._regions[target]
            op = self.node.nic.hw_read(target, region.addr + disp, region.rkey, length, dest)
            entry = yield op.done
            if not entry.ok:
                raise RuntimeError(f"MPI_Get from rank {target} failed")
        return dest.contents()

    # ------------------------------------------------------------------ fence

    def fence(self) -> Generator:
        """MPI_Win_fence: close the access+exposure epoch (collective)."""
        # 1. local/remote completion of everything we initiated.
        for fut in self.ledger.pending:
            yield fut
        # 2. learn how many ops targeted each rank this epoch.
        totals = yield from self.rma.comm.allreduce_sum(self.comm, self.ledger.counts)
        expected = totals[self.rank]
        if self.rma.backend == "rvma":
            yield from self._fence_rvma(expected)
        # RDMA: every sender held its ack fence before the allreduce, so
        # all data targeting us is already placed; the same static
        # buffer stays exposed (and no history is retained).
        self.ledger.reset()
        self.epoch += 1
        # Closing round: no rank may start the next access epoch until
        # every rank has rotated/closed its exposure epoch — otherwise a
        # fast neighbour's next-epoch put would land in this epoch's
        # buffer (the standard two-round MPI_Win_fence structure).
        yield from self.rma.comm.barrier(self.comm)
        return self.epoch

    def _fence_rvma(self, expected: int) -> Generator:
        api, win = self._api, self._win
        if expected > 0:
            # The once-unknown completion criterion is now known:
            # install it; hardware completes as soon as (possibly
            # already) the counter reaches it.
            ok = yield self.node.nic.hw_set_threshold(win.virtual_addr, expected)
            if not ok:
                raise RuntimeError("window has no active buffer at fence")
        else:
            yield from api.win_inc_epoch(win)
        info = yield from api.wait_completion(win)
        # Rotate: copy the completed state forward into the next epoch's
        # buffer so MPI window semantics (contents persist) hold, then
        # recycle the buffer rotating out of the retained ring.
        nxt = self._ring[(self.epoch + 1) % self.rma.ring_depth]
        data = info.record.buffer.contents()
        yield self.size / MEMCPY_BPNS
        nxt.write(0, data)
        self._local = nxt
        yield from api.post_buffer(self._win, buffer=info.record.buffer)

    # ------------------------------------------------------------------ rewind

    def rewind(self, epochs_back: int = 1) -> Generator:
        """MPIX_Rewind (paper §IV-F): restore a previous fence epoch.

        Returns the epoch number restored.  RDMA windows raise
        :class:`RewindUnsupportedError` — there is nothing to restore.
        """
        if self.rma.backend != "rvma":
            raise RewindUnsupportedError(
                "RDMA re-exposes one static buffer; previous epochs were "
                "overwritten in place (paper §IV-F)"
            )
        if epochs_back >= self.rma.ring_depth:
            raise ValueError(
                f"ring_depth {self.rma.ring_depth} retains at most "
                f"{self.rma.ring_depth - 1} epochs"
            )
        record = yield from self._api.rewind(self._win, epochs_back + 1)
        if record is None:
            raise RuntimeError(f"NIC no longer retains epoch {self.epoch - epochs_back}")
        data = self.node.memory.read(record.head_addr, record.length)
        yield len(data) / MEMCPY_BPNS
        if data:
            self._local.write(0, data.ljust(self.size, b"\x00")[: self.size])
        return record.epoch

    # ------------------------------------------------------------------ local access

    def read(self, disp: int = 0, length: Optional[int] = None) -> bytes:
        """Read the window's current contents (host memory)."""
        return self._local.read(disp, length if length is not None else self.size - disp)

    def write_local(self, disp: int, data: bytes) -> None:
        """Local store into the window (host memory)."""
        self._local.write(disp, data)

    def free(self) -> Generator:
        """MPI_Win_free: close the exposure window."""
        self.freed = True
        if self.rma.backend == "rvma":
            yield from self._api.close_win(self._win)
        else:
            yield self.node.nic.hw_dereg_mr(self._regions[self.rank].rkey)
        return None
