"""Sweep3D motif: KBA wavefront sweeps over a 2-D process grid (Fig 7).

The classic S\\ :sub:`n` transport sweep: ranks form a ``px x py``
grid; for each of 8 octants a wavefront of dependencies crosses the
grid corner-to-corner, in ``kb`` pipelined k-blocks.  A rank receives
its upstream X and Y halves, computes, and forwards downstream.  The
critical path is ``(px + py + kb)`` pipeline stages of *small* messages
— which is why Sweep3D is latency-bound and amplifies per-transfer
protocol overhead (the paper's 4.4x headline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..cluster.builder import Cluster
from .base import Motif
from .transfer import TransferProtocol

#: Octant sweep directions over the 2-D grid: (sx, sy), each appearing
#: twice (the two z directions share the 2-D wavefront pattern).
OCTANT_DIRS = [(1, 1), (1, -1), (-1, 1), (-1, -1)] * 2

#: Channel tags by axis and direction sign.
TAG_X_POS, TAG_X_NEG, TAG_Y_POS, TAG_Y_NEG = 1, 2, 3, 4


def _tag(axis: str, sign: int) -> int:
    if axis == "x":
        return TAG_X_POS if sign > 0 else TAG_X_NEG
    return TAG_Y_POS if sign > 0 else TAG_Y_NEG


@dataclass
class _SweepState:
    recv_x: dict  # sign -> RecvEndpoint from upstream x neighbour
    recv_y: dict
    send_x: dict  # sign -> SendEndpoint to downstream x neighbour
    send_y: dict


class Sweep3D(Motif):
    """Pipelined wavefront exchange (paper's Sweep3D motif)."""

    name = "sweep3d"

    def __init__(
        self,
        cluster: Cluster,
        protocol: TransferProtocol,
        px: Optional[int] = None,
        py: Optional[int] = None,
        kb: int = 8,
        msg_bytes: int = 2048,
        compute_ns: float = 200.0,
    ) -> None:
        super().__init__(cluster, protocol)
        n = cluster.n_nodes
        if px is None or py is None:
            px = 1
            for d in range(int(n**0.5), 0, -1):
                if n % d == 0:
                    px = d
                    break
            py = n // px
        if px * py != n:
            raise ValueError(f"px*py={px * py} != n_nodes={n}")
        self.px, self.py = px, py
        self.kb = kb
        self.msg_bytes = msg_bytes
        self.compute_ns = compute_ns

    def coords(self, rank: int) -> tuple[int, int]:
        """(x, y) position of *rank* on the process grid."""
        return rank % self.px, rank // self.px

    def rank_of(self, x: int, y: int) -> Optional[int]:
        """Rank at (x, y), or None outside the grid."""
        if 0 <= x < self.px and 0 <= y < self.py:
            return y * self.px + x
        return None

    # In-flight bound per channel: one octant's kb blocks may overrun
    # into the next same-direction octant before the receiver drains.
    @property
    def _slots(self) -> int:
        return 2 * self.kb + 1

    def setup_rank(self, rank: int) -> Generator:
        x, y = self.coords(rank)
        node = self.cluster.node(rank)
        st = _SweepState({}, {}, {}, {})
        for sign in (1, -1):
            up_x = self.rank_of(x - sign, y)
            if up_x is not None:
                st.recv_x[sign] = yield from self.protocol.recv_setup(
                    node, up_x, _tag("x", sign), self.msg_bytes, self._slots
                )
            down_x = self.rank_of(x + sign, y)
            if down_x is not None:
                st.send_x[sign] = yield from self.protocol.send_setup(
                    node, down_x, _tag("x", sign), self.msg_bytes
                )
            up_y = self.rank_of(x, y - sign)
            if up_y is not None:
                st.recv_y[sign] = yield from self.protocol.recv_setup(
                    node, up_y, _tag("y", sign), self.msg_bytes, self._slots
                )
            down_y = self.rank_of(x, y + sign)
            if down_y is not None:
                st.send_y[sign] = yield from self.protocol.send_setup(
                    node, down_y, _tag("y", sign), self.msg_bytes
                )
        return st

    def run_rank(self, rank: int, st: _SweepState) -> Generator:
        for sx, sy in OCTANT_DIRS:
            for _k in range(self.kb):
                rx = st.recv_x.get(sx)
                if rx is not None:
                    yield from rx.recv()
                ry = st.recv_y.get(sy)
                if ry is not None:
                    yield from ry.recv()
                if self.compute_ns > 0:
                    yield self.compute_ns
                tx = st.send_x.get(sx)
                if tx is not None:
                    yield from tx.send(self.msg_bytes)
                    self.count_send(self.msg_bytes)
                ty = st.send_y.get(sy)
                if ty is not None:
                    yield from ty.send(self.msg_bytes)
                    self.count_send(self.msg_bytes)
