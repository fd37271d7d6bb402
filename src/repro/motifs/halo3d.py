"""Halo3D motif: nearest-neighbour face exchange on a 3-D grid (Fig 8).

Each rank owns a block of a 3-D domain and swaps face ghost cells with
up to six neighbours every iteration, with all sends/recvs in flight
concurrently (nonblocking-exchange style) before a compute step.
Face messages are medium-to-large, so Halo3D is bandwidth-leaning —
protocol overhead still shows (the paper's 1.57x average) but less than
for Sweep3D, and it grows as links get faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..cluster.builder import Cluster
from ..sim.process import AllOf, spawn
from .base import Motif
from .transfer import TransferProtocol

#: (axis index, direction) for the six faces; tags must be distinct per
#: direction so X+ traffic never lands in the X- channel.
FACES = [(0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)]

#: All 26 neighbour offsets of a 3-D block (faces, edges, corners).
OFFSETS_26 = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]
_OFFSET_INDEX = {off: i for i, off in enumerate(OFFSETS_26)}


def face_tag(axis: int, sign: int) -> int:
    return 10 + axis * 2 + (0 if sign > 0 else 1)


def offset_tag(offset: tuple[int, int, int]) -> int:
    """Distinct channel tag per 26-neighbourhood direction."""
    return 40 + _OFFSET_INDEX[offset]


def _negate(offset: tuple[int, int, int]) -> tuple[int, int, int]:
    return (-offset[0], -offset[1], -offset[2])


@dataclass
class _HaloState:
    recvs: dict  # offset -> RecvEndpoint
    sends: dict  # offset -> SendEndpoint


class Halo3D(Motif):
    """Ghost exchange on a 3-D grid (paper's Halo3D motif).

    ``neighbours=6`` exchanges the faces only (the paper's evaluated
    pattern); ``neighbours=26`` adds edges and corners, with message
    sizes scaled by the physical ghost-region geometry: a face carries
    ``msg_bytes``, an edge ``msg_bytes / edge_divisor``, a corner
    ``msg_bytes / corner_divisor`` (cells scale like n², n·g, g² for
    ghost width g).
    """

    name = "halo3d"

    def __init__(
        self,
        cluster: Cluster,
        protocol: TransferProtocol,
        grid: Optional[tuple[int, int, int]] = None,
        iterations: int = 10,
        msg_bytes: int = 32 * 1024,
        compute_ns: float = 1000.0,
        neighbours: int = 6,
        edge_divisor: int = 32,
        corner_divisor: int = 1024,
    ) -> None:
        super().__init__(cluster, protocol)
        if neighbours not in (6, 26):
            raise ValueError("neighbours must be 6 (faces) or 26 (full stencil)")
        n = cluster.n_nodes
        if grid is None:
            grid = _near_cubic_grid(n)
        gx, gy, gz = grid
        if gx * gy * gz != n:
            raise ValueError(f"grid {grid} does not tile {n} ranks")
        self.grid = grid
        self.iterations = iterations
        self.msg_bytes = msg_bytes
        self.compute_ns = compute_ns
        self.neighbours = neighbours
        self.edge_bytes = max(1, msg_bytes // edge_divisor)
        self.corner_bytes = max(1, msg_bytes // corner_divisor)

    def _offset_bytes(self, offset: tuple[int, int, int]) -> int:
        order = sum(1 for c in offset if c != 0)
        if order == 1:
            return self.msg_bytes
        if order == 2:
            return self.edge_bytes
        return self.corner_bytes

    def _offsets(self) -> list[tuple[int, int, int]]:
        if self.neighbours == 6:
            return [
                tuple(sign if i == axis else 0 for i in range(3))
                for axis, sign in FACES
            ]
        return OFFSETS_26

    def _rank_at_offset(self, rank: int, offset: tuple[int, int, int]) -> Optional[int]:
        x, y, z = self.coords(rank)
        return self.rank_of((x + offset[0], y + offset[1], z + offset[2]))

    def coords(self, rank: int) -> tuple[int, int, int]:
        """Grid coordinates of *rank* (x fastest)."""
        gx, gy, _gz = self.grid
        return rank % gx, (rank // gx) % gy, rank // (gx * gy)

    def rank_of(self, c: tuple[int, int, int]) -> Optional[int]:
        """Rank at grid coordinate *c*, or None outside the grid."""
        gx, gy, gz = self.grid
        x, y, z = c
        if 0 <= x < gx and 0 <= y < gy and 0 <= z < gz:
            return x + y * gx + z * gx * gy
        return None

    def _tag(self, offset: tuple[int, int, int]) -> int:
        if self.neighbours == 6:
            axis = next(i for i, c in enumerate(offset) if c != 0)
            return face_tag(axis, offset[axis])
        return offset_tag(offset)

    def setup_rank(self, rank: int) -> Generator:
        node = self.cluster.node(rank)
        st = _HaloState({}, {})
        # A neighbour at *offset* sends to us tagged with its own
        # outgoing direction — the negated offset from our view.
        for offset in self._offsets():
            nb = self._rank_at_offset(rank, offset)
            if nb is None:
                continue
            size = self._offset_bytes(offset)
            st.recvs[offset] = yield from self.protocol.recv_setup(
                node, nb, self._tag(_negate(offset)), size, slots=3
            )
            st.sends[offset] = yield from self.protocol.send_setup(
                node, nb, self._tag(offset), size
            )
        return st

    def run_rank(self, rank: int, st: _HaloState) -> Generator:
        for _it in range(self.iterations):
            procs = []
            for offset, send_ep in st.sends.items():
                size = self._offset_bytes(offset)
                procs.append(spawn(self.sim, send_ep.send(size), "tx"))
                self.count_send(size)
            for offset, recv_ep in st.recvs.items():
                procs.append(spawn(self.sim, recv_ep.recv(), "rx"))
            yield AllOf(procs)
            if self.compute_ns > 0:
                yield self.compute_ns


def _near_cubic_grid(n: int) -> tuple[int, int, int]:
    """Factor *n* ranks into the most cubic (gx, gy, gz) available."""
    best = (1, 1, n)
    best_score = float("inf")
    x = 1
    while x * x * x <= n:
        if n % x == 0:
            rem = n // x
            y = x
            while y * y <= rem:
                if rem % y == 0:
                    z = rem // y
                    # Total pairwise imbalance: prefers (2,2,4) over (1,4,4).
                    score = (z - x) + (z - y) + (y - x)
                    if score < best_score:
                        best_score = score
                        best = (x, y, z)
                y += 1
        x += 1
    return best
