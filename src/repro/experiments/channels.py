"""Channel driver: point-to-point byte streams over one protocol backend.

The protocol-backend differentials (the scenario fuzzer's
``differential`` oracle and trace-frame replay) push the same payloads
through RVMA, verbs and UCX wire stacks and demand identical delivery.
:func:`run_channels` is their shared harness: one receiver and one
sender process per channel, a bounded run, and the delivered bytes.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..cluster.builder import Cluster
from ..motifs import RdmaProtocol, RvmaProtocol, UcxProtocol
from ..network.routing import RoutingMode
from ..sim.process import spawn

BACKENDS = {
    "rvma": RvmaProtocol,
    "verbs": RdmaProtocol,
    "ucx": UcxProtocol,
}


def run_channels(
    backend: str,
    channels: list,
    n_nodes: int,
    topology: str,
    seed: int,
    max_msg: int,
    deadline_ns: float,
    before_run: Optional[Callable] = None,
) -> tuple:
    """Drive *channels* through *backend*; returns ``(delivered, counts, stalled, cluster)``.

    Each channel is ``(key, src, dst, tag, payloads)``.  ``delivered``
    maps ``(key, i)`` to the i-th payload's received bytes, ``counts``
    maps *key* to the messages the receiver endpoint counted, and
    ``stalled`` is true when some endpoint had not finished by
    *deadline_ns*.  *before_run*, when given, is called with the built
    cluster just before the simulator starts (the scenario runner turns
    spans on and opens its scenario span there).
    """
    proto = BACKENDS[backend](mode=RoutingMode.STATIC)
    cluster = Cluster.build(
        n_nodes=n_nodes, topology=topology, nic_type=proto.nic_type, fidelity="flow", seed=seed,
    )
    delivered: dict = {}
    counts: dict = {}

    def receiver(key, src, dst, tag, payloads):
        ep = yield from proto.recv_setup(cluster.nodes[dst], src, tag, max_msg, slots=len(payloads))
        for i, payload in enumerate(payloads):
            delivered[(key, i)] = yield from ep.recv_data(len(payload))
        counts[key] = ep.received

    def sender(src, dst, tag, payloads):
        ep = yield from proto.send_setup(cluster.nodes[src], dst, tag, max_msg)
        for payload in payloads:
            yield from ep.send(len(payload), payload)

    procs = []
    for key, src, dst, tag, payloads in channels:
        procs.append(spawn(cluster.sim, receiver(key, src, dst, tag, payloads), f"r{src}-{dst}"))
        procs.append(spawn(cluster.sim, sender(src, dst, tag, payloads), f"s{src}-{dst}"))
    if before_run is not None:
        before_run(cluster)
    cluster.sim.run(until=deadline_ns)
    return delivered, counts, not all(p.finished for p in procs), cluster
