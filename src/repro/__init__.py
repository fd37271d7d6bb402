"""repro — a full reproduction of "RVMA: Remote Virtual Memory Access"
(Grant, Levenhagen, Dosanjh, Widener; IPDPS 2021).

The package builds the paper's whole evaluation stack in Python: a
deterministic discrete-event simulator (the SST stand-in), a network
substrate with the paper's topologies and routing modes, byte-accurate
host memory with Monitor/MWait and PCIe models, an RDMA baseline NIC +
Verbs/UCX software layers, the proposed RVMA NIC + API, application
motifs, fault injection, and drivers that regenerate every figure in
the paper's evaluation (Figs 4-8).

Quick start::

    from repro import Cluster, RvmaApi
    from repro.sim import spawn

    cluster = Cluster.build(n_nodes=2, topology="star", nic_type="rvma",
                            fidelity="packet")
    api = RvmaApi(cluster.node(1))
    # see examples/quickstart.py for the full two-process flow
"""

from ._version import __version__
from .cluster import Cluster, Node
from .collectives import TreeComm
from .core import (
    BufferMode,
    EpochType,
    RvmaApi,
    RvmaApiError,
    RvmaStatus,
    StreamClient,
    StreamServer,
    Window,
    mpix_rewind,
)
from .faults import ChaosSchedule, FaultInjector
from .motifs import AllreduceMotif, Halo3D, Incast, RdmaProtocol, RvmaProtocol, Sweep3D
from .observability import MetricsRegistry, RunReport, SpanTracer
from .recovery import InvariantAuditor, RecoveryConfig, RecoveryManager
from .reliability import FailureDetector, PeerFailed, ReliabilityConfig
from .services import KvClient, KvServer, KvServerConfig, LoadGenerator, ShardMap, WorkloadConfig
from .mpi import MpiRma, RankWindow, RewindUnsupportedError
from .network import NetworkConfig, RoutingMode, make_topology
from .rdma import CompletionMode, UcpEndpoint, VerbsEndpoint
from .sockets import Connection, RvmaListener, connect
from .sim import Simulator, spawn
from .workloads import Trace, TraceRecorder, TraceReplayer

__all__ = [
    "AllreduceMotif",
    "ChaosSchedule",
    "BufferMode",
    "Cluster",
    "CompletionMode",
    "Connection",
    "EpochType",
    "FailureDetector",
    "FaultInjector",
    "Halo3D",
    "Incast",
    "InvariantAuditor",
    "KvClient",
    "KvServer",
    "KvServerConfig",
    "LoadGenerator",
    "MetricsRegistry",
    "MpiRma",
    "NetworkConfig",
    "Node",
    "PeerFailed",
    "RankWindow",
    "RdmaProtocol",
    "RecoveryConfig",
    "RecoveryManager",
    "ReliabilityConfig",
    "RewindUnsupportedError",
    "RoutingMode",
    "RunReport",
    "RvmaApi",
    "RvmaListener",
    "RvmaApiError",
    "RvmaProtocol",
    "RvmaStatus",
    "ShardMap",
    "Simulator",
    "SpanTracer",
    "StreamClient",
    "StreamServer",
    "Sweep3D",
    "Trace",
    "TraceRecorder",
    "TraceReplayer",
    "TreeComm",
    "UcpEndpoint",
    "VerbsEndpoint",
    "Window",
    "WorkloadConfig",
    "__version__",
    "connect",
    "make_topology",
    "mpix_rewind",
    "spawn",
]
