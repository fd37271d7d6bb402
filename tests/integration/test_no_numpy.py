"""Guard: importing and running ``repro`` never imports numpy.

numpy is a development dependency only (the RNG parity oracle and the
Welford cross-checks use it); every run draws from the pure-Python
streams of :mod:`repro.sim.rng`.  The check runs in a fresh interpreter
because the test process itself may have imported numpy already.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import sys

from repro import Cluster, Incast, NetworkConfig, RoutingMode, RvmaProtocol, Sweep3D, WorkloadConfig
from repro.experiments.kv_cell import Finished
from repro.experiments.kv_churn import run_kv_service
from repro.network.config import LINK_RATES


def motif(cls, n_nodes, rate, fidelity, **params):
    cluster = Cluster.build(
        n_nodes=n_nodes, topology="dragonfly", nic_type="rvma", fidelity=fidelity,
        net_config=NetworkConfig(link_bw=LINK_RATES[rate], routing=RoutingMode.ADAPTIVE), seed=1,
    )
    cls(cluster, RvmaProtocol(), **params).run()
    return cluster.sim.rng


sweep = motif(Sweep3D, 16, "2Tbps", "flow", kb=2, msg_bytes=2048, compute_ns=900.0)
incast = motif(Incast, 33, "400Gbps", "packet", msgs_per_client=4, msg_bytes=4096)
cell = run_kv_service(seed=1, n_server_nodes=1, n_client_nodes=2,
                      workload=WorkloadConfig(n_ops=200, n_keys=64))
assert isinstance(cell.outcome, Finished), cell.outcome
assert sweep._streams and incast._streams, "the runs drew no random numbers"
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
print(loaded)
"""


def test_runs_never_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", f"numpy was imported: {proc.stdout}"
