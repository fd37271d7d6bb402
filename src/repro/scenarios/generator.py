"""Scenario sampling: one master seed → one fully pinned scenario.

Samples the cross-product the ROADMAP asks for — **topology × routing ×
fault/chaos schedule × workload (motif or KV load or differential
channel matrix) × backend** — from the repo's named RNG
streams (:class:`repro.sim.rng.RngRegistry`), so the same master seed
always yields the byte-identical scenario document.  Every nested seed
(cluster/simulator seed, workload scripts, fault windows) is *recorded*
in the document rather than re-derived at run time: the generator is
the only consumer of the master seed.

Fault rows are :class:`~repro.faults.chaos.ChaosEvent` values drawn by
the chaos layer's own samplers (:func:`~repro.faults.chaos.sample_crashes`,
:func:`~repro.faults.chaos.sample_windows`) from the ``gen.crash`` and
``gen.fault`` streams, against the actual topology graph
(:func:`repro.network.topology.make_topology`).  The document lists
them explicitly, so the shrinker can drop them one at a time.
"""

from __future__ import annotations

from ..faults.chaos import WINDOW_KINDS, sample_crashes, sample_windows
from ..network.topology import make_topology
from ..sim.rng import RngRegistry
from .schema import BACKENDS, KV_OPS, MOTIF_KINDS, Scenario

#: Time horizons per workload kind (ns) — sized like the chaos/churn
#: harnesses so retry budgets cover the longest schedulable window.
HORIZONS = {
    "allreduce": 400_000.0,
    "incast": 400_000.0,
    "halo3d": 400_000.0,
    "kv": 600_000.0,
}

MAX_WINDOW_NS = 50_000.0

#: Workload mix: motifs dominate (they exercise recovery), KV and the
#: differential matrix keep the service and protocol-parity oracles hot.
_KIND_WEIGHTS = [
    ("allreduce", 3), ("incast", 3), ("halo3d", 2), ("kv", 4), ("differential", 4),
]

_TOPOLOGIES = ("dragonfly", "fattree", "hyperx", "torus3d", "star")
_NODE_CHOICES = (6, 8, 9, 12, 16)
_DROP_PROBS = (0.0, 0.02, 0.05, 0.10)


def _weighted(rng: RngRegistry, stream: str, table) -> str:
    total = sum(w for _, w in table)
    pick = rng.randint(stream, 0, total)
    for value, weight in table:
        if pick < weight:
            return value
        pick -= weight
    return table[-1][0]  # pragma: no cover - arithmetic guard


def _fault_order(ev) -> tuple:
    return (ev.start, ev.kind, ev.params)


def _sample_kv_scripts(rng: RngRegistry, n_clients: int) -> list:
    """Per-client op scripts: (op, key_index, fill) triples.

    Keys are partitioned per client by the runner, so each script's
    local replay of its own ops is the exact linearization to check
    GETs against.
    """
    scripts = []
    for _ in range(n_clients):
        n_ops = 4 + rng.choice("gen.kv.len", 9)  # 4..12 steps
        script = []
        for _ in range(n_ops):
            op = KV_OPS[rng.choice("gen.kv.op", len(KV_OPS))]
            key_i = rng.choice("gen.kv.key", 4)
            fill = rng.choice("gen.kv.fill", 256)
            script.append([op, key_i, fill])
        scripts.append(script)
    return scripts


def _sample_channels(rng: RngRegistry, n_nodes: int) -> list:
    """Differential channel matrix: (src, dst, n_msgs) rows.

    Mixes a deterministic incast core (many→0) with random pairs so
    both the shared-bucket path and the pairwise paths are compared.
    """
    channels: dict = {}
    for src in range(1, min(n_nodes, 4)):
        channels[(src, 0)] = 1 + rng.choice("gen.diff.incast", 2)
    for _ in range(rng.choice("gen.diff.extra", 4)):
        src = rng.choice("gen.diff.src", n_nodes)
        dst = rng.choice("gen.diff.dst", n_nodes)
        if src == dst:
            continue
        channels[(src, dst)] = channels.get((src, dst), 0) + 1 + rng.choice("gen.diff.n", 2)
    return [[s, d, n] for (s, d), n in sorted(channels.items())]


def generate(seed: int, known_bad: bool = False) -> Scenario:
    """Sample the scenario for *seed* (deterministic, stateless).

    ``known_bad=True`` disarms the reliability transport on a fault-laden
    motif scenario — the documented way to mint a scenario that *must*
    fail (faults with no ARQ lose data or stall), used to exercise the
    shrinker and the failure-fingerprint plumbing end to end.
    """
    rng = RngRegistry(int(seed))
    kind = _weighted(rng, "gen.workload", _KIND_WEIGHTS)
    if known_bad:
        # Deterministically failing shape: a motif that must cross the
        # fabric, under hard loss, with the transport disarmed.
        kind = MOTIF_KINDS[rng.choice("gen.badkind", len(MOTIF_KINDS))]
    # The engine draw no longer selects anything (the runner ignores
    # the field) but stays in the stream so every seed keeps its id.
    engine = "fast" if rng.choice("gen.engine", 2) == 0 else "plain"
    cluster_seed = 1 + rng.randint("gen.cluster_seed", 0, 1_000_000)

    if kind == "differential":
        # Cross-backend byte comparison needs ordered delivery and a
        # clean fabric: STATIC routing, no faults (the chaos oracles own
        # fault coverage; this oracle owns protocol parity).
        n_nodes = 4 + rng.choice("gen.diff.nodes", 3)  # 4..6
        others = [b for b in BACKENDS if b != "rvma"]
        picked = [b for b in others if rng.choice("gen.diff.pick", 2) == 1] or others
        return Scenario(
            seed=seed,
            workload_kind="differential",
            workload={
                "channels": _sample_channels(rng, n_nodes),
                "max_msg": 128 + rng.choice("gen.diff.maxmsg", 3) * 128,  # 128..384
            },
            topology="star",
            n_nodes=n_nodes,
            routing="static",
            engine=engine,
            backend="rvma",
            compare=tuple(["rvma"] + picked),
            reliability=False,  # parity is checked without ARQ, like the suite
            cluster_seed=cluster_seed,
            fault_events=(),
            drop_prob=0.0,
            audit=False,
            compare_clean=False,
        )

    topology = _TOPOLOGIES[rng.choice("gen.topology", len(_TOPOLOGIES))]
    routing = "static" if rng.choice("gen.routing", 2) == 0 else "adaptive"

    if kind == "kv":
        n_clients = 1 + rng.choice("gen.kv.clients", 3)  # 1..3
        n_nodes = 1 + n_clients + rng.choice("gen.kv.spare", 2)
        faults = sample_windows(
            rng, "gen.fault", make_topology(topology, n_nodes), HORIZONS["kv"],
            rng.choice("gen.kv.events", 4), MAX_WINDOW_NS, ("link_flap",),
        )
        workload = {
            "scripts": _sample_kv_scripts(rng, n_clients),
            "shards_per_node": 1 + rng.choice("gen.kv.shards", 2),
            "value_scale": 1 + rng.choice("gen.kv.vscale", 24),
        }
        if rng.choice("gen.kv.qos", 2) == 1:
            # Tenant-mix dimension (schema v2): arm QoS and spread the
            # clients across two tenants with sampled weights/rates, so
            # the fuzzer sweeps admission, DRR and deadline paths too.
            workload["qos"] = True
            workload["tenant_specs"] = [
                [
                    tid,
                    float(1 << rng.choice("gen.kv.weight", 3)),   # 1/2/4
                    float(64 * rng.choice("gen.kv.admit", 4)),    # 0..192 B/us
                    float(256 * rng.choice("gen.kv.quota", 2)),   # 0 or 256 B/us
                ]
                for tid in (1, 2)
            ]
            workload["client_tenants"] = [
                1 + rng.choice("gen.kv.tenant", 2) for _ in range(n_clients)
            ]
        if rng.choice("gen.kv.active", 2) == 1:
            # Active-handler dimension (schema v3): arm the NIC-side GET
            # short-circuit on a sampled slice of each client's keyspace
            # and, half the time, mix in an atomic word handler on the
            # reply mailboxes.  New named streams only, so pre-v3 seeds
            # regenerate their other fields byte-identically.
            workload["active"] = True
            workload["hot_key_fraction"] = 0.25 * (1 + rng.choice("gen.kv.hotfrac", 3))
            if rng.choice("gen.kv.word", 2) == 1:
                workload["handler_word"] = True
        if rng.choice("gen.kv.trace", 4) == 0:
            # Trace-replay dimension (schema v4): a quarter of the kv
            # budget replays a committed exemplar trace instead of the
            # sampled scripts, sweeping the qos/active toggles over
            # identical offered load.  New named streams drawn after
            # every v3 stream, so pre-v4 seeds regenerate their other
            # fields byte-identically.
            from ..workloads.exemplars import EXEMPLAR_NAMES, EXEMPLARS

            ref = EXEMPLAR_NAMES[rng.choice("gen.kv.tracepick", len(EXEMPLAR_NAMES))]
            return Scenario(
                seed=seed,
                workload_kind="trace",
                workload={
                    "trace_ref": ref,
                    "qos": rng.choice("gen.kv.traceqos", 2) == 1,
                    "active": rng.choice("gen.kv.traceactive", 2) == 1,
                },
                topology=topology,
                n_nodes=1 + EXEMPLARS[ref].clients,
                routing=routing,
                engine=engine,
                backend="rvma",
                reliability=True,
                cluster_seed=cluster_seed,
                fault_events=(),        # replay compares variants on a
                drop_prob=0.0,          # clean fabric; chaos owns faults
                audit=True,
                compare_clean=False,
            )
        return Scenario(
            seed=seed,
            workload_kind="kv",
            workload=workload,
            topology=topology,
            n_nodes=n_nodes,
            routing=routing,
            engine=engine,
            backend="rvma",
            reliability=True,
            cluster_seed=cluster_seed,
            fault_events=tuple(sorted(faults, key=_fault_order)),
            drop_prob=_DROP_PROBS[rng.choice("gen.kv.drop", len(_DROP_PROBS))],
            audit=False,            # the auditor shadows motif placement; the
            compare_clean=False,    # KV oracle is the linearizability check
        )

    # Motif scenario (allreduce / incast / halo3d).
    n_nodes = _NODE_CHOICES[rng.choice("gen.nodes", len(_NODE_CHOICES))]
    reliability = not known_bad
    n_crashes = rng.choice("gen.crashes", 2) if reliability else 0
    faults = sample_crashes(rng, "gen.crash", n_nodes, HORIZONS[kind], n_crashes)
    faults += sample_windows(
        rng, "gen.fault", make_topology(topology, n_nodes), HORIZONS[kind],
        1 + rng.choice("gen.events", 4), MAX_WINDOW_NS, WINDOW_KINDS,
    )
    drop = _DROP_PROBS[rng.choice("gen.drop", len(_DROP_PROBS))]
    if known_bad:
        drop = max(drop, 0.35)  # hard loss with no ARQ: guaranteed failure
    if kind == "allreduce":
        workload = {
            "iterations": 2 + rng.choice("gen.ar.iters", 4),
            "vector_len": 2 + rng.choice("gen.ar.vec", 7),
        }
    elif kind == "incast":
        workload = {
            "msgs_per_client": 2 + rng.choice("gen.in.msgs", 3),
            "msg_bytes": 512 * (1 + rng.choice("gen.in.bytes", 6)),
        }
    else:
        workload = {
            "iterations": 1 + rng.choice("gen.h3.iters", 3),
            "msg_bytes": 1024 * (1 + rng.choice("gen.h3.bytes", 6)),
        }
    return Scenario(
        seed=seed,
        workload_kind=kind,
        workload=workload,
        topology=topology,
        n_nodes=n_nodes,
        routing=routing,
        engine=engine,
        backend="rvma",
        reliability=reliability,
        cluster_seed=cluster_seed,
        fault_events=tuple(sorted(faults, key=_fault_order)),
        drop_prob=drop,
        audit=n_crashes > 0,
        compare_clean=True,
    )


def generate_many(seed_start: int, count: int, known_bad: bool = False) -> list:
    """Scenarios for the seed range ``[seed_start, seed_start+count)``."""
    return [generate(seed_start + i, known_bad=known_bad) for i in range(count)]


def regenerate(scenario_or_seed) -> Scenario:
    """Replay aid: a scenario from its master seed alone."""
    seed = getattr(scenario_or_seed, "seed", scenario_or_seed)
    return generate(int(seed))
