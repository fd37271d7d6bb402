"""The benchmark's workloads, built only from public ``repro`` APIs.

Each workload function takes the seed and a size (from ``bench/config.json``)
and runs one repeat.  It returns a :class:`Repeat` with the host timings, the
simulated results, per-layer counters read through ``MetricsRegistry``, and
any correctness failures.  Nothing here reaches into ``repro`` internals.  The
benchmark times calls into public functions (``Cluster.build``, ``Motif.run``,
``run_kv_service``, ``replay_trace``).  To time set-up inside harnesses that
build their own clusters, :class:`Probe` wraps ``Cluster.build`` from outside.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro import (
    Cluster,
    Halo3D,
    Incast,
    KvServerConfig,
    LoadGenerator,
    MetricsRegistry,
    NetworkConfig,
    RdmaProtocol,
    RoutingMode,
    RvmaProtocol,
    Sweep3D,
    Trace,
    WorkloadConfig,
)
from repro.experiments.kv_churn import run_kv_service
from repro.experiments.trace_replay import replay_trace
from repro.network.config import LINK_RATES
from repro.services import ZipfSampler
from repro.sim.stats import Summary

MOTIFS = {"halo3d": Halo3D, "sweep3d": Sweep3D, "incast": Incast}


@dataclass
class Repeat:
    """One repeat of one workload."""

    #: Host seconds inside ``Cluster.build`` plus motif or trace construction.
    setup_s: float = 0.0
    #: Host seconds of the workload calls, minus ``setup_s``.
    run_s: float = 0.0
    #: Host seconds of each motif leg's ``Motif.run`` call, by NIC type.
    leg_s: dict = field(default_factory=dict)
    #: Simulated end results: the numbers a user of the model reads.
    results: dict = field(default_factory=dict)
    #: Simulated per-layer counters.
    layers: dict = field(default_factory=dict)
    #: Digests of the generated inputs and of the outcomes.
    identity: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Correctness failures (deadlocks, broken invariants).
    errors: list = field(default_factory=list)

    def fingerprint(self) -> dict:
        """Everything simulated: identical on every repeat of one seed."""
        return {
            "results": self.results,
            "layers": self.layers,
            "identity": self.identity,
            "attempted": self.attempted,
            "failed": self.failed,
        }


class Probe:
    """Wraps ``Cluster.build`` and ``LoadGenerator`` around one workload call.

    Adds the host time spent inside every ``Cluster.build`` to ``build_s``
    and keeps each cluster and load generator created.  The benchmark then
    reads the registries and load statistics of harnesses that build their
    own clusters.  The originals are restored on exit.
    """

    def __init__(self) -> None:
        self.build_s = 0.0
        self.clusters: list = []
        self.generators: list = []

    def __enter__(self) -> "Probe":
        self._saved = (Cluster.__dict__["build"], LoadGenerator.__init__)
        build, init = Cluster.build, LoadGenerator.__init__
        probe = self

        def timed_build(cls, *args, **kwargs):
            t0 = time.perf_counter()
            cluster = build(*args, **kwargs)
            probe.build_s += time.perf_counter() - t0
            probe.clusters.append(cluster)
            return cluster

        def recorded_init(generator, *args, **kwargs):
            init(generator, *args, **kwargs)
            probe.generators.append(generator)

        Cluster.build = classmethod(timed_build)
        LoadGenerator.__init__ = recorded_init
        return self

    def __exit__(self, *exc_info) -> None:
        Cluster.build, LoadGenerator.__init__ = self._saved


# ----------------------------------------------------------------- accounting


def motif_puts(counters: dict) -> tuple[int, int]:
    """(puts attempted, puts lost) of an RVMA leg from its registry counters.

    A put is attempted once however often a NACK makes the NIC retry it.
    ``puts_lost`` counts every NACK that arrives after a put's retry budget
    is spent, so one put can count several times; the loss is capped at the
    puts attempted.
    """
    attempted = counters.get("nic.rvma.tx_messages", 0) - counters.get("nic.rvma.put_retries", 0)
    return attempted, min(attempted, counters.get("nic.rvma.puts_lost", 0))


def kv_failures(stats) -> int:
    """Ops of a ``LoadStats`` that did not succeed: failed, shed, late or dropped."""
    return stats.ops_failed + stats.ops_overload + stats.ops_deadline + stats.ops_dropped


def layer_counters(registries: list, events: int) -> dict:
    """The simulated per-layer metrics of one repeat, summed over its clusters."""
    counters: dict = {}
    summaries: dict = {}
    for registry in registries:
        for name, value in registry.counters.items():
            counters[name] = counters.get(name, 0) + value
        for name, summary in registry.summaries.items():
            summaries.setdefault(name, Summary(name)).merge(summary)

    def mean(name: str) -> float:
        s = summaries.get(name)
        return s.mean if s is not None and s.n else 0.0

    def maximum(name: str) -> float:
        s = summaries.get(name)
        return s.max if s is not None and s.n else 0.0

    c = counters.get
    msgs = c("fabric.messages_sent", 0)
    tx = c("nic.rvma.tx_messages", 0)
    return {
        "sim.events": events,
        "sim.events_per_msg": events / msgs if msgs else 0.0,
        "fabric.messages_sent": msgs,
        "fabric.packets_forwarded": c("fabric.packets_forwarded", 0),
        "fabric.msg_latency_us": mean("fabric.msg_latency_ns") / 1e3,
        "nic.rvma.epochs_completed": c("nic.rvma.epochs_completed", 0),
        "nic.rvma.tx_messages": tx,
        "nic.rvma.put_retries": c("nic.rvma.put_retries", 0),
        "nic.put_goodput": (tx - c("nic.rvma.put_retries", 0)) / tx if tx else 0.0,
        "nic.rvma.active.served": c("nic.rvma.active.served", 0),
        "transport.tx": c("transport.tx", 0),
        "transport.acks_tx": c("transport.acks_tx", 0),
        "transport.retransmits": c("transport.retransmits", 0),
        "transport.rx_paced": c("transport.rx_paced", 0),
        "service.kv.shard_queue_depth.mean": mean("service.kv.shard_queue_depth"),
        "service.kv.reply_batch.mean": mean("service.kv.reply_batch"),
        "service.kv.flushes": c("service.kv.flushes", 0),
        "workload.trace.replay_lag_us.mean": mean("workload.trace.replay_lag_ns") / 1e3,
        "workload.trace.replay_lag_us.max": maximum("workload.trace.replay_lag_ns") / 1e3,
    }


def _results(sim_us: float, speedup_x: float = 0.0, p50_us: float = 0.0,
             p99_us: float = 0.0, max_rate_mops: float = 0.0) -> dict:
    """Simulated end results; 0 marks a result the workload does not produce."""
    return {
        "sim_us": sim_us,
        "speedup_x": speedup_x,
        "p50_us": p50_us,
        "p99_us": p99_us,
        "max_rate_mops": max_rate_mops,
    }


# ----------------------------------------------------------------- motifs


@dataclass
class _Leg:
    setup_s: float
    run_s: float
    elapsed_ns: float
    error: str
    registry: MetricsRegistry
    events: int


def _motif_leg(size: dict, nic_type: str, seed: int) -> _Leg:
    net = NetworkConfig(link_bw=LINK_RATES[size["rate"]], routing=RoutingMode(size["routing"]))
    protocol = RvmaProtocol() if nic_type == "rvma" else RdmaProtocol()
    gc.collect()
    t0 = time.perf_counter()
    cluster = Cluster.build(
        n_nodes=size["n_nodes"], topology=size["topology"], nic_type=nic_type,
        fidelity=size["fidelity"], net_config=net, seed=seed,
    )
    motif = MOTIFS[size["motif"]](cluster, protocol, **size["params"])
    t1 = time.perf_counter()
    error = ""
    try:
        elapsed = motif.run().elapsed
    except RuntimeError as exc:
        # Motif.run raises on a deadlock and on lost puts; the caller
        # tells the two apart through the registry.
        error = str(exc)
        elapsed = cluster.sim.now
    t2 = time.perf_counter()
    return _Leg(t1 - t0, t2 - t1, elapsed, error,
                MetricsRegistry.collect(cluster.sim), cluster.sim.events_executed)


def motif(seed: int, size: dict) -> Repeat:
    """A paper motif: an RVMA leg, then (if listed) an RDMA leg on identical cost models."""
    legs = {nic: _motif_leg(size, nic, seed) for nic in size["legs"]}
    rvma = legs["rvma"]
    attempted, lost = motif_puts(rvma.registry.counters)
    rep = Repeat(attempted=attempted, failed=lost)
    for nic, leg in legs.items():
        rep.setup_s += leg.setup_s
        rep.run_s += leg.run_s
        rep.leg_s[nic] = leg.run_s
        # Lost puts are a modelled outcome counted in fail_frac; a leg
        # that stops without losing any has deadlocked.
        if leg.error and not (nic == "rvma" and lost):
            rep.errors.append(f"{nic} leg: {leg.error}")
    rdma = legs.get("rdma")
    rep.results = _results(
        sim_us=rvma.elapsed_ns / 1e3,
        speedup_x=rdma.elapsed_ns / rvma.elapsed_ns if rdma is not None else 0.0,
    )
    rep.layers = layer_counters(
        [leg.registry for leg in legs.values()], sum(leg.events for leg in legs.values())
    )
    return rep


# ----------------------------------------------------------------- KV service


def hottest_keys(n: int) -> tuple:
    """The *n* most popular keys: LoadGenerator names rank r ``k%06d``, rank 0 hottest."""
    return tuple(b"k%06d" % rank for rank in range(n))


def kv_closed(seed: int, size: dict) -> Repeat:
    """``run_kv_service`` closed loop, hot keys served by the NIC."""
    workload = WorkloadConfig(
        n_ops=size["n_ops"], n_keys=size["n_keys"], value_bytes=size["value_bytes"],
        zipf_s=size["zipf_s"], get_frac=size["get_frac"], put_frac=1.0 - size["get_frac"],
        mode="closed", batch=size["batch"],
    )
    server_config = KvServerConfig(hot_keys=hottest_keys(size["hot_keys"]))
    gc.collect()
    with Probe() as probe:
        t0 = time.perf_counter()
        outcome = run_kv_service(
            seed=seed, n_server_nodes=size["server_nodes"],
            shards_per_node=size["shards_per_node"], n_client_nodes=size["client_nodes"],
            clients_per_node=size["clients_per_node"], workload=workload,
            server_config=server_config,
        )
        wall = time.perf_counter() - t0
    (cluster,) = probe.clusters
    (generator,) = probe.generators
    rep = Repeat(
        setup_s=probe.build_s, run_s=wall - probe.build_s,
        attempted=generator.stats.ops_issued, failed=kv_failures(generator.stats),
    )
    if not outcome.invariants_ok:
        rep.errors.append(f"kv invariants violated: {outcome.error or 'ops lost or unfinished'}")
    rep.results = _results(
        sim_us=outcome.elapsed_ns / 1e3, p50_us=outcome.p50_ns / 1e3, p99_us=outcome.p99_ns / 1e3
    )
    rep.layers = layer_counters([MetricsRegistry.collect(cluster.sim)], cluster.sim.events_executed)
    return rep


def trace_rows(seed: int, rate_mops: float, size: dict) -> list:
    """Open-loop rows at *rate_mops*: Poisson arrivals, Zipf keys, a put/get mix.

    A pure function of its arguments: the benchmark's input, made before
    any timing starts.
    """
    rng = random.Random(f"kv-put-open:{seed}:{rate_mops}")
    zipf = ZipfSampler(size["n_keys"], size["zipf_s"])
    mean_gap_ns = 1e3 / rate_mops
    t = size["start_ns"]
    rows = []
    for _ in range(size["rows_per_rung"]):
        t += rng.expovariate(1.0 / mean_gap_ns)
        put = rng.random() < size["put_frac"]
        rows.append([
            round(t), 0, 1 + rng.randrange(size["clients"]), "put" if put else "get",
            "k%06d" % zipf.sample(rng.random()), size["value_bytes"] if put else 0,
        ])
    return rows


def kv_open(seed: int, size: dict) -> Repeat:
    """``replay_trace`` over a ladder of offered rates, QoS and active mailboxes off."""
    rep = Repeat()
    registries, events, results = [], 0, {}
    for rate in size["rates_mops"]:
        rows = trace_rows(seed, rate, size)
        gc.collect()
        t0 = time.perf_counter()
        trace = Trace.from_rows(rows, provenance={"source": "bench", "seed": seed, "rate_mops": rate})
        t1 = time.perf_counter()
        with Probe() as probe:
            cell = replay_trace(
                trace, seed=seed, qos=False, active=False, audit=True,
                shards_per_node=size["shards_per_node"],
            )
        t2 = time.perf_counter()
        rep.setup_s += (t1 - t0) + probe.build_s
        rep.run_s += (t2 - t1) - probe.build_s
        failed = kv_failures(cell.stats)
        rep.attempted += cell.stats.ops_issued
        rep.failed += failed
        if not cell.invariants_ok:
            rep.errors.append(
                f"{rate} Mops/s: {cell.error or 'invariants violated'} "
                f"(safety failures {len(cell.safety_failures)}, "
                f"audit violations {cell.audit_violations})"
            )
        rep.identity[f"trace_id@{rate}"] = trace.trace_id
        rep.identity[f"outcome_digest@{rate}"] = cell.outcome_digest
        registry = MetricsRegistry.collect(cell.cluster.sim)
        registries.append(registry)
        events += cell.cluster.sim.events_executed
        latency = registry.histograms["service.kv.request_latency_ns"]
        p99_us = latency.percentile(0.99) / 1e3
        if p99_us <= size["p99_limit_us"] and failed == 0:
            results["max_rate_mops"] = max(rate, results.get("max_rate_mops", 0.0))
        if rate == size["report_rate_mops"]:
            results.update(
                sim_us=cell.cluster.sim.now / 1e3,
                p50_us=latency.percentile(0.50) / 1e3,
                p99_us=p99_us,
            )
    rep.results = _results(**results)
    rep.layers = layer_counters(registries, events)
    return rep


KINDS: dict[str, Callable[[int, dict], Repeat]] = {
    "motif": motif,
    "kv_closed": kv_closed,
    "kv_open": kv_open,
}
