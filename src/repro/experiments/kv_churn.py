"""KV service under churn: serving traffic on RVMA, faults optional.

The chaos harness proves the *motifs* survive fault schedules; this
driver does the same for the sharded KV service (:mod:`repro.services`)
— a serving workload with open/closed-loop clients, Zipf key skew and
continuous many-to-few pressure on receiver-managed request streams.
Each cell runs one seed's workload, optionally under a
:class:`~repro.faults.chaos.ChaosSchedule` of link flaps, and reports:

* completion (every client got every reply; the run terminates);
* correctness (zero transport give-ups, zero silent put loss);
* the ``service.kv.request_latency_ns`` p50/p99 and the reliability
  counters that explain them (retransmits, paced deliveries).

Also the home of the ``services`` CLI subcommand, one cell
(``rvma-experiments services --help``); the sweep is the ``kv-churn``
experiment.
"""

from __future__ import annotations

from typing import Optional

from ..observability import RunReport
from ..services import KvServerConfig, WorkloadConfig
from .kv_cell import ClientGroup, FlapPlan, KvCellResult, KvCellSpec, run_kv_cell
from .report import ExperimentResult, save_run_report

#: Chaos shape for churn cells: fabric-level flaps only — the service
#: must ride them out through the transport, not through recovery.
DEFAULT_HORIZON_NS = 600_000.0
DEFAULT_EVENTS = 3
DEFAULT_MAX_WINDOW_NS = 40_000.0
#: Random loss the churn sweep adds on top of its flap windows.
CHURN_DROP_PROB = 0.02


def run_kv_service(
    seed: int = 1,
    n_server_nodes: int = 3,
    shards_per_node: int = 2,
    n_client_nodes: int = 4,
    clients_per_node: int = 2,
    topology: str = "dragonfly",
    workload: Optional[WorkloadConfig] = None,
    server_config: Optional[KvServerConfig] = None,
    chaos: bool = False,
    horizon_ns: float = DEFAULT_HORIZON_NS,
    n_events: int = DEFAULT_EVENTS,
    max_window_ns: float = DEFAULT_MAX_WINDOW_NS,
    drop_prob: float = 0.0,
    deadline_ns: float = 50_000_000.0,
    observe: bool = False,
    trace: bool = False,
    fidelity: str = "flow",
) -> KvCellResult:
    """Run one seeded KV workload cell; returns its :class:`KvCellResult`.

    Server nodes are ``0..n_server_nodes-1``; clients spread across the
    next ``n_client_nodes`` nodes.  The cluster always runs with the
    reliability transport — the service's backpressure story *is* the
    transport's ``flow_room`` hold path, chaos or not.  The deadline
    bounds the run: a stalled workload (e.g. a put held forever against
    flow_room) would otherwise keep the poll loops generating events.
    """
    workload = workload or WorkloadConfig()
    out = run_kv_cell(KvCellSpec(
        groups=(ClientGroup(workload, nodes=n_client_nodes, clients_per_node=clients_per_node),),
        seed=seed,
        servers=n_server_nodes,
        shards_per_node=shards_per_node,
        server_config=server_config or KvServerConfig(),
        topology=topology,
        fidelity=fidelity,
        chaos=FlapPlan(horizon_ns, n_events, max_window_ns, drop_prob) if chaos else None,
        spans=observe and trace,
        deadline_ns=deadline_ns,
    ))
    if observe:
        out.run_report = RunReport.collect(out.cluster, meta={
            "harness": "kv-churn",
            "seed": seed,
            "n_nodes": out.cluster.n_nodes,
            "shards": n_server_nodes * shards_per_node,
            "clients": n_client_nodes * clients_per_node,
            "mode": workload.mode,
            "zipf_s": workload.zipf_s,
            "chaos": chaos,
            "completed": out.completed,
        })
    return out


def run_kv_churn(
    seeds: tuple = (1, 2, 3),
    observe: bool = False,
    trace: bool = False,
    **kw,
) -> ExperimentResult:
    """The churn sweep: the KV service across seeds, faults on.

    ``CHURN_DROP_PROB`` adds light random loss on top of the flap
    windows so the retransmit column shows the ARQ earning its keep.
    """
    outs = [
        run_kv_service(
            seed=seed, chaos=True, drop_prob=CHURN_DROP_PROB,
            observe=observe, trace=trace, **kw,
        )
        for seed in seeds
    ]
    return ExperimentResult(
        name="kv-churn",
        title="Sharded KV service under churn (Zipf load, link flaps, ARQ transport)",
        headers=["seed", "ops", "p50 ns", "p99 ns", "batch", "retransmits", "paced", "ok"],
        rows=[
            [
                seed,
                out.ops_completed,
                f"{out.p50_ns:,.0f}",
                f"{out.p99_ns:,.0f}",
                f"{out.reply_batch_mean:.2f}",
                out.retransmits,
                out.rx_paced,
                "yes" if out.invariants_ok else "NO",
            ]
            for seed, out in zip(seeds, outs)
        ],
        summary={
            "all_invariants_ok": all(out.invariants_ok for out in outs),
            "worst_p99_ns": max((out.p99_ns for out in outs), default=float("nan")),
            "seeds": list(seeds),
        },
        paper_claims={
            "observation": "receiver-managed buckets give a serving workload "
            "sender-oblivious backpressure: clients never coordinate buffers, "
            "yet incast-style request floods survive loss and flaps exactly "
            "(extends §IV-B to an RPC service)"
        },
        run_reports=[out.run_report for out in outs if out.run_report is not None],
    )


# ------------------------------------------------------------------- services CLI


def add_services_command(sub, parents: list) -> None:
    """Add ``rvma-experiments services``: run one KV workload cell directly."""
    parser = sub.add_parser(
        "services", parents=parents, help="run one sharded KV service cell",
        description="Drive the sharded RVMA key-value service",
    )
    parser.add_argument("--servers", type=int, default=3, help="server node count")
    parser.add_argument("--shards-per-node", type=int, default=2)
    parser.add_argument("--client-nodes", type=int, default=4)
    parser.add_argument("--clients-per-node", type=int, default=2)
    parser.add_argument("--ops", type=int, default=400)
    parser.add_argument("--keys", type=int, default=128)
    parser.add_argument("--value-bytes", type=int, default=64)
    parser.add_argument("--zipf", type=float, default=0.9, help="key-popularity skew (0 = uniform)")
    parser.add_argument("--mode", choices=("closed", "open"), default="closed")
    parser.add_argument("--batch", type=int, default=4, help="closed-loop pipeline depth")
    parser.add_argument(
        "--interarrival-ns", type=float, default=4000.0,
        help="open-loop mean interarrival",
    )
    parser.add_argument("--chaos", action="store_true", help="apply a link-flap schedule")
    parser.set_defaults(handler=_services)


def _services(args) -> int:
    workload = WorkloadConfig(
        n_ops=args.ops, n_keys=args.keys, value_bytes=args.value_bytes,
        zipf_s=args.zipf, mode=args.mode, batch=args.batch,
        mean_interarrival_ns=args.interarrival_ns,
    )
    seed = args.seed if args.seed is not None else 1
    out = run_kv_service(
        seed=seed, n_server_nodes=args.servers,
        shards_per_node=args.shards_per_node, n_client_nodes=args.client_nodes,
        clients_per_node=args.clients_per_node, workload=workload,
        chaos=args.chaos, observe=bool(args.metrics_out), trace=args.trace,
    )
    print(
        f"kv-service seed={seed}: {out.ops_completed}/{out.ops_issued} ops, "
        f"p50 {out.p50_ns:,.0f} ns, p99 {out.p99_ns:,.0f} ns, "
        f"reply batch {out.reply_batch_mean:.2f}, retransmits {out.retransmits}, "
        f"paced {out.rx_paced}"
    )
    print(f"invariants: {'ok' if out.invariants_ok else 'VIOLATED'}"
          + (f" ({out.error})" if out.error else ""))
    if args.metrics_out and out.run_report is not None:
        save_run_report(out.run_report, args.metrics_out)
        print(f"observability report: {args.metrics_out}")
    return 0 if out.invariants_ok else 1
