"""Ablations for the design choices DESIGN.md calls out.

* A1 — LUT counter spill: on-NIC threshold counters vs host-memory
  counters across PCIe generations (paper §III-B says the penalty is
  significant today and minimal for Gen6).
* A2 — completion wakeup mechanism: MWait vs cache-line polling vs
  shared-CQ polling (paper §IV-C).
* A3 — epoch threshold type: EPOCH_BYTES vs EPOCH_OPS for the same
  traffic (they must complete identically; cost difference ~0).
* A4 — PCIe generation sweep of the end-to-end put latency.
"""

from __future__ import annotations

from ..memory.mwait import CQ_POLL, MWAIT, POLL
from ..memory.pcie import GEN3, GEN4, GEN5, GEN6, PAPER_SIM
from ..nic.lut import EpochType
from ..nic.rvma import RvmaNicConfig
from ..timing.calibration import VERBS_OPA_SKYLAKE
from ..timing.microbench import rvma_latency
from .report import ExperimentResult

ABLATION_SIZE = 1024


def _nic_config(gen, **kw) -> RvmaNicConfig:
    """The calibrated testbed's RVMA NIC on PCIe generation *gen*."""
    return RvmaNicConfig(
        pcie=gen, nic_proc=VERBS_OPA_SKYLAKE.nic_proc,
        issue_overhead=VERBS_OPA_SKYLAKE.issue_overhead, **kw,
    )


def run_ablation_lut() -> ExperimentResult:
    """A1: completion latency with on-NIC vs spilled (host) counters."""
    rows = []
    for gen in (GEN3, GEN4, PAPER_SIM, GEN5, GEN6):
        on_nic = rvma_latency(VERBS_OPA_SKYLAKE, ABLATION_SIZE, nic_cfg=_nic_config(gen))
        spilled = rvma_latency(
            VERBS_OPA_SKYLAKE, ABLATION_SIZE, nic_cfg=_nic_config(gen, nic_counters=0)
        )
        rows.append([gen.name, round(on_nic), round(spilled),
                     round(spilled - on_nic), (spilled - on_nic) / on_nic * 100.0])
    penalties = {r[0]: r[3] for r in rows}
    return ExperimentResult(
        name="ablation-lut",
        title=f"A1: on-NIC vs host-memory threshold counters ({ABLATION_SIZE}B put)",
        headers=["pcie", "on_nic_ns", "spilled_ns", "penalty_ns", "penalty_%"],
        rows=rows,
        summary={
            "gen4_penalty_ns": penalties.get("gen4"),
            "gen6_penalty_ns": penalties.get("gen6"),
        },
        paper_claims={
            "observation": "host-memory counters cost ~2x bus latency today; "
            "minimal for PCIe Gen6 (tens of ns)"
        },
    )


def run_ablation_completion() -> ExperimentResult:
    """A2: receiver wakeup mechanism comparison."""
    rows = []
    for model in (MWAIT, POLL, CQ_POLL):
        lat = rvma_latency(VERBS_OPA_SKYLAKE, ABLATION_SIZE, wakeup=model)
        rows.append([model.name, round(lat), model.wake_latency, model.poll_interval])
    mwait = rows[0][1]
    return ExperimentResult(
        name="ablation-completion",
        title=f"A2: completion wakeup mechanism ({ABLATION_SIZE}B put)",
        headers=["mechanism", "latency_ns", "wake_ns", "poll_interval_ns"],
        rows=rows,
        summary={"mwait_ns": mwait, "cq_poll_extra_ns": rows[2][1] - mwait},
        paper_claims={
            "observation": "per-buffer completion pointers admit MWait; "
            "shared CQs force costlier polling"
        },
    )


def run_ablation_threshold() -> ExperimentResult:
    """A3: EPOCH_BYTES vs EPOCH_OPS for single-put epochs.

    Uses the same ping-pong with the two threshold interpretations;
    both must yield identical completion behaviour, so this is a parity
    check as much as a cost ablation.
    """
    import repro.timing.microbench as mb
    from ..core.api import RvmaApi
    from ..sim.process import spawn

    rows = []
    for etype, threshold in ((EpochType.EPOCH_BYTES, ABLATION_SIZE), (EpochType.EPOCH_OPS, 1)):
        cl = mb._build(VERBS_OPA_SKYLAKE, "rvma", VERBS_OPA_SKYLAKE.net.routing, "packet")
        api0 = RvmaApi(cl.node(0), VERBS_OPA_SKYLAKE.rvma_sw_overhead)
        api1 = RvmaApi(cl.node(1), VERBS_OPA_SKYLAKE.rvma_sw_overhead)
        samples: list[float] = []
        starts: list[float] = []
        total = 6

        def receiver(api1=api1, cl=cl, etype=etype, threshold=threshold,
                     samples=samples, starts=starts):
            win = yield from api1.init_window(0xE0, threshold, etype)
            for _ in range(total):
                yield from api1.post_buffer(win, size=ABLATION_SIZE)
            for i in range(total):
                yield from api1.wait_completion(win)
                samples.append(cl.sim.now - starts[i])
                op = yield from api1.put(0, 0xE1, size=8)
                yield op.local_done

        def sender(api0=api0, cl=cl, starts=starts):
            pong = yield from api0.init_window(0xE1, 8)
            for _ in range(total):
                yield from api0.post_buffer(pong, size=8)
            yield 5000.0
            for _ in range(total):
                starts.append(cl.sim.now)
                yield from api0.put(1, 0xE0, size=ABLATION_SIZE)
                yield from api0.wait_completion(pong)

        spawn(cl.sim, receiver(), "rx")
        spawn(cl.sim, sender(), "tx")
        cl.sim.run()
        mean = sum(samples[2:]) / len(samples[2:])
        rows.append([etype.name, round(mean, 1)])
    delta = abs(rows[0][1] - rows[1][1])
    return ExperimentResult(
        name="ablation-threshold",
        title=f"A3: epoch threshold type parity ({ABLATION_SIZE}B single-put epochs)",
        headers=["threshold_type", "latency_ns"],
        rows=rows,
        summary={"bytes_vs_ops_delta_ns": delta},
        paper_claims={"observation": "byte and op counting are equivalent for "
                      "non-overlapping single-put epochs"},
    )


def run_ablation_pcie() -> ExperimentResult:
    """A4: end-to-end completed-put latency across PCIe generations."""
    rows = []
    for gen in (GEN3, GEN4, PAPER_SIM, GEN5, GEN6):
        lat = rvma_latency(VERBS_OPA_SKYLAKE, ABLATION_SIZE, nic_cfg=_nic_config(gen))
        rows.append([gen.name, gen.latency, round(lat)])
    return ExperimentResult(
        name="ablation-pcie",
        title=f"A4: PCIe generation sweep ({ABLATION_SIZE}B put)",
        headers=["pcie", "bus_latency_ns", "put_latency_ns"],
        rows=rows,
        summary={"gen3_ns": rows[0][2], "gen6_ns": rows[-1][2]},
        paper_claims={
            "observation": "PCIe latency is a major contributor; Gen6 makes "
            "the local bus insignificant vs the wire (paper §V-B)"
        },
    )


def run_ablation_write_imm() -> ExperimentResult:
    """A5: write-with-immediate as a completion mechanism.

    The paper (§I, §VI) notes RDMA's completion-carrying commands only
    support small payloads: for <= 64 B, write+imm is nearly as fast as
    RVMA, but it simply cannot carry real transfers — RVMA's threshold
    completion has no such ceiling.
    """
    from ..nic.rdma import MAX_IMM_PAYLOAD
    from ..rdma.completion_modes import CompletionMode
    from ..timing.microbench import rdma_verbs_latency, rvma_latency

    rows = []
    for size in (16, 64, 256, 4096):
        rvma = rvma_latency(VERBS_OPA_SKYLAKE, size)
        send_recv = rdma_verbs_latency(VERBS_OPA_SKYLAKE, size, CompletionMode.SEND_RECV)
        if size <= MAX_IMM_PAYLOAD:
            imm = round(
                rdma_verbs_latency(VERBS_OPA_SKYLAKE, size, CompletionMode.WRITE_IMM)
            )
        else:
            imm = "n/a (>64B)"
        rows.append([size, round(rvma), imm, round(send_recv)])
    return ExperimentResult(
        name="ablation-write-imm",
        title="A5: write-with-immediate vs RVMA vs send/recv completion",
        headers=["size_B", "rvma_ns", "write_imm_ns", "send_recv_ns"],
        rows=rows,
        summary={"imm_ceiling_B": 64},
        paper_claims={
            "observation": "completion-carrying RDMA commands support only "
            "small payloads (<64B); larger transfers need the send/recv path"
        },
    )
