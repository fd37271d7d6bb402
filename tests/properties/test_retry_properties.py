"""Property tests: NACK-retry robustness under arbitrary receiver delays.

Whenever the receiver eventually posts capacity within the retry
budget, no put is ever lost — regardless of how sender bursts and
receiver re-arming interleave.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.core import EpochType, RvmaApi
from repro.sim import spawn


@given(
    n_puts=st.integers(min_value=1, max_value=10),
    slots=st.integers(min_value=1, max_value=4),
    arm_delay=st.floats(min_value=0.0, max_value=40_000.0),
    consume_gap=st.floats(min_value=0.0, max_value=8_000.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_no_put_lost_when_capacity_eventually_appears(
    n_puts, slots, arm_delay, consume_gap, seed
):
    cl = Cluster.build(
        n_nodes=2, topology="star", nic_type="rvma", fidelity="flow", seed=seed
    )
    api0, api1 = RvmaApi(cl.node(0)), RvmaApi(cl.node(1))
    consumed = []

    def receiver():
        yield arm_delay  # window may appear long after the first put
        win = yield from api1.init_window(
            0x5, epoch_threshold=1, epoch_type=EpochType.EPOCH_OPS
        )
        for _ in range(slots):
            yield from api1.post_buffer(win, size=64)
        for _ in range(n_puts):
            info = yield from api1.wait_completion(win)
            consumed.append(info.length)
            yield consume_gap  # slow consumer starves the bucket
            yield from api1.post_buffer(win, buffer=info.record.buffer)

    def sender():
        for _ in range(n_puts):  # burst with no pacing at all
            op = yield from api0.put(1, 0x5, size=64)
            yield op.local_done

    rp = spawn(cl.sim, receiver(), "rx")
    sp = spawn(cl.sim, sender(), "tx")
    cl.sim.run()
    assert rp.finished and sp.finished
    assert len(consumed) == n_puts
    assert all(length == 64 for length in consumed)
    assert cl.node(0).nic.stat("nic.rvma.puts_lost").value == 0
