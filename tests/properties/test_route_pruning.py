"""Adaptive route selection skips dominated candidates exactly.

``BaseFabric._select_route`` does not score a candidate whose hop
penalty alone exceeds the best score so far plus its slack.  These
tests hold it to the full scoring it replaced: for random channel
backlogs, random fault-allowed subsets and both ``score_ejection``
values it must pick the same ``(chans, hops, index)`` and leave the
route stream in the same state.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.network import FlowFabric, RoutingMode, make_topology
from repro.sim import Simulator

N_NODES = 64
#: Channel backlogs (ns) that put scores near each other: candidates'
#: hop penalties differ by 40 ns, and the near slack is 5 % or 1 ns.
#: Channels a pair's candidates cross, at most (four candidates of up to 7).
N_CHANNELS = 28
NEAR_TIES = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 9.0, 10.0, 11.0, 30.0, 32.0, 36.0, 38.0, 40.0, 41.0]


def _fabric() -> FlowFabric:
    return FlowFabric(Simulator(seed=11), make_topology("dragonfly", N_NODES))


def _full_scoring(fab: FlowFabric, routes: tuple, score_ejection: bool) -> tuple:
    """The selection as it was before pruning: every allowed candidate scored."""
    _static, cands, allowed = routes
    if len(cands) == 1:
        chans, _pen, hops = cands[0]
        return chans, hops, 0
    use = cands if len(allowed) == len(cands) else [cands[i] for i in allowed]
    stop = None if score_ejection else -1
    now = fab.sim.now
    scores = []
    for chans, backlog, _hops in use:
        for ch in chans[:stop]:
            wait = fab.free_at[ch] - now
            if wait > 0:
                backlog += wait
        scores.append(backlog)
    best = min(scores)
    slack = best * 0.05 if best * 0.05 > 1.0 else 1.0
    near = [i for i, sc in enumerate(scores) if sc <= best + slack]
    idx = near[0] if len(near) == 1 else near[fab._route_rng.integers(0, len(near))]
    chans, _pen, hops = use[idx]
    if use is not cands:
        idx = allowed[idx]
    return chans, hops, idx


def _stream_state(fab: FlowFabric) -> tuple:
    rng = fab._route_rng
    return rng._state, rng._carry


@settings(max_examples=200, deadline=None)
@given(
    src=st.integers(0, N_NODES - 1),
    dst=st.integers(0, N_NODES - 1),
    backlogs=st.lists(
        st.one_of(st.just(0.0), st.sampled_from(NEAR_TIES), st.floats(0.0, 400.0)),
        min_size=N_CHANNELS, max_size=N_CHANNELS,
    ),
    allowed_bits=st.integers(1, 15),
    score_ejection=st.booleans(),
    draws=st.integers(1, 4),
)
def test_pruned_selection_matches_full_scoring(
    src, dst, backlogs, allowed_bits, score_ejection, draws
):
    pruned, full = _fabric(), _fabric()
    static, cands, _all = pruned._pair_routes(src, dst)
    allowed = tuple(i for i in range(len(cands)) if allowed_bits >> i & 1) or (0,)
    routes = (static, cands, allowed)
    channels = sorted({ch for chans, _pen, _hops in cands for ch in chans})
    assert len(channels) <= N_CHANNELS
    for fab in (pruned, full):
        for ch, backlog in zip(channels, backlogs):
            fab.free_at[ch] = backlog
    for _ in range(draws):
        got = pruned._select_route(routes, RoutingMode.ADAPTIVE, score_ejection)
        want = _full_scoring(full, routes, score_ejection)
        assert got == want
        assert _stream_state(pruned) == _stream_state(full)


@settings(max_examples=400, deadline=None)
@given(
    hop_counts=st.lists(st.integers(1, 6), min_size=2, max_size=6),
    link_backlogs=st.lists(
        st.one_of(st.just(0.0), st.sampled_from(NEAR_TIES), st.floats(0.0, 200.0)),
        min_size=6, max_size=6,
    ),
    eject_backlog=st.sampled_from([0.0, 5.0, 40.0, 400.0]),
    allowed_bits=st.integers(1, 63),
    score_ejection=st.booleans(),
)
def test_pruned_selection_matches_full_scoring_on_synthetic_candidates(
    hop_counts, link_backlogs, eject_backlog, allowed_bits, score_ejection
):
    """Candidates of any hop count in any order, each crossing a switch
    link of its own and one shared ejection channel."""
    pruned, full = _fabric(), _fabric()
    eject = pruned.ejection_channel(N_NODES - 1)
    static = ((pruned.injection_channel(0), eject), 1)
    hop = pruned.config.hop_latency
    cands = tuple(
        ((pruned._link_base + i, eject), hops * hop, hops) for i, hops in enumerate(hop_counts)
    )
    allowed = tuple(i for i in range(len(cands)) if allowed_bits >> i & 1) or (0,)
    routes = (static, cands, allowed)
    for fab in (pruned, full):
        fab.free_at[eject] = eject_backlog
        for i, backlog in enumerate(link_backlogs):
            fab.free_at[fab._link_base + i] = backlog
    for _ in range(3):
        got = pruned._select_route(routes, RoutingMode.ADAPTIVE, score_ejection)
        assert got == _full_scoring(full, routes, score_ejection)
        assert _stream_state(pruned) == _stream_state(full)


class _CountingList(list):
    def __init__(self, items) -> None:
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_a_dominated_candidate_is_not_scored():
    """With the minimal candidate idle, a candidate whose hop penalty
    exceeds that score plus its slack reads none of its channels."""
    fab = _fabric()
    src, dst = 0, N_NODES - 1
    routes = fab._pair_routes(src, dst)
    pens = [pen for _chans, pen, _hops in routes[1]]
    assert pens[0] < pens[-1] and pens[0] * 1.05 < pens[-1]
    fab.free_at = _CountingList(fab.free_at)
    chans, _hops, index = fab._select_route(routes, RoutingMode.ADAPTIVE, True)
    assert index == 0 and chans == routes[1][0][0]
    dominated = [c for c, pen, _h in routes[1] if pen > pens[0] + max(pens[0] * 0.05, 1.0)]
    assert dominated
    scored = sum(len(c) for c, _pen, _h in routes[1]) - sum(len(c) for c in dominated)
    assert fab.free_at.reads == scored
