"""The committed exemplar traces under ``corpus/traces/``.

Two pinned traces every replay consumer (CLI compare, CI trace-replay
job, cost-ledger kv-trace cell, scenario-fuzzer ``trace`` workloads) shares:

* ``steady-mix`` — a single-tenant open-loop get/put/delete mix with
  Zipf-skewed keys, recorded from the stock :class:`LoadGenerator`;
  the plain "does replay reproduce a recorded run" workhorse.
* ``flash-crowd`` — two tenants (1 = victim, 2 = aggressor) with a
  hot-key GET flash crowd injected into the aggressor's stream via
  trace transforms; the load shape that makes QoS isolation and
  active-mailbox serving visibly diverge on identical offered load.

The registry pins each trace's identity (trace_id) and shape (rows,
clients, tenants); ``tests/unit/test_trace_codec.py`` asserts the
committed files still match, so a regenerated or hand-edited trace
cannot drift in silently.  Regeneration lives in
``repro.experiments.trace_replay`` (``trace record`` + transforms).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .trace import Trace

#: corpus/traces/ at the repo root (… /src/repro/workloads/exemplars.py).
TRACES_DIR = Path(__file__).resolve().parents[3] / "corpus" / "traces"


@dataclass(frozen=True)
class ExemplarInfo:
    """Pinned identity + shape of one committed trace."""

    name: str
    file: str
    trace_id: str
    rows: int
    clients: int
    tenants: tuple


#: Filled in when the exemplars were generated; pinned by unit tests.
EXEMPLARS = {
    "steady-mix": ExemplarInfo(
        name="steady-mix",
        file="steady-mix.jsonl",
        trace_id="1ff9996b3c04",
        rows=240,
        clients=3,
        tenants=(0,),
    ),
    "flash-crowd": ExemplarInfo(
        name="flash-crowd",
        file="flash-crowd.jsonl",
        trace_id="082d6420dbb7",
        rows=300,
        clients=4,
        tenants=(1, 2),
    ),
}

EXEMPLAR_NAMES = tuple(sorted(EXEMPLARS))


def exemplar_path(name: str) -> Path:
    info = EXEMPLARS.get(name)
    if info is None:
        raise KeyError(f"unknown exemplar trace {name!r} (have {EXEMPLAR_NAMES})")
    return TRACES_DIR / info.file


def load_exemplar(name: str) -> Trace:
    """Load a committed exemplar and verify it matches its pinned shape."""
    info = EXEMPLARS[name] if name in EXEMPLARS else None
    if info is None:
        raise KeyError(f"unknown exemplar trace {name!r} (have {EXEMPLAR_NAMES})")
    trace = Trace.load(str(TRACES_DIR / info.file))
    if trace.trace_id != info.trace_id or trace.n_ops != info.rows:
        raise ValueError(
            f"exemplar {name!r} drifted: file is {trace.trace_id}/{trace.n_ops} "
            f"rows, registry pins {info.trace_id}/{info.rows}"
        )
    return trace
