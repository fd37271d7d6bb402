"""Host-time attribution of a profiled repeat to the ``repro`` packages.

A layer is a package under ``src/repro/``: a Python function belongs to the
layer whose directory holds its code.  Code outside the listed layers (other
``repro`` packages, the standard library, the benchmark itself) counts as
``rest``.  C builtins have no file.  Each builtin's self time is charged to
the layers that called it, by the time cProfile recorded for each caller.
``calls_in`` counts calls into a layer's functions from another layer.  A
builtin caller (``generator.send`` resuming a process) counts as the layer
that calls that builtin most.
"""

from __future__ import annotations

import pstats
from pathlib import PurePath

LAYERS = (
    "sim", "network", "nic", "memory", "rdma", "reliability", "core",
    "services", "workloads", "motifs", "observability", "rest",
)

#: cProfile's file name for C builtins.
BUILTIN = "~"


def layer_of(filename: str) -> str:
    """The layer of code defined in *filename*."""
    parts = PurePath(filename).parts
    for i in range(len(parts) - 2):
        if parts[i] == "repro" and parts[i + 1] in LAYERS:
            return parts[i + 1]
    return "rest"


def attribute(stats: pstats.Stats) -> dict:
    """``host.<layer>.self_s``, ``.share`` (%) and ``.calls_in`` for every layer.

    The shares add up to 100% of the profile's self time.
    """
    table = stats.stats  # func -> (cc, nc, tt, ct, callers{func: (nc, cc, tt, ct)})
    builtin_layers: dict = {}

    def caller_layer(func, seen=()) -> str:
        if func[0] != BUILTIN:
            return layer_of(func[0])
        if func not in builtin_layers:
            callers = table[func][4] if func in table else {}
            top = max(callers, key=lambda c: callers[c][0], default=None)
            builtin_layers[func] = (
                "rest" if top is None or top in seen else caller_layer(top, seen + (func,))
            )
        return builtin_layers[func]

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls_in = dict.fromkeys(LAYERS, 0)
    for func, (_cc, _nc, tt, _ct, callers) in table.items():
        if func[0] == BUILTIN:
            charged = 0.0
            for caller, (_n, _c, caller_tt, _t) in callers.items():
                self_s[caller_layer(caller)] += caller_tt
                charged += caller_tt
            self_s["rest"] += tt - charged
            continue
        layer = layer_of(func[0])
        self_s[layer] += tt
        for caller, (n, _c, _tt, _t) in callers.items():
            if caller_layer(caller) != layer:
                calls_in[layer] += n
    total = sum(self_s.values())
    out = {}
    for layer in LAYERS:
        out[f"host.{layer}.self_s"] = self_s[layer]
        out[f"host.{layer}.share"] = 100.0 * self_s[layer] / total if total else 0.0
        out[f"host.{layer}.calls_in"] = calls_in[layer]
    return out
