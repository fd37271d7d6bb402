"""Unit helpers used throughout the simulator.

Conventions (chosen once, used everywhere):

* **Time** is measured in *nanoseconds* and carried as ``float``.
* **Data sizes** are measured in *bytes* and carried as ``int``.
* **Bandwidth** is measured in *bytes per nanosecond* (``float``), which
  conveniently equals gigabytes per second (1 B/ns == 1e9 B/s ~ 0.93 GiB/s).

These helpers exist so that call sites read like the paper: the paper
speaks in Gbps link rates, microsecond latencies and KiB message sizes.
"""

from __future__ import annotations

# --- time -----------------------------------------------------------------

NS = 1.0
US = 1_000.0
MS = 1_000_000.0
S = 1_000_000_000.0


def ns(x: float) -> float:
    """Return *x* nanoseconds as simulator time units (identity)."""
    return x * NS


def us(x: float) -> float:
    """Return *x* microseconds in nanoseconds."""
    return x * US


def seconds(x: float) -> float:
    """Return *x* seconds in nanoseconds."""
    return x * S


# --- data size --------------------------------------------------------------

KiB = 1024
MiB = 1024 * 1024
GiB = 1024 * 1024 * 1024


def kib(x: float) -> int:
    """Return *x* KiB in bytes."""
    return int(x * KiB)


def mib(x: float) -> int:
    """Return *x* MiB in bytes."""
    return int(x * MiB)


# --- bandwidth ----------------------------------------------------------------


def gbps(x: float) -> float:
    """Convert a link rate in gigabits/second to bytes/nanosecond.

    100 Gbps == 12.5 B/ns.  This is the unit used by every link,
    crossbar and DMA engine in the simulator.
    """
    return x / 8.0


def serialization_ns(size_bytes: int, bw_bytes_per_ns: float) -> float:
    """Time to clock *size_bytes* onto a channel of the given bandwidth."""
    if bw_bytes_per_ns <= 0:
        raise ValueError(f"bandwidth must be positive, got {bw_bytes_per_ns}")
    return size_bytes / bw_bytes_per_ns


# --- formatting ---------------------------------------------------------------


def fmt_time(t_ns: float) -> str:
    """Human-readable time: picks ns/us/ms/s as appropriate."""
    a = abs(t_ns)
    if a < 1e3:
        return f"{t_ns:.1f}ns"
    if a < 1e6:
        return f"{t_ns / 1e3:.3f}us"
    if a < 1e9:
        return f"{t_ns / 1e6:.3f}ms"
    return f"{t_ns / 1e9:.3f}s"


def fmt_bytes(n: int) -> str:
    """Human-readable byte count (B / KiB / MiB / GiB)."""
    a = abs(n)
    if a < KiB:
        return f"{n}B"
    if a < MiB:
        return f"{n / KiB:.1f}KiB"
    if a < GiB:
        return f"{n / MiB:.1f}MiB"
    return f"{n / GiB:.2f}GiB"


def fmt_gbps(bw_bytes_per_ns: float) -> str:
    """Render a bytes/ns bandwidth as the Gbps figure the paper uses."""
    g = bw_bytes_per_ns * 8.0
    if g >= 1000:
        return f"{g / 1000:g}Tbps"
    return f"{g:g}Gbps"
