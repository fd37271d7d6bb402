"""Deterministic named random-number streams.

Every stochastic decision in the simulator (adaptive route choice,
jitter, fault injection) draws from a *named* stream so that adding a
new consumer of randomness never perturbs existing streams — a property
SST also provides and which makes A/B comparisons (RDMA vs RVMA on the
same network) exact.

A stream is numpy's default bit generator reimplemented bit for bit in
pure Python: ``SeedSequence([seed, crc32(name)])`` seeds a PCG64
(XSL-RR 128/64) generator, ``random()`` is ``Generator.random()`` and
``integers(low, high)`` is ``Generator.integers(low, high)`` (Lemire's
bounded draw on 32-bit words).  Every draw equals numpy's, so no run
needs numpy; ``tests/unit/test_rng_parity.py`` checks the equality
against numpy itself.
"""

from __future__ import annotations

import zlib

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_TWO32 = 1 << 32

# SeedSequence hash constants (pool of four 32-bit words, xorshift 16).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy_words(values) -> list:
    """Each non-negative int as its little-endian 32-bit words (0 -> ``[0]``)."""
    words = []
    for n in values:
        if n < 0:
            raise ValueError("expected non-negative integer")
        if n == 0:
            words.append(0)
        while n:
            words.append(n & _M32)
            n >>= 32
    return words


def _seed_sequence(words: list) -> list:
    """``SeedSequence(words).generate_state(8)``: eight 32-bit words."""
    h = _INIT_A
    pool = []
    for i in range(4):
        v = (words[i] if i < len(words) else 0) ^ h
        h = h * _MULT_A & _M32
        v = v * h & _M32
        pool.append(v ^ v >> 16)
    for src in range(4):
        for dst in range(4):
            if dst != src:
                v = pool[src] ^ h
                h = h * _MULT_A & _M32
                v = v * h & _M32
                v ^= v >> 16
                r = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * v) & _M32
                pool[dst] = r ^ r >> 16
    for word in words[4:]:
        for dst in range(4):
            v = word ^ h
            h = h * _MULT_A & _M32
            v = v * h & _M32
            v ^= v >> 16
            r = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * v) & _M32
            pool[dst] = r ^ r >> 16
    h = _INIT_B
    out = []
    for i in range(8):
        v = pool[i & 3] ^ h
        h = h * _MULT_B & _M32
        v = v * h & _M32
        out.append(v ^ v >> 16)
    return out


class Pcg64Stream:
    """One named stream: numpy's ``Generator(PCG64(SeedSequence(entropy)))``.

    Only the two draws the simulator makes are provided, each returning
    exactly the value numpy would.
    """

    __slots__ = ("_state", "_inc", "_carry")

    def __init__(self, entropy) -> None:
        w = _seed_sequence(_entropy_words(entropy))
        initstate = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
        inc = ((w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32) << 1 & _M128 | 1
        # pcg64_srandom_r: state 0, step, add initstate, step.
        self._state = ((inc + initstate) * _PCG_MULT + inc) & _M128
        self._inc = inc
        #: high half of the last 64-bit word, owed to the next 32-bit draw.
        self._carry = None

    def random(self) -> float:
        """Uniform float in ``[0, 1)``: the top 53 bits of one 64-bit draw."""
        s = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = s
        x = ((s >> 64) ^ s) & _M64
        r = s >> 122
        return ((((x >> r) | (x << (64 - r))) & _M64) >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        """Uniform int in ``[low, high)``; ``high - low`` may be at most 2**32."""
        rng = high - 1 - low
        if rng <= 0:
            if rng == 0:
                return low
            raise ValueError("low >= high")
        if rng > _M32:
            raise ValueError("integers supports ranges up to 2**32")
        excl = rng + 1
        # Lemire: a product whose low word falls below 2**32 % excl is biased.
        threshold = _TWO32 % excl
        while True:
            x = self._carry
            if x is None:
                s = (self._state * _PCG_MULT + self._inc) & _M128
                self._state = s
                x = ((s >> 64) ^ s) & _M64
                r = s >> 122
                x = ((x >> r) | (x << (64 - r))) & _M64
                self._carry = x >> 32
                x &= _M32
            else:
                self._carry = None
            m = x * excl
            if m & _M32 >= threshold:
                return low + (m >> 32)


class RngRegistry:
    """Registry of independent, reproducible PCG64 streams.

    Streams are keyed by string; the same (seed, name) pair always
    yields an identical sequence.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, Pcg64Stream] = {}

    def stream(self, name: str) -> Pcg64Stream:
        """Return (creating on first use) the generator for *name*."""
        gen = self._streams.get(name)
        if gen is None:
            # Derive a child seed from the master seed and the stream name
            # deterministically (crc32 is stable across platforms/runs).
            gen = Pcg64Stream((self.seed, zlib.crc32(name.encode("utf-8"))))
            self._streams[name] = gen
        return gen

    def randint(self, name: str, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)`` from the named stream."""
        return self.stream(name).integers(low, high)

    def random(self, name: str) -> float:
        """Uniform float in ``[0, 1)`` from the named stream."""
        return self.stream(name).random()

    def choice(self, name: str, n: int) -> int:
        """Uniform index in ``[0, n)`` — handy for route selection."""
        if n <= 0:
            raise ValueError("choice requires n >= 1")
        if n == 1:
            return 0
        return self.stream(name).integers(0, n)
