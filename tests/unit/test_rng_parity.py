"""Differential oracle: every draw of a ``repro.sim.rng`` stream equals numpy's.

``RngRegistry`` streams reimplement ``numpy.random.Generator(PCG64(
SeedSequence([seed, crc32(name)])))`` in pure Python.  Each case drives
that and numpy's generator through one identical sequence of mixed
``random()``/``integers(low, high)`` calls and compares the results
exactly, as Python ``float``/``int``.  This is the contract: if a case
fails, ``rng.py`` is wrong.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.sim import RngRegistry

np = pytest.importorskip("numpy")

#: The entropy is the seed's little-endian 32-bit words, then the name's
#: crc32 (always one word): two words up to 2**32, three beyond it, and
#: five from 2**96, more than the four-word hash pool holds.
SEEDS = [0, 1, 0xC0FFEE, 20210517, 2**32 + 7, 2**63 + 11, 2**96 + 13]

NAMES = ["fabric0.route", "kv.client.jitter", "x" * 64]

#: ``high - low`` of the ``integers`` draws: trivial, tiny, a power of
#: two plus one (rejection about half the time), 2**32 - 1 and 2**32.
SPANS = [1, 2, 3, 7, 2**31 + 1, 2**32 - 1, 2**32]


def _numpy_stream(seed: int, name: str):
    child = zlib.crc32(name.encode("utf-8"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, child])))


def _script(case_seed: int, n: int) -> list:
    """*n* mixed calls: ``None`` for ``random()``, ``(low, high)`` for ``integers``."""
    pick = random.Random(case_seed)
    calls = []
    for _ in range(n):
        if pick.random() < 0.35:
            calls.append(None)
        else:
            low = pick.choice([0, 5, -3])
            calls.append((low, low + pick.choice(SPANS)))
    return calls


def _draws(stream, calls: list) -> list:
    return [stream.random() if c is None else stream.integers(*c) for c in calls]


def _numpy_draws(gen, calls: list) -> list:
    return [float(gen.random()) if c is None else int(gen.integers(*c)) for c in calls]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", NAMES)
def test_mixed_draws_match_numpy(seed, name):
    calls = _script(seed ^ zlib.crc32(name.encode()), 400)
    ours = _draws(RngRegistry(seed).stream(name), calls)
    assert ours == _numpy_draws(_numpy_stream(seed, name), calls)
    assert all(type(v) is (float if c is None else int) for v, c in zip(ours, calls))


@pytest.mark.parametrize("span", SPANS)
def test_integers_span_matches_numpy(span):
    ours = RngRegistry(20210517).stream("span")
    gen = _numpy_stream(20210517, "span")
    assert [ours.integers(0, span) for _ in range(300)] == [int(gen.integers(0, span)) for _ in range(300)]


def test_carried_half_word_survives_random_calls():
    # A 32-bit draw leaves the high half of its 64-bit word for the next
    # one; random() draws whole words and must leave that half in place.
    calls = [(0, 3), None, None, (0, 3), (0, 3), None, (0, 2**31 + 1), None, (0, 3)] * 20
    ours = RngRegistry(1).stream("carry")
    assert _draws(ours, calls) == _numpy_draws(_numpy_stream(1, "carry"), calls)


def test_span_one_draws_nothing():
    ours = RngRegistry(1).stream("one")
    gen = _numpy_stream(1, "one")
    assert ours.integers(4, 5) == 4 == int(gen.integers(4, 5))
    assert ours.random() == float(gen.random())


def test_registry_helpers_match_numpy():
    reg = RngRegistry(0xC0FFEE)
    gen = _numpy_stream(0xC0FFEE, "h")
    ours = [reg.random("h"), reg.randint("h", 10, 20), reg.choice("h", 6), reg.choice("h", 1)]
    assert ours == [float(gen.random()), int(gen.integers(10, 20)), int(gen.integers(0, 6)), 0]


def test_invalid_arguments_raise():
    with pytest.raises(ValueError):
        RngRegistry(-1).stream("neg")
    with pytest.raises(ValueError):
        np.random.SeedSequence([-1, 0])
    stream = RngRegistry(1).stream("bad")
    with pytest.raises(ValueError):
        stream.integers(3, 3)
    with pytest.raises(ValueError):
        stream.integers(0, 2**32 + 1)
