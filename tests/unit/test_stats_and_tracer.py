"""Edge cases for the stats primitives.

Covers the seams the observability layer leans on: Histogram merge
semantics (empty / single-sample / binning mismatch) and Summary.merge
(Chan's combine must match single-pass accumulation).
"""

import math

import pytest

from repro.sim.stats import Histogram, Summary


# --- Histogram -----------------------------------------------------------


def test_histogram_empty():
    h = Histogram("h", 0.0, 10.0, nbins=5)
    assert h.count == 0
    assert h.bins == [0] * 5
    assert h.underflow == 0 and h.overflow == 0
    assert h.bin_edges() == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]


def test_histogram_single_sample():
    h = Histogram("h", 0.0, 10.0, nbins=5)
    h.add(4.0)
    assert h.count == 1
    assert h.bins == [0, 0, 1, 0, 0]


def test_histogram_boundary_samples():
    h = Histogram("h", 0.0, 10.0, nbins=5)
    h.add(0.0)       # lo is inclusive -> first bin
    h.add(10.0)      # hi is exclusive -> overflow
    h.add(-0.001)    # below lo -> underflow
    assert h.bins[0] == 1
    assert h.overflow == 1
    assert h.underflow == 1
    assert h.count == 3


def test_histogram_merge_empty_into_populated():
    a = Histogram("a", 0.0, 10.0, nbins=5)
    a.add(1.0)
    b = Histogram("b", 0.0, 10.0, nbins=5)
    a.merge(b)
    assert a.count == 1 and a.bins[0] == 1


def test_histogram_merge_sums_everything():
    a = Histogram("a", 0.0, 10.0, nbins=5)
    b = Histogram("b", 0.0, 10.0, nbins=5)
    for x in (1.0, 3.0, 11.0):
        a.add(x)
    for x in (1.5, -2.0):
        b.add(x)
    a.merge(b)
    assert a.count == 5
    assert a.bins == [2, 1, 0, 0, 0]
    assert a.overflow == 1 and a.underflow == 1


def test_histogram_merge_rejects_binning_mismatch():
    a = Histogram("a", 0.0, 10.0, nbins=5)
    with pytest.raises(ValueError):
        a.merge(Histogram("b", 0.0, 10.0, nbins=6))
    with pytest.raises(ValueError):
        a.merge(Histogram("c", 0.0, 20.0, nbins=5))


def test_histogram_rejects_degenerate_shape():
    with pytest.raises(ValueError):
        Histogram("bad", 5.0, 5.0)
    with pytest.raises(ValueError):
        Histogram("bad", 0.0, 1.0, nbins=0)


# --- Summary.merge -------------------------------------------------------


def test_summary_merge_matches_single_pass():
    xs = [1.0, 2.5, -3.0, 7.25, 0.0, 4.5]
    ref = Summary("ref")
    for x in xs:
        ref.add(x)
    a, b = Summary("a"), Summary("b")
    for x in xs[:2]:
        a.add(x)
    for x in xs[2:]:
        b.add(x)
    a.merge(b)
    assert a.n == ref.n
    assert math.isclose(a.mean, ref.mean)
    assert math.isclose(a.variance, ref.variance)
    assert a.min == ref.min and a.max == ref.max
    assert math.isclose(a.total, ref.total)


def test_summary_merge_empty_sides():
    a, b = Summary("a"), Summary("b")
    b.add(3.0)
    # empty.merge(populated) adopts the populated stats
    a.merge(b)
    assert (a.n, a.mean, a.min, a.max) == (1, 3.0, 3.0, 3.0)
    # populated.merge(empty) is a no-op
    a.merge(Summary("c"))
    assert (a.n, a.mean) == (1, 3.0)


def test_summary_empty_properties():
    s = Summary("s")
    assert s.n == 0 and s.mean == 0.0 and s.variance == 0.0 and s.stddev == 0.0
