"""tools/mem_sites.py: a workload's traced peak and its allocation sites."""

import importlib.util
import resource
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.sim.engine import Simulator

ROOT = Path(__file__).resolve().parents[2]

#: A 27-node, one-iteration Halo3D: both legs in about a second.
TINY = {"n_nodes": 27, "params": {"iterations": 1, "msg_bytes": 4096, "compute_ns": 1000.0}}


def _mem_sites():
    path = ROOT / "tools" / "mem_sites.py"
    spec = importlib.util.spec_from_file_location("mem_sites", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="the tool starts tracemalloc itself")
def test_reports_the_traced_peak_and_its_largest_sites():
    tool = _mem_sites()
    engine = Simulator.post, Simulator.wake
    report = tool.measure("halo3d-fig8", size=TINY, top=4)
    assert (Simulator.post, Simulator.wake) == engine
    assert sys.modules["workloads"]._motif_leg.__name__ == "_motif_leg"
    assert not tracemalloc.is_tracing()

    assert 0.9 * report["peak_bytes"] <= report["snapshot_bytes"] <= report["peak_bytes"]
    sizes = [row["bytes"] for row in report["sites"]]
    assert len(sizes) == 4 and sizes == sorted(sizes, reverse=True)
    assert sum(sizes) <= report["snapshot_bytes"]
    for row in report["sites"]:
        path, line = row["site"].rsplit(":", 1)
        assert (ROOT / path).is_file() and int(line) > 0

    legs = report["leg_peaks"]
    assert list(legs) == ["rvma", "rdma"] and max(legs.values()) == report["peak_bytes"]
    assert report["snapshot_bytes"] <= legs[report["snapshot_leg"]]

    header, leg_line, columns, *rows = tool.render(report).splitlines()
    assert header.startswith("halo3d-fig8 seed=20210517: traced peak ")
    floor = report["import_floor_mb"]
    assert 0.0 < floor <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert f" MB, import floor {floor:.2f} MB (ru_maxrss); snapshot at " in header
    assert leg_line.startswith("leg peaks: rvma ")
    assert leg_line.endswith(f"; snapshot in the {report['snapshot_leg']} leg")
    assert columns.split() == ["MB", "count", "avg", "B", "site"]
    assert [row.split()[3] for row in rows] == [row["site"] for row in report["sites"]]


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="the tool starts tracemalloc itself")
def test_rvma_only_drops_the_rdma_leg():
    report = _mem_sites().measure("halo3d-fig8", size=TINY, rvma_only=True, top=3)
    assert report["size"]["legs"] == ["rvma"]
    assert 0.9 * report["peak_bytes"] <= report["snapshot_bytes"] <= report["peak_bytes"]
    assert report["leg_peaks"] == {"rvma": report["peak_bytes"]}
    assert report["snapshot_leg"] == "rvma"


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="the tool starts tracemalloc itself")
def test_a_run_without_legs_reports_none():
    peak, _, legs = _mem_sites().trace_repeat(lambda seed, size: bytearray(1 << 20), 1, {})
    assert legs == {} and peak >= 1 << 20


def test_params_merge_into_the_workload_params():
    tool = _mem_sites()
    params = tool.parse_params(["iterations=10", "compute_ns=1e3", "label=x=y", "flag=true"])
    assert params == {"iterations": 10, "compute_ns": 1000.0, "label": "x=y", "flag": True}
    base = {"n_nodes": 512, "legs": ["rvma", "rdma"],
            "params": {"iterations": 2, "msg_bytes": 98304, "compute_ns": 1000.0}}
    size = tool.workload_size(base, params={"iterations": 10})
    assert size["params"] == {"iterations": 10, "msg_bytes": 98304, "compute_ns": 1000.0}
    assert base["params"]["iterations"] == 2  # the config is not edited
    size = tool.workload_size(base, size={"n_nodes": 27}, params={"iterations": 3}, rvma_only=True)
    assert size == {"n_nodes": 27, "legs": ["rvma"],
                    "params": {"iterations": 3, "msg_bytes": 98304, "compute_ns": 1000.0}}
    no_params = tool.workload_size({"n_ops": 8}, params={"batch": 4})
    assert no_params == {"n_ops": 8, "params": {"batch": 4}}
    for bad in (["iterations"], ["=3"]):
        with pytest.raises(ValueError):
            tool.parse_params(bad)
