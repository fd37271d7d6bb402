"""Guard: what importing ``repro`` costs every process.

Every run pays for whatever its imports load before it simulates
anything.  Two costs no run uses are kept off that path:

- OpenSSL.  The code hashes with blake2 only, and it takes ``blake2s`` and
  ``blake2b`` from CPython's ``_blake2`` (the very objects ``hashlib``
  exports), so ``_hashlib`` and libcrypto never load.
- Every experiment driver.  ``repro.experiments`` imports none of its
  modules, so running the KV drivers does not load the figure sweeps'
  process pool (``multiprocessing``, ``concurrent.futures``).

The checks run in a fresh interpreter because the test process has
imported all of these already, and they count only what the imports
add, so a tool that starts with the interpreter (a coverage hook) does
not count.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules no import of ``repro`` or of the benchmark's drivers may load.
UNUSED = ("_hashlib", "_ssl", "multiprocessing", "concurrent.futures")

#: Every module that hashes, with the blake2 functions it uses.
BLAKE2_SITES = {
    "repro.core.addressing": ("blake2b",),
    "repro.recovery.auditor": ("blake2s",),
    "repro.workloads.trace": ("blake2s",),
    "repro.workloads.replayer": ("blake2s",),
    "repro.experiments.chaos": ("blake2s",),
    "repro.scenarios.schema": ("blake2s",),
    "repro.scenarios.runner": ("blake2s",),
}


def _loaded_by(imports: str) -> list[str]:
    """The modules that *imports* add to a fresh interpreter's ``sys.modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    script = (
        "import json, sys\nbefore = set(sys.modules)\n"
        f"{imports}\nprint(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_benchmark_imports_load_no_openssl_and_no_process_pool():
    loaded = _loaded_by(
        "import repro\nimport repro.experiments.kv_churn\nimport repro.experiments.trace_replay"
    )
    assert "repro.experiments.kv_churn" in loaded
    assert [name for name in UNUSED if name in loaded] == []


def test_no_module_that_hashes_loads_openssl():
    loaded = _loaded_by("\n".join(f"import {module}" for module in BLAKE2_SITES))
    assert [name for name in UNUSED if name in loaded] == []


def test_the_experiments_package_imports_no_driver():
    loaded = _loaded_by("import repro.experiments")
    assert "repro.experiments" in loaded
    assert [name for name in loaded if name.startswith("repro.experiments.")] == []


@pytest.mark.parametrize("module", sorted(BLAKE2_SITES))
def test_every_site_hashes_with_hashlibs_own_blake2(module):
    site = importlib.import_module(module)
    for name in BLAKE2_SITES[module]:
        assert getattr(site, name) is getattr(hashlib, name)
