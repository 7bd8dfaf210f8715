"""Checks of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py

The determinism test makes three traced runs per workload, about two
minutes each on a 2-vCPU host; ``-k layers`` runs only the fast checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from run import LATENCIES  # noqa: E402

#: host-time units; every other metric is simulated or an exact count
HOST_UNITS = {"s", "us"}


def traced(workload: str, seed: int, hash_seed: int = 0) -> dict[str, float]:
    """The simulated metrics and exact counts of one traced run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        env={**os.environ, "PYTHONHASHSEED": str(hash_seed)})
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in HOST_UNITS and not name.startswith("trace.")}


@pytest.mark.parametrize("workload", sorted(LATENCIES))
def test_simulated_metrics_repeat_exactly_per_seed(workload):
    first = traced(workload, 1)
    # another process, with another string-hash layout
    assert traced(workload, 1, hash_seed=12345) == first
    other = traced(workload, 2)
    assert other != first                      # the seed reaches the inputs
    assert other.keys() == first.keys()


def test_layers_every_repro_entry_has_a_layer():
    repro = ROOT / "src" / "repro"
    entries = {p.name for p in repro.iterdir()
               if p.suffix == ".py" or (p / "__init__.py").is_file()}
    assert entries <= layers.LAYERS.keys()


def test_layers_an_unmapped_repro_file_fails_loudly():
    attribution = layers.Attribution(ROOT / "src" / "repro", BENCH_DIR)
    with pytest.raises(layers.UnmappedFile):
        attribution.layer_of_file(str(ROOT / "src" / "repro" / "newpkg" / "x.py"))
    assert attribution.layer_of_file(str(BENCH_DIR / "run.py")) == "bench"
    assert attribution.layer_of_file("~") is None
