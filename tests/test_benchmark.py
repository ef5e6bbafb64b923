"""The benchmark's workloads run against this tree.

Each workload of ``benchmarks/workload.py`` runs once at its smoke trial
count, so a change to the library that the benchmark reads (the codebook's
``matrix``, the drivers, their rows) fails here and not only in a
benchmark run.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_workload(name: str, out: Path, *flags: str) -> dict:
    """One smoke run of a workload; its JSON record."""
    env = dict(os.environ, **BLAS_THREADS, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "workload.py"), "--workload", name,
         "--seed", "1", "--out", str(out), "--smoke", *flags,
         "--spawned", repr(time.monotonic())],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", ["train4", "position", "track"])
def test_smoke_run_passes_its_checks(name, tmp_path):
    assert run_workload(name, tmp_path)["errors"] == []


def test_traced_run_reads_the_stored_codebook(tmp_path):
    record = run_workload("position", tmp_path, "--trace")
    assert record["errors"] == []
    # the near rings of 256 of the 512 angles, then the 512 far columns
    assert record["layers"]["codebooks.matrix_mb"] == 16 * 512 * (256 * 11 + 512) / 1e6


def test_traced_run_times_the_sweep_baselines(tmp_path):
    # the tracer wraps baseline_hfbs and baseline_ffbs by name; an experiment that
    # stops calling them would leave their spans at zero
    record = run_workload("train4", tmp_path, "--trace")
    assert record["errors"] == []
    assert record["layers"]["training.hfbs.self_s"] > 0
    assert record["layers"]["training.ffbs.self_s"] > 0
