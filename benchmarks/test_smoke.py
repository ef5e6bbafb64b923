"""Smoke test of the benchmark at tiny trial counts.

    python3 -m pytest -q benchmarks/test_smoke.py

Runs every workload untraced and traced and checks that each metric named
in BENCHMARK.json is printed with its unit and that the output checks pass.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * (1 + trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]
    if trace:
        report = json.loads((ROOT / "benchmarks" / "out" /
                             f"{workload}-seed5-trace1.json").read_text())
        produced = {k for r in report["records"] for k in r["layers"]}
        assert produced | {"trace.overhead_s"} == set(result["metrics"])
    else:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])
    assert "absent entry points" not in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for f in (ROOT / "benchmarks").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "train4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_flag_wrong_outputs():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workload import check_rows

    rows = [{"experiment": "gain_vs_snr", "scheme": s, "snr_db": snr, "mean_gain": 0.5,
             "trials": 3, "pilots": p}
            for snr in (0.0, 10.0)
            for s, p in (("thbt", 128), ("thbt_brpss", 129), ("hfbs", 6144), ("ffbs", 512))]
    assert check_rows("train4", rows, 3) == []
    assert check_rows("train4", rows[:-1], 3)                       # row count
    assert check_rows("train4", [dict(rows[0], pilots=127)] + rows[1:], 3)
    assert check_rows("train4", [dict(rows[0], mean_gain=1.01)] + rows[1:], 3)
    assert check_rows("train4", [dict(rows[0], mean_gain=float("nan"))] + rows[1:], 3)
