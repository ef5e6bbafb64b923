"""xlbeam benchmark: time-to-result of the Monte Carlo experiment drivers.

    python3 benchmarks/run.py --workload {train4,position,track} --seed N \
        --seconds S --trace {0,1}

Runs one workload as a closed loop with one client: fresh processes
(``workload.py``), one experiment call each, the next starting when the
previous one has ended, until ``--seconds`` have passed.  All processes of
a run use the same seed, so their CSVs must be byte-identical.

``--trace 0`` reports the end-to-end metrics (medians over the processes).
``--trace 1`` alternates untraced and traced processes and reports the
per-layer metrics of the traced ones; ``trace.overhead_s`` is the traced
minus the untraced median wall time.  Metric names and units come from
BENCHMARK.json.  The last stdout line is the JSON result; the full record
(machine context, per-process numbers) goes to ``benchmarks/out/``.
Exit code 1 means an output check failed, 2 that the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PROCESSES = 2          # the CSV identity check needs two runs of one seed
CHILD_TIMEOUT_S = 120.0    # keeps a run under 180 s when it starts late in --seconds
# One BLAS thread per process, so that a process runs no more threads than
# its experiment's workers (at most nproc).  With OpenBLAS's default of one
# thread per CPU under a worker pool, run medians spread past 25% on a shared
# 2-vCPU host, and a single competing thread halved one-worker throughput.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_child(workload: str, seed: int, trace: bool, smoke: bool, slot: int) -> dict:
    """Start one workload process, wait for it, and return its record."""
    out = HERE / "out" / f"{workload}-{slot}"
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"errors": [f"timed out after {CHILD_TIMEOUT_S:.0f} s"], "traced": trace}
    if proc.returncode == 3:
        raise SystemExit(2)        # xlbeam missing from the checkout: no result
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"errors": [f"exit code {proc.returncode}"], "traced": trace}
    record = json.loads(lines[-1])
    record["traced"] = trace
    return record


def median(records: list[dict], key: str) -> float:
    values = [r[key] for r in records]
    return statistics.median(values) if values else 0.0


def end_to_end(ok: list[dict], attempted: int) -> dict[str, float]:
    return {
        "setup_s": median(ok, "setup_s"),
        "wall_s": median(ok, "wall_s"),
        "trials_per_s": statistics.median([r["trials"] / r["trial_s"] for r in ok]) if ok else 0.0,
        "peak_rss_mb": median(ok, "peak_rss_mb"),
        "ok_ratio": len(ok) / attempted,
        "quality": median(ok, "quality"),
    }


def per_layer(plain: list[dict], traced: list[dict], names: list[str]) -> dict[str, float]:
    values = {n: statistics.median([r["layers"].get(n, 0.0) for r in traced]) if traced
              else 0.0 for n in names}
    values["trace.overhead_s"] = median(traced, "wall_s") - median(plain, "wall_s")
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["train4", "position", "track"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny trial counts, for the smoke test")
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "xlbeam" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no xlbeam sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    records = []
    start = time.monotonic()
    while time.monotonic() - start < args.seconds or len(records) < MIN_PROCESSES * (1 + args.trace):
        traced = bool(args.trace) and len(records) % 2 == 1
        records.append(run_child(args.workload, args.seed, traced, args.smoke, len(records)))

    digests = {r["csv_sha256"] for r in records if "csv_sha256" in r}
    if len(digests) > 1:
        for r in records:
            r["errors"].append("CSV differs from another run of the same seed")
    ok = [r for r in records if not r["errors"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if args.trace:
        values = per_layer(plain, traced, [m["name"] for m in wanted])
    else:
        values = end_to_end(plain, len(records))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "context": next((r["context"] for r in ok), {}),
              "absent": sorted({a for r in traced for a in r["absent"]}),
              "records": [{k: v for k, v in r.items() if k != "context"} for r in records],
              "metrics": metrics}
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")

    print(f"context: {json.dumps(report['context'], sort_keys=True)}")
    for r in records:
        if r["errors"]:
            print(f"check failed: {'; '.join(r['errors'])}")
    if report["absent"]:
        print(f"absent entry points: {', '.join(report['absent'])}")
    print(f"{args.workload}: {len(records)} processes, {len(ok)} ok "
          f"({len(plain)} untraced, {len(traced)} traced)")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']}")
    failed = len(records) - len(ok)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
