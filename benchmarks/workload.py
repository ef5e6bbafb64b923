"""One benchmark process: set up xlbeam cold, run one experiment driver, write
and check its CSV, and print a JSON record as the last line of stdout.

Run by ``run.py`` as a fresh interpreter per experiment call, with the
checkout's ``src`` on ``PYTHONPATH``:

    python3 benchmarks/workload.py --workload train4 --seed 1 --spawned <monotonic s>

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; on Linux that clock is shared by all processes, so set-up
and wall times include interpreter start-up.  Exit code 3 means xlbeam
could not be imported from the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PILOTS = {"thbt": 128, "thbt_brpss": 129, "hfbs": 6144, "ffbs": 512,
          "nfbt": 1, "hfns": 5, "brpss": 1, "ffbt_proxy": 3, "perfect_csi": 0}
GAIN_TOL = 1e-9
POSITION_HIT_M = 2.0

# The reference array (N=512, N_RF=4, lambda=3 mm) and codebook (Q=512, S=11)
# are shared by every workload.  ``trials`` is per SNR point for training and
# the number of seeds for tracking; ``smoke_trials`` is for the smoke test.
ARRAY = {"n_antennas": 512, "n_rf": 4, "wavelength": 0.003}
Q, S = 512, 11
WORKLOADS = {
    "train4": {"driver": "gain_vs_snr", "schemes": ("thbt", "thbt_brpss", "hfbs", "ffbs"),
               "snr_grid_db": (0.0, 10.0), "workers": 1, "trials": 150,
               "smoke_trials": 2},
    "position": {"driver": "positioning_cdf", "schemes": ("thbt", "thbt_brpss"),
                 "snr_grid_db": (20.0,), "workers": 2, "trials": 600,
                 "smoke_trials": 4},
    "track": {"driver": "tracking_experiment",
              "schemes": ("nfbt", "brpss", "hfns", "ffbt_proxy"),
              "snr_grid_db": (0.0,), "workers": 2, "trials": 6, "smoke_trials": 1},
}
# configs/tracking.json's trajectory and tracker, fixed here so the workload
# does not move when that config does.
TRAJECTORY = {"start": (50.0, 86.60254037844386), "velocity": (-5.0, -8.660254037844386),
              "dt": 0.05, "n_blocks": 180}
TRACKER = {"accel_intensity": 1.0, "innovation_gate": 13.8}
TRACKING_CHANNEL = {"fading": True, "n_nlos": 2, "nlos_gain_var": 0.01}


def build_spec(ex, cfg, name: str, seed: int, trials: int):
    from xlbeam.tracking import TrackerConfig, TrackingScenario, Trajectory

    w = WORKLOADS[name]
    extra = {}
    if w["driver"] == "tracking_experiment":
        traj = Trajectory(**TRAJECTORY)
        extra = {"trajectory": traj,
                 "tracker": TrackerConfig(dt=traj.dt, n_blocks=traj.n_blocks, **TRACKER),
                 "tracking_scenario": TrackingScenario(**TRACKING_CHANNEL)}
    return ex.ExperimentSpec(cfg=cfg, n_angles=Q, n_rings=S, schemes=w["schemes"],
                             trials=trials, seed=seed, workers=w["workers"],
                             snr_grid_db=w["snr_grid_db"], **extra)


def trial_count(name: str, trials: int) -> int:
    """Trials as defined in README.md: one channel draw per SNR point for
    training, one 180-block run per scheme (perfect CSI included) for tracking."""
    w = WORKLOADS[name]
    if w["driver"] == "tracking_experiment":
        return trials * (len(w["schemes"]) + 1) * len(w["snr_grid_db"])
    return trials * len(w["snr_grid_db"])


def check_rows(name: str, rows: list[dict], trials: int) -> list[str]:
    """Output checks; an empty list means the rows are correct."""
    w = WORKLOADS[name]
    errors = []
    if w["driver"] == "gain_vs_snr":
        expected = len(w["schemes"]) * len(w["snr_grid_db"])
        pilot_key = "pilots"
    elif w["driver"] == "positioning_cdf":
        expected = len(w["schemes"]) * 101
        pilot_key = None
    else:
        blocks = TRAJECTORY["n_blocks"]
        expected = (len(w["schemes"]) * (blocks + 1) + 1) * len(w["snr_grid_db"])
        pilot_key = "pilots_per_block"
    if len(rows) != expected:
        errors.append(f"{len(rows)} rows, expected {expected}")
    last_err: dict[str, float] = {}
    for row in rows:
        scheme = row["scheme"]
        if pilot_key and row[pilot_key] != PILOTS[scheme]:
            errors.append(f"{scheme}: {row[pilot_key]} pilots, expected {PILOTS[scheme]}")
        if "mean_gain" in row:
            g = row["mean_gain"]
            if not (math.isfinite(g) and 0.0 <= g <= 1.0 + GAIN_TOL):
                errors.append(f"{scheme}: gain {g!r} outside [0, 1]")
        if "error_m" in row:
            e = row["error_m"]
            if math.isnan(e) or e < last_err.get(scheme, 0.0):
                errors.append(f"{scheme}: error quantiles not non-decreasing at {row['quantile']}")
            last_err[scheme] = e
        if row.get("trials", row.get("seeds")) != trials:
            errors.append(f"{scheme}: row reports {row.get('trials', row.get('seeds'))} trials")
    return errors[:10]


def quality(name: str, rows: list[dict]) -> float:
    """The workload's accuracy guard (a ratio; higher is better).

    train4: mean thbt_brpss alignment gain over both SNR points.
    position: share of trials whose thbt_brpss position error is within
    2 m, read off the error CDF rows.
    track: mean nfbt alignment gain over all blocks and seeds at 0 dB.
    """
    driver = WORKLOADS[name]["driver"]
    if driver == "gain_vs_snr":
        gains = [r["mean_gain"] for r in rows if r["scheme"] == "thbt_brpss"]
        return sum(gains) / len(gains)
    if driver == "positioning_cdf":
        return max((r["quantile"] for r in rows
                    if r["scheme"] == "thbt_brpss" and r["error_m"] <= POSITION_HIT_M),
                   default=0.0)
    return next(r["mean_gain"] for r in rows
                if r["experiment"] == "tracking_se_vs_snr" and r["scheme"] == "nfbt")


def machine_context() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS", "unset"),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    trials = w["smoke_trials"] if args.smoke else w["trials"]

    t_import = time.monotonic()
    try:
        import xlbeam
        from xlbeam.harness import experiments as ex
        from xlbeam.harness import io as xio
    except ImportError as exc:
        print(f"error: cannot import xlbeam: {exc}", file=sys.stderr)
        return 3
    import_s = time.monotonic() - t_import
    if Path(xlbeam.__file__).resolve().parent != ROOT / "src" / "xlbeam":
        print(f"error: xlbeam imported from {xlbeam.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 3

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    cfg = xlbeam.ArrayConfig(**ARRAY)
    ex.clear_workspace_cache()
    book, _, _ = ex.workspace(cfg, Q, S)
    t_ready = time.monotonic()

    spec = build_spec(ex, cfg, args.workload, args.seed, trials)
    layers = {}
    if tracer is not None:
        layers = tracer.setup_metrics()
        layers["codebooks.matrix_mb"] = book.matrix.nbytes / 1e6
        layers["setup.import_s"] = import_s
        tracer.reset()
    t_trial = time.monotonic()
    rows = getattr(ex, w["driver"])(spec)
    trial_s = time.monotonic() - t_trial

    out = Path(args.out)
    t_write = time.monotonic()
    columns = list(dict.fromkeys(k for row in rows for k in row))
    xio.write_csv(out / f"{w['driver']}.csv", rows, columns)
    xio.write_manifest(out / "manifest.json",
                       {"workload": args.workload, "trials": trials, **ARRAY, "q": Q, "s": S},
                       args.seed, [f"{w['driver']}.csv"])
    write_s = time.monotonic() - t_write
    csv_sha = hashlib.sha256((out / f"{w['driver']}.csv").read_bytes()).hexdigest()
    errors = check_rows(args.workload, rows, trials)
    t_done = time.monotonic()

    if tracer is not None:
        layers.update(tracer.layer_metrics(trial_s, w["workers"]))
        layers["harness.io.write_s"] = write_s
    record = {
        "setup_s": t_ready - args.spawned,
        "wall_s": t_done - args.spawned,
        "trial_s": trial_s,
        "trials": trial_count(args.workload, trials),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "quality": quality(args.workload, rows) if not errors else 0.0,
        "csv_sha256": csv_sha,
        "errors": errors,
        "layers": layers,
        "absent": tracer.absent if tracer is not None else [],
        "context": machine_context(),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
