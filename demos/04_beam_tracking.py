"""Tracking a user cutting radially toward the array, 100 m down to 10 m.

Compares the Kalman-filtered tracker (one pilot per block, measurement
covariance calibrated by a quick Monte Carlo) against the filterless
per-block refinement baseline at 0 dB with block fading.

Run:  python demos/04_beam_tracking.py
"""

import math

import numpy as np

from xlbeam import (ArrayConfig, brpss_step, calibrate_measurement_cov, nfbt_step,
                    run_schemes, snr_db_to_noise_power)
from xlbeam.harness import svg_line_plot, write_csv
from xlbeam.tracking import TrackerConfig, TrackingScenario, Trajectory

cfg = ArrayConfig(n_antennas=512, n_rf=4, wavelength=0.003)

traj = Trajectory(start=(50.0, 50.0 * math.sqrt(3)),
                  velocity=(-5.0, -5.0 * math.sqrt(3)), dt=0.05, n_blocks=180)
scen = TrackingScenario()          # block-fading line of sight + 2 scatterers
noise = snr_db_to_noise_power(0.0, cfg)

mid = traj.position(traj.n_blocks // 2)
zeta_mid = float(np.hypot(*mid))
meas_cov = calibrate_measurement_cov(cfg, noise, mid[1] / zeta_mid, zeta_mid,
                                     scen, seed=99)
print("calibrated measurement covariance (m^2):")
print(np.array_str(meas_cov, precision=2))

tcfg = TrackerConfig(dt=traj.dt, n_blocks=traj.n_blocks, meas_cov=meas_cov,
                     innovation_gate=13.8)

# both schemes in lockstep, 25 seeds each: every run draws from its own generator
n_seeds = 25
schemes = {"filtered": nfbt_step(cfg, tcfg, noise, [*traj.start, 0.0, 0.0]),
           "per_block": brpss_step(cfg, traj.start, noise)}
logs = run_schemes(cfg, traj, tcfg, noise, scen,
                   [(step, [np.random.default_rng(seed) for seed in range(n_seeds)])
                    for step in schemes.values()])
# each log's gain is a (seeds, blocks) array
mean = {name: log.gain.mean(axis=0) for name, log in zip(schemes, logs)}

t_s = [(i + 1) * traj.dt for i in range(traj.n_blocks)]
rows = []
for i, t in enumerate(t_s):
    rows.append({"t_s": t, "gain_filtered": float(mean["filtered"][i]),
                 "gain_per_block": float(mean["per_block"][i])})
write_csv("demo_out/tracking_gains.csv", rows,
          ["t_s", "gain_filtered", "gain_per_block"])
svg_line_plot("demo_out/tracking_gains.svg",
              {"filtered": (t_s, mean["filtered"].tolist()),
               "per-block refinement": (t_s, mean["per_block"].tolist())},
              title="mean beam gain while closing 100 m -> 10 m (0 dB)",
              xlabel="time (s)", ylabel="mean gain")

for t_probe in (1.0, 4.0, 7.0, 9.0):
    i = int(t_probe / traj.dt) - 1
    print(f"t = {t_probe:3.1f} s: filtered {mean['filtered'][i]:.3f}   "
          f"per-block {mean['per_block'][i]:.3f}")
print("wrote demo_out/tracking_gains.csv and .svg")
