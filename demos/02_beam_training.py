"""Two-stage beam training on one random channel, against the baselines.

Shows the pilot economics: the subarray sweep spends M pilots once, then
every hybrid codeword is tested digitally for free, while the exhaustive
sweep needs one pilot per codeword.

Run:  python demos/02_beam_training.py
"""

import numpy as np

from xlbeam import (ArrayConfig, baseline_ffbs, baseline_hfbs,
                    build_hybrid_codebook, build_subarray_codebook,
                    design_hybrid, alignment_gain, sample_channels,
                    snr_db_to_noise_power, stage1_sweep, stage2_select)
from xlbeam.training import design_all, sweep_signals

cfg = ArrayConfig(n_antennas=512, n_rf=4, wavelength=0.003)
book = build_hybrid_codebook(cfg, 512, 11)
sub = build_subarray_codebook(cfg)
design = design_all(book, sub)

# every function takes a stack of channels: here a stack of one
rngs = [np.random.default_rng(2024)]
channels = sample_channels(cfg, rngs)
print(f"line of sight: omega = {channels.sines[0, 0]:+.4f}, "
      f"range = {channels.ranges[0, 0]:.2f} m, |gain| = {abs(channels.gains[0, 0]):.3f}")

noise = snr_db_to_noise_power(10.0, cfg)
print(f"SNR 10 dB -> per-antenna noise power {noise:.3e}")

thbt = stage2_select(book, design, stage1_sweep(cfg, sub, channels.h, noise, rngs))
# the sweeps' noiseless outputs: one per codeword, far-field block last
signals = sweep_signals(book, channels.h)
hfbs = baseline_hfbs(book, signals, noise, rngs)
ffbs = baseline_ffbs(book, signals[:, book.n_near:], noise, rngs)

for res in (thbt, hfbs, ffbs):
    best = int(res.best_index[0])
    cw = book.params(best)
    where = "far field" if cw.is_far else f"{cw.distance:7.2f} m"
    print(f"{res.scheme:5s}: pilots {res.pilots:5d}  ->  codeword {best}"
          f"  (theta {cw.theta:+.4f}, {where})")

# post-training combining: continuous subarray beams at the winning cell
pair = design_hybrid(cfg, thbt.rough_omega, thbt.rough_range)
print(f"aligned gain via hybrid combiner: "
      f"{alignment_gain(channels, pair.combined_vector())[0]:.4f}")
print(f"aligned gain via exhaustive pick: "
      f"{alignment_gain(channels, book.column(hfbs.best_index))[0]:.4f}")
