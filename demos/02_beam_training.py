"""Two-stage beam training on one random channel, against the baselines.

Shows the pilot economics: the subarray sweep spends M pilots once, then
every hybrid codeword is tested digitally for free, while the exhaustive
sweep needs one pilot per codeword.

Run:  python demos/02_beam_training.py
"""

import numpy as np

from xlbeam import (ArrayConfig, baseline_ffbs, baseline_hfbs,
                    build_hybrid_codebook, build_subarray_codebook,
                    design_hybrid, alignment_gain, run_thbt, sample_channel,
                    snr_db_to_noise_power)
from xlbeam.training import design_all

cfg = ArrayConfig(n_antennas=512, n_rf=4, wavelength=0.003)
book = build_hybrid_codebook(cfg, 512, 11)
sub = build_subarray_codebook(cfg)
design = design_all(book, sub)

rng = np.random.default_rng(2024)
channel = sample_channel(cfg, rng)
los = channel.los
print(f"line of sight: omega = {los.omega:+.4f}, range = {los.range_m:.2f} m, "
      f"|gain| = {abs(los.gain):.3f}")

noise = snr_db_to_noise_power(10.0, cfg)
print(f"SNR 10 dB -> per-antenna noise power {noise:.3e}")

thbt = run_thbt(cfg, book, design, channel, noise, rng)
hfbs = baseline_hfbs(book, channel, noise, rng)
ffbs = baseline_ffbs(book, channel, noise, rng)

for res in (thbt, hfbs, ffbs):
    cw = book.params(res.best_index)
    where = "far field" if cw.is_far else f"{cw.distance:7.2f} m"
    print(f"{res.scheme:5s}: pilots {res.pilots:5d}  ->  codeword {res.best_index}"
          f"  (theta {cw.theta:+.4f}, {where})")

# post-training combining: continuous subarray beams at the winning cell
pair = design_hybrid(cfg, thbt.rough_omega, thbt.rough_range)
print(f"aligned gain via hybrid combiner: "
      f"{alignment_gain(channel, pair.combined_vector()):.4f}")
print(f"aligned gain via exhaustive pick: "
      f"{alignment_gain(channel, book.column(hfbs.best_index)):.4f}")
