"""Beam patterns of a near-field codeword and its subarray approximation.

Walks through one codebook column end to end: look up its (angle, range)
cell, point each subarray at the source, quantize the pointings to the
per-subarray DFT grid, and compare the beam gain of the resulting hybrid
combiner with the codeword's own gain over an (angle, range) map.

Writes ``demo_out/beam_patterns.csv`` and an SVG cut at the codeword's
range.  Run:  python demos/01_beam_patterns.py
"""

import numpy as np

from xlbeam import (ArrayConfig, build_hybrid_codebook, build_subarray_codebook,
                    design_all, gain_map, hybrid_beam_gain, quantize_pointing,
                    subarray_pointing)
from xlbeam.harness import svg_line_plot, write_csv

cfg = ArrayConfig(n_antennas=512, n_rf=4, wavelength=0.003)
book = build_hybrid_codebook(cfg, 512, 11)
sub = build_subarray_codebook(cfg)

# the worked example: angle cell 256, distance ring 6
p = book.index_of(256, 6)
cw = book.params(p)
print(f"codeword {p}: theta = {cw.theta:+.6f}, distance = {cw.distance:.4f} m")

psi = subarray_pointing(cfg, cw.theta, cw.distance)
picks = quantize_pointing(psi, sub)
print("subarray pointings :", np.round(psi, 5))
print("DFT beam picks     :", picks.tolist())

# the grid-snapped hybrid combiner stage 2 tests this codeword with
pair = design_all(book, sub).combiner(p)
f_hybrid = pair.combined_vector()
f_codeword = book.column(p)

print(f"self gain, codeword: "
      f"{hybrid_beam_gain(cfg, f_codeword, cw.theta, cw.distance):.4f}")
print(f"self gain, hybrid  : "
      f"{hybrid_beam_gain(cfg, f_hybrid, cw.theta, cw.distance):.4f}")

# angle cut at the codeword's range, for both beams
angles = np.linspace(cw.theta - 0.05, cw.theta + 0.05, 401)
gain_cw = [hybrid_beam_gain(cfg, f_codeword, om, cw.distance) for om in angles]
gain_hy = [hybrid_beam_gain(cfg, f_hybrid, om, cw.distance) for om in angles]

# canonical (omega, r, gain) map of the hybrid beam over angle x range
ranges = np.linspace(7.0, 30.0, 24)
write_csv("demo_out/beam_patterns.csv",
          gain_map(cfg, f_hybrid, angles, ranges), ["omega", "r", "gain"])
svg_line_plot("demo_out/beam_patterns.svg",
              {"codeword": (list(angles), gain_cw),
               "hybrid": (list(angles), gain_hy)},
              title="beam gain at the codeword range",
              xlabel="angle sine", ylabel="gain")
print("wrote demo_out/beam_patterns.csv and .svg")
