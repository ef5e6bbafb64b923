"""Block-diagonal hybrid combiner design and beam-gain evaluation.

Each subarray points a plane-wave beam at the local direction of the
target wavefront; the digital row then phase-aligns and weights the
RF-chain outputs.  Once the target geometry is known the subarray beams
point continuously at it (:func:`design_hybrid`); during training they
are snapped to the per-subarray DFT grid (``training.design_all``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayConfig, crandn, steering
from .codebooks import SubarrayCodebook


def subarray_centers(cfg: ArrayConfig) -> np.ndarray:
    """y-offsets Delta_t of the subarray centers in wavelengths, t = 1..N_RF."""
    t = np.arange(1, cfg.n_rf + 1)
    return ((2 * t - 1) * cfg.m_per_sub - cfg.n_antennas) / 4.0


def subarray_pointing(cfg: ArrayConfig, omega, r) -> np.ndarray:
    """Sine of the angle from each subarray center to the source.

    ``Psi_t = (r*omega - Delta_t*lambda) / sqrt(r^2 + Delta_t^2*lambda^2
    - 2*r*omega*Delta_t*lambda)``; a far-field source gives omega for
    every subarray.  ``omega`` and ``r`` may also be equal-shape arrays of
    near-field sources, giving one row of N_RF sines per source.
    """
    if np.ndim(r) == 0 and math.isinf(r):
        return np.full(cfg.n_rf, omega)
    omega = np.asarray(omega, dtype=float)[..., None]
    r = np.asarray(r, dtype=float)[..., None]
    dl = subarray_centers(cfg) * cfg.wavelength
    num = r * omega - dl
    den = np.sqrt(r * r + dl * dl - 2.0 * r * omega * dl)
    return num / den


def subarray_outputs(cfg: ArrayConfig, rows: np.ndarray, h: np.ndarray,
                     noise_power: float = 0.0,
                     rng: np.random.Generator | None = None) -> np.ndarray:
    """The N_RF RF-chain outputs of one pilot through block-diagonal rows.

    ``rows[t]`` is subarray t's length-M analog row, applied to its M
    antennas of ``h``.  Noise is CN(0, noise_power) per antenna, drawn
    fresh for the pilot and combined by the same rows.
    """
    def combine(x):
        return np.einsum("tm,tm->t", rows, x.reshape(cfg.n_rf, cfg.m_per_sub))

    z = combine(h)
    if noise_power > 0.0:
        if rng is None:
            raise ValueError("noisy measurement needs an rng")
        z = z + combine(crandn(rng, cfg.n_antennas) * math.sqrt(noise_power))
    return z


def quantize_pointing(psi, sub_book: SubarrayCodebook) -> np.ndarray:
    """Nearest DFT-grid beam index for each pointing sine (1-based).

    Exact midpoints between two grid angles break toward the smaller
    index.  The grid is uniform, so the argmin reduces to rounding.
    """
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    m = sub_book.angles.shape[0]
    step = 2.0 / m
    x = (psi - sub_book.angles[0]) / step
    idx = np.ceil(x - 0.5).astype(int)          # round-half-down = smaller index on ties
    return np.clip(idx, 0, m - 1) + 1


@dataclass
class CombinerPair:
    """One analog/digital combiner pair.

    ``w_blocks[t]`` is the length-M analog row of subarray t (unit-modulus
    entries); ``v`` is the digital row over the N_RF chains, normalized so
    the combined row ``v @ W`` has unit l2-norm.
    """

    cfg: ArrayConfig
    w_blocks: np.ndarray = field(repr=False)   # (N_RF, M)
    v: np.ndarray = field(repr=False)          # (N_RF,)

    def combined_row(self) -> np.ndarray:
        """The effective 1 x N row ``v @ W`` (unit norm)."""
        return (self.v[:, None] * self.w_blocks).reshape(-1)

    def combined_vector(self) -> np.ndarray:
        """Receive-matched unit vector f = (v W)^H.

        The beam gain of ``f`` against a steering vector equals the
        modulus of the combined received signal from that direction.
        """
        return self.combined_row().conj()


def design_hybrid(cfg: ArrayConfig, omega: float, r: float) -> CombinerPair:
    """Continuous per-subarray beams and the matched digital row for (omega, r).

    Subarray t's analog row points a plane wave at its own pointing sine
    Psi_t; the digital row is matched to the steering vector at the same
    geometry.
    """
    m = cfg.m_per_sub
    psi = subarray_pointing(cfg, omega, r)
    n = np.arange(m)
    w_blocks = np.exp(-1j * np.pi * n[None, :] * psi[:, None])
    wu = subarray_outputs(cfg, w_blocks, steering(cfg, omega, r, validate=False))
    norm = np.linalg.norm(wu)
    if norm == 0.0:
        raise ValueError("degenerate combiner: W u vanished")
    v = wu.conj() / (math.sqrt(m) * norm)
    return CombinerPair(cfg=cfg, w_blocks=w_blocks, v=v)


def hybrid_beam_gain(cfg: ArrayConfig, u: np.ndarray, omega: float, r: float) -> float:
    """Beam gain |alpha(N, omega, r)^H u| of a combining vector u."""
    return float(abs(np.vdot(steering(cfg, omega, r, validate=False), u)))


def alignment_gain(cfg: ArrayConfig, paths, f: np.ndarray) -> float:
    """Normalized post-alignment gain of an estimated steering vector f.

    ``max_l (|g_l| / max_k |g_k|) * |alpha_l^H f|`` over the channel paths.
    """
    gains = np.array([abs(p.gain) for p in paths])
    gm = gains.max()
    best = 0.0
    for p, g in zip(paths, gains):
        best = max(best, (g / gm) * hybrid_beam_gain(cfg, f, p.omega, p.range_m))
    return best


def gain_map(cfg: ArrayConfig, u: np.ndarray, omegas, ranges) -> list[dict]:
    """Beam-gain samples of a combining vector over an (omega, r) grid.

    Returns CSV-ready rows with keys (omega, r, gain), row-major over the
    angle grid then the range grid.
    """
    rows = []
    for omega in np.atleast_1d(omegas):
        for r in np.atleast_1d(ranges):
            rows.append({"omega": float(omega), "r": float(r),
                         "gain": hybrid_beam_gain(cfg, u, float(omega), float(r))})
    return rows
