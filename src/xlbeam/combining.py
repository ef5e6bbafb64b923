"""Block-diagonal hybrid combiner design and beam-gain evaluation.

Each subarray points a plane-wave beam at the local direction of the
target wavefront; the digital row then phase-aligns and weights the
RF-chain outputs.  Two analog flavors exist: beams snapped to the
per-subarray DFT grid (the only ones available during training reuse)
and continuous beams (used once the target geometry is known).
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


def beam_center(cfg: ArrayConfig, omega: float, r: float, t) -> np.ndarray | float:
    """Center of subarray t's beam under the quadratic wavefront model.

    ``B_t = omega + lambda*(1-omega^2)*(N - (2t-1)*M)/(4r)``; collapses to
    omega in the far field.  ``t`` is 1-based and may be a vector.
    """
    t = np.asarray(t)
    if math.isinf(r):
        return omega * np.ones_like(t, dtype=float) if t.ndim else float(omega)
    val = omega + (cfg.wavelength * (1.0 - omega * omega)
                   * (cfg.n_antennas - (2 * t - 1) * cfg.m_per_sub) / (4.0 * r))
    return val if t.ndim else float(val)


def gain_loss_bound(cfg: ArrayConfig) -> float:
    """Worst-case gain loss of per-subarray plane-wave approximation.

    ``max(1 - N_RF / (2N)^(1/4), 0)``.
    """
    return max(1.0 - cfg.n_rf / (2.0 * cfg.n_antennas) ** 0.25, 0.0)


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

    def analog_matrix(self) -> np.ndarray:
        """The N_RF x N block-diagonal analog combiner."""
        n_rf, m = self.w_blocks.shape
        w = np.zeros((n_rf, n_rf * m), dtype=complex)
        for t in range(n_rf):
            w[t, t * m:(t + 1) * m] = self.w_blocks[t]
        return w

    def combined_row(self) -> np.ndarray:
        """The effective 1 x N row ``v @ W`` (unit norm)."""
        return (self.v[:, None] * self.w_blocks).reshape(-1)

    def combined_vector(self) -> np.ndarray:
        """Receive-matched unit vector f = (v W)^H.

        The beam gain of ``f`` against a steering vector equals the
        modulus of the combined received signal from that direction.
        """
        return self.combined_row().conj()


def design_hybrid(cfg: ArrayConfig, sub_book: SubarrayCodebook, omega: float,
                  r: float, quantize: bool = True) -> CombinerPair:
    """Design the per-subarray beams and matched digital row for (omega, r).

    The geometry always comes from the stated (omega, r) — for codebook
    columns these are the generating parameters, never re-estimated from
    the vector.  The digital row is matched to the steering vector at the
    same geometry.  ``quantize=False`` keeps the continuous subarray beams
    instead of snapping to the DFT grid.
    """
    m = cfg.m_per_sub
    psi = subarray_pointing(cfg, omega, r)
    if quantize:
        w_blocks = sub_book.matrix[:, quantize_pointing(psi, sub_book) - 1].T.conj()
    else:
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
