"""Block-diagonal hybrid combiner design and beam-gain evaluation.

Each subarray points a plane-wave beam at the local direction of the
target wavefront; the digital row then phase-aligns and weights the
RF-chain outputs.  Once the target geometry is known the subarray beams
point continuously at it (:func:`design_hybrid`); during training they
are snapped to the per-subarray DFT grid (``training.design_all``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayConfig, ChannelRealization, steering
from .codebooks import SubarrayCodebook


@functools.lru_cache(maxsize=None)
def subarray_centers(cfg: ArrayConfig) -> np.ndarray:
    """y-offsets Delta_t of the subarray centers in wavelengths, t = 1..N_RF
    (read-only, built once per array)."""
    t = np.arange(1, cfg.n_rf + 1)
    centers = ((2 * t - 1) * cfg.m_per_sub - cfg.n_antennas) / 4.0
    centers.flags.writeable = False
    return centers


def subarray_pointing(cfg: ArrayConfig, omega, r) -> np.ndarray:
    """Sine of the angle from each subarray center to the source.

    ``Psi_t = (r*omega - Delta_t*lambda) / sqrt(r^2 + Delta_t^2*lambda^2
    - 2*r*omega*Delta_t*lambda)``; a far-field source gives omega for
    every subarray.  ``omega`` and ``r`` may also be equal-shape arrays of
    sources, far and near mixed, giving one row of N_RF sines per source.
    """
    omega = np.asarray(omega, dtype=float)[..., None]
    r = np.asarray(r, dtype=float)[..., None]
    far = np.isinf(r)
    if far.any():
        r = np.where(far, 1.0, r)      # any finite stand-in; far rows are replaced below
    dl = subarray_centers(cfg) * cfg.wavelength
    num = r * omega - dl
    den = np.sqrt(r * r + dl * dl - 2.0 * r * omega * dl)
    return np.where(far, omega, num / den) if far.any() else num / den


def row_dots(rows: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """``rows[t] @ hs[t]`` for each t (one row may serve all): one dot per
    pair, so a pair's bits do not depend on the stack it is in."""
    return (rows[..., None, :] @ hs[..., :, None])[..., 0, 0]


def subarray_outputs(cfg: ArrayConfig, rows: np.ndarray, h: np.ndarray,
                     noise: np.ndarray | None = None) -> np.ndarray:
    """The N_RF RF-chain outputs of one pilot through block-diagonal rows.

    ``rows[t]`` is subarray t's length-M analog row, applied to its M
    antennas of ``h``.  ``noise`` is the pilot's antenna noise, one row
    per channel as :func:`~xlbeam.arrays.antenna_noise` draws it (None:
    noiseless), combined by the same rows.

    ``h`` may also be a (T, N) stack of channels, each with its own pilot:
    ``rows`` is then one (N_RF, M) set for all or a (T, N_RF, M) stack.
    """
    h = np.asarray(h)

    def combine(x):
        return np.einsum("...tm,...tm->...t", rows,
                         x.reshape(*x.shape[:-1], cfg.n_rf, cfg.m_per_sub))

    z = combine(h)
    if noise is not None:
        z = z + combine(noise.reshape(h.shape))
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
    """One analog/digital combiner pair, or a stack of them.

    ``w_blocks[t]`` is the length-M analog row of subarray t (unit-modulus
    entries); ``v`` is the digital row over the N_RF chains, normalized so
    the combined row ``v @ W`` has unit l2-norm.  A stack adds a leading
    axis to both.
    """

    cfg: ArrayConfig
    w_blocks: np.ndarray = field(repr=False)   # (..., N_RF, M)
    v: np.ndarray = field(repr=False)          # (..., N_RF)

    def combined_row(self) -> np.ndarray:
        """The effective 1 x N row ``v @ W`` (unit norm), one per pair."""
        return (self.v[..., None] * self.w_blocks).reshape(*self.v.shape[:-1], -1)

    def combined_vector(self) -> np.ndarray:
        """Receive-matched unit vector f = (v W)^H.

        The beam gain of ``f`` against a steering vector equals the
        modulus of the combined received signal from that direction.
        """
        return self.combined_row().conj()


def design_hybrid(cfg: ArrayConfig, omega, r) -> CombinerPair:
    """Continuous per-subarray beams and the matched digital row for (omega, r).

    Subarray t's analog row points a plane wave at its own pointing sine
    Psi_t; the digital row is matched to the steering vector at the same
    geometry.  Equal-length arrays of sines and ranges give a stack of
    pairs, one per geometry.
    """
    m = cfg.m_per_sub
    psi = subarray_pointing(cfg, omega, r)
    n = np.arange(m)
    w_blocks = np.exp(-1j * np.pi * n * psi[..., None])
    wu = subarray_outputs(cfg, w_blocks, steering(cfg, omega, r, validate=False))
    norm = np.linalg.norm(wu, axis=-1, keepdims=True)
    if (norm == 0.0).any():
        raise ValueError("degenerate combiner: W u vanished")
    v = wu.conj() / (math.sqrt(m) * norm)
    return CombinerPair(cfg=cfg, w_blocks=w_blocks, v=v)


def hybrid_beam_gain(cfg: ArrayConfig, u: np.ndarray, omega: float, r: float) -> float:
    """Beam gain |alpha(N, omega, r)^H u| of a combining vector u."""
    return float(np.abs(row_dots(steering(cfg, omega, r, validate=False).conj(), u)))


def alignment_gain(channel: ChannelRealization, f: np.ndarray) -> np.ndarray | float:
    """Normalized post-alignment gain of an estimated steering vector f.

    ``max_l (|g_l| / max_k |g_k|) * |alpha_l^H f|`` over the channel paths,
    with each alpha_l read from the realization.  A stack of channels
    takes a (T, N) stack of beams, one per channel, and gives one gain per
    channel.
    """
    g = np.abs(channel.gains)
    # |alpha^H f| is |f^H alpha|: conjugate the beams, not the (..., L, N) paths
    dots = np.abs(row_dots(f.conj()[..., None, :], channel.steering))
    return (g / g.max(axis=-1, keepdims=True) * dots).max(axis=-1)


def gain_map(cfg: ArrayConfig, u: np.ndarray, omegas, ranges) -> list[dict]:
    """Beam-gain samples of a combining vector over an (omega, r) grid.

    Returns CSV-ready rows with keys (omega, r, gain), row-major over the
    angle grid then the range grid.
    """
    ranges = np.atleast_1d(ranges)
    rows = []
    for omega in np.atleast_1d(omegas):
        # one steering call per angle: its range cut as rows
        alphas = steering(cfg, np.full(ranges.shape, float(omega)), ranges, validate=False)
        gains = np.abs(row_dots(alphas.conj(), u))
        rows.extend({"omega": float(omega), "r": float(r), "gain": gain}
                    for r, gain in zip(ranges.tolist(), gains.tolist()))
    return rows
