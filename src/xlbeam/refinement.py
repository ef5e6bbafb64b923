"""Closed-form beam refinement from the quadratic phase progression of
subarray outputs.

One extra pilot is received through chirp-phased subarray combiners
matched to the coarse estimate.  The residual chirp offsets (dk, db)
then appear as a quadratic phase across the RF-chain outputs:
second-order phase differences give dk, corrected first-order
differences give db.  Everything is O(N_RF) arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, QuadraticPhase
from .combining import subarray_outputs


def measure_subarrays(cfg: ArrayConfig, h: np.ndarray, k, b,
                      noise: np.ndarray | None = None) -> np.ndarray:
    """One pilot through the conjugate chirp (k, b), cut into subarray
    rows; returns the N_RF outputs.

    ``noise`` is the pilot's antenna noise as rows (None: noiseless); it
    goes through the same rows as the channel.  A (T, N) stack of
    channels, with arrays k and b and one noise row per channel, gives
    one row of outputs per channel.
    """
    rows = QuadraticPhase(k, b).phasor(cfg).conj()
    rows = rows.reshape(*rows.shape[:-1], cfg.n_rf, cfg.m_per_sub)
    return subarray_outputs(cfg, rows, h, noise)


def wrap_pi(x: np.ndarray) -> np.ndarray:
    """Shift into the principal interval [-pi, pi)."""
    return np.mod(np.asarray(x) + np.pi, 2.0 * np.pi) - np.pi


def phase_differences(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First differences and wrapped second differences of the output phases.

    Works along the last axis, so a stack of output rows gives one row of
    differences per pilot.
    """
    z = np.asarray(z)
    if np.any(np.abs(z) == 0.0):
        raise ValueError("zero-magnitude subarray output: phase undefined")
    return _phase_steps(z)


def _phase_steps(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phase_differences without the zero-output check."""
    if z.shape[-1] < 3:
        raise ValueError("phase refinement needs at least three subarrays")
    d1 = np.diff(np.angle(z))
    return d1, wrap_pi(np.diff(d1))


def estimate_offsets(cfg: ArrayConfig, d1: np.ndarray, d2: np.ndarray) -> tuple:
    """Chirp offsets from the phase differences.

    ``dk`` averages the wrapped second differences over ``2*pi*M^2``; the
    first differences are then de-trended by the dk estimate, wrapped,
    and averaged over ``M*pi`` to give ``db``.  Rows of differences give
    arrays of offsets, one row numpy float scalars.
    """
    m = cfg.m_per_sub
    # np.mean written out (the sum over the last axis, over the count)
    dk = np.add.reduce(d2, axis=-1) / d2.shape[-1] / (2.0 * np.pi * m * m)
    t = np.arange(1, d1.shape[-1] + 1)
    dk_t = np.asarray(dk)[..., None]
    detrended = d1 - (2 * t - 1) * m * m * dk_t * np.pi - m * (m + 1) * dk_t * np.pi
    db = np.add.reduce(wrap_pi(detrended), axis=-1) / d1.shape[-1] / (m * np.pi)
    return dk, db


@dataclass(frozen=True)
class RefinementResult:
    """Refined chirp parameters and their geometric reading, one entry per
    channel of a stack."""

    k: np.ndarray           # (T,)
    b: np.ndarray           # (T,)
    omega: np.ndarray       # (T,)
    range_m: np.ndarray     # (T,); inf where k >= 0 (far-field consistent)
    refined: np.ndarray     # (T,); False where the coarse estimate was returned as-is
    pilots: int = 1


def refine(cfg: ArrayConfig, k0, b0, dk, db) -> RefinementResult:
    """Apply the offsets and invert the chirp back to (omega, range).

    ``k >= 0`` has no finite-range reading and reports the far field
    rather than a negative range.  The fields take the offsets' shape,
    with ``refined`` True.
    """
    k, b = k0 + dk, b0 + db
    omega, r = QuadraticPhase(k, b).to_geometry(cfg)
    return RefinementResult(k=k, b=b, omega=omega, range_m=r, refined=True)


def refine_channels(cfg: ArrayConfig, h: np.ndarray, coarse_omega, coarse_range,
                    noise: np.ndarray | None = None) -> RefinementResult:
    """One-pilot refinement of a (T, N) stack of channels, each around its
    own coarse (omega, range) estimate and with its own antenna noise row
    (None: noiseless).

    A channel whose subarray outputs include a zero has no phase to read,
    and a refined reading with |omega| > 1 is not physical: those keep
    their coarse estimate and come back with ``refined`` False.  An array
    of fewer than three subarrays cannot be refined at all and raises
    ``ValueError``.
    """
    coarse_omega = np.asarray(coarse_omega, dtype=float)
    coarse_range = np.asarray(coarse_range, dtype=float)
    coarse = QuadraticPhase.from_geometry(cfg, coarse_omega, coarse_range)
    z = measure_subarrays(cfg, h, coarse.k, coarse.b, noise)
    dead = np.any(np.abs(z) == 0.0, axis=-1)
    if dead.any():
        # dead channels read a placeholder phase; their result is discarded below
        z = np.where(dead[..., None], 1.0, z)
    result = refine(cfg, coarse.k, coarse.b, *estimate_offsets(cfg, *_phase_steps(z)))
    refined = ~dead & (np.isinf(result.range_m) | ~(np.abs(result.omega) > 1.0))
    if refined.all():
        return RefinementResult(result.k, result.b, result.omega, result.range_m, refined)
    return RefinementResult(k=np.where(refined, result.k, coarse.k),
                            b=np.where(refined, result.b, coarse.b),
                            omega=np.where(refined, result.omega, coarse_omega),
                            range_m=np.where(refined, result.range_m, coarse_range),
                            refined=refined)

