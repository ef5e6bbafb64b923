"""Closed-form beam refinement from the quadratic phase progression of
subarray outputs.

One extra pilot is received through chirp-phased subarray combiners
matched to the coarse estimate.  The residual chirp offsets (dk, db)
then appear as a quadratic phase across the RF-chain outputs:
second-order phase differences give dk, corrected first-order
differences give db.  Everything is O(N_RF) arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, QuadraticPhase, h_of
from .combining import subarray_outputs


def measure_subarrays(cfg: ArrayConfig, channel, k: float, b: float,
                      noise_power: float = 0.0,
                      rng: np.random.Generator | None = None) -> np.ndarray:
    """One pilot through the conjugate chirp (k, b), cut into subarray
    rows; returns the N_RF outputs."""
    rows = QuadraticPhase(k, b).phasor(cfg).conj().reshape(cfg.n_rf, cfg.m_per_sub)
    return subarray_outputs(cfg, rows, h_of(channel), noise_power, rng)


def wrap_pi(x: np.ndarray) -> np.ndarray:
    """Shift into the principal interval [-pi, pi)."""
    return np.mod(np.asarray(x) + np.pi, 2.0 * np.pi) - np.pi


def phase_differences(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First differences and wrapped second differences of the output phases."""
    z = np.asarray(z)
    if z.shape[0] < 3:
        raise ValueError("phase refinement needs at least three subarrays")
    if np.any(np.abs(z) == 0.0):
        raise ValueError("zero-magnitude subarray output: phase undefined")
    ups = np.angle(z)
    d1 = np.diff(ups)
    d2 = wrap_pi(np.diff(d1))
    return d1, d2


def estimate_offsets(cfg: ArrayConfig, d1: np.ndarray, d2: np.ndarray) -> tuple[float, float]:
    """Chirp offsets from the phase differences.

    ``dk`` averages the wrapped second differences over ``2*pi*M^2``; the
    first differences are then de-trended by the dk estimate, wrapped,
    and averaged over ``M*pi`` to give ``db``.
    """
    m = cfg.m_per_sub
    dk = float(np.mean(d2)) / (2.0 * np.pi * m * m)
    t = np.arange(1, d1.shape[0] + 1)
    detrended = d1 - (2 * t - 1) * m * m * dk * np.pi - m * (m + 1) * dk * np.pi
    db = float(np.mean(wrap_pi(detrended))) / (m * np.pi)
    return dk, db


@dataclass(frozen=True)
class RefinementResult:
    """Refined chirp parameters and their geometric reading."""

    k: float
    b: float
    omega: float
    range_m: float          # inf when k >= 0 (far-field consistent)
    refined: bool           # False when the coarse estimate was returned as-is
    pilots: int = 1

    @property
    def is_far(self) -> bool:
        return math.isinf(self.range_m)


def refine(cfg: ArrayConfig, k0: float, b0: float, dk: float, db: float) -> RefinementResult:
    """Apply the offsets and invert the chirp back to (omega, range).

    ``k >= 0`` has no finite-range reading and reports the far field
    rather than a negative range.
    """
    k, b = k0 + dk, b0 + db
    omega, r = QuadraticPhase(k, b).to_geometry(cfg)
    return RefinementResult(k=k, b=b, omega=omega, range_m=r, refined=True)


def run_brpss(cfg: ArrayConfig, channel, coarse_omega: float, coarse_range: float,
              noise_power: float = 0.0,
              rng: np.random.Generator | None = None) -> RefinementResult:
    """One-pilot refinement around a coarse (omega, range) estimate.

    A vanishing subarray output has no phase to read: the coarse estimate
    then comes back tagged ``refined=False`` so downstream consumers
    degrade gracefully.  An array of fewer than three subarrays cannot be
    refined at all and raises ``ValueError``.
    """
    coarse = QuadraticPhase.from_geometry(cfg, coarse_omega, coarse_range)
    k0, b0 = coarse.k, coarse.b
    z = measure_subarrays(cfg, channel, k0, b0, noise_power, rng)
    if np.any(np.abs(z) == 0.0):
        return RefinementResult(k=k0, b=b0, omega=coarse_omega,
                                range_m=coarse_range, refined=False)
    dk, db = estimate_offsets(cfg, *phase_differences(z))
    result = refine(cfg, k0, b0, dk, db)
    if not result.is_far and abs(result.omega) > 1.0:
        # implausible geometry (negative range): keep the coarse estimate
        return RefinementResult(k=k0, b=b0, omega=coarse_omega,
                                range_m=coarse_range, refined=False)
    return result
