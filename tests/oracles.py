"""Reference oracles for the chirp-sum, flat-top and phase-model claims,
and the paper's closed-form geometry formulas.

Brute-force and quadrature evaluations that the tests check the runtime
against.  They live here, not in the package, so that ``import xlbeam``
does not load scipy and the package holds only what runs.
"""

import math

import numpy as np
from scipy.integrate import quad

from xlbeam.arrays import ArrayConfig
from xlbeam.codebooks import HybridCodebook
from xlbeam.combining import CombinerPair


def rayleigh_distance(cfg: ArrayConfig) -> float:
    """Near/far boundary 2 D^2 / wavelength = N^2 * wavelength / 2."""
    return 2.0 * cfg.aperture**2 / cfg.wavelength


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


def analog_matrix(pair: CombinerPair) -> np.ndarray:
    """The N_RF x N block-diagonal analog combiner of a combiner pair."""
    n_rf, m = pair.w_blocks.shape
    w = np.zeros((n_rf, n_rf * m), dtype=complex)
    for t in range(n_rf):
        w[t, t * m:(t + 1) * m] = pair.w_blocks[t]
    return w


def valid_placements(book: HybridCodebook) -> list[int]:
    """The 1-based columns whose geometry is a physically valid path
    placement: every far column, and every near column not below the
    validity floor."""
    qs = book.n_angles * book.n_rings
    return [p for p in range(1, book.n_columns + 1)
            if p > qs or not book.below_floor.reshape(-1)[p - 1]]


def chirp_sum(count: int, k: float, b: float, offset: int = 0) -> complex:
    """Brute-force quadratic-phase sum over one index window.

    ``sum_{n = offset+1}^{offset+count} exp(j*pi*(k*n^2 + b*n))`` — the
    reference oracle for all flat-top and phase-progression claims.
    """
    n = np.arange(offset + 1, offset + count + 1)
    return complex(np.exp(1j * np.pi * (k * n * n + b * n)).sum())


def flat_top_gain(cfg: ArrayConfig, k: float, b_sub: float, omega: float) -> float:
    """Stationary-phase flat-top model of a subarray's chirp beam.

    ``sqrt(1/(-k))`` for omega inside ``[b_sub + 2kM, b_sub + 2k]`` (k < 0)
    and 0 outside; callers with k > 0 conjugate first.
    """
    if k >= 0:
        raise ValueError("flat-top model needs k < 0 (conjugate the chirp first)")
    m = cfg.m_per_sub
    lo, hi = b_sub + 2.0 * k * m, b_sub + 2.0 * k
    if lo <= omega <= hi:
        return math.sqrt(1.0 / -k)
    return 0.0


def psp_band_ok(cfg: ArrayConfig, dk: float, db: float,
                include_phase_bound: bool = False) -> bool:
    """Check the offsets against the flat-top validity conditions.

    The peak-shift condition requires ``|phi_t + w| <= 1/M`` over the
    chirp bandwidth for every subarray; ``include_phase_bound`` adds the
    quadratic-phase condition ``|(M+1)w/2 - w^2/(4 dk)| <= 1/2``.
    """
    m, n_rf = cfg.m_per_sub, cfg.n_rf
    if dk == 0.0:
        return abs(db) <= 1.0 / m
    ends = np.array([2.0 * dk * m, 2.0 * dk])
    for t in range(1, n_rf + 1):
        phi = db + 2.0 * dk * m * (t - 1)
        if np.max(np.abs(phi + ends)) > 1.0 / m:
            return False
    if include_phase_bound:
        w = np.linspace(min(ends), max(ends), 64)
        if np.max(np.abs((m + 1) * w / 2.0 - w * w / (4.0 * dk))) > 0.5:
            return False
    return True


def psp_model_oracle(cfg: ArrayConfig, dk: float, db: float, t: int) -> complex:
    """Analytic factorization of subarray t's chirp sum, by quadrature.

    Evaluates ``g_bar * C(t) * B(phi_t)`` for the normalized sum
    ``sum_m exp(j*pi*(dk*(m+(t-1)M)^2 + db*(m+(t-1)M)))``.  Exists to
    validate the phase model against :func:`chirp_sum`; a vanishing dk
    falls back to the exact geometric series.
    """
    m = cfg.m_per_sub
    if dk == 0.0:
        return chirp_sum(m, 0.0, db, offset=(t - 1) * m)
    if dk > 0.0:
        return complex(np.conj(psp_model_oracle(cfg, -dk, -db, t)))

    phi_t = db + 2.0 * dk * m * (t - 1)
    g_bar = (1.0 / (2.0 * math.sqrt(-dk))) * np.exp(1j * np.pi * ((m + 1) * db / 2.0 - 0.25))
    dkt = dk * m * m
    dbt = (db + dk * (m + 1)) * m
    c_t = np.exp(1j * np.pi * (dkt * (t - 1) ** 2 + dbt * (t - 1)))

    def integrand(w, part):
        p = np.exp(1j * np.pi * ((m + 1) * w / 2.0 - w * w / (4.0 * dk)))
        arg = (np.pi * phi_t + np.pi * w) / 2.0
        s = math.sin(arg)
        a = m if abs(s) < 1e-14 else math.sin(m * arg) / s
        val = p * a
        return val.real if part == 0 else val.imag

    lo, hi = 2.0 * dk * m, 2.0 * dk
    re, _ = quad(integrand, lo, hi, args=(0,), limit=400)
    im, _ = quad(integrand, lo, hi, args=(1,), limit=400)
    return complex(g_bar * c_t * (re + 1j * im))
