"""Reference oracles for the chirp-sum, flat-top and phase-model claims,
the paper's closed-form geometry formulas, the channel of given paths,
the full codebook matrix and its design, the codeword trackers' neighbour
sets, and one-seed-at-a-time tracking with nothing cached.

Brute-force and quadrature evaluations that the tests check the runtime
against.  They live here, not in the package, so that ``import xlbeam``
does not load scipy and the package holds only what runs.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from xlbeam.arrays import (ArrayConfig, ChannelRealization, _synthesize, antenna_noise, crandn,
                           steering)
from xlbeam.codebooks import HybridCodebook, SubarrayCodebook
from xlbeam.combining import (CombinerPair, design_hybrid, hybrid_beam_gain, quantize_pointing,
                              row_dots, subarray_pointing)
from xlbeam.tracking import measure_blocks


@dataclass(frozen=True)
class PathParams:
    """One propagation path: complex gain, angle sine, and range."""

    gain: complex
    omega: float
    range_m: float

    def __post_init__(self):
        if abs(self.omega) > 1:
            raise ValueError("omega must lie in [-1, 1]")
        if not self.range_m > 0:
            raise ValueError("range must be positive")


def realize(cfg: ArrayConfig, paths: list[PathParams]) -> ChannelRealization:
    """The channel of given paths, h = sum_l g_l * alpha_l, with the alpha_l kept."""
    return _synthesize(cfg, np.array([p.gain for p in paths], dtype=complex),
                       np.array([p.omega for p in paths], dtype=float),
                       np.array([p.range_m for p in paths], dtype=float))


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


def full_matrix(book: HybridCodebook) -> np.ndarray:
    """The (N, P) matrix of every hybrid-codebook column in column order:
    the stack of every ``book.column(p)``."""
    return np.stack([book.column(p) for p in range(1, book.n_columns + 1)], axis=1)


def full_matrix_design(book: HybridCodebook, sub_book: SubarrayCodebook):
    """``design_all``'s ``(m_idx, v)`` computed from the full matrix: one
    projection of each subarray's rows of every column."""
    cfg = book.cfg
    n_rf, m = cfg.n_rf, cfg.m_per_sub
    psi = np.empty((book.n_columns, n_rf))
    psi[:book.n_near] = subarray_pointing(cfg, np.repeat(book.theta, book.n_rings),
                                          book.distances.reshape(-1))
    psi[book.n_near:] = book.theta[:, None]
    m_idx = quantize_pointing(psi.reshape(-1), sub_book).reshape(-1, n_rf) - 1
    full = full_matrix(book)
    fc = np.stack([(sub_book.matrix.conj().T @ full[t * m:(t + 1) * m])[
        m_idx[:, t], np.arange(book.n_columns)] for t in range(n_rf)], axis=1)
    v = fc.conj() / (math.sqrt(m) * np.linalg.norm(fc, axis=1)[:, None])
    return m_idx, v


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


# ---------------------------------------------------------------------------
# tracking, one seed at a time and with nothing cached or shared


def _uncached_scatterers(cfg: ArrayConfig, scen, rng) -> list[tuple[float, float]]:
    lo, hi = scen.nlos_angle_range
    rlo = max(scen.nlos_range_range[0], cfg.range_floor)
    rhi = max(scen.nlos_range_range[1], rlo)
    return [(rng.uniform(lo, hi), rng.uniform(rlo, rhi)) for _ in range(scen.n_nlos)]


def _uncached_block(cfg: ArrayConfig, traj, scen, scatterers, rng, block: int):
    """The block's channel, steering at the line of sight and at every
    scatterer again; returns (h, omega, zeta)."""
    pos = traj.position(block)
    zeta = float(np.hypot(pos[0], pos[1]))
    omega = float(pos[1] / zeta)
    g1 = crandn(rng) if scen.fading else 1.0 + 0j
    h = g1 * steering(cfg, omega, zeta)
    amp = math.sqrt(scen.nlos_gain_var)
    for om_s, r_s in scatterers:
        h = h + amp * crandn(rng) * steering(cfg, om_s, r_s)
    return h, omega, zeta


def _uncached_se(cfg: ArrayConfig, h, omega, zeta, noise_power: float) -> float:
    pair = design_hybrid(cfg, float(np.clip(omega, -1, 1)), float(zeta))
    sig = np.abs(row_dots(pair.combined_row(), h)) ** 2
    if noise_power <= 0.0:
        return math.inf
    return float(np.log2(1.0 + sig / noise_power))


def uncached_tracking_run(cfg: ArrayConfig, traj, tcfg, noise_power: float, rng,
                          scen, step) -> list[tuple[float, float]]:
    """One seed's (gain, spectral efficiency) per block, nothing shared.

    The reference for ``run_schemes``, which shares the trajectory's
    line-of-sight stack, steers at each scatterer once and runs seeds in
    chunks.
    Here every block steers at the line of sight and at each scatterer
    again, scores the beam with ``hybrid_beam_gain`` and designs the SE
    combiner at the step's estimate; ``step`` sees one-run stacks.  Scores
    round as the runtime's do: vectorised numpy operations, and one
    ``row_dots`` product per beam.
    """
    scatterers = _uncached_scatterers(cfg, scen, rng)
    out = []
    for i in range(1, tcfg.n_blocks + 1):
        h, omega, zeta = _uncached_block(cfg, traj, scen, scatterers, rng, i)
        res = step(h[None], [rng])
        out.append((hybrid_beam_gain(cfg, res.beam[0], omega, zeta),
                    _uncached_se(cfg, h, res.omega[0], res.range_m[0], noise_power)))
    return out


def uncached_perfect_csi_se(cfg: ArrayConfig, traj, scen, noise_power: float,
                            rng) -> float:
    """One seed's mean perfect-CSI spectral efficiency, the combiner
    designed again at the true geometry of every block."""
    scatterers = _uncached_scatterers(cfg, scen, rng)
    ses = []
    for i in range(1, traj.n_blocks + 1):
        h, omega, zeta = _uncached_block(cfg, traj, scen, scatterers, rng, i)
        ses.append(_uncached_se(cfg, h, omega, zeta, noise_power))
    return float(np.mean(ses))


def neighbor_list(book: HybridCodebook, p: int) -> list[int]:
    """Codeword p and its four grid neighbours, one cell at a time and
    clipped at the grid's edges: the reference for the (T, 5) candidate
    table ``tracking.neighbor_codewords`` builds."""
    cw = book.params(p)
    cands = [p]
    if cw.is_far:
        for dq in (-2, -1, 1, 2):
            if 1 <= cw.q + dq <= book.n_angles:
                cands.append(book.index_of(cw.q + dq, None))
        return cands
    for dq in (-1, 1):
        if 1 <= cw.q + dq <= book.n_angles:
            cands.append(book.index_of(cw.q + dq, cw.s))
    for ds in (-1, 1):
        s = cw.s + ds
        if 1 <= s <= book.n_rings:
            cands.append(book.index_of(cw.q, s))
        elif s == 0:
            cands.append(book.index_of(cw.q, None))   # shallower than ring 1: far
    return cands


def sequential_calibration(cfg: ArrayConfig, noise_power: float, omega: float,
                           zeta: float, scen, n_trials: int = 300,
                           seed: int = 0x5EED, trim: float = 0.9) -> np.ndarray:
    """``calibrate_measurement_cov`` one trial at a time: each trial draws
    its fading gain and then its pilot noise from the one stream as it
    goes, and is refined alone."""
    rng = np.random.default_rng(seed)
    theta = math.asin(omega)
    truth = np.array([zeta * math.cos(theta), zeta * math.sin(theta)])
    errs = []
    for _ in range(n_trials):
        g1 = crandn(rng) if scen.fading else 1.0 + 0j
        h = g1 * steering(cfg, omega, zeta)
        meas = measure_blocks(cfg, h[None], [math.sin(theta)], [zeta],
                              antenna_noise([rng], cfg.n_antennas, noise_power))
        if meas.ok[0]:
            errs.append(meas.position[0] - truth)
    if len(errs) < 8:
        return np.eye(2)
    errs = np.asarray(errs)
    norm = np.linalg.norm(errs, axis=1)
    kept = errs[norm <= np.quantile(norm, trim)]
    return np.cov(kept.T) + 1e-6 * np.eye(2)
