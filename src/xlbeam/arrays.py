"""Array geometry, steering vectors, and multipath channel synthesis.

Conventions used throughout the package:

* The ``N`` antennas of the uplink array sit on the y-axis at
  ``(0, delta_n * wavelength)`` with ``delta_n = (2n - N - 1) / 4`` for
  ``n = 1..N`` (half-wavelength spacing, centered on the origin).
* ``omega`` is the sine of the source angle measured from the array
  normal (the positive x-axis), so a source at range ``r`` sits at
  ``(r * sqrt(1 - omega**2), r * omega)``.
* Every steering vector is unit l2-norm.
* ``math.inf`` as a range marks a far-field source; far-field paths
  never carry a fake "huge float" range.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

FAR_FIELD = math.inf

SQRT3_2 = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class ArrayConfig:
    """Static description of the partially-connected uniform linear array.

    Args:
        n_antennas: total antenna count N.
        n_rf: number of RF chains (= number of subarrays).
        wavelength: carrier wavelength in meters.
    """

    n_antennas: int
    n_rf: int
    wavelength: float

    def __post_init__(self):
        # each message starts with the name of the field it rejects
        if self.n_antennas <= 0 or self.n_rf <= 0:
            raise ValueError("n_antennas and n_rf must be positive")
        if self.n_antennas % self.n_rf != 0:
            raise ValueError(
                f"n_antennas {self.n_antennas} is not divisible by n_rf {self.n_rf}")
        # range_floor cubes the aperture; a cube that overflows leaves no floor
        if not (self.wavelength > 0
                and math.isfinite(self.aperture * self.aperture * self.aperture)):
            raise ValueError("wavelength must be positive, and small enough "
                             "for a finite range floor")

    @property
    def m_per_sub(self) -> int:
        """Antennas per subarray, M = N / N_RF."""
        return self.n_antennas // self.n_rf

    @property
    def aperture(self) -> float:
        """Physical array aperture D = N * wavelength / 2 in meters."""
        return self.n_antennas * self.wavelength / 2.0

    @property
    def range_floor(self) -> float:
        """Smallest range where the quadratic wavefront model is trusted.

        Equals ``0.5 * sqrt(D^3 / wavelength)``.
        """
        return 0.5 * math.sqrt(self.aperture**3 / self.wavelength)

    def antenna_offsets(self) -> np.ndarray:
        """Per-antenna y-offsets ``delta_n`` in units of the wavelength.

        Every near-field steering vector needs them, so they are built once
        per antenna count and shared read-only."""
        return _antenna_offsets(self.n_antennas)


@functools.lru_cache(maxsize=None)
def _antenna_offsets(n_antennas: int) -> np.ndarray:
    n = np.arange(1, n_antennas + 1)
    offsets = (2 * n - n_antennas - 1) / 4.0
    offsets.flags.writeable = False
    return offsets


def _sources(*params) -> list:
    """Source parameters ready to broadcast against the antenna axis: a
    length-T array as a (T, 1) column, so one row per source; a number
    becomes a (1,) array, so one source gives an (N,) row."""
    return [np.asarray(x, dtype=float)[..., None] for x in params]


def element_distance(cfg: ArrayConfig, omega, r) -> np.ndarray:
    """Exact distances from a source at (omega, r) to the N antennas.

    ``omega`` and ``r`` may be equal-length arrays: one row per source."""
    omega, r = _sources(omega, r)
    if not (r > 0).all():
        raise ValueError("range must be positive")
    dl = cfg.antenna_offsets() * cfg.wavelength
    return np.sqrt(r * r + dl * dl - 2.0 * r * omega * dl)


def steering_far(cfg: ArrayConfig, omega) -> np.ndarray:
    """Plane-wave steering vector; entry n is exp(j*pi*(n-1)*omega)/sqrt(N).

    An array of sines gives one row per source."""
    (omega,) = _sources(omega)
    if (abs(omega) > 1).any():
        raise ValueError("omega must lie in [-1, 1]")
    n = np.arange(cfg.n_antennas)
    return np.exp(1j * np.pi * n * omega) / math.sqrt(cfg.n_antennas)


def steering_near(cfg: ArrayConfig, omega, r, validate: bool = True) -> np.ndarray:
    """Spherical-wave steering vector from the exact element distances.

    Entry n is ``exp(-j*2*pi/lambda*(r_n - r)) / sqrt(N)``.  Ranges below
    the model validity floor are rejected unless ``validate=False``
    (codebook construction deliberately keeps such columns).  Equal-length
    arrays of sines and ranges give one row per source.
    """
    sines, ranges = _sources(omega, r)
    if (abs(sines) > 1).any():
        raise ValueError("omega must lie in [-1, 1]")
    if validate and (ranges < cfg.range_floor).any():
        raise ValueError(
            f"range {np.min(r):.4g} m below validity floor {cfg.range_floor:.4g} m"
        )
    rn = element_distance(cfg, omega, r)
    return np.exp(-2j * np.pi / cfg.wavelength * (rn - ranges)) / math.sqrt(cfg.n_antennas)


def steering(cfg: ArrayConfig, omega, r, validate: bool = True) -> np.ndarray:
    """Dispatch on the far-field marker: ``r = inf`` gives the plane wave.

    Equal-length arrays of sines and ranges give one row per source, far
    and near sources mixed."""
    omega, r = np.asarray(omega, dtype=float), np.asarray(r, dtype=float)
    far = np.isinf(r)
    if far.all():
        return steering_far(cfg, omega)
    if not far.any():
        return steering_near(cfg, omega, r, validate=validate)
    out = np.empty(r.shape + (cfg.n_antennas,), dtype=complex)
    out[far] = steering_far(cfg, omega[far])
    out[~far] = steering_near(cfg, omega[~far], r[~far], validate=validate)
    return out


@dataclass(frozen=True)
class QuadraticPhase:
    """Chirp parameterization (k, b) of a steering vector.

    The quadratic model assigns antenna n the phase ``pi*(k*n^2 + b*n)``.
    ``k <= 0`` for physical sources; ``k = 0`` is the far field.  ``k``
    and ``b`` may be equal-length arrays, one chirp per source; the
    geometry conversions then work elementwise and ``phasor`` gives one
    row per chirp.  One source's conversions give numpy float scalars.
    """

    k: float | np.ndarray
    b: float | np.ndarray

    @classmethod
    def from_geometry(cls, cfg: ArrayConfig, omega, r) -> "QuadraticPhase":
        omega, r = np.asarray(omega, dtype=float), np.asarray(r, dtype=float)
        rho = cfg.wavelength * (1.0 - omega * omega) / (2.0 * r)     # 0 in the far field
        far = np.isinf(r)
        # [()] turns a one-source (0-d) result into a scalar
        return cls(np.where(far, 0.0, -rho / 2.0)[()],
                   np.where(far, omega, omega + rho * (cfg.n_antennas + 1) / 2.0)[()])

    def to_geometry(self, cfg: ArrayConfig) -> tuple:
        """Invert back to (omega, range); k >= 0 maps to the far field."""
        k, b = np.asarray(self.k, dtype=float), np.asarray(self.b, dtype=float)
        omega = b + k * (cfg.n_antennas + 1)
        far = k >= 0.0
        k_near = np.where(far, -1.0, k)           # far entries are replaced below
        return omega[()], np.where(far, FAR_FIELD,
                                   -cfg.wavelength * (1.0 - omega * omega) / (4.0 * k_near))[()]

    def phasor(self, cfg: ArrayConfig) -> np.ndarray:
        """The unit-modulus chirp ``exp(j*pi*(k*n^2 + b*n))``, n = 1..N."""
        k, b = _sources(self.k, self.b)
        n = np.arange(1, cfg.n_antennas + 1)
        return np.exp(1j * np.pi * (k * n * n + b * n))


def steering_quadratic(cfg: ArrayConfig, omega, r) -> np.ndarray:
    """Chirp approximation of the steering vector; exact in the far field.

    Equal-length arrays of sines and ranges give one row per source."""
    return (QuadraticPhase.from_geometry(cfg, omega, r).phasor(cfg)
            / math.sqrt(cfg.n_antennas))


@dataclass(frozen=True)
class ChannelScenario:
    """Random multipath scenario: path 1 is the line of sight.

    Each check's message starts with the name of the field it rejects.
    """

    n_paths: int = 3
    gain_vars: tuple[float, ...] = (1.0, 0.01, 0.01)
    angle_range: tuple[float, float] = (-SQRT3_2, SQRT3_2)
    range_range: tuple[float, float] = (6.0, 150.0)

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if len(self.gain_vars) < self.n_paths:
            raise ValueError(f"gain_vars has {len(self.gain_vars)} entries "
                             f"for {self.n_paths} paths")
        # alignment gains are normalized by the strongest path's gain
        if not self.gain_vars[0] > 0:
            raise ValueError("gain_vars must give the line of sight a positive variance")
        lo, hi = self.angle_range
        if not (-1 <= lo <= hi <= 1):
            raise ValueError("angle_range must be ordered and inside [-1, 1]")
        rlo, rhi = self.range_range
        if not (0 < rlo <= rhi):
            raise ValueError("range_range must be ordered and positive")


@dataclass
class ChannelRealization:
    """Sampled paths, their steering vectors, and the synthesized channels.

    A stack of T channels has (T, L) path ``gains``, ``sines`` and
    ``ranges`` (path 0 is the line of sight), a (T, N) ``h`` and a
    (T, L, N) ``steering``.  The steering rows are read-only, kept so that
    scoring a beam against the paths does not steer at them again.
    Synthesized from (L,) path parameters, the arrays lack the T axis.
    """

    gains: np.ndarray = field(repr=False)      # (T, L) complex
    sines: np.ndarray = field(repr=False)      # (T, L)
    ranges: np.ndarray = field(repr=False)     # (T, L); inf marks a far path
    h: np.ndarray = field(repr=False)          # (T, N)
    steering: np.ndarray = field(repr=False)   # (T, L, N)


def _complex_normal(re, im):
    """Standard circular complex normals from their real and imaginary normals."""
    return (re + 1j * im) * math.sqrt(0.5)


def crandn(rng: np.random.Generator, shape=()) -> np.ndarray:
    """Standard circular complex normal: two real normals scaled by sqrt(1/2)."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return _complex_normal(re, im)


def antenna_noise(rngs, n_antennas: int, noise_power: float) -> np.ndarray | None:
    """One pilot's CN(0, noise_power) antenna noise per generator, as rows.

    Row t is what ``crandn(rngs[t], n_antennas) * sqrt(noise_power)``
    draws, from the same generator in the same order; None when the
    pilot is noiseless (no generator is touched then).  A generator may
    appear in consecutive rows, one per pilot it sends: those rows are
    drawn in one call, which gives the same numbers as one call per row.
    """
    if not noise_power > 0.0:
        return None
    if rngs is None or any(rng is None for rng in rngs):
        raise ValueError("noisy measurement needs an rng")
    normals = np.empty((len(rngs), 2, n_antennas))
    row = 0
    for rng, pilots in itertools.groupby(rngs):
        count = sum(1 for _ in pilots)
        rng.standard_normal(out=normals[row:row + count])
        row += count
    # scaled in place as _complex_normal(re, im) * sqrt(noise_power) scales
    # each part: first by sqrt(1/2), then by sqrt(noise_power)
    normals *= math.sqrt(0.5)
    normals *= math.sqrt(noise_power)
    noise = np.empty((len(rngs), n_antennas), dtype=complex)
    noise.real, noise.imag = normals[:, 0], normals[:, 1]
    return noise


def _synthesize(cfg: ArrayConfig, gains, sines, ranges) -> ChannelRealization:
    """The channels of (..., L) path parameters: every path steered in one
    call, then h = sum_l g_l * alpha_l summed path by path."""
    rows = steering(cfg, sines.reshape(-1), ranges.reshape(-1))
    rows = rows.reshape(*sines.shape, cfg.n_antennas)
    rows.flags.writeable = False
    h = np.zeros(rows.shape[:-2] + (cfg.n_antennas,), dtype=complex)
    for l in range(sines.shape[-1]):
        h += gains[..., l, None] * rows[..., l, :]
    return ChannelRealization(gains, sines, ranges, h, rows)


def sample_channels(cfg: ArrayConfig, rngs,
                    scenario: ChannelScenario = ChannelScenario()) -> ChannelRealization:
    """Draw one multipath channel per generator, as a stack; ranges are
    clamped up to the validity floor.

    Each generator draws its own paths one scalar at a time, path by path
    (the gain's real and imaginary normals, the sine, the range), so a
    channel does not depend on the stack it is drawn in; then all T x L
    paths are steered in one call."""
    lo, hi = scenario.angle_range
    rlo = max(scenario.range_range[0], cfg.range_floor)
    rhi = max(scenario.range_range[1], rlo)
    draws = np.array([[(rng.standard_normal(), rng.standard_normal(),
                        rng.uniform(lo, hi), rng.uniform(rlo, rhi))
                       for _ in range(scenario.n_paths)] for rng in rngs])
    draws = draws.reshape(len(rngs), scenario.n_paths, 4)
    gains = (_complex_normal(draws[..., 0], draws[..., 1])
             * np.sqrt(scenario.gain_vars[:scenario.n_paths]))
    return _synthesize(cfg, gains, draws[..., 2], draws[..., 3])


def snr_db_to_noise_power(snr_db: float, cfg: ArrayConfig) -> float:
    """Map a nominal SNR to the per-antenna noise variance sigma^2.

    The nominal SNR is referred to one RF-chain output: a unit-modulus
    analog combining row has squared norm M, so the noise power entering
    a single RF chain is ``M * sigma^2`` and equals ``10**(-snr_db/10)``
    for a unit-variance line-of-sight gain and unit pilot.  Reported SNR
    axes therefore differ from per-antenna SNR by a constant offset.
    """
    return 10.0 ** (-snr_db / 10.0) / cfg.m_per_sub
