"""Near-field beam tracking: constant-velocity prediction, one-pilot
phase-shift refinement per block, and Kalman fusion.

The state is Cartesian ``[x, y, vx, vy]`` in the array frame (array on
the y-axis, boresight along +x).  The refinement output is converted to
a Cartesian position measurement, so the filter is linear.

Every scheme runs in one block loop (:func:`run_schemes`): the loop draws
the block's channels and scores the beams, and a per-scheme step
(:func:`nfbt_step` and the baselines) spends the pilots and updates the
estimates.  The loop runs chunks of independent runs (seeds), of one
scheme or of several in lockstep: each run draws only from its own
generator, in the order a run alone would, so a run's blocks do not
depend on the chunk it is in.  Every per-run quantity is a stack with a
leading run axis, and each numpy call works on the whole stack; a
scheme's whole run comes back as one :class:`TrackLog` of (runs, blocks)
arrays.  The line of sight of a trajectory depends on nothing else, so
it is built once (:func:`line_of_sight`).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .arrays import (ArrayConfig, FAR_FIELD, _complex_normal, antenna_noise, steering,
                     steering_quadratic)
from .codebooks import HybridCodebook
from .combining import design_hybrid, row_dots, subarray_outputs
from .refinement import refine_channels
from .training import TrainedDesign

log = logging.getLogger(__name__)

MEAS_MATRIX = np.array([[1.0, 0.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0, 0.0]])


def _covariance_fault(cov: np.ndarray) -> str | None:
    """What keeps a covariance (or each of a stack) from being symmetric
    positive semidefinite, or None.

    Symmetry is ``np.allclose(cov, cov.T, atol=1e-9)`` written out."""
    cov_t = np.swapaxes(cov, -1, -2)
    if not np.all(np.abs(cov - cov_t) <= 1e-9 + 1e-5 * np.abs(cov_t)):
        return "symmetry"
    if np.linalg.eigvalsh(cov).min() < -1e-9:
        return "positive semidefiniteness"
    return None


@dataclass(frozen=True)
class TrackerConfig:
    """Filter tuning knobs.

    ``meas_cov=None`` asks the runner to calibrate the 2x2 measurement
    covariance by Monte Carlo at the run's noise level and mid-trajectory
    geometry.  ``innovation_gate`` is a chi-square threshold on the
    normalized innovation (None disables gating).
    """

    dt: float
    n_blocks: int
    accel_intensity: float = 1.0
    meas_cov: np.ndarray | None = None
    init_cov_diag: tuple[float, float, float, float] = (1.0, 1.0, 25.0, 25.0)
    innovation_gate: float | None = 13.8

    def __post_init__(self):
        # each message starts with the name of the field it rejects
        if not self.dt > 0:
            raise ValueError("dt (the block duration) must be positive")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be at least 1")
        # process_noise scales dt^4 by accel_intensity^2
        if not math.isfinite(self.dt * self.dt * self.dt * self.dt):
            raise ValueError("dt is too long for a finite process noise")
        scale = self.dt * self.dt * self.accel_intensity
        if not math.isfinite(scale * scale):
            raise ValueError("accel_intensity is too large for a finite process noise")
        if self.meas_cov is not None and _covariance_fault(np.asarray(self.meas_cov, float)):
            raise ValueError(f"meas_cov must be symmetric positive semidefinite, "
                             f"got {np.asarray(self.meas_cov).tolist()}")
        if self.innovation_gate is not None and self.innovation_gate < 0:
            raise ValueError(f"innovation_gate must be non-negative, "
                             f"got {self.innovation_gate}")


@dataclass
class TrackState:
    """Kinematic state, covariance, and block index.

    One track has x (4,) and cov (4, 4); a chunk of T tracks stacks them
    as (T, 4) and (T, 4, 4), and every method works per track.
    """

    x: np.ndarray = field(repr=False)     # (..., 4)
    cov: np.ndarray = field(repr=False)   # (..., 4, 4)
    block: int = 0

    @property
    def position(self) -> np.ndarray:
        return self.x[..., :2]

    @property
    def velocity(self) -> np.ndarray:
        return self.x[..., 2:]

    def geometry(self) -> tuple:
        """(omega, range) of the position: the sine of the angle from
        boresight, and the distance.

        Numbers for one track, arrays for a stack."""
        angle = np.arctan2(self.x[..., 1], self.x[..., 0])
        return np.sin(angle), np.hypot(self.x[..., 0], self.x[..., 1])

    def rows(self, idx) -> TrackState:
        """The tracks at ``idx`` of a stack, as a stack of their own."""
        return TrackState(x=self.x[idx], cov=self.cov[idx], block=self.block)

    def assert_valid(self) -> None:
        """Covariance must stay symmetric positive semidefinite."""
        fault = _covariance_fault(self.cov)
        if fault is not None:
            raise AssertionError(f"covariance lost {fault}")


@functools.lru_cache(maxsize=16)
def transition_matrix(dt: float) -> np.ndarray:
    """Constant-velocity transition over one block (read-only, built once per dt)."""
    xi = np.eye(4)
    xi[0, 2] = xi[1, 3] = dt
    xi.flags.writeable = False
    return xi


@functools.lru_cache(maxsize=16)
def process_noise(dt: float, accel_intensity: float) -> np.ndarray:
    """Piecewise-constant white-acceleration covariance per axis (read-only,
    built once per setting)."""
    q = np.array([[dt**4 / 4.0, dt**3 / 2.0], [dt**3 / 2.0, dt**2]]) * accel_intensity**2
    out = np.zeros((4, 4))
    out[np.ix_([0, 2], [0, 2])] = q
    out[np.ix_([1, 3], [1, 3])] = q
    out.flags.writeable = False
    return out


def _apply(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``mat @ x`` for one vector or a stack of them (or of matrices):
    each product is the same matrix-vector call either way."""
    return (mat @ x[..., None])[..., 0]


def _transpose(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def predict(state: TrackState, tcfg: TrackerConfig) -> TrackState:
    """Constant-velocity propagation with process-noise inflation."""
    xi = transition_matrix(tcfg.dt)
    x = _apply(xi, state.x)
    cov = xi @ state.cov @ xi.T + process_noise(tcfg.dt, tcfg.accel_intensity)
    return TrackState(x=x, cov=cov, block=state.block + 1)


@dataclass(frozen=True)
class Measurement:
    """One-pilot position fixes, one entry per run; an invalid fix has
    ``ok`` False and a NaN position row."""

    position: np.ndarray    # (T, 2)
    ok: np.ndarray          # (T,)


def polar_to_cartesian(omega, r) -> np.ndarray:
    """Cartesian (x, y) of (omega, range); equal-shape arrays give one
    row per pair."""
    theta = np.arcsin(omega)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def omega_range(pos) -> tuple[float, float]:
    """(omega, range) of a Cartesian position."""
    zeta = float(np.hypot(pos[0], pos[1]))
    return float(pos[1] / zeta), zeta


def measure_blocks(cfg: ArrayConfig, hs: np.ndarray, omega_pred, range_pred,
                   noise: np.ndarray | None) -> Measurement:
    """One-pilot fixes for a (T, N) stack of channels, each refined around
    its own predicted (omega, range) with its own antenna noise row.

    A fix is invalid (prediction-only update downstream) when the
    refinement fails outright or when it has no usable position: a
    far-field or non-physical reading.
    """
    res = refine_channels(cfg, hs, omega_pred, range_pred, noise)
    ok = (res.refined & (np.abs(res.omega) <= 1.0)
          & np.isfinite(res.range_m) & (res.range_m > 0.0))
    pos = np.full((len(ok), 2), np.nan)
    pos[ok] = polar_to_cartesian(res.omega[ok], res.range_m[ok])
    return Measurement(position=pos, ok=ok)


def _per_covariance(fn, s: np.ndarray, *rest) -> np.ndarray:
    """``fn(s, *rest)`` for a stack of innovation covariances.  If one is
    singular, each is taken alone: a singular one is regularized with
    1e-9 * I and logged rather than aborting the run, the rest are exact."""
    try:
        return fn(s, *rest)
    except np.linalg.LinAlgError:
        if s.ndim > 2:
            return np.stack([_per_covariance(fn, *one) for one in zip(s, *rest)])
        log.warning("singular innovation covariance; regularizing")
        return fn(s + 1e-9 * np.eye(2), *rest)


def filter_update(pred: TrackState, meas_pos: np.ndarray,
                  tcfg: TrackerConfig) -> TrackState:
    """Kalman position update in Joseph form, per track.

    A singular innovation covariance is regularized with 1e-9 * I and
    logged rather than aborting the run.
    """
    if tcfg.meas_cov is None:
        raise ValueError("filter_update needs a calibrated meas_cov")
    h = MEAS_MATRIX
    r = np.asarray(tcfg.meas_cov, dtype=float)
    s = h @ pred.cov @ h.T + r
    k = pred.cov @ h.T @ _per_covariance(np.linalg.inv, s)
    innov = meas_pos - _apply(h, pred.x)
    x = pred.x + _apply(k, innov)
    ikh = np.eye(4) - k @ h
    cov = ikh @ pred.cov @ _transpose(ikh) + k @ r @ _transpose(k)
    cov = (cov + _transpose(cov)) / 2.0
    return TrackState(x=x, cov=cov, block=pred.block)


def innovation_distances(pred: TrackState, meas_pos: np.ndarray,
                         tcfg: TrackerConfig) -> np.ndarray:
    """Squared Mahalanobis distance of each measurement from its prediction
    (a singular innovation covariance is regularized as in the update)."""
    h = MEAS_MATRIX
    s = h @ pred.cov @ h.T + np.asarray(tcfg.meas_cov, dtype=float)
    innov = meas_pos - _apply(h, pred.x)
    solved = _per_covariance(np.linalg.solve, s, innov[..., None])
    return (innov[..., None, :] @ solved)[..., 0, 0]


# ---------------------------------------------------------------------------
# trajectories and tracking-time channels


@dataclass(frozen=True)
class Trajectory:
    """Constant-velocity ground truth."""

    start: tuple[float, float]
    velocity: tuple[float, float]
    dt: float
    n_blocks: int

    def position(self, block: int) -> np.ndarray:
        return np.asarray(self.start) + np.asarray(self.velocity) * (block * self.dt)


@dataclass(frozen=True)
class LineOfSight:
    """Per-block arrays that a trajectory's true geometry alone decides,
    block 0 included (all read-only).

    ``steering[i]`` is the line-of-sight steering vector at block i and
    ``combiner_rows[i]`` the combined row of the continuous hybrid design
    there, which is the perfect-CSI combiner.
    """

    steering: np.ndarray        # (n_blocks + 1, N)
    combiner_rows: np.ndarray   # (n_blocks + 1, N)


def line_of_sight(cfg: ArrayConfig, traj: Trajectory) -> LineOfSight:
    """The trajectory's :class:`LineOfSight`, built once and shared by every
    seed, scheme and SNR that runs along it."""
    return _line_of_sight(cfg, tuple(traj.start), tuple(traj.velocity), traj.dt,
                          traj.n_blocks)


@functools.lru_cache(maxsize=8)
def _line_of_sight(cfg: ArrayConfig, start, velocity, dt: float,
                   n_blocks: int) -> LineOfSight:
    traj = Trajectory(start, velocity, dt, n_blocks)
    omega, zeta = np.array([omega_range(traj.position(i))
                            for i in range(n_blocks + 1)]).T
    # block 0 is the start, which no block scores: it is not held to the range floor
    rows = np.concatenate([steering(cfg, omega[:1], zeta[:1], validate=False),
                           steering(cfg, omega[1:], zeta[1:])])
    los = LineOfSight(steering=rows,
                      combiner_rows=design_hybrid(cfg, omega, zeta).combined_row())
    for arr in (los.steering, los.combiner_rows):
        arr.flags.writeable = False
    return los


@dataclass(frozen=True)
class TrackingScenario:
    """Per-block channel model during tracking.

    The line-of-sight gain is redrawn CN(0, 1) each block (block fading)
    unless ``fading=False`` pins it to 1.  Scatterer positions are drawn
    once per run; their gains are redrawn CN(0, nlos_gain_var) per block.
    """

    fading: bool = True
    n_nlos: int = 2
    nlos_gain_var: float = 0.01
    nlos_angle_range: tuple[float, float] = (-math.sqrt(3) / 2, math.sqrt(3) / 2)
    nlos_range_range: tuple[float, float] = (6.0, 150.0)


class TrackingChannel:
    """Draws the block-i channels of a chunk of runs along a trajectory,
    one run per generator."""

    def __init__(self, cfg: ArrayConfig, traj: Trajectory, scen: TrackingScenario,
                 rngs):
        self.scen = scen
        self.los = line_of_sight(cfg, traj)
        lo, hi = scen.nlos_angle_range
        rlo = max(scen.nlos_range_range[0], cfg.range_floor)
        rhi = max(scen.nlos_range_range[1], rlo)
        # each run's scatterers, (omega, range) per scatterer
        self.scatterers = np.array([[(rng.uniform(lo, hi), rng.uniform(rlo, rhi))
                                     for _ in range(scen.n_nlos)] for rng in rngs])
        self.scatterers = self.scatterers.reshape(len(rngs), scen.n_nlos, 2)
        # the scatterers stay put for the whole run, so steer at them once
        self.nlos_steering = steering(cfg, self.scatterers[..., 0].reshape(-1),
                                      self.scatterers[..., 1].reshape(-1)
                                      ).reshape(len(rngs), scen.n_nlos, cfg.n_antennas)

    def at_block(self, block: int, rngs) -> np.ndarray:
        """The (T, N) stack of the runs' block-``block`` channels.

        A run draws its fading gain, then each scatterer's gain, each as
        ``crandn(rng)``: one call per run draws the same normals in order.
        """
        n_gains = int(self.scen.fading) + self.scen.n_nlos
        normals = np.array([rng.standard_normal(2 * n_gains) for rng in rngs])
        gains = _complex_normal(normals[:, 0::2], normals[:, 1::2])
        g1 = gains[:, 0] if self.scen.fading else np.full(len(rngs), 1.0 + 0j)
        g_nlos = math.sqrt(self.scen.nlos_gain_var) * gains[:, int(self.scen.fading):]
        hs = g1[:, None] * self.los.steering[block]
        for j in range(self.scen.n_nlos):
            hs = hs + g_nlos[:, j, None] * self.nlos_steering[:, j]
        return hs


# Calibration trials refined as one stack.  At the reference array a
# 300-trial stack peaked at 12.3 MB under tracemalloc, blocks of 64 at 2.6.
CALIBRATION_BLOCK = 64


def calibrate_measurement_cov(cfg: ArrayConfig, noise_power: float, omega: float,
                              zeta: float, scen: TrackingScenario,
                              n_trials: int = 300, seed: int = 0x5EED,
                              trim: float = 0.9) -> np.ndarray:
    """Monte Carlo 2x2 covariance of the one-pilot position fix.

    Run at a representative geometry (mid-trajectory) and the run's noise
    level; the worst (1 - trim) fraction of fixes by error norm is
    dropped so fading outliers do not dominate, since the innovation gate
    handles those at run time.

    Every trial draws the same count of normals from the one stream (the
    fading gain, then the pilot's antenna noise), so a block of trials
    draws its normals in one call and refines its fixes as one stack.
    Blocks of ``CALIBRATION_BLOCK`` trials draw the same normals in the
    same order as one draw for all trials.
    """
    rng = np.random.default_rng(seed)
    theta = math.asin(omega)
    truth = np.array([zeta * math.cos(theta), zeta * math.sin(theta)])
    n = cfg.n_antennas
    n_gain = 2 if scen.fading else 0
    n_noise = 2 * n if noise_power > 0.0 else 0
    h = steering(cfg, omega, zeta)
    fixes = [np.empty((0, 2))]              # no trials join to no fixes
    for start in range(0, n_trials, CALIBRATION_BLOCK):
        count = min(CALIBRATION_BLOCK, n_trials - start)
        draws = rng.standard_normal((count, n_gain + n_noise))
        g1 = (_complex_normal(draws[:, 0], draws[:, 1]) if scen.fading
              else np.full(count, 1.0 + 0j))
        noise = None
        if n_noise:
            noise = (_complex_normal(draws[:, n_gain:n_gain + n], draws[:, n_gain + n:])
                     * math.sqrt(noise_power))
        # refined around sin(theta), the sine the truth is built from; it need
        # not round back to omega
        meas = measure_blocks(cfg, g1[:, None] * h, np.full(count, math.sin(theta)),
                              np.full(count, zeta), noise)
        fixes.append(meas.position[meas.ok])
    errs = np.concatenate(fixes) - truth
    if len(errs) < 8:
        log.warning("calibration produced %d usable fixes; falling back to 1 m^2",
                    len(errs))
        return np.eye(2)
    norm = np.linalg.norm(errs, axis=1)
    kept = errs[norm <= np.quantile(norm, trim)]
    cov = np.cov(kept.T)
    return cov + 1e-6 * np.eye(2)


def tracker_for_run(cfg: ArrayConfig, tcfg: TrackerConfig, traj: Trajectory,
                    scen: TrackingScenario, noise_power: float,
                    seed: int) -> TrackerConfig:
    """Fill in the measurement covariance by calibration when unset.

    The calibration runs at the mid-trajectory geometry, on a stream
    derived from the run's seed.
    """
    if tcfg.meas_cov is not None:
        return tcfg
    omega, zeta = omega_range(traj.position(traj.n_blocks // 2))
    cov = calibrate_measurement_cov(cfg, noise_power, omega, zeta, scen,
                                    seed=seed ^ 0xC0FFEE)
    return replace(tcfg, meas_cov=cov)


# ---------------------------------------------------------------------------
# the block loop and the per-scheme steps


@dataclass(frozen=True)
class TrackLog:
    """One scheme's chunk of runs: ``gain[t, j]`` is run t's beam gain at
    block j + 1, at ``(j + 1) * dt``.  Only a scheme that filters keeps
    positions (None otherwise); a NaN ``measured`` row means no fix."""

    gain: np.ndarray                    # (T, B)
    se_bits: np.ndarray                 # (T, B)
    pilots: np.ndarray                  # (T, B) int
    predicted: np.ndarray | None        # (T, B, 2)
    measured: np.ndarray | None         # (T, B, 2)
    filtered: np.ndarray | None         # (T, B, 2)


def se_bits(signal_power: np.ndarray, noise_power: float) -> np.ndarray:
    """log2(1 + signal / noise) per signal power, infinite for a noiseless link."""
    if noise_power <= 0.0:
        return np.full(np.shape(signal_power), math.inf)
    return np.log2(1.0 + signal_power / noise_power)


def se_combiners(cfg: ArrayConfig, omega_hat, zeta_hat) -> np.ndarray:
    """The spectral-efficiency combiner at each estimated geometry: the
    combined row of the continuous hybrid design there (unit norm)."""
    return design_hybrid(cfg, np.clip(omega_hat, -1, 1), zeta_hat).combined_row()


def signal_powers(rows: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """|rows[t] @ hs[t]|^2 per channel."""
    return np.abs(row_dots(rows, hs)) ** 2


def spectral_efficiency(rows: np.ndarray, hs: np.ndarray, noise_power: float) -> np.ndarray:
    """log2(1 + |combined signal|^2 / sigma_rf^2) for unit-norm combiners.

    Each channel of the (T, N) stack goes through its own combined row
    (see :func:`se_combiners`); the row has unit norm so the post-combining
    noise power equals the per-antenna noise power.
    """
    return se_bits(signal_powers(rows, hs), noise_power)


@dataclass(frozen=True)
class StepResult:
    """What one scheme did in one block, one entry per run.

    ``beam[t]`` is scored against the true geometry; the spectral-efficiency
    combiner is designed at (``omega[t]``, ``range_m[t]``).  A step that
    points codebook columns reports them in ``codeword`` (1-based), and
    the geometry is then the codeword's.  Positions are as in
    :class:`TrackLog`.
    """

    beam: np.ndarray                        # (T, N)
    omega: np.ndarray                       # (T,)
    range_m: np.ndarray                     # (T,)
    pilots: np.ndarray                      # (T,) int
    codeword: np.ndarray | None = None      # (T,) int
    predicted: np.ndarray | None = None     # (T, 2)
    measured: np.ndarray | None = None      # (T, 2)
    filtered: np.ndarray | None = None      # (T, 2)


def _se_rows(cfg: ArrayConfig, outs, by_codeword) -> np.ndarray:
    """Every run's SE combiner (:func:`se_combiners`), in run order.

    A continuous step's rows are designed every block, all in one call.  A
    step that points codewords has each codeword's row designed on its
    first visit and kept in its dict of ``by_codeword``, one per step: a
    row comes out bit for bit the same alone or in any stack.
    """
    continuous = [out for out in outs if out.codeword is None]
    if continuous:
        designed = se_combiners(cfg, np.concatenate([out.omega for out in continuous]),
                                np.concatenate([out.range_m for out in continuous]))
    parts, first = [], 0
    for out, rows in zip(outs, by_codeword):
        if out.codeword is None:
            parts.append(designed[first:first + len(out.omega)])
            first += len(out.omega)
            continue
        codewords, where = np.unique(out.codeword, return_index=True)
        new = [k for k, p in enumerate(codewords.tolist()) if p not in rows]
        if new:
            at = where[new]
            rows.update(zip(codewords[new].tolist(),
                            se_combiners(cfg, out.omega[at], out.range_m[at])))
        parts.append(np.stack([rows[p] for p in out.codeword.tolist()]))
    return np.concatenate(parts)


def run_schemes(cfg: ArrayConfig, traj: Trajectory, tcfg: TrackerConfig,
                noise_power: float, scen: TrackingScenario,
                runs) -> list[TrackLog]:
    """Run several schemes in lockstep, each over its own chunk of runs.

    ``runs`` holds one ``(step, rngs)`` pair per scheme.  Each block draws
    the channels of all runs of all schemes as one stack and scores all
    beams together; each step sees only its own rows.  A run still draws
    only from its own generator, in the order it would alone.  Returns
    one :class:`TrackLog` per scheme, its runs in ``rngs`` order.  One
    scheme passes ``[(step, rngs)]``, and one run of it ``[(step, [rng])]``.

    The run covers the tracker's ``n_blocks``, which may stop short of the
    trajectory's end or go past it along the same line: only the blocks
    that run are built and held to the range floor.
    """
    traj = replace(traj, n_blocks=tcfg.n_blocks)
    all_rngs = [rng for _, rngs in runs for rng in rngs]
    edges = np.cumsum([0] + [len(rngs) for _, rngs in runs]).tolist()
    chan = TrackingChannel(cfg, traj, scen, all_rngs)
    gains, ses, kept = [], [], []
    se_rows = [{} for _ in runs]        # each step's SE row per codeword it has pointed
    for i in range(1, tcfg.n_blocks + 1):
        hs = chan.at_block(i, all_rngs)
        outs = [step(hs[a:b], rngs) for (step, rngs), a, b in zip(runs, edges, edges[1:])]
        ses.append(spectral_efficiency(_se_rows(cfg, outs, se_rows), hs, noise_power))
        # |los^H beam| of every run's beam, in run order
        gains.append(np.abs(row_dots(chan.los.steering[i].conj(),
                                     np.concatenate([out.beam for out in outs]))))
        # all but the beams, which would hold a (T, N) stack per block
        kept.append([(out.pilots, out.predicted, out.measured, out.filtered)
                     for out in outs])
    gains, ses = np.stack(gains, axis=1), np.stack(ses, axis=1)
    # each scheme's pilots and positions, block by block, stacked as (T, B, ...)
    return [TrackLog(gains[a:b], ses[a:b],
                     *(None if field[0] is None else np.stack(field, axis=1)
                       for field in zip(*blocks)))
            for blocks, a, b in zip(zip(*kept), edges, edges[1:])]


def nfbt_step(cfg: ArrayConfig, tcfg: TrackerConfig, noise_power: float,
              init_state: np.ndarray):
    """Kalman-filtered tracking: predict, measure (1 pilot), gate, fuse.

    ``init_state`` is ``[x, y, vx, vy]`` before the first block, the same
    for every run.  Failures in measurement or gating never abort a run;
    the run's block degrades to a prediction-only update.
    """
    state = None

    def step(hs, rngs):
        nonlocal state
        if state is None:
            state = TrackState(x=np.tile(np.asarray(init_state, dtype=float), (len(rngs), 1)),
                               cov=np.tile(np.diag(tcfg.init_cov_diag), (len(rngs), 1, 1)))
        state = predict(state, tcfg)
        pred_pos = state.position.copy()
        meas = measure_blocks(cfg, hs, *state.geometry(),
                              antenna_noise(rngs, cfg.n_antennas, noise_power))
        accepted = np.flatnonzero(meas.ok)
        pred = state.rows(accepted)
        if tcfg.innovation_gate is not None and accepted.size:
            passed = (innovation_distances(pred, meas.position[accepted], tcfg)
                      <= tcfg.innovation_gate)
            if not passed.all():
                accepted, pred = accepted[passed], pred.rows(passed)
        if accepted.size:
            fused = filter_update(pred, meas.position[accepted], tcfg)
            state.x[accepted], state.cov[accepted] = fused.x, fused.cov
        state.assert_valid()
        omega, range_m = state.geometry()
        return StepResult(beam=steering_quadratic(cfg, omega, range_m), omega=omega,
                          range_m=range_m, pilots=np.ones(len(rngs), dtype=int),
                          predicted=pred_pos, measured=meas.position,
                          filtered=state.position.copy())

    return step


def brpss_step(cfg: ArrayConfig, start, noise_power: float):
    """Filterless baseline: the previous block's estimate is the prediction.

    Any mathematically valid refinement output (including a far-field
    reading) becomes the next state; there is no kinematic model and no
    gating, which is exactly what the comparison is about.
    """
    est = None

    def step(hs, rngs):
        nonlocal est
        if est is None:
            est = np.tile(omega_range(start), (len(rngs), 1)).T
        res = refine_channels(cfg, hs, est[0], est[1],
                              antenna_noise(rngs, cfg.n_antennas, noise_power))
        keep = res.refined & (np.abs(res.omega) <= 1.0)
        est = np.where(keep, [res.omega, res.range_m], est)
        return StepResult(steering_quadratic(cfg, est[0], est[1]), est[0], est[1],
                          pilots=np.ones(len(rngs), dtype=int))

    return step


def _visited_columns(book: HybridCodebook):
    """A lookup of codebook columns, ``columns(p)`` for an array of 1-based
    indices, that steers each column on its first visit
    (:meth:`HybridCodebook.steer_column`, bit for bit its stored column)
    and keeps it: a tracker holds the columns its runs visit, not the
    matrix."""
    kept = {}

    def columns(p: np.ndarray) -> np.ndarray:
        p = p.tolist()
        for one in p:
            if one not in kept:
                kept[one] = book.steer_column(one)
        return np.stack([kept[one] for one in p])

    return columns


def _best_candidates(cands: np.ndarray, runs: np.ndarray, slots: np.ndarray,
                     powers: np.ndarray) -> np.ndarray:
    """Each run's candidate of largest power, the first on ties: the
    candidates ``cands[runs, slots]`` were measured as ``powers``."""
    table = np.full(cands.shape, -1.0)      # below every power, so no masked slot wins
    table[runs, slots] = powers
    return cands[np.arange(len(cands)), np.argmax(table, axis=1)]


def hfns_step(cfg: ArrayConfig, design: TrainedDesign, start, noise_power: float):
    """Neighbor search in the hybrid codebook: 5 pilots per block.

    Tests the previous best codeword plus its four grid neighbors (angle
    and distance neighbors for near cells; the four nearest angles for
    far cells), each through its trained hybrid combiner.  Each run keeps
    its own best codeword.
    """
    book = design.book
    p_start = nearest_codeword(book, *omega_range(start))
    p_best = None
    columns = _visited_columns(book)

    def step(hs, rngs):
        nonlocal p_best
        if p_best is None:
            p_best = np.full(len(rngs), p_start)
        cands, valid = neighbor_codewords(book, p_best)
        # every (run, candidate) pilot as one stack, each run's in order
        runs, slots = np.nonzero(valid)
        pairs = design.combiner(cands[runs, slots])
        z = subarray_outputs(cfg, pairs.w_blocks, hs[runs],
                             antenna_noise([rngs[t] for t in runs.tolist()], cfg.n_antennas,
                                           noise_power))
        p_best = _best_candidates(cands, runs, slots, signal_powers(pairs.v, z))
        return StepResult(columns(p_best), *book.geometry(p_best),
                          pilots=valid.sum(axis=1), codeword=p_best)

    return step


def ffbt_proxy_step(book: HybridCodebook, start, noise_power: float):
    """Far-field neighbor-search stand-in: 3 ideal plane-wave pilots per block.

    This proxies a far-field tracker with the plane-wave sweep machinery
    already present; it is not a reproduction of any specific external
    tracker and is labeled accordingly in outputs.  Each run keeps its
    own best angle.
    """
    q_start = book.params(nearest_codeword(book, omega_range(start)[0], FAR_FIELD)).q
    q_best = None
    columns = _visited_columns(book)

    def step(hs, rngs):
        nonlocal q_best
        if q_best is None:
            q_best = np.full(len(rngs), q_start)
        cands = q_best[:, None] + np.array([-1, 0, 1])
        valid = (cands >= 1) & (cands <= book.n_angles)
        # every (run, candidate) pilot as one stack, each run's in order
        runs, slots = np.nonzero(valid)
        ys = row_dots(columns(book.index_of(cands[runs, slots], None)).conj(), hs[runs])
        pilots = valid.sum(axis=1)
        if noise_power > 0.0:
            # crandn(rng) per pilot, in order: one draw of each run's normals
            normals = np.concatenate([rng.standard_normal(2 * n)
                                      for rng, n in zip(rngs, pilots.tolist())])
            ys = ys + _complex_normal(normals[0::2], normals[1::2]) * math.sqrt(noise_power)
        q_best = _best_candidates(cands, runs, slots, np.abs(ys) ** 2)
        p_best = book.index_of(q_best, None)
        return StepResult(columns(p_best), book.theta[q_best - 1],
                          np.full(len(q_best), FAR_FIELD), pilots=pilots, codeword=p_best)

    return step


def nearest_codeword(book: HybridCodebook, omega: float, r: float) -> int:
    """Grid cell closest to (omega, r): nearest angle, then nearest ring,
    or the far cell when it is nearer or the book has no rings."""
    q = int(np.clip(round((omega * book.n_angles + 1 + book.n_angles) / 2), 1,
                    book.n_angles))
    if math.isinf(r) or book.n_rings == 0:
        return book.index_of(q, None)
    rings = book.distances[q - 1]
    gaps = np.abs(1.0 / rings - 1.0 / r)
    far_gap = 1.0 / r
    if far_gap < gaps.min():
        return book.index_of(q, None)
    return book.index_of(q, int(np.argmin(gaps)) + 1)


# Each candidate's (angle, ring) step from a near cell and from a far cell.
# A near cell's ring 0 is its angle's far cell (shallower than ring 1).
_NEAR_STEPS = (np.array([0, -1, 1, 0, 0]), np.array([0, 0, 0, -1, 1]))
_FAR_STEPS = (np.array([0, -2, -1, 1, 2]), np.zeros(5, dtype=int))


def neighbor_codewords(book: HybridCodebook, p) -> tuple[np.ndarray, np.ndarray]:
    """Each codeword of the (T,) array ``p`` (1-based) and its four grid
    neighbors: a (T, 5) index array, the codeword first, and the (T, 5)
    mask of the candidates inside the grid (a masked index means nothing).

    A near cell (q, s) has (q - 1, s), (q + 1, s), (q, s - 1) and
    (q, s + 1), with the far cell of angle q for ring 0; a far cell has the
    far cells of angles q - 2, q - 1, q + 1 and q + 2.
    """
    q, s = book.cells(p)
    far = (s == 0)[:, None]
    q = q[:, None] + np.where(far, _FAR_STEPS[0], _NEAR_STEPS[0])
    s = s[:, None] + np.where(far, _FAR_STEPS[1], _NEAR_STEPS[1])
    valid = (q >= 1) & (q <= book.n_angles) & (s <= book.n_rings)
    return np.where(s == 0, book.index_of(q, None), book.index_of(q, s)), valid
