"""Near-field beam tracking: constant-velocity prediction, one-pilot
phase-shift refinement per block, and Kalman fusion.

The state is Cartesian ``[x, y, vx, vy]`` in the array frame (array on
the y-axis, boresight along +x).  The refinement output is converted to
a Cartesian position measurement, so the filter is linear.

Every scheme runs in one block loop (:func:`run_blocks`): the loop draws
the block's channel and scores the beam, and a per-scheme step
(:func:`nfbt_step` and the baselines) spends the pilots and updates the
estimate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .arrays import ArrayConfig, FAR_FIELD, crandn, steering, steering_quadratic
from .codebooks import HybridCodebook
from .combining import design_hybrid, hybrid_beam_gain, subarray_outputs
from .refinement import run_brpss
from .training import TrainedDesign

log = logging.getLogger(__name__)

MEAS_MATRIX = np.array([[1.0, 0.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0, 0.0]])


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


@dataclass
class TrackState:
    """Kinematic state, covariance, and block index."""

    x: np.ndarray = field(repr=False)     # (4,)
    cov: np.ndarray = field(repr=False)   # (4, 4)
    block: int = 0

    @property
    def position(self) -> np.ndarray:
        return self.x[:2]

    @property
    def velocity(self) -> np.ndarray:
        return self.x[2:]

    def polar(self) -> tuple[float, float]:
        """(range, angle) of the position; angle measured from boresight."""
        zeta = float(np.hypot(self.x[0], self.x[1]))
        theta = float(np.arctan2(self.x[1], self.x[0]))
        return zeta, theta

    def assert_valid(self) -> None:
        """Covariance must stay symmetric positive semidefinite."""
        if not np.allclose(self.cov, self.cov.T, atol=1e-9):
            raise AssertionError("covariance lost symmetry")
        if np.linalg.eigvalsh(self.cov).min() < -1e-9:
            raise AssertionError("covariance lost positive semidefiniteness")


def transition_matrix(dt: float) -> np.ndarray:
    xi = np.eye(4)
    xi[0, 2] = xi[1, 3] = dt
    return xi


def process_noise(dt: float, accel_intensity: float) -> np.ndarray:
    """Piecewise-constant white-acceleration covariance per axis."""
    q = np.array([[dt**4 / 4.0, dt**3 / 2.0], [dt**3 / 2.0, dt**2]]) * accel_intensity**2
    out = np.zeros((4, 4))
    out[np.ix_([0, 2], [0, 2])] = q
    out[np.ix_([1, 3], [1, 3])] = q
    return out


def predict(state: TrackState, tcfg: TrackerConfig) -> TrackState:
    """Constant-velocity propagation with process-noise inflation."""
    xi = transition_matrix(tcfg.dt)
    x = xi @ state.x
    cov = xi @ state.cov @ xi.T + process_noise(tcfg.dt, tcfg.accel_intensity)
    return TrackState(x=x, cov=cov, block=state.block + 1)


@dataclass(frozen=True)
class Measurement:
    """One-pilot position fix; invalid measurements carry ok=False."""

    position: np.ndarray | None
    omega: float
    range_m: float
    ok: bool
    pilots: int = 1


def polar_to_cartesian(omega: float, r: float) -> np.ndarray:
    theta = math.asin(omega)
    return np.array([r * math.cos(theta), r * math.sin(theta)])


def omega_range(pos) -> tuple[float, float]:
    """(omega, range) of a Cartesian position."""
    zeta = float(np.hypot(pos[0], pos[1]))
    return float(pos[1] / zeta), zeta


def measure_block(cfg: ArrayConfig, channel, zeta_pred: float, theta_pred: float,
                  noise_power: float, rng: np.random.Generator) -> Measurement:
    """Refine around the predicted geometry with a single pilot.

    The estimate is declared invalid (prediction-only update downstream)
    when the refinement fails outright or when it has no usable position:
    a far-field or non-physical reading.
    """
    omega_pred = math.sin(theta_pred)
    res = run_brpss(cfg, channel, omega_pred, zeta_pred, noise_power, rng)
    ok = (res.refined and abs(res.omega) <= 1.0
          and math.isfinite(res.range_m) and res.range_m > 0.0)
    pos = polar_to_cartesian(res.omega, res.range_m) if ok else None
    return Measurement(position=pos, omega=res.omega, range_m=res.range_m, ok=ok)


def filter_update(pred: TrackState, meas_pos: np.ndarray,
                  tcfg: TrackerConfig) -> TrackState:
    """Kalman position update in Joseph form.

    A singular innovation covariance is regularized with 1e-9 * I and
    logged rather than aborting the run.
    """
    if tcfg.meas_cov is None:
        raise ValueError("filter_update needs a calibrated meas_cov")
    h = MEAS_MATRIX
    r = np.asarray(tcfg.meas_cov, dtype=float)
    s = h @ pred.cov @ h.T + r
    try:
        s_inv = np.linalg.inv(s)
    except np.linalg.LinAlgError:
        log.warning("singular innovation covariance; regularizing")
        s_inv = np.linalg.inv(s + 1e-9 * np.eye(2))
    k = pred.cov @ h.T @ s_inv
    innov = meas_pos - h @ pred.x
    x = pred.x + k @ innov
    ikh = np.eye(4) - k @ h
    cov = ikh @ pred.cov @ ikh.T + k @ r @ k.T
    cov = (cov + cov.T) / 2.0
    return TrackState(x=x, cov=cov, block=pred.block)


def innovation_distance(pred: TrackState, meas_pos: np.ndarray,
                        tcfg: TrackerConfig) -> float:
    """Squared Mahalanobis distance of a measurement from the prediction."""
    h = MEAS_MATRIX
    s = h @ pred.cov @ h.T + np.asarray(tcfg.meas_cov, dtype=float)
    innov = meas_pos - h @ pred.x
    return float(innov @ np.linalg.solve(s, innov))


def filtered_channel(cfg: ArrayConfig, state: TrackState) -> np.ndarray:
    """Estimated line-of-sight steering vector at the filtered geometry."""
    zeta, theta = state.polar()
    return steering_quadratic(cfg, math.sin(theta), zeta)


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
    """Draws the block-i channel along a trajectory."""

    def __init__(self, cfg: ArrayConfig, traj: Trajectory, scen: TrackingScenario,
                 rng: np.random.Generator):
        self.cfg = cfg
        self.traj = traj
        self.scen = scen
        lo, hi = scen.nlos_angle_range
        rlo = max(scen.nlos_range_range[0], cfg.range_floor)
        rhi = max(scen.nlos_range_range[1], rlo)
        self.scatterers = [(rng.uniform(lo, hi), rng.uniform(rlo, rhi))
                           for _ in range(scen.n_nlos)]
        # the scatterers stay put for the whole run, so steer at them once
        self.nlos_steering = [steering(cfg, om_s, r_s) for om_s, r_s in self.scatterers]

    def at_block(self, block: int, rng: np.random.Generator):
        """Returns (h, omega_true, zeta_true, los_gain)."""
        omega, zeta = omega_range(self.traj.position(block))
        g1 = crandn(rng) if self.scen.fading else 1.0 + 0j
        h = g1 * steering(self.cfg, omega, zeta)
        amp = math.sqrt(self.scen.nlos_gain_var)
        for a_s in self.nlos_steering:
            h = h + amp * crandn(rng) * a_s
        return h, omega, zeta, g1


def calibrate_measurement_cov(cfg: ArrayConfig, noise_power: float, zeta: float,
                              omega: float, scen: TrackingScenario,
                              n_trials: int = 300, seed: int = 0x5EED,
                              trim: float = 0.9) -> np.ndarray:
    """Monte Carlo 2x2 covariance of the one-pilot position fix.

    Run at a representative geometry (mid-trajectory) and the run's noise
    level; the worst (1 - trim) fraction of fixes by error norm is
    dropped so fading outliers do not dominate, since the innovation gate
    handles those at run time.
    """
    rng = np.random.default_rng(seed)
    theta = math.asin(omega)
    truth = np.array([zeta * math.cos(theta), zeta * math.sin(theta)])
    errs = []
    for _ in range(n_trials):
        g1 = crandn(rng) if scen.fading else 1.0 + 0j
        h = g1 * steering(cfg, omega, zeta)
        meas = measure_block(cfg, h, zeta, theta, noise_power, rng)
        if meas.ok:
            errs.append(meas.position - truth)
    if len(errs) < 8:
        log.warning("calibration produced %d usable fixes; falling back to 1 m^2",
                    len(errs))
        return np.eye(2)
    errs = np.asarray(errs)
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
    cov = calibrate_measurement_cov(cfg, noise_power, zeta, omega, scen,
                                    seed=seed ^ 0xC0FFEE)
    return replace(tcfg, meas_cov=cov)


# ---------------------------------------------------------------------------
# the block loop and the per-scheme steps


@dataclass
class BlockLog:
    t_s: float
    truth: np.ndarray
    predicted: np.ndarray | None
    measured: np.ndarray | None
    filtered: np.ndarray
    gain: float
    se_bits: float
    pilots: int


def spectral_efficiency(cfg: ArrayConfig, h: np.ndarray, omega_hat: float,
                        zeta_hat: float, noise_power: float) -> float:
    """log2(1 + |combined signal|^2 / sigma_rf^2) for a unit-norm combiner.

    The combiner is the continuous hybrid design at the estimated
    geometry; the combined row has unit norm so the post-combining noise
    power equals the per-antenna noise power.
    """
    pair = design_hybrid(cfg, float(np.clip(omega_hat, -1, 1)), zeta_hat)
    sig = abs(pair.combined_row() @ h) ** 2
    if noise_power <= 0.0:
        return math.inf
    return math.log2(1.0 + sig / noise_power)


@dataclass(frozen=True)
class StepResult:
    """What one scheme did in one block.

    ``beam`` is scored against the true geometry; the spectral-efficiency
    combiner is designed at (``omega``, ``range_m``).
    """

    beam: np.ndarray
    omega: float
    range_m: float
    pilots: int
    predicted: np.ndarray | None
    measured: np.ndarray | None
    filtered: np.ndarray

    @classmethod
    def pointing(cls, beam: np.ndarray, omega: float, range_m: float,
                 pilots: int) -> StepResult:
        """A filterless step: the geometry it points at is its only estimate."""
        pos = polar_to_cartesian(omega, range_m) if math.isfinite(range_m) else None
        return cls(beam=beam, omega=omega, range_m=range_m, pilots=pilots,
                   predicted=None, measured=pos,
                   filtered=pos if pos is not None else np.full(2, np.nan))


def run_blocks(cfg: ArrayConfig, traj: Trajectory, tcfg: TrackerConfig,
               noise_power: float, rng: np.random.Generator,
               scen: TrackingScenario, step) -> list[BlockLog]:
    """Run one tracking scheme over the trajectory, block by block.

    Each block draws the channel, hands it to ``step(h, rng)`` (the
    scheme's pilots and estimate update; it returns a :class:`StepResult`),
    then scores the pointed beam against the true geometry.
    """
    chan = TrackingChannel(cfg, traj, scen, rng)
    logrows = []
    for i in range(1, tcfg.n_blocks + 1):
        h, om_t, ze_t, _ = chan.at_block(i, rng)
        out = step(h, rng)
        gain = hybrid_beam_gain(cfg, out.beam, om_t, ze_t)
        se = spectral_efficiency(cfg, h, out.omega, out.range_m, noise_power)
        logrows.append(BlockLog(t_s=i * tcfg.dt, truth=traj.position(i),
                                predicted=out.predicted, measured=out.measured,
                                filtered=out.filtered, gain=gain, se_bits=se,
                                pilots=out.pilots))
    return logrows


def nfbt_step(cfg: ArrayConfig, tcfg: TrackerConfig, noise_power: float,
              init_state: np.ndarray):
    """Kalman-filtered tracking: predict, measure (1 pilot), gate, fuse.

    ``init_state`` is ``[x, y, vx, vy]`` before the first block.  Failures
    in measurement or gating never abort the run; the block degrades to a
    prediction-only update.
    """
    state = TrackState(x=np.asarray(init_state, dtype=float),
                       cov=np.diag(tcfg.init_cov_diag), block=0)

    def step(h, rng):
        nonlocal state
        state = predict(state, tcfg)
        pred_pos = state.position.copy()
        zeta_p, theta_p = state.polar()
        meas = measure_block(cfg, h, zeta_p, theta_p, noise_power, rng)
        accepted = meas.ok
        if accepted and tcfg.innovation_gate is not None:
            accepted = innovation_distance(state, meas.position, tcfg) <= tcfg.innovation_gate
        if accepted:
            state = filter_update(state, meas.position, tcfg)
        state.assert_valid()
        zf, tf = state.polar()
        return StepResult(beam=filtered_channel(cfg, state), omega=math.sin(tf),
                          range_m=zf, pilots=meas.pilots, predicted=pred_pos,
                          measured=meas.position if meas.ok else None,
                          filtered=state.position.copy())

    return step


def brpss_step(cfg: ArrayConfig, start, noise_power: float):
    """Filterless baseline: the previous block's estimate is the prediction.

    Any mathematically valid refinement output (including a far-field
    reading) becomes the next state; there is no kinematic model and no
    gating, which is exactly what the comparison is about.
    """
    est_omega, est_range = omega_range(start)

    def step(h, rng):
        nonlocal est_omega, est_range
        res = run_brpss(cfg, h, est_omega, est_range, noise_power, rng)
        if res.refined and abs(res.omega) <= 1.0:
            est_omega, est_range = res.omega, res.range_m
        return StepResult.pointing(steering_quadratic(cfg, est_omega, est_range),
                                   est_omega, est_range, pilots=1)

    return step


def hfns_step(cfg: ArrayConfig, design: TrainedDesign, start, noise_power: float):
    """Neighbor search in the hybrid codebook: 5 pilots per block.

    Tests the previous best codeword plus its four grid neighbors (angle
    and distance neighbors for near cells; the four nearest angles for
    far cells), each through its trained hybrid combiner.
    """
    book = design.book
    p_best = nearest_codeword(book, *omega_range(start))

    def step(h, rng):
        nonlocal p_best
        cands = neighbor_codewords(book, p_best)
        powers = []
        for p in cands:
            pair = design.combiner(p)
            y = pair.v @ subarray_outputs(cfg, pair.w_blocks, h, noise_power, rng)
            powers.append(abs(y) ** 2)
        p_best = cands[int(np.argmax(powers))]
        cw = book.params(p_best)
        return StepResult.pointing(book.column(p_best), cw.theta, cw.distance,
                                   pilots=len(cands))

    return step


def ffbt_proxy_step(book: HybridCodebook, start, noise_power: float):
    """Far-field neighbor-search stand-in: 3 ideal plane-wave pilots per block.

    This proxies a far-field tracker with the plane-wave sweep machinery
    already present; it is not a reproduction of any specific external
    tracker and is labeled accordingly in outputs.
    """
    q_best = book.params(nearest_codeword(book, omega_range(start)[0], FAR_FIELD)).q

    def step(h, rng):
        nonlocal q_best
        cands = [q for q in (q_best - 1, q_best, q_best + 1)
                 if 1 <= q <= book.n_angles]
        powers = []
        for q in cands:
            y = np.vdot(book.column(book.index_of(q, None)), h)
            if noise_power > 0.0:
                y = y + crandn(rng) * math.sqrt(noise_power)
            powers.append(abs(y) ** 2)
        q_best = cands[int(np.argmax(powers))]
        return StepResult.pointing(book.column(book.index_of(q_best, None)),
                                   float(book.theta[q_best - 1]), FAR_FIELD,
                                   pilots=len(cands))

    return step


def nearest_codeword(book: HybridCodebook, omega: float, r: float) -> int:
    """Grid cell closest to (omega, r): nearest angle, then nearest ring."""
    q = int(np.clip(round((omega * book.n_angles + 1 + book.n_angles) / 2), 1,
                    book.n_angles))
    if math.isinf(r):
        return book.index_of(q, None)
    rings = book.distances[q - 1]
    gaps = np.abs(1.0 / rings - 1.0 / r)
    far_gap = 1.0 / r
    if far_gap < gaps.min():
        return book.index_of(q, None)
    return book.index_of(q, int(np.argmin(gaps)) + 1)


def neighbor_codewords(book: HybridCodebook, p: int) -> list[int]:
    """The codeword plus four grid neighbors, clipped at grid edges."""
    cw = book.params(p)
    cands = [p]
    if cw.is_far:
        for dq in (-2, -1, 1, 2):
            q = cw.q + dq
            if 1 <= q <= book.n_angles:
                cands.append(book.index_of(q, None))
    else:
        for dq in (-1, 1):
            q = cw.q + dq
            if 1 <= q <= book.n_angles:
                cands.append(book.index_of(q, cw.s))
        for ds in (-1, 1):
            s = cw.s + ds
            if 1 <= s <= book.n_rings:
                cands.append(book.index_of(cw.q, s))
            elif s == 0:
                cands.append(book.index_of(cw.q, None))   # shallower than ring 1: far
    seen = []
    for c in cands:
        if c not in seen:
            seen.append(c)
    return seen[:5]
