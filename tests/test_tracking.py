import math
import tracemalloc

import numpy as np
import pytest

from oracles import (neighbor_list, rayleigh_distance, sequential_calibration,
                     uncached_tracking_run)
from xlbeam import tracking
from xlbeam import (FAR_FIELD, brpss_step, build_hybrid_codebook, calibrate_measurement_cov,
                    design_hybrid, ffbt_proxy_step, filter_update, hfns_step, hybrid_beam_gain,
                    innovation_distances, measure_blocks, nfbt_step, predict, run_schemes,
                    steering_far, steering_near, steering_quadratic)
from xlbeam.tracking import (TrackerConfig, TrackState, TrackingScenario,
                             Trajectory, nearest_codeword, neighbor_codewords,
                             process_noise, se_combiners, transition_matrix)
from xlbeam.arrays import snr_db_to_noise_power

PAPER_TRAJ = Trajectory(start=(50.0, 50.0 * math.sqrt(3)),
                        velocity=(-5.0, -5.0 * math.sqrt(3)),
                        dt=0.05, n_blocks=180)
AT_REST = [*PAPER_TRAJ.start, 0.0, 0.0]


def make_tracker(n_blocks=10, **kw):
    kw.setdefault("meas_cov", np.eye(2) * 0.01)
    return TrackerConfig(dt=0.05, n_blocks=n_blocks, **kw)


class TestPredict:
    def test_zero_velocity_fixed_point(self):
        tcfg = make_tracker()
        state = TrackState(x=np.array([10.0, 20.0, 0.0, 0.0]), cov=np.eye(4))
        pred = predict(state, tcfg)
        assert np.allclose(pred.position, [10.0, 20.0])
        assert pred.block == 1

    def test_reference_trajectory_step(self):
        tcfg = make_tracker()
        state = TrackState(x=np.array([50.0, 50 * math.sqrt(3), -5.0,
                                       -5 * math.sqrt(3)]), cov=np.eye(4))
        pred = predict(state, tcfg)
        assert pred.position[0] == pytest.approx(49.75, abs=1e-12)
        assert pred.position[1] == pytest.approx(86.16952767566684, abs=1e-9)

    def test_covariance_grows(self):
        tcfg = make_tracker(accel_intensity=2.0)
        state = TrackState(x=np.zeros(4), cov=np.eye(4))
        pred = predict(state, tcfg)
        xi = transition_matrix(tcfg.dt)
        assert np.trace(pred.cov) >= np.trace(xi @ np.eye(4) @ xi.T)
        assert np.allclose(pred.cov - xi @ xi.T,
                           process_noise(tcfg.dt, 2.0), atol=1e-12)


class TestFilterUpdate:
    def test_huge_r_keeps_prediction(self):
        tcfg = make_tracker(meas_cov=np.eye(2) * 1e12)
        pred = TrackState(x=np.array([1.0, 2.0, 0.5, -0.5]), cov=np.eye(4))
        upd = filter_update(pred, np.array([100.0, -100.0]), tcfg)
        assert np.allclose(upd.x, pred.x, atol=1e-6)

    def test_tiny_r_trusts_measurement(self):
        tcfg = make_tracker(meas_cov=np.eye(2) * 1e-12)
        pred = TrackState(x=np.array([1.0, 2.0, 0.5, -0.5]), cov=np.eye(4))
        upd = filter_update(pred, np.array([3.0, 4.0]), tcfg)
        assert np.allclose(upd.position, [3.0, 4.0], atol=1e-6)

    def test_joseph_form_keeps_psd(self, rng):
        tcfg = make_tracker()
        state = TrackState(x=np.zeros(4), cov=np.diag([1.0, 1.0, 25.0, 25.0]))
        for _ in range(50):
            state = predict(state, tcfg)
            state = filter_update(state, rng.normal(size=2), tcfg)
            state.assert_valid()

    def test_steady_state_beats_measurement_noise(self):
        # stationary truth, repeated noisy fixes: the filtered position
        # variance drops below the per-fix variance (scalar Kalman limit)
        r_var = 0.25
        tcfg = make_tracker(n_blocks=600, meas_cov=np.eye(2) * r_var,
                            accel_intensity=0.05)
        rng = np.random.default_rng(3)
        errs = []
        state = TrackState(x=np.zeros(4), cov=np.diag([1.0, 1.0, 1.0, 1.0]))
        for i in range(600):
            state = predict(state, tcfg)
            meas = rng.normal(scale=math.sqrt(r_var), size=2)
            state = filter_update(state, meas, tcfg)
            if i >= 20:
                errs.append(state.position.copy())
        var = np.var(np.asarray(errs), axis=0).mean()
        assert var < r_var

    def test_truth_feed_converges(self):
        # perfect measurements: position snaps to truth and the velocity
        # is identified within a few blocks
        tcfg = make_tracker(n_blocks=10, meas_cov=np.eye(2) * 1e-16)
        truth_v = np.array([3.0, -4.0])
        state = TrackState(x=np.array([0.0, 0.0, 0.0, 0.0]),
                           cov=np.diag([1.0, 1.0, 25.0, 25.0]))
        for i in range(1, 8):
            state = predict(state, tcfg)
            state = filter_update(state, truth_v * (i * tcfg.dt), tcfg)
        assert np.allclose(state.position, truth_v * (7 * tcfg.dt), atol=1e-6)
        assert np.allclose(state.velocity, truth_v, atol=1e-4)


class TestFilteredChannel:
    def test_unit_norm(self, cfg512):
        state = TrackState(x=np.array([30.0, 40.0, 0.0, 0.0]), cov=np.eye(4))
        f = steering_quadratic(cfg512, *state.geometry())
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)

    def test_alignment_at_truth(self, cfg512):
        # gain of the combiner designed from the filtered geometry against
        # the true channel steering vector
        state = TrackState(x=np.array([20.0, 15.0, 0.0, 0.0]), cov=np.eye(4))
        omega, zeta = map(float, state.geometry())
        pair = design_hybrid(cfg512, omega, zeta)
        g = hybrid_beam_gain(cfg512, pair.combined_vector(), omega, zeta)
        assert g >= 0.95
        # and the chirp-model estimate itself is nearly exact
        f = steering_quadratic(cfg512, omega, zeta)
        assert hybrid_beam_gain(cfg512, f, omega, zeta) >= 0.99

    def test_far_user_reduces_to_plane_wave(self, cfg512):
        z = rayleigh_distance(cfg512)
        far = 100 * z
        state = TrackState(x=np.array([far * 0.8, far * 0.6, 0.0, 0.0]),
                           cov=np.eye(4))
        f = steering_quadratic(cfg512, *state.geometry())
        assert abs(np.vdot(steering_far(cfg512, 0.6), f)) >= 0.999


class TestSingularInnovation:
    """A stack whose middle track has no position uncertainty: with an exact
    measurement model its innovation covariance is zero, and only it is
    regularized."""

    OTHERS = [0, 2]

    @staticmethod
    def stack():
        pred = TrackState(x=np.array([[1.0, 2.0, 0.1, 0.0], [3.0, 4.0, 0.0, 0.2],
                                      [5.0, 6.0, -0.1, 0.0]]),
                          cov=np.stack([np.eye(4) + 0.3, np.zeros((4, 4)),
                                        np.diag([2.0, 0.5, 1.0, 1.0])]))
        meas = np.array([[1.5, 2.5], [3.0, 4.0 + 1e-6], [4.0, 6.5]])
        return pred, meas, make_tracker(meas_cov=np.zeros((2, 2)))

    def test_gate(self, caplog):
        pred, meas, tcfg = self.stack()
        d = innovation_distances(pred, meas, tcfg)
        assert np.array_equal(d[self.OTHERS], innovation_distances(
            pred.rows(self.OTHERS), meas[self.OTHERS], tcfg))
        assert d[1] == pytest.approx(1e-12 / 1e-9)
        assert "singular innovation covariance" in caplog.text

    def test_update(self, caplog):
        pred, meas, tcfg = self.stack()
        fused = filter_update(pred, meas, tcfg)
        alone = filter_update(pred.rows(self.OTHERS), meas[self.OTHERS], tcfg)
        assert np.array_equal(fused.x[self.OTHERS], alone.x)
        assert np.array_equal(fused.cov[self.OTHERS], alone.cov)
        # a track with no uncertainty has no gain: it keeps its prediction
        assert np.array_equal(fused.x[1], pred.x[1]) and not fused.cov[1].any()
        assert "singular innovation covariance" in caplog.text


class TestMeasureBlock:
    def test_noiseless_at_prediction(self, cfg512):
        pos = np.array([25.0, 30.0])
        zeta = float(np.hypot(*pos))
        theta = math.atan2(pos[1], pos[0])
        h = steering_near(cfg512, math.sin(theta), zeta)
        meas = measure_blocks(cfg512, h[None], [math.sin(theta)], [zeta], None)
        assert meas.ok[0]
        assert np.linalg.norm(meas.position[0] - pos) <= 1e-3

    def test_dead_channel_flags_invalid(self, cfg512):
        meas = measure_blocks(cfg512, np.zeros((1, 512), dtype=complex),
                              [math.sin(0.5)], [30.0], None)
        assert not meas.ok[0] and np.isnan(meas.position[0]).all()


class TestRunTracking:
    def test_noiseless_run_keeps_alignment(self, cfg512):
        tcfg = TrackerConfig(dt=0.05, n_blocks=30, meas_cov=np.eye(2) * 1e-4)
        scen = TrackingScenario(fading=False, n_nlos=0)
        step = nfbt_step(cfg512, tcfg, 0.0, AT_REST)
        [log] = run_schemes(cfg512, PAPER_TRAJ, tcfg, 0.0, scen,
                            [(step, [np.random.default_rng(1)])])
        assert log.gain.shape == log.se_bits.shape == log.pilots.shape == (1, 30)
        assert log.filtered.shape == (1, 30, 2)
        assert (log.gain >= 0.99).all()
        assert (log.pilots == 1).all()

    def test_gain_monotone_in_range_at_fixed_error(self, cfg512):
        # the same angular-plus-range tracking error costs more gain as
        # the user gets closer
        d_theta, d_zeta = 5e-4, 0.5
        theta = math.pi / 3
        gains = []
        for zeta in np.linspace(100.0, 10.0, 10):
            est_theta, est_zeta = theta + d_theta, zeta + d_zeta
            est = np.array([est_zeta * math.cos(est_theta),
                            est_zeta * math.sin(est_theta)])
            state = TrackState(x=np.array([est[0], est[1], 0.0, 0.0]),
                               cov=np.eye(4))
            f = steering_quadratic(cfg512, *state.geometry())
            gains.append(hybrid_beam_gain(cfg512, f, math.sin(theta), zeta))
        assert all(g2 <= g1 + 1e-6 for g1, g2 in zip(gains, gains[1:]))

    def test_runs_the_trackers_blocks_not_the_trajectorys(self, cfg512):
        # a run may go past the trajectory's last block (along the same
        # line) or stop before it; only the blocks that run are built, and
        # each scores as one seed with nothing cached does
        scen = TrackingScenario(fading=True, n_nlos=1)
        noise = 0.01
        traj = Trajectory(start=(30.0, 10.0), velocity=(-20.0, 0.0), dt=0.05, n_blocks=3)
        tcfg = make_tracker(n_blocks=7)
        for make_step in (lambda: brpss_step(cfg512, traj.start, noise),
                          lambda: nfbt_step(cfg512, tcfg, noise, [*traj.start, -20.0, 0.0])):
            [log] = run_schemes(cfg512, traj, tcfg, noise, scen,
                                [(make_step(), [np.random.default_rng(3)])])
            assert log.gain.shape == (1, 7)
            ref = uncached_tracking_run(cfg512, traj, tcfg, noise, np.random.default_rng(3),
                                        scen, make_step())
            assert list(zip(log.gain[0].tolist(), log.se_bits[0].tolist())) == ref
        # this trajectory crosses the range floor (6.1 m) after block 4
        toward = Trajectory(start=(10.0, 5.0), velocity=(-20.0, 0.0), dt=0.05, n_blocks=20)
        assert np.hypot(*toward.position(5)) > cfg512.range_floor
        assert np.hypot(*toward.position(7)) < cfg512.range_floor
        [log] = run_schemes(cfg512, toward, make_tracker(n_blocks=5), noise, scen,
                            [(brpss_step(cfg512, toward.start, noise),
                              [np.random.default_rng(4)])])
        assert log.gain.shape == (1, 5)
        with pytest.raises(ValueError, match="validity floor"):
            run_schemes(cfg512, toward, make_tracker(n_blocks=8), noise, scen,
                        [(brpss_step(cfg512, toward.start, noise), [np.random.default_rng(4)])])

    def test_degrades_to_prediction_on_gated_measurements(self, cfg512):
        # an absurdly tight gate rejects every fix; the filter then coasts
        # on the constant-velocity model without error
        tcfg = TrackerConfig(dt=0.05, n_blocks=5, meas_cov=np.eye(2) * 1e-4,
                             innovation_gate=1e-12)
        scen = TrackingScenario(fading=False, n_nlos=0)
        init = np.array([PAPER_TRAJ.start[0], PAPER_TRAJ.start[1],
                         PAPER_TRAJ.velocity[0], PAPER_TRAJ.velocity[1]])
        step = nfbt_step(cfg512, tcfg, 0.0, init)
        [log] = run_schemes(cfg512, PAPER_TRAJ, tcfg, 0.0, scen,
                            [(step, [np.random.default_rng(2)])])
        truth = np.array([PAPER_TRAJ.position(i) for i in range(1, 6)])
        assert np.allclose(log.filtered[0], truth, atol=1e-9)
        assert np.array_equal(log.filtered, log.predicted)


class TestCalibration:
    def test_covariance_shape_and_scale(self, cfg512):
        scen = TrackingScenario(fading=True, n_nlos=0)
        cov = calibrate_measurement_cov(cfg512, 1e-3 / 128, math.sqrt(3) / 2,
                                        55.0, scen, n_trials=150)
        assert cov.shape == (2, 2)
        assert np.all(np.linalg.eigvalsh(cov) > 0)
        # errors concentrate along the radial direction at 60 degrees
        corr = cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1])
        assert corr > 0.9

    @pytest.mark.parametrize("fading", [True, False])
    @pytest.mark.parametrize("noise", [1e-3, 0.0])
    def test_batched_equals_sequential(self, cfg512, fading, noise):
        # each block's normals drawn at once and refined as one stack give
        # exactly what drawing and refining one trial at a time gives
        scen = TrackingScenario(fading=fading)
        args = (cfg512, noise, 0.5, 40.0, scen)
        assert np.array_equal(calibrate_measurement_cov(*args, n_trials=60),
                              sequential_calibration(*args, n_trials=60))

    @pytest.mark.parametrize("fading", [True, False])
    @pytest.mark.parametrize("noise", [1e-3, 0.0])
    def test_a_short_last_block_equals_sequential(self, cfg512, fading, noise):
        # 130 trials run as blocks of 64, 64 and 2
        scen = TrackingScenario(fading=fading)
        args = (cfg512, noise, 0.5, 40.0, scen)
        assert np.array_equal(calibrate_measurement_cov(*args, n_trials=130),
                              sequential_calibration(*args, n_trials=130))

    def test_calibration_stays_small(self, cfg512):
        # 300 trials refine in blocks, so no (300, N) stack is held
        scen = TrackingScenario()
        tracemalloc.start()
        try:
            calibrate_measurement_cov(cfg512, 1e-3, 0.5, 55.0, scen)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_too_few_fixes_fall_back_to_the_identity(self, cfg512, caplog):
        scen = TrackingScenario()
        cov = calibrate_measurement_cov(cfg512, 1e-3, 0.5, 40.0, scen, n_trials=7)
        assert np.array_equal(cov, np.eye(2))
        assert "calibration produced 7 usable fixes" in caplog.text

    def test_deterministic(self, cfg512):
        scen = TrackingScenario()
        a = calibrate_measurement_cov(cfg512, 1e-3, 0.5, 40.0, scen, n_trials=60)
        b = calibrate_measurement_cov(cfg512, 1e-3, 0.5, 40.0, scen, n_trials=60)
        assert np.array_equal(a, b)


class TestBaselines:
    def test_brpss_only_pilots_and_noiseless_gain(self, cfg512):
        tcfg = TrackerConfig(dt=0.05, n_blocks=20, meas_cov=np.eye(2))
        scen = TrackingScenario(fading=False, n_nlos=0)
        step = brpss_step(cfg512, PAPER_TRAJ.start, 0.0)
        [log] = run_schemes(cfg512, PAPER_TRAJ, tcfg, 0.0, scen,
                            [(step, [np.random.default_rng(3)])])
        assert (log.pilots == 1).all()
        assert (log.gain >= 0.98).all()
        # a filterless scheme keeps no positions
        assert log.predicted is None and log.measured is None and log.filtered is None

    def test_hfns_pilots(self, cfg512, full_workspace):
        _, _, design = full_workspace
        tcfg = TrackerConfig(dt=0.05, n_blocks=6, meas_cov=np.eye(2))
        step = hfns_step(cfg512, design, PAPER_TRAJ.start, 0.0)
        [log] = run_schemes(cfg512, PAPER_TRAJ, tcfg, 0.0,
                            TrackingScenario(fading=False, n_nlos=0),
                            [(step, [np.random.default_rng(4)])])
        assert (log.pilots == 5).all()

    def test_ffbt_proxy_pilots(self, cfg512, full_workspace):
        book, _, _ = full_workspace
        tcfg = TrackerConfig(dt=0.05, n_blocks=6, meas_cov=np.eye(2))
        step = ffbt_proxy_step(book, PAPER_TRAJ.start, 0.0)
        [log] = run_schemes(cfg512, PAPER_TRAJ, tcfg, 0.0,
                            TrackingScenario(fading=False, n_nlos=0),
                            [(step, [np.random.default_rng(5)])])
        assert (log.pilots == 3).all()

    def test_neighbor_sets(self, cfg128, full_workspace):
        book, _, _ = full_workspace
        p_near, p_far = book.index_of(256, 6), book.index_of(256, None)
        cands, valid = neighbor_codewords(book, np.array([p_near, p_far]))
        assert valid.all() and cands[:, 0].tolist() == [p_near, p_far]
        assert all(book.params(int(c)).is_far for c in cands[1])
        # every cell of the 66 codebooks Q 1-11 x S 0-5: the cell first,
        # then at most four distinct neighbours, clipped at the grid's edges,
        # as the one-cell oracle lists them
        for q in range(1, 12):
            for s in range(6):
                small = build_hybrid_codebook(cfg128, q, s)
                p = np.arange(1, small.n_columns + 1)
                cands, valid = neighbor_codewords(small, p)
                assert cands.shape == valid.shape == (len(p), 5)
                for one, row, inside in zip(p.tolist(), cands, valid):
                    got = row[inside].tolist()
                    assert got == neighbor_list(small, one), (q, s, one)
                    assert got[0] == one and len(set(got)) == len(got) <= 5, (q, s, one)

    @pytest.mark.parametrize("scheme", ["hfns", "ffbt_proxy"])
    def test_each_codeword_row_is_designed_once(self, cfg512, full_workspace, monkeypatch,
                                                scheme):
        # a codeword tracker's SE combiner is designed on the first block that
        # points its codeword, once per run_schemes call
        book, _, design = full_workspace
        noise = snr_db_to_noise_power(0.0, cfg512)
        step = (hfns_step(cfg512, design, PAPER_TRAJ.start, noise) if scheme == "hfns"
                else ffbt_proxy_step(book, PAPER_TRAJ.start, noise))
        pointed, designed = [], []

        def recorded(hs, rngs):
            out = step(hs, rngs)
            pointed.extend(out.codeword.tolist())
            return out

        def counted(cfg, omega, zeta):
            designed.extend(zip(np.asarray(omega).tolist(), np.asarray(zeta).tolist()))
            return se_combiners(cfg, omega, zeta)

        monkeypatch.setattr(tracking, "se_combiners", counted)
        rngs = [np.random.default_rng(seed) for seed in range(3)]
        run_schemes(cfg512, PAPER_TRAJ, make_tracker(n_blocks=60), noise,
                    TrackingScenario(), [(recorded, rngs)])
        visited = sorted(set(pointed))
        assert len(visited) > 1 and len(pointed) == 3 * 60
        theta, distance = book.geometry(np.array(visited))
        assert sorted(designed) == sorted(zip(theta.tolist(), distance.tolist()))

    def test_nearest_codeword_round_trip(self, full_workspace):
        book, _, _ = full_workspace
        cw = book.params(book.index_of(100, 3))
        assert nearest_codeword(book, cw.theta, cw.distance) == book.index_of(100, 3)
        assert book.params(nearest_codeword(book, 0.25, FAR_FIELD)).is_far

    def test_nearest_codeword_without_rings_is_the_far_cell(self, cfg128):
        book = build_hybrid_codebook(cfg128, 128, 0)
        for r in (3.0, 40.0, FAR_FIELD):
            p = nearest_codeword(book, 0.25, r)
            assert p == book.index_of(book.params(p).q, None)
            assert book.params(p).theta == pytest.approx(0.25, abs=1 / 128)
