import math

import numpy as np
import pytest

from oracles import chirp_sum, full_matrix, psp_band_ok, psp_model_oracle
from xlbeam import (ArrayConfig, FAR_FIELD, QuadraticPhase, antenna_noise,
                    estimate_offsets, measure_subarrays, phase_differences, refine,
                    refine_channels, steering_near, steering_quadratic)
from xlbeam.refinement import wrap_pi


class TestInitialKb:
    # the coarse (k, b) that refine_channels starts from is
    # QuadraticPhase.from_geometry; refine inverts it with to_geometry
    def test_round_trip_with_chirp_params(self, cfg512):
        omega, r = -0.37, 47.0
        coarse = QuadraticPhase.from_geometry(cfg512, omega, r)
        qp = QuadraticPhase(k=coarse.k, b=coarse.b)
        omega2, r2 = qp.to_geometry(cfg512)
        assert omega2 == pytest.approx(omega, rel=1e-12)
        assert r2 == pytest.approx(r, rel=1e-12)


class TestMeasurement:
    def test_matched_chirp_gives_constant_outputs(self, cfg512):
        # channel exactly equal to the chirp model at the coarse estimate:
        # all subarray outputs coincide (no residual phase progression)
        omega, r = 0.2, 25.0
        h = steering_quadratic(cfg512, omega, r)
        qp = QuadraticPhase.from_geometry(cfg512, omega, r)
        z = measure_subarrays(cfg512, h, qp.k, qp.b)
        m, n = cfg512.m_per_sub, cfg512.n_antennas
        assert np.allclose(z, m / math.sqrt(n), rtol=1e-12)

    def test_matches_chirp_sum_decomposition(self, cfg512):
        # the measured outputs equal the brute-force quadratic-phase sums
        # of the residual offsets
        omega, r = -0.1, 30.0
        true_qp = QuadraticPhase.from_geometry(cfg512, omega, r)
        coarse = QuadraticPhase.from_geometry(cfg512, 0.5 * omega, 1.3 * r)
        h = steering_quadratic(cfg512, omega, r)
        z = measure_subarrays(cfg512, h, coarse.k, coarse.b)
        m, n = cfg512.m_per_sub, cfg512.n_antennas
        dk, db = true_qp.k - coarse.k, true_qp.b - coarse.b
        expect = np.array([chirp_sum(m, dk, db, offset=(t - 1) * m)
                           for t in range(1, cfg512.n_rf + 1)]) / math.sqrt(n)
        assert np.allclose(z, expect, rtol=1e-10)

    def test_noise_reproducible(self, cfg512):
        h = steering_near(cfg512, 0.3, 40.0)
        qp = QuadraticPhase.from_geometry(cfg512, 0.3, 40.0)

        def pilot():
            return measure_subarrays(cfg512, h, qp.k, qp.b,
                                     antenna_noise([np.random.default_rng(5)], 512, 0.01))

        assert np.array_equal(pilot(), pilot())


class TestPhaseDifferences:
    def test_constant_phase(self):
        z = np.full(4, 2.0 * np.exp(1j * 0.7))
        d1, d2 = phase_differences(z)
        assert np.allclose(d1, 0) and np.allclose(d2, 0)

    def test_synthetic_quadratic(self):
        t = np.arange(1, 5)
        z = np.exp(1j * np.pi * (0.1 * t**2 + 0.2 * t))
        d1, d2 = phase_differences(z)
        assert np.allclose(d2, 0.2 * np.pi, atol=1e-12)

    def test_wrap_rule(self):
        assert wrap_pi(1.5 * np.pi) == pytest.approx(-0.5 * np.pi)
        assert wrap_pi(-np.pi) == pytest.approx(-np.pi)
        assert wrap_pi(np.pi) == pytest.approx(-np.pi)     # half-open [-pi, pi)

    def test_needs_three_subarrays(self):
        with pytest.raises(ValueError):
            phase_differences(np.ones(2, dtype=complex))

    def test_zero_magnitude_rejected(self):
        with pytest.raises(ValueError):
            phase_differences(np.array([1.0, 0.0, 1.0], dtype=complex))


class TestOffsetEstimator:
    def test_zero_offsets(self, cfg512):
        z = np.ones(4, dtype=complex)
        dk, db = estimate_offsets(cfg512, *phase_differences(z))
        assert dk == 0.0 and db == 0.0

    def test_exact_on_quadratic_model(self, cfg512):
        # the estimator inverts its own phase model exactly
        m = cfg512.m_per_sub
        rng = np.random.default_rng(8)
        for _ in range(50):
            dk = rng.uniform(-1, 1) * 0.3 / m**2
            db = rng.uniform(-1, 1) * 0.5 / m - dk * (m + 1)
            t = np.arange(1, cfg512.n_rf + 1)
            dkt, dbt = dk * m * m, (db + dk * (m + 1)) * m
            z = np.exp(1j * np.pi * (dkt * (t - 1) ** 2 + dbt * (t - 1)))
            dk_hat, db_hat = estimate_offsets(cfg512, *phase_differences(z))
            assert dk_hat == pytest.approx(dk, abs=1e-15)
            assert db_hat == pytest.approx(db, abs=1e-12)

    def test_recovery_from_exact_chirp_sums(self, cfg512):
        # frozen calibration: through the true subarray sums the recovery
        # carries the flat-top model bias, a fraction of a percent
        m = cfg512.m_per_sub
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 60:
            dk = rng.uniform(-5e-6, 5e-6)
            db = rng.uniform(-2e-3, 2e-3)
            if not psp_band_ok(cfg512, dk, db):
                continue
            z = np.array([chirp_sum(m, dk, db, offset=(t - 1) * m)
                          for t in range(1, cfg512.n_rf + 1)])
            dk_hat, db_hat = estimate_offsets(cfg512, *phase_differences(z))
            assert dk_hat == pytest.approx(dk, rel=5e-3, abs=2e-11)
            assert db_hat == pytest.approx(db, rel=5e-3, abs=2e-6)
            checked += 1

    def test_minimal_three_subarrays(self):
        cfg = ArrayConfig(96, 3, 0.003)
        m = cfg.m_per_sub
        dk, db = 0.2 / m**2, 0.0
        t = np.arange(1, 4)
        dkt, dbt = dk * m * m, (db + dk * (m + 1)) * m
        z = np.exp(1j * np.pi * (dkt * (t - 1) ** 2 + dbt * (t - 1)))
        dk_hat, db_hat = estimate_offsets(cfg, *phase_differences(z))
        assert dk_hat == pytest.approx(dk, abs=1e-15)
        assert db_hat == pytest.approx(db, abs=1e-12)


class TestNoiseConsistency:
    def test_offset_errors_shrink_with_noise(self, cfg512):
        # expectation of |dk_hat - dk| and |db_hat - db| decreases
        # monotonically across three noise decades
        omega, r = 0.25, 18.0
        true_qp = QuadraticPhase.from_geometry(cfg512, omega, r)
        coarse = QuadraticPhase.from_geometry(cfg512, 0.251, 19.0)
        k0, b0 = coarse.k, coarse.b
        dk_true, db_true = true_qp.k - k0, true_qp.b - b0
        h = steering_quadratic(cfg512, omega, r)
        mean_err = []
        rng = np.random.default_rng(31)
        for noise in (1e-2, 1e-4, 1e-6):
            errs = []
            for _ in range(1000):
                z = measure_subarrays(cfg512, h, k0, b0, antenna_noise([rng], 512, noise))
                dk, db = estimate_offsets(cfg512, *phase_differences(z))
                errs.append((abs(dk - dk_true), abs(db - db_true)))
            mean_err.append(np.mean(errs, axis=0))
        assert mean_err[0][0] > mean_err[1][0] > mean_err[2][0]
        assert mean_err[0][1] > mean_err[1][1] > mean_err[2][1]


class TestRefine:
    def test_zero_offsets_identity(self, cfg512):
        qp = QuadraticPhase.from_geometry(cfg512, 0.3, 18.0)
        res = refine(cfg512, qp.k, qp.b, 0.0, 0.0)
        assert res.omega == pytest.approx(0.3, rel=1e-12)
        assert res.range_m == pytest.approx(18.0, rel=1e-12)

    def test_nonnegative_curvature_reports_far(self, cfg512):
        res = refine(cfg512, -1e-6, 0.2 + 1e-6 * 513, 2e-6, 0.0)
        assert res.k > 0 and math.isinf(res.range_m)

    def test_far_limit_is_smooth(self, cfg512):
        # k -> 0- sends the range to infinity through finite values
        b = 0.2
        ranges = [refine(cfg512, k, b - k * 513, 0.0, 0.0).range_m
                  for k in (-1e-6, -1e-8, -1e-10)]
        assert ranges[0] < ranges[1] < ranges[2] < math.inf


class TestRefineChannels:
    def test_single_pilot(self, cfg512):
        h = steering_near(cfg512, [0.1], [20.0])
        res = refine_channels(cfg512, h, [0.1], [20.0])
        assert res.pilots == 1

    def test_noiseless_off_grid_recovery(self, cfg512, full_workspace):
        # coarse from the nearest grid cell, truth off-grid
        book, _, _ = full_workspace
        matrix = full_matrix(book)
        rng = np.random.default_rng(10)
        truth, hs, cws = [], [], []
        for _ in range(20):
            omega = rng.uniform(-math.sqrt(3) / 2, math.sqrt(3) / 2)
            r = rng.uniform(10.0, 30.0)
            h = steering_near(cfg512, omega, r)
            powers = np.abs(h.conj() @ matrix)
            truth.append((omega, r))
            hs.append(h)
            cws.append(book.params(int(np.argmax(powers)) + 1))
        omega, r = np.array(truth).T
        res = refine_channels(cfg512, np.array(hs), [cw.theta for cw in cws],
                              [cw.distance for cw in cws])
        assert res.refined.all()
        assert np.all(np.abs(res.omega - omega) <= 1e-3)
        assert np.all(np.abs(res.range_m - r) / r <= 0.02)

    def test_failure_returns_coarse(self, cfg512):
        # a dead channel keeps its coarse estimate; the rest of its stack refines
        hs = np.stack([np.zeros(512, dtype=complex), steering_near(cfg512, 0.1, 20.0)])
        res = refine_channels(cfg512, hs, [0.2, 0.1], [30.0, 21.0])
        assert res.refined.tolist() == [False, True]
        assert res.omega[0] == 0.2 and res.range_m[0] == 30.0
        assert abs(res.range_m[1] - 20.0) <= 0.02 * 20.0

    def test_two_subarrays_raise(self):
        # too few subarrays is a setup fault, not a per-pilot degradation
        cfg = ArrayConfig(64, 2, 0.003)
        h = steering_near(cfg, [0.1], [5.0])
        with pytest.raises(ValueError, match="three subarrays"):
            refine_channels(cfg, h, [0.1], [5.0])

    def test_far_coarse_estimates_curvature(self, cfg512):
        # training returned a far codeword but the source is near: the
        # refinement still recovers the range from scratch
        omega, r = 0.01, 150.0
        h = steering_near(cfg512, [omega], [r])
        res = refine_channels(cfg512, h, [omega], [FAR_FIELD])
        assert res.refined[0] and math.isfinite(res.range_m[0])
        assert abs(res.range_m[0] - r) / r <= 0.05
        assert abs(res.omega[0] - omega) <= 1e-3


class TestPspOracle:
    def test_zero_offsets_height(self, cfg512):
        assert psp_model_oracle(cfg512, 0.0, 0.0, 1) == pytest.approx(
            cfg512.m_per_sub)

    def test_phase_law_matches_brute_force_in_band(self, cfg512):
        # what the factorization is for: inside the validity band the
        # model's band magnitude is positive and its phase progression is
        # exactly quadratic in the subarray index; the brute-force sums
        # follow the same law within the frozen phase tolerance
        m = cfg512.m_per_sub
        t_idx = np.arange(1, cfg512.n_rf + 1)
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 12:
            dk = rng.uniform(-4e-6, 4e-6)
            db = rng.uniform(-1e-3, 1e-3)
            if dk == 0 or not psp_band_ok(cfg512, dk, db, include_phase_bound=True):
                continue
            model = np.array([psp_model_oracle(cfg512, dk, db, t) for t in t_idx])
            exact = np.array([chirp_sum(m, dk, db, offset=(t - 1) * m)
                              for t in t_idx])
            assert np.all(np.abs(model) > 0)
            curvature = 2 * np.pi * dk * m * m
            d2_model = np.diff(np.unwrap(np.angle(model)), 2)
            d2_exact = np.diff(np.unwrap(np.angle(exact)), 2)
            assert np.allclose(d2_model, curvature, atol=1e-6)
            assert np.allclose(d2_exact, curvature, atol=2e-3)
            checked += 1

    def test_conjugation_symmetry(self, cfg512):
        a = psp_model_oracle(cfg512, 2e-6, 5e-4, 2)
        b = psp_model_oracle(cfg512, -2e-6, -5e-4, 2)
        assert a == pytest.approx(np.conj(b), rel=1e-12)

    def test_reference_constraint_chain(self, cfg512):
        # the codebook's curvature quantization step satisfies the
        # peak-shift constraint at the reference settings
        n, m, q, s = 512, 128, 512, 11
        grid_bound = math.sqrt(2.0) / (2.0 * n**1.5 * s)
        peak_bound = 1.0 / (m * (n - 1)) - 1.0 / (q * (n - 1))
        assert grid_bound <= peak_bound
        # and the wrapped second difference stays inside the principal
        # interval for any in-band curvature offset
        assert 2 * np.pi * grid_bound * m * m < np.pi

    def test_quadratic_phase_progression(self, cfg512):
        # noiseless in-band outputs: unwrapped phases fit a quadratic in
        # the subarray index to well under the frozen tolerance
        m = cfg512.m_per_sub
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 40:
            dk = rng.uniform(-2e-5, 0.0)
            db = rng.uniform(-1.0 / m, 1.0 / m)
            if not psp_band_ok(cfg512, dk, db):
                continue
            z = np.array([chirp_sum(m, dk, db, offset=(t - 1) * m)
                          for t in range(1, cfg512.n_rf + 1)])
            phases = np.unwrap(np.angle(z))
            t = np.arange(1, cfg512.n_rf + 1)
            coeffs = np.polyfit(t, phases, 2)
            resid = phases - np.polyval(coeffs, t)
            assert np.max(np.abs(resid)) <= 1e-3
            checked += 1
