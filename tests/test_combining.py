import math

import numpy as np
import pytest

from oracles import (PathParams, analog_matrix, beam_center, chirp_sum, flat_top_gain,
                     gain_loss_bound, rayleigh_distance, realize)
from xlbeam import (ArrayConfig, FAR_FIELD, alignment_gain, antenna_noise,
                    build_subarray_codebook, crandn, design_hybrid, hybrid_beam_gain,
                    quantize_pointing, steering_far, steering_near, subarray_outputs,
                    subarray_pointing)
from xlbeam.arrays import QuadraticPhase

EXAMPLE_THETA = -1 / 512
EXAMPLE_DIST = 11.26395703125


class TestPointing:
    def test_far_field_is_constant(self, cfg512):
        psi = subarray_pointing(cfg512, 0.37, FAR_FIELD)
        assert np.allclose(psi, 0.37)

    def test_far_limit(self, cfg512):
        psi = subarray_pointing(cfg512, 0.37, 1e9)
        assert np.allclose(psi, 0.37, atol=1e-9)

    def test_broadside_antisymmetry(self, cfg512):
        psi = subarray_pointing(cfg512, 0.0, 20.0)
        assert np.allclose(psi, -psi[::-1], atol=1e-14)

    def test_arrays_give_one_row_per_source(self, cfg512):
        omegas, ranges = np.array([0.1, -0.4, 0.7]), np.array([12.0, 30.0, 80.0])
        psi = subarray_pointing(cfg512, omegas, ranges)
        assert psi.shape == (3, cfg512.n_rf)
        for row, omega, r in zip(psi, omegas, ranges):
            assert np.array_equal(row, subarray_pointing(cfg512, float(omega), float(r)))

    def test_worked_example_quantized_indices(self, cfg512):
        sub = build_subarray_codebook(cfg512)
        psi = subarray_pointing(cfg512, EXAMPLE_THETA, EXAMPLE_DIST)
        idx = quantize_pointing(psi, sub)
        # the reference worked example reports the index run {63, 64, 65, 66};
        # under this package's angle orientation the run maps onto the
        # subarrays in reverse order
        assert sorted(idx.tolist()) == [63, 64, 65, 66]
        assert idx.tolist() == [66, 65, 64, 63]
        # every pick is within half a grid step of its pointing sine
        assert np.all(np.abs(sub.angles[idx - 1] - psi) <= 1.0 / cfg512.m_per_sub)

    def test_quantize_on_grid(self, cfg128):
        sub = build_subarray_codebook(cfg128)
        assert quantize_pointing(sub.angles[9], sub)[0] == 10

    def test_quantize_midpoint_breaks_low(self, cfg128):
        sub = build_subarray_codebook(cfg128)
        mid = (sub.angles[4] + sub.angles[5]) / 2
        assert quantize_pointing(mid, sub)[0] == 5

    def test_quantize_clips_to_grid(self, cfg128):
        sub = build_subarray_codebook(cfg128)
        assert quantize_pointing(-1.0, sub)[0] == 1
        assert quantize_pointing(1.0, sub)[0] == cfg128.m_per_sub


class TestSubarrayOutputs:
    @staticmethod
    def block_products(cfg, rows, x):
        m = cfg.m_per_sub
        return np.array([rows[t] @ x[t * m:(t + 1) * m] for t in range(cfg.n_rf)])

    def test_noiseless_is_block_products(self, cfg128, rng):
        rows = crandn(rng, (cfg128.n_rf, cfg128.m_per_sub))
        h = crandn(rng, cfg128.n_antennas)
        assert np.allclose(subarray_outputs(cfg128, rows, h),
                           self.block_products(cfg128, rows, h), rtol=0, atol=1e-12)

    def test_noisy_is_rows_applied_to_antenna_noise(self, cfg128, rng):
        rows = crandn(rng, (cfg128.n_rf, cfg128.m_per_sub))
        h = crandn(rng, cfg128.n_antennas)
        sigma2 = 0.3
        noise = antenna_noise([np.random.default_rng(9)], cfg128.n_antennas, sigma2)
        z = subarray_outputs(cfg128, rows, h, noise)
        eta = crandn(np.random.default_rng(9), cfg128.n_antennas) * math.sqrt(sigma2)
        assert np.allclose(z, self.block_products(cfg128, rows, h + eta),
                           rtol=0, atol=1e-12)

    def test_noise_needs_rng(self, cfg128):
        # receive functions take drawn noise rows; antenna_noise draws
        # them and needs a generator for every row
        with pytest.raises(ValueError, match="rng"):
            antenna_noise([None], cfg128.n_antennas, 0.1)


class TestDesign:
    # the continuous design (design_hybrid) and the grid-snapped one
    # (a trained codeword's combiner) share the combiner-pair contract
    def test_combined_row_unit_norm(self, cfg512, full_workspace):
        book, _, design = full_workspace
        p = book.index_of(300, 4)
        for pair in (design_hybrid(cfg512, 0.21, 18.0), design.combiner(p)):
            assert np.linalg.norm(pair.combined_row()) == pytest.approx(1.0, abs=1e-12)

    def test_block_structure(self, cfg512):
        pair = design_hybrid(cfg512, -0.4, 30.0)
        w = analog_matrix(pair)
        m = cfg512.m_per_sub
        assert np.allclose(np.abs(pair.w_blocks), 1.0, atol=1e-12)
        for t in range(cfg512.n_rf):
            block = w[t, t * m:(t + 1) * m]
            assert np.allclose(np.abs(block), 1.0, atol=1e-12)
            outside = np.delete(w[t], np.arange(t * m, (t + 1) * m))
            assert np.all(outside == 0)

    def test_far_on_grid_alignment(self, cfg128):
        # a plane wave on the subarray DFT grid is combined losslessly
        sub = build_subarray_codebook(cfg128)
        omega = sub.angles[20]
        pair = design_hybrid(cfg128, omega, FAR_FIELD)
        u = steering_far(cfg128, omega)
        assert abs(pair.v @ (analog_matrix(pair) @ u)) == pytest.approx(1.0, abs=1e-9)

    def test_worked_example_self_gain_levels(self, cfg512, full_workspace):
        # frozen self-gains of the worked-example codeword: the DFT-grid
        # design pays a straddle penalty the continuous design avoids
        book, _, design = full_workspace
        quant = design.combiner(book.index_of(256, 6))
        cont = design_hybrid(cfg512, EXAMPLE_THETA, EXAMPLE_DIST)
        u = steering_near(cfg512, EXAMPLE_THETA, EXAMPLE_DIST)
        g_quant = hybrid_beam_gain(cfg512, quant.combined_vector(), EXAMPLE_THETA, EXAMPLE_DIST)
        g_cont = hybrid_beam_gain(cfg512, cont.combined_vector(), EXAMPLE_THETA, EXAMPLE_DIST)
        assert g_quant == pytest.approx(0.92940, abs=2e-4)
        assert g_cont == pytest.approx(0.96780, abs=2e-4)
        assert abs(np.vdot(u, quant.combined_vector())) == pytest.approx(g_quant, abs=1e-12)

    def test_gain_matches_received_signal(self, cfg512):
        # B(f, omega, r) with f = (vW)^H equals |v W alpha|
        pair = design_hybrid(cfg512, 0.3, 40.0)
        alpha = steering_near(cfg512, 0.3, 40.0)
        direct = abs(pair.v @ (analog_matrix(pair) @ alpha))
        assert hybrid_beam_gain(cfg512, pair.combined_vector(), 0.3, 40.0) == \
            pytest.approx(direct, abs=1e-12)


class TestBeamGain:
    def test_self_gain(self, cfg512):
        u = steering_near(cfg512, 0.5, 22.0)
        assert hybrid_beam_gain(cfg512, u, 0.5, 22.0) == pytest.approx(1.0, abs=1e-12)

    def test_far_channel_far_beam(self, cfg512):
        z = rayleigh_distance(cfg512)
        g = hybrid_beam_gain(cfg512, steering_far(cfg512, 0.2), 0.2, 20 * z)
        assert g >= 0.99

    def test_dft_orthogonality(self, cfg128):
        n = cfg128.n_antennas
        u = steering_far(cfg128, 2.0 / n)      # one DFT bin away
        assert hybrid_beam_gain(cfg128, u, 0.0, FAR_FIELD) < 1e-10

    def test_alignment_gain_normalization(self, cfg128):
        paths = [PathParams(gain=0.5 + 0j, omega=0.1, range_m=FAR_FIELD),
                 PathParams(gain=1.0 + 0j, omega=-0.4, range_m=FAR_FIELD)]
        f = steering_far(cfg128, 0.1)
        g = alignment_gain(realize(cfg128, paths), f)
        assert 0.0 <= g <= 1.0
        # the aligned weaker path contributes |g|/g_max = 0.5
        assert g == pytest.approx(0.5, abs=1e-6)


class TestLossBound:
    def test_reference_values(self, cfg256, cfg512):
        assert gain_loss_bound(cfg256) == pytest.approx(0.159, abs=5e-4)
        assert gain_loss_bound(cfg512) == pytest.approx(0.2928932188134525, rel=1e-12)

    def test_clamped_at_zero(self):
        assert gain_loss_bound(ArrayConfig(16, 4, 0.003)) == 0.0

    def test_bound_holds_with_margin(self, cfg512):
        # continuous per-subarray plane-wave design across the domain: the
        # realized loss never exceeds the bound plus flat-top slack
        limit = gain_loss_bound(cfg512) + 0.05
        for omega in (-math.sqrt(3) / 2, -0.3, 0.0, 0.45, math.sqrt(3) / 2):
            for r in (cfg512.range_floor, 8.0, 15.0, 40.0, 120.0, 390.0):
                pair = design_hybrid(cfg512, omega, r)
                loss = 1.0 - hybrid_beam_gain(cfg512, pair.combined_vector(),
                                              omega, r)
                assert loss <= limit, (omega, r, loss)


class TestBeamCenter:
    def test_far_limit(self, cfg512):
        assert beam_center(cfg512, 0.3, FAR_FIELD, 2) == 0.3

    def test_symmetric_pair_average(self, cfg512):
        t = np.arange(1, cfg512.n_rf + 1)
        centers = beam_center(cfg512, 0.25, 30.0, t)
        assert np.mean(centers) == pytest.approx(0.25, rel=1e-12)

    def test_tracks_exact_pointing(self, cfg512):
        # frozen tolerance: the quadratic-model beam center deviates from
        # the exact geometric pointing by well under half a grid step
        t = np.arange(1, cfg512.n_rf + 1)
        for omega in (-0.5, 0.0, 0.5):
            for r in np.linspace(10.0, 100.0, 7):
                centers = beam_center(cfg512, omega, r, t)
                psi = subarray_pointing(cfg512, omega, r)
                assert np.max(np.abs(centers - psi)) <= 5e-3


class TestChirpSum:
    def test_zero_phase(self):
        assert chirp_sum(64, 0.0, 0.0) == pytest.approx(64.0)

    def test_matches_direct_loop(self):
        k, b, count, off = -3e-5, 0.01, 32, 64
        direct = sum(np.exp(1j * np.pi * (k * n * n + b * n))
                     for n in range(off + 1, off + count + 1))
        assert chirp_sum(count, k, b, off) == pytest.approx(direct, rel=1e-12)


class TestFlatTop:
    def test_band_center_height(self, cfg512):
        k = -2e-5
        assert flat_top_gain(cfg512, k, 0.3, 0.3 + k * (cfg512.m_per_sub + 1)) == \
            pytest.approx(math.sqrt(1 / -k))

    def test_outside_band_is_zero(self, cfg512):
        assert flat_top_gain(cfg512, -2e-5, 0.3, 0.4) == 0.0

    def test_rejects_positive_curvature(self, cfg512):
        with pytest.raises(ValueError):
            flat_top_gain(cfg512, 1e-5, 0.0, 0.0)

    def test_against_exact_chirp_sum(self, cfg512):
        # frozen calibration: in the chirp-spreading regime (flat-top
        # height below M, i.e. ranges short enough that the curvature
        # actually widens the subarray beam), probes in the central half
        # of the band stay within 30% of the model height; Fresnel ripple
        # oscillates around that level
        m = cfg512.m_per_sub
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 200:
            omega = rng.uniform(-0.8, 0.8)
            r_spread = cfg512.wavelength * (1 - omega**2) * m * m / 4.0
            if 0.9 * r_spread <= cfg512.range_floor:
                continue
            r = rng.uniform(cfg512.range_floor, 0.9 * r_spread)
            qp = QuadraticPhase.from_geometry(cfg512, omega, r)
            t = int(rng.integers(1, cfg512.n_rf + 1))
            b_sub = qp.b + 2 * qp.k * (t - 1) * m
            lo, hi = b_sub + 2 * qp.k * m, b_sub + 2 * qp.k
            width = hi - lo
            probe = rng.uniform(lo + 0.25 * width, hi - 0.25 * width)
            model = flat_top_gain(cfg512, qp.k, b_sub, probe)
            exact = abs(chirp_sum(m, qp.k, b_sub - probe))
            checked += 1
            assert abs(exact - model) / model <= 0.30, (omega, r, exact, model)
