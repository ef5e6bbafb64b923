import math

import numpy as np
import pytest

from oracles import (PathParams, full_matrix, full_matrix_design, gain_loss_bound, realize,
                     valid_placements)
from xlbeam import (ChannelScenario, FAR_FIELD, assemble_reused, baseline_ffbs,
                    baseline_hfbs, build_hybrid_codebook, build_subarray_codebook,
                    run_thbt, sample_channel, stage1_sweep, stage2_select, steering_far,
                    subarray_pointing)
from xlbeam.arrays import crandn, snr_db_to_noise_power
from xlbeam.training import design_all, sweep_signals


class TestStage1:
    def test_pilot_budget(self, cfg128, desk_workspace):
        _, sub, _ = desk_workspace
        h = np.zeros(128, dtype=complex)
        sweep = stage1_sweep(cfg128, sub, h)
        assert sweep.pilots == cfg128.m_per_sub
        assert sweep.z.shape == (cfg128.m_per_sub, cfg128.n_rf)

    def test_zero_channel_noiseless(self, cfg128, desk_workspace):
        _, sub, _ = desk_workspace
        sweep = stage1_sweep(cfg128, sub, np.zeros(128, dtype=complex))
        assert np.all(sweep.z == 0)

    def test_aligned_far_path_peak(self, cfg128, desk_workspace):
        # a grid-aligned plane wave yields sqrt(M)|g| on every RF chain at
        # exactly its sweep index
        _, sub, _ = desk_workspace
        m = cfg128.m_per_sub
        m_star = 11
        g = 1.7
        h = g * steering_far(cfg128, sub.angles[m_star - 1])
        sweep = stage1_sweep(cfg128, sub, h)
        mags = np.abs(sweep.z)
        per_chain = math.sqrt(m) * g / math.sqrt(cfg128.n_rf)
        assert np.allclose(mags[m_star - 1], per_chain, rtol=1e-9)
        assert np.all(mags.argmax(axis=0) == m_star - 1)

    def test_noise_is_stored(self, cfg128, desk_workspace):
        _, sub, _ = desk_workspace
        rng = np.random.default_rng(9)
        h = np.zeros(128, dtype=complex)
        sweep = stage1_sweep(cfg128, sub, h, noise_power=0.1, rng=rng)
        assert np.array_equal(sweep.z, sweep.signal + sweep.noise)
        assert np.any(sweep.noise != 0)


def projected_sweep_noise(cfg, sub, noise_power, rng):
    """Reference stage-1 noise: CN(0, sigma^2) on all M x N antenna samples
    of the sweep (one row per pilot), projected through each DFT beam."""
    m, n_rf = cfg.m_per_sub, cfg.n_rf
    eta = crandn(rng, (m, cfg.n_antennas)) * math.sqrt(noise_power)
    return np.einsum("im,mti->mt", sub.matrix.conj(), eta.reshape(m, n_rf, m))


class TestStage1NoiseLaw:
    """The RF-output draw against the antenna-domain projection it replaces.

    Both must give i.i.d. circular CN(0, M sigma^2) entries.  With K = 3000
    sweeps of M x N_RF = 128 entries at N=128, normalised by M sigma^2, the
    pooled power has standard error 1/sqrt(128 K) = 0.0016 and one entry's
    power 1/sqrt(K) = 0.018; one entry's pseudo-variance has RMS magnitude
    sqrt(2/K) = 0.026 and one off-diagonal correlation sqrt(1/K) = 0.018.
    For i.i.d. circular entries each bound below fails, over all entries
    and pairs, with probability under 1e-4.
    """

    SWEEPS = 3000
    NOISE_POWER = 0.1

    @pytest.mark.parametrize("draw", ["direct", "projected"])
    def test_second_moments(self, cfg128, desk_workspace, draw):
        _, sub, _ = desk_workspace
        rng = np.random.default_rng(2024)
        h = np.zeros(cfg128.n_antennas, dtype=complex)
        if draw == "direct":
            samples = [stage1_sweep(cfg128, sub, h, self.NOISE_POWER, rng).z
                       for _ in range(self.SWEEPS)]
        else:
            samples = [projected_sweep_noise(cfg128, sub, self.NOISE_POWER, rng)
                       for _ in range(self.SWEEPS)]
        n = np.stack(samples).reshape(self.SWEEPS, -1)
        n = n / math.sqrt(cfg128.m_per_sub * self.NOISE_POWER)

        power = np.mean(np.abs(n) ** 2, axis=0)
        assert abs(power.mean() - 1.0) < 0.01
        assert np.all(np.abs(power - 1.0) < 0.1)
        assert np.all(np.abs(np.mean(n * n, axis=0)) < 0.1)
        corr = (n.T @ n.conj()) / self.SWEEPS / np.sqrt(np.outer(power, power))
        off = corr[~np.eye(corr.shape[0], dtype=bool)]
        assert np.max(np.abs(off)) < 0.1


class TestReuse:
    def test_noiseless_assembly_equals_direct(self, cfg128, desk_workspace):
        book, sub, design = desk_workspace
        rng = np.random.default_rng(1)
        ch = sample_channel(cfg128, rng)
        sweep = stage1_sweep(cfg128, sub, ch.h)
        for p in (1, 57, book.n_columns):
            z_p = assemble_reused(sweep.z, design, p)
            pair = design.combiner(p)
            direct = np.einsum("tm,tm->t", pair.w_blocks,
                               ch.h.reshape(cfg128.n_rf, cfg128.m_per_sub))
            assert np.allclose(z_p, direct, rtol=1e-12)

    def test_noisy_assembly_replays_stored_draws(self, cfg128, desk_workspace):
        # with the stage-1 noise replayed, the assembled vector is
        # bit-identical to the direct measurement recomputed entrywise
        book, sub, design = desk_workspace
        rng = np.random.default_rng(2)
        ch = sample_channel(cfg128, rng)
        sweep = stage1_sweep(cfg128, sub, ch.h, noise_power=0.05, rng=rng)
        for p in (5, 200, book.n_columns - 3):
            z_p = assemble_reused(sweep.z, design, p)
            rows = design.m_idx[p - 1]
            direct = (sweep.signal[rows, np.arange(cfg128.n_rf)]
                      + sweep.noise[rows, np.arange(cfg128.n_rf)])
            assert np.array_equal(z_p, direct)

    def test_array_of_codewords_stacks_rows(self, cfg128, desk_workspace):
        # stage 2 gathers every codeword at once with an index array
        book, sub, design = desk_workspace
        h = sample_channel(cfg128, np.random.default_rng(6)).h
        sweep = stage1_sweep(cfg128, sub, h, noise_power=0.05,
                             rng=np.random.default_rng(7))
        ps = np.arange(1, book.n_columns + 1)
        stacked = np.array([assemble_reused(sweep.z, design, int(p)) for p in ps])
        assert np.array_equal(assemble_reused(sweep.z, design, ps), stacked)
        assert np.array_equal(assemble_reused(sweep.z, design), stacked)

    def test_worked_example_reuse_rows(self, cfg512, full_workspace):
        # the worked-example codeword reuses exactly sweeps {63, 64, 65, 66}
        _, _, design = full_workspace
        p = 255 * 11 + 6
        assert sorted((design.m_idx[p - 1] + 1).tolist()) == [63, 64, 65, 66]


class TestSelection:
    def _single_path_channel(self, cfg, book, p, gain=1.0):
        cw = book.params(p)
        return gain * book.column(p) if cw.kind == "near" else \
            gain * steering_far(cfg, cw.theta)

    def test_noiseless_near_codeword_recovery(self, cfg128, desk_workspace):
        book, sub, design = desk_workspace
        p = book.index_of(40, 2)
        h = book.column(p)
        sweep = stage1_sweep(cfg128, sub, h)
        res = stage2_select(book, design, sweep)
        assert res.best_index == p
        assert res.pilots == cfg128.m_per_sub

    def test_noiseless_far_codeword_recovery(self, cfg128, desk_workspace):
        book, sub, design = desk_workspace
        p = book.index_of(100, None)
        sweep = stage1_sweep(cfg128, sub, book.column(p))
        res = stage2_select(book, design, sweep)
        assert res.best_index == p
        assert res.is_far

    def test_agreement_with_exhaustive_baseline(self, cfg128, desk_workspace):
        # on noiseless single-path channels the digital reassembly must
        # find the same winner as the exhaustive matched sweep
        book, sub, design = desk_workspace
        rng = np.random.default_rng(3)
        valid = set(valid_placements(book))
        for _ in range(40):
            p = int(rng.integers(1, book.n_columns + 1))
            if p not in valid:
                continue
            h = self._single_path_channel(cfg128, book, p)
            thbt = stage2_select(book, design, stage1_sweep(cfg128, sub, h))
            hfbs = baseline_hfbs(book, sweep_signals(book, h)[0])
            assert thbt.best_index == hfbs.best_index == p

    def test_zero_channel_tie_break(self, cfg128, desk_workspace):
        book, sub, design = desk_workspace
        sweep = stage1_sweep(cfg128, sub, np.zeros(128, dtype=complex))
        res = stage2_select(book, design, sweep)
        assert res.best_index == 1          # all-zero powers: smallest index

    def test_determinism(self, cfg128, desk_workspace):
        book, sub, design = desk_workspace
        noise = snr_db_to_noise_power(0.0, cfg128)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            ch = sample_channel(cfg128, rng)
            runs.append(run_thbt(cfg128, book, design, ch, noise, rng))
        assert runs[0].best_index == runs[1].best_index
        assert np.array_equal(runs[0].powers, runs[1].powers)


class TestStackedTraining:
    """A (T, N) stack of channels trains each channel as it would alone."""

    @pytest.mark.parametrize("noise_power", [0.0, 1e-3])
    def test_each_row_is_its_one_trial_result(self, cfg128, desk_workspace,
                                              noise_power):
        book, sub, design = desk_workspace
        rng = np.random.default_rng(21)
        far = book.index_of(7, None)
        hs = np.stack([sample_channel(cfg128, rng).h for _ in range(7)]
                      + [book.column(far), np.zeros(128, dtype=complex)])
        seeds = range(100, 100 + len(hs))
        sweep = stage1_sweep(cfg128, sub, hs, noise_power,
                             [np.random.default_rng(s) for s in seeds])
        stacked = stage2_select(book, design, sweep)
        assert sweep.z.shape == (9, cfg128.m_per_sub, cfg128.n_rf)
        assert stacked.powers.shape == (9, book.n_columns)
        for k, seed in enumerate(seeds):
            alone_sweep = stage1_sweep(cfg128, sub, hs[k], noise_power,
                                       np.random.default_rng(seed))
            alone = run_thbt(cfg128, book, design, hs[k], noise_power,
                             np.random.default_rng(seed))
            assert np.array_equal(sweep.z[k], alone_sweep.z)
            assert stacked.best_index[k] == alone.best_index
            assert stacked.rough_omega[k] == alone.rough_omega
            assert stacked.rough_range[k] == alone.rough_range
            assert np.array_equal(stacked.powers[k], alone.powers)
        if noise_power == 0.0:
            assert stacked.best_index[7] == far and math.isinf(stacked.rough_range[7])
            assert stacked.best_index[8] == 1           # all-zero powers: smallest index

    def test_chain_sum_adds_as_numpy_sums(self):
        # the stage-2 sum over RF chains, as whole-array additions, must round
        # exactly as numpy's reduce does, for any chain count
        from xlbeam.training import _chain_sum

        rng = np.random.default_rng(8)
        for n in range(1, 71):
            x = (rng.standard_normal((3, 50, n)) + 1j * rng.standard_normal((3, 50, n))
                 ) * np.exp(rng.uniform(-20, 20, (3, 50, n)))
            assert np.array_equal(_chain_sum(x), x.sum(axis=-1)), n


class TestDesignAll:
    def test_pointing_is_subarray_pointing(self, cfg128, desk_workspace):
        book, _, design = desk_workspace
        for p in range(1, book.n_columns + 1):
            cw = book.params(p)
            assert np.array_equal(design.psi[p - 1],
                                  subarray_pointing(cfg128, cw.theta, cw.distance)), p

    @pytest.mark.parametrize("q, s", [(128, 3), (33, 2)])
    def test_design_equals_full_matrix_design(self, cfg128, q, s):
        # a mirrored column's operand is laid out as the full matrix's, so
        # each projection entry sums the same products in the same order
        book, sub = build_hybrid_codebook(cfg128, q, s), build_subarray_codebook(cfg128)
        design = design_all(book, sub)
        m_idx, v = full_matrix_design(book, sub)
        assert np.array_equal(design.m_idx, m_idx)
        assert np.array_equal(design.v, v)

    def test_reference_design_equals_full_matrix_design(self, full_workspace):
        book, sub, design = full_workspace
        m_idx, v = full_matrix_design(book, sub)
        assert np.array_equal(design.m_idx, m_idx)
        assert np.array_equal(design.v, v)


class TestRoughPosition:
    def test_worked_example_values(self, full_workspace):
        book, _, _ = full_workspace
        cw = book.params(255 * 11 + 6)
        omega, r = cw.theta, cw.distance
        assert omega == pytest.approx(-1 / 512, abs=0)
        assert r == pytest.approx(11.26395703125, rel=1e-12)

    def test_far_marker(self, desk_workspace):
        book, _, _ = desk_workspace
        assert math.isinf(book.params(book.index_of(7, None)).distance)

    def test_round_trip_matches_column(self, cfg128, desk_workspace):
        from xlbeam import steering_near

        book, _, _ = desk_workspace
        p = book.index_of(64, 1)
        cw = book.params(p)
        omega, r = cw.theta, cw.distance
        assert np.allclose(steering_near(cfg128, omega, r, validate=False),
                           book.column(p), rtol=1e-12)


class TestBaselines:
    def test_hfbs_pilot_budget(self, full_workspace):
        book, _, _ = full_workspace
        h = np.zeros(512, dtype=complex)
        res = baseline_hfbs(book, sweep_signals(book, h)[0])
        assert res.pilots == 6144

    def test_ffbs_pilot_budget(self, full_workspace):
        book, _, _ = full_workspace
        res = baseline_ffbs(book, sweep_signals(book, np.zeros(512, dtype=complex),
                                                book.n_near)[0])
        assert res.pilots == 512

    def test_ffbs_matches_hfbs_on_far_channel(self, cfg128, desk_workspace):
        book, _, _ = desk_workspace
        h = realize(cfg128, [PathParams(gain=1.0 + 0j, omega=0.63,
                                        range_m=FAR_FIELD)]).h
        hfbs = baseline_hfbs(book, sweep_signals(book, h)[0])
        ffbs = baseline_ffbs(book, sweep_signals(book, h, book.n_near)[0])
        assert hfbs.best_index == ffbs.best_index
        assert ffbs.is_far

    def test_thbt_within_loss_bound_of_hfbs(self, cfg128, desk_workspace):
        # noiseless selection gains: the reassembled measurement of the
        # winning codeword stays within the combined approximation and
        # DFT-straddle slack of the exhaustive sweep's peak (each subarray
        # beam keeps at least the 2/pi half-bin Dirichlet factor)
        book, sub, design = desk_workspace
        rng = np.random.default_rng(4)
        floor = (1.0 - gain_loss_bound(cfg128) - 0.01) * (2.0 / math.pi)
        for _ in range(60):
            ch = sample_channel(cfg128, rng,
                                ChannelScenario(n_paths=1, gain_vars=(1.0,)))
            thbt = run_thbt(cfg128, book, design, ch)
            hfbs = baseline_hfbs(book, sweep_signals(book, ch.h)[0])
            g_t = math.sqrt(thbt.powers[thbt.best_index - 1])
            g_h = math.sqrt(hfbs.powers[hfbs.best_index - 1])
            assert g_t >= floor * g_h


class TestSweepSignals:
    @pytest.fixture(scope="class")
    def stack(self, cfg512):
        rng = np.random.default_rng(12)
        return np.stack([sample_channel(cfg512, rng, ChannelScenario()).h
                         for _ in range(64)])

    @pytest.mark.parametrize("k", [0, 17, 63])
    def test_padded_row_equals_row_in_full_stack(self, full_workspace, stack, k):
        # a trial's outputs must not depend on how many trials share the product
        book, _, _ = full_workspace
        for first in (0, book.n_near):
            alone = sweep_signals(book, stack[k], first)
            assert alone.shape == (1, book.n_columns - first)
            assert np.array_equal(alone[0], sweep_signals(book, stack, first)[k])

    def test_ffbs_only_product_has_q_columns(self, full_workspace, stack):
        book, _, _ = full_workspace
        far = sweep_signals(book, stack[:5], book.n_near)
        assert far.shape == (5, book.n_angles)
        assert np.array_equal(far, sweep_signals(book, stack[:5])[:, book.n_near:])

    def test_rows_are_column_inner_products(self, full_workspace, stack):
        book, _, _ = full_workspace
        y = sweep_signals(book, stack[:3])
        np.testing.assert_allclose(y, (full_matrix(book).conj().T @ stack[:3].T).T,
                                   rtol=0, atol=1e-13)

    def test_far_rows_equal_the_full_matrix_product(self, full_workspace, stack):
        book, _, _ = full_workspace
        want = (stack.conj() @ full_matrix(book)[:, book.n_near:]).conj()
        assert np.array_equal(sweep_signals(book, stack, book.n_near), want)
        assert np.array_equal(sweep_signals(book, stack)[:, book.n_near:], want)

    def test_hfbs_picks_as_over_the_full_matrix(self, full_workspace, stack):
        # mirrored entries sum their products in reverse order: the rows
        # agree to rounding, and every channel's sweep picks the same column
        book, _, _ = full_workspace
        want = (stack.conj() @ full_matrix(book)).conj()
        y = sweep_signals(book, stack)
        np.testing.assert_allclose(y, want, rtol=0, atol=1e-13)
        picks = baseline_hfbs(book, y).best_index.tolist()
        assert picks == (np.argmax(np.abs(want), axis=1) + 1).tolist()

    def test_precomputed_signal_gives_the_same_sweep(self, full_workspace, stack):
        book, _, _ = full_workspace
        y = sweep_signals(book, stack[:2])
        for scheme, first in ((baseline_hfbs, 0), (baseline_ffbs, book.n_near)):
            given = scheme(book, y[1, first:], 1e-3, np.random.default_rng(3))
            alone = scheme(book, sweep_signals(book, stack[1], first)[0], 1e-3,
                           np.random.default_rng(3))
            assert given.best_index == alone.best_index
            assert np.array_equal(given.powers, alone.powers)

    @pytest.mark.parametrize("n", [1, 2, 50])
    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    @pytest.mark.parametrize("name", ["hfbs", "ffbs"])
    def test_stacked_sweep_equals_its_one_row_sweeps(self, full_workspace, stack, name,
                                                     noise, n):
        book, _, _ = full_workspace
        scheme, first = {"hfbs": (baseline_hfbs, 0),
                         "ffbs": (baseline_ffbs, book.n_near)}[name]
        y = sweep_signals(book, stack[:n], first)
        stacked_rngs = [np.random.default_rng(40 + k) for k in range(n)]
        stacked = scheme(book, y, noise, stacked_rngs)
        assert stacked.best_index.shape == (n,) and len(stacked.powers) == n
        for k, rng in enumerate(stacked_rngs):
            alone_rng = np.random.default_rng(40 + k)
            alone = scheme(book, y[k], noise, alone_rng)
            assert stacked.best_index[k] == alone.best_index
            assert stacked.rough_omega[k] == alone.rough_omega
            assert stacked.rough_range[k] == alone.rough_range
            assert np.array_equal(stacked.powers[k], alone.powers)
            assert rng.bit_generator.state == alone_rng.bit_generator.state
        assert stacked.pilots == alone.pilots == book.n_columns - first

    def test_stack_needs_one_rng_per_row(self, full_workspace, stack):
        book, _, _ = full_workspace
        with pytest.raises(ValueError):
            baseline_hfbs(book, sweep_signals(book, stack[:3]), 1e-3,
                          [np.random.default_rng(0)] * 2)

    def test_signal_of_the_wrong_width_raises(self, full_workspace, stack):
        book, _, _ = full_workspace
        with pytest.raises(ValueError, match="ffbs signal"):
            baseline_ffbs(book, sweep_signals(book, stack[0])[0])
