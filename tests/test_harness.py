import csv
import json
import math
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import uncached_perfect_csi_se, uncached_tracking_run
from xlbeam import codebooks
from xlbeam.arrays import snr_db_to_noise_power
from xlbeam.harness import (ConfigError, ExperimentSpec, gain_vs_distance,
                            gain_vs_snr, overhead_report, positioning_cdf,
                            refinement_grid, run_trials, svg_line_plot,
                            tracking_experiment, trial_rng, write_csv,
                            write_manifest)
from xlbeam.harness import experiments, runner
from xlbeam.harness.experiments import SCORES, evaluate_training_points
from xlbeam.harness.runner import CHUNK_TRIALS, MIN_CHUNK_TRIALS, trial_chunks
from xlbeam.harness.io import config_digest, fmt_value, load_config
from xlbeam.tracking import TrackerConfig, TrackingScenario, Trajectory


def desk_spec(cfg128, **kw):
    kw.setdefault("schemes", ("thbt", "thbt_brpss", "hfbs", "ffbs"))
    kw.setdefault("trials", 24)
    kw.setdefault("seed", 5)
    kw.setdefault("snr_grid_db", (10.0,))
    return ExperimentSpec(cfg=cfg128, n_angles=128, n_rings=3, **kw)


def scores_at(spec, noise, rngs, schemes, scores):
    """One noise power's training scores: {(scheme, score): (T,) array}."""
    return {key[1:]: value for key, value in evaluate_training_points(
        spec, [noise], spec.scenario, rngs, schemes, scores).items()}


def joined(parts):
    """Dicts of per-trial arrays, joined on the trial axis."""
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def counted_steering(monkeypatch) -> list:
    """Give the test a cold workspace cache of its own, and return the list
    that each steering of a codebook matrix appends its arguments to."""
    steered = []
    steer = codebooks.steer_matrix

    def counted(*args):
        steered.append(args)
        return steer(*args)

    monkeypatch.setattr(codebooks, "steer_matrix", counted)
    monkeypatch.setattr(experiments, "_workspace_cache", {})
    return steered


def same_arrays(a, b):
    """Two dicts of arrays with the same keys and equal arrays."""
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


class TestRunner:
    def test_per_trial_streams_are_stable(self):
        a = trial_rng(7, 3).standard_normal(4)
        b = trial_rng(7, 3).standard_normal(4)
        assert np.array_equal(a, b)
        c = trial_rng(7, 4).standard_normal(4)
        assert not np.array_equal(a, c)

    def test_parallel_equals_sequential(self):
        def worker(indices, rngs):
            return {"index": np.array(indices),
                    "sum": np.array([rng.standard_normal(8).sum() for rng in rngs])}

        seq = run_trials(worker, 40, seed=9, workers=1)
        par = run_trials(worker, 40, seed=9, workers=3)
        assert same_arrays(seq, par)

    @pytest.mark.parametrize("n_trials", [1, 65, 130])
    def test_chunking_does_not_change_results(self, n_trials):
        # a (T,) integer array and a (T, B) array per chunk
        def worker(indices, rngs):
            return {"index": np.array(indices),
                    "draws": np.array([rng.standard_normal(3) for rng in rngs])}

        runs = [run_trials(worker, n_trials, seed=9, workers=w) for w in (1, 2, 3)]
        assert same_arrays(runs[0], runs[1]) and same_arrays(runs[0], runs[2])
        assert runs[0]["index"].tolist() == list(range(n_trials))
        assert runs[0]["draws"].shape == (n_trials, 3)
        assert (runs[0]["draws"][-1].tolist()
                == trial_rng(9, n_trials - 1).standard_normal(3).tolist())

    @pytest.mark.parametrize("n_trials, workers, sizes", [
        (1, 3, [1]), (65, 1, [33, 32]), (130, 2, [33, 33, 32, 32]),
        (600, 2, [60] * 10), (128, 2, [64, 64]), (5, 2, [5]), (15, 2, [15]),
        (16, 2, [8, 8]), (20, 3, [10, 10])])
    def test_chunks_are_contiguous_and_balanced(self, n_trials, workers, sizes):
        chunks = trial_chunks(n_trials, workers)
        assert [len(c) for c in chunks] == sizes
        assert [i for c in chunks for i in c] == list(range(n_trials))
        assert max(sizes) <= CHUNK_TRIALS
        assert len(sizes) == 1 or min(sizes) >= MIN_CHUNK_TRIALS

    def test_the_calling_thread_takes_chunks(self):
        # four chunks on two workers: the calling thread and one pool thread
        # take them in turn; the sleep lets each take its share
        def worker(indices, rngs):
            time.sleep(0.01)
            return {"thread": np.full(len(indices), threading.get_ident()),
                    "draws": np.array([rng.standard_normal(3) for rng in rngs])}

        assert len(trial_chunks(130, 2)) == 4
        par = run_trials(worker, 130, seed=9, workers=2)
        seq = run_trials(worker, 130, seed=9, workers=1)
        caller = threading.get_ident()
        assert caller in par["thread"]
        assert len(set(par["thread"].tolist()) - {caller}) <= 1
        assert set(seq["thread"].tolist()) == {caller}
        assert np.array_equal(par["draws"], seq["draws"])

    def test_each_chunk_runs_once_under_contention(self):
        # more takers than cores and a short switch interval: a chunk taken
        # twice or skipped would show in the calls or the joined indices
        calls = []

        def worker(indices, rngs):
            calls.append(indices[0])
            return {"index": np.array(indices)}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = run_trials(worker, 600, seed=9, workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == [c[0] for c in trial_chunks(600, 4)]
        assert out["index"].tolist() == list(range(600))

    def test_a_pool_thread_failure_is_raised(self):
        caller = threading.get_ident()

        def worker(indices, rngs):
            if threading.get_ident() != caller:
                raise RuntimeError(f"pool chunk {indices[0]} failed")
            time.sleep(0.01)
            return {"index": np.array(indices)}

        with pytest.raises(RuntimeError, match="pool chunk"):
            run_trials(worker, 130, seed=9, workers=2)

    def test_worker_must_return_one_result_per_trial(self):
        with pytest.raises(ValueError, match="2 rows of 'pilots' for 3 trials"):
            run_trials(lambda indices, rngs: {"gain": np.zeros(3), "pilots": np.zeros(2)},
                       3, seed=1)


class TestTrainingExperiments:
    def test_gain_rows_are_sane(self, cfg128, desk_workspace):
        rows = gain_vs_snr(desk_spec(cfg128))
        assert {r["scheme"] for r in rows} == {"thbt", "thbt_brpss", "hfbs", "ffbs"}
        for r in rows:
            assert 0.0 <= r["mean_gain"] <= 1.0
        pilots = {r["scheme"]: r["pilots"] for r in rows}
        assert pilots == {"thbt": 32, "thbt_brpss": 33, "hfbs": 512, "ffbs": 128}

    def test_workers_do_not_change_results(self, cfg128, desk_workspace):
        r1 = gain_vs_snr(desk_spec(cfg128, workers=1))
        r2 = gain_vs_snr(desk_spec(cfg128, workers=2))
        assert r1 == r2

    def test_cdf_quantiles_monotone(self, cfg128, desk_workspace):
        rows = positioning_cdf(desk_spec(cfg128, snr_grid_db=(20.0,), trials=40))
        for scheme in ("thbt", "thbt_brpss", "hfbs"):
            errs = [r["error_m"] for r in rows if r["scheme"] == scheme]
            assert len(errs) == 101
            finite = [e for e in errs if math.isfinite(e)]
            assert all(b >= a for a, b in zip(finite, finite[1:]))

    def test_trial_rng_usage_is_scheme_ordered(self, cfg128, desk_workspace):
        spec = desk_spec(cfg128)
        out1 = scores_at(spec, 1e-4, [trial_rng(5, 0)], spec.schemes, SCORES)
        out2 = scores_at(spec, 1e-4, [trial_rng(5, 0)], spec.schemes, SCORES)
        assert same_arrays(out1, out2)

    @pytest.mark.parametrize("schemes", [("thbt", "thbt_brpss", "hfbs", "ffbs"),
                                         ("thbt", "ffbs")])
    def test_a_trial_scores_the_same_alone_or_in_a_chunk(self, cfg128, desk_workspace,
                                                         schemes):
        spec = desk_spec(cfg128)
        chunk = scores_at(spec, 1e-3, [trial_rng(5, i) for i in range(7)], schemes, SCORES)
        alone = [scores_at(spec, 1e-3, [trial_rng(5, i)], schemes, SCORES) for i in range(7)]
        assert same_arrays(chunk, joined(alone))

    def test_thbt_brpss_alone_runs_thbt_as_it_does_beside_thbt(self, cfg128,
                                                                desk_workspace):
        # thbt_brpss refines thbt's stacked run whether or not thbt is scored
        spec = desk_spec(cfg128)
        alone_rngs = [trial_rng(5, i) for i in range(7)]
        alone = scores_at(spec, 1e-3, alone_rngs, ("thbt_brpss",), SCORES)
        both_rngs = [trial_rng(5, i) for i in range(7)]
        both = scores_at(spec, 1e-3, both_rngs, ("thbt", "thbt_brpss"), SCORES)
        assert same_arrays(alone, {k: v for k, v in both.items() if k[0] == "thbt_brpss"})
        assert ([rng.bit_generator.state for rng in alone_rngs]
                == [rng.bit_generator.state for rng in both_rngs])

    def test_a_full_chunk_scores_each_trial_as_alone(self, cfg128, desk_workspace):
        # one 64-trial chunk draws, steers and scores its channels as arrays;
        # every row must equal that trial run alone, infinite errors included
        spec = desk_spec(cfg128)
        rngs = [trial_rng(9, i) for i in range(CHUNK_TRIALS)]
        chunk = scores_at(spec, 1e-3, rngs, spec.schemes, SCORES)
        alone = [scores_at(spec, 1e-3, [trial_rng(9, i)], spec.schemes, SCORES)
                 for i in range(CHUNK_TRIALS)]
        assert same_arrays(chunk, joined(alone))
        # ffbs picks a far cell (r = inf) every time; thbt does some of the time
        assert np.isinf(chunk["ffbs", "error_m"]).all()
        assert np.isinf(chunk["thbt", "error_m"]).any()
        assert all(np.isfinite(chunk[s, "gain"]).all() for s in spec.schemes)

    def test_gain_csv_bytes_do_not_depend_on_workers(self, cfg128, desk_workspace,
                                                     tmp_path):
        # 70 trials: chunks of 35 for one or two workers, of 24/23/23 for three
        blobs = []
        for workers in (1, 2, 3):
            rows = gain_vs_snr(desk_spec(cfg128, trials=70, workers=workers,
                                         snr_grid_db=(0.0, 10.0)))
            path = tmp_path / f"w{workers}.csv"
            write_csv(path, rows, list(rows[0]))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_cdf_and_refinement_grid_workers_do_not_change_results(self, cfg128,
                                                                   desk_workspace):
        spec = desk_spec(cfg128, trials=70, snr_grid_db=(20.0,), s_grid=(3,),
                         q_grid=(128,), fixed_q=128, fixed_s=3)
        for experiment in (positioning_cdf, refinement_grid):
            assert experiment(spec) == experiment(replace(spec, workers=2))

    def test_gain_vs_distance_point_is_gain_vs_snr(self, cfg128, desk_workspace):
        # one range bound: the same trials as gain_vs_snr on a scenario
        # with that bound
        spec = desk_spec(cfg128, r_max_grid=(12.0,))
        bounded = replace(spec.scenario,
                          range_range=(spec.scenario.range_range[0], 12.0))
        by_distance = gain_vs_distance(spec)
        by_snr = gain_vs_snr(replace(spec, scenario=bounded))
        assert [r["r_max_m"] for r in by_distance] == [12.0] * 4
        for r in by_distance:
            del r["r_max_m"]
            r["experiment"] = "gain_vs_snr"
        assert by_distance == by_snr

    def test_gain_vs_distance_workers_do_not_change_results(self, cfg128,
                                                            desk_workspace):
        spec = desk_spec(cfg128, r_max_grid=(12.0, 40.0))
        assert gain_vs_distance(spec) == gain_vs_distance(replace(spec, workers=2))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_snr_grid_is_its_points_run_alone(self, cfg128, desk_workspace, workers):
        # the grid shares each chunk's channel draw and codebook product
        # across its points; its rows must be those of each point alone
        spec = desk_spec(cfg128, trials=70, workers=workers, snr_grid_db=(-5.0, 0.0, 10.0))
        alone = [row for snr_db in spec.snr_grid_db
                 for row in gain_vs_snr(replace(spec, snr_grid_db=(snr_db,)))]
        assert gain_vs_snr(spec) == alone

    @pytest.mark.parametrize("grid", [(10.0,), (0.0, 10.0), (-10.0, -5.0, 0.0, 5.0, 10.0)])
    def test_a_grid_draws_and_sweeps_once_per_chunk(self, cfg128, desk_workspace,
                                                    monkeypatch, grid):
        calls = []

        def spy(name):
            original = getattr(experiments, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return counted

        for name in ("sample_channels", "sweep_signals"):
            monkeypatch.setattr(experiments, name, spy(name))
        gain_vs_snr(desk_spec(cfg128, trials=70, snr_grid_db=grid))
        n_chunks = len(trial_chunks(70, 1))
        assert n_chunks == 2
        assert calls.count("sample_channels") == calls.count("sweep_signals") == n_chunks

    def test_a_grid_leaves_each_rng_where_its_last_point_does(self, cfg128,
                                                              desk_workspace):
        spec = desk_spec(cfg128)
        noises = [1e-2, 1e-3, 1e-4]
        grid = [trial_rng(5, i) for i in range(7)]
        points = evaluate_training_points(spec, noises, spec.scenario, grid, spec.schemes,
                                          SCORES)
        for k, noise in enumerate(noises):
            alone = [trial_rng(5, i) for i in range(7)]
            assert same_arrays({key[1:]: v for key, v in points.items() if key[0] == k},
                               scores_at(spec, noise, alone, spec.schemes, SCORES))
        assert ([rng.bit_generator.state for rng in grid]
                == [rng.bit_generator.state for rng in alone])

    @pytest.mark.parametrize("name", ["stage1_sweep", "stage2_select", "refine_channels",
                                      "baseline_hfbs", "baseline_ffbs", "design_hybrid"])
    def test_schemes_look_up_functions_when_called(self, cfg128, desk_workspace,
                                                   monkeypatch, name):
        # a rebound module attribute (as a tracer installs) must be the one
        # the training schemes call
        calls = []
        original = getattr(experiments, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
        spec = desk_spec(cfg128)
        scores_at(spec, 1e-4, [trial_rng(5, 0)], spec.schemes, ("gain",))
        assert calls

    # (driver, scoring functions it must not call, one it must call)
    @pytest.mark.parametrize("driver, skipped, called", [
        (positioning_cdf, ("design_hybrid", "alignment_gain"), "_position_error"),
        (gain_vs_snr, ("_position_error",), "alignment_gain"),
        (gain_vs_distance, ("_position_error",), "design_hybrid"),
    ], ids=["positioning_cdf", "gain_vs_snr", "gain_vs_distance"])
    def test_a_driver_scores_only_what_it_reports(self, cfg128, desk_workspace,
                                                  monkeypatch, driver, skipped, called):
        calls = []
        for name in (*skipped, called):
            def counted(*args, _name=name, _original=getattr(experiments, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(experiments, name, counted)
        driver(desk_spec(cfg128, trials=20, snr_grid_db=(20.0,), r_max_grid=(12.0,)))
        assert calls.count(called) > 0
        assert [name for name in calls if name in skipped] == []

    @pytest.mark.parametrize("scores", [("gain",), ("error_m",), ("pilots",),
                                        ("error_m", "pilots")])
    def test_a_score_is_the_same_whatever_else_is_scored(self, cfg128, desk_workspace,
                                                         scores):
        spec = desk_spec(cfg128)
        full_rngs = [trial_rng(5, i) for i in range(7)]
        full = scores_at(spec, 1e-3, full_rngs, spec.schemes, SCORES)
        rngs = [trial_rng(5, i) for i in range(7)]
        some = scores_at(spec, 1e-3, rngs, spec.schemes, scores)
        assert same_arrays(some, {key: v for key, v in full.items() if key[1] in scores})
        assert ([rng.bit_generator.state for rng in rngs]
                == [rng.bit_generator.state for rng in full_rngs])

    @pytest.mark.parametrize("scores", [(), ("gains",)])
    def test_unknown_scores_are_refused(self, cfg128, desk_workspace, scores):
        spec = desk_spec(cfg128)
        with pytest.raises(ValueError, match="scores"):
            scores_at(spec, 1e-3, [trial_rng(5, 0)], spec.schemes, scores)

    def test_a_training_chunk_stays_small(self, cfg512):
        # one full chunk of thbt and thbt_brpss at the reference array: the
        # stage-2 outputs of every codeword are reassembled for one channel
        # at a time, so the chunk holds a few MB beyond its channels
        spec = ExperimentSpec(cfg=cfg512, n_angles=512, n_rings=11,
                              schemes=("thbt", "thbt_brpss"))
        experiments.workspace(cfg512, 512, 11)
        rngs = [trial_rng(3, i) for i in range(CHUNK_TRIALS)]
        tracemalloc.start()
        try:
            scores_at(spec, snr_db_to_noise_power(20.0, cfg512), rngs, spec.schemes, SCORES)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_workers_build_the_workspace_once(self, cfg128, monkeypatch):
        # worker threads that start on a cold cache wait for one build; the
        # sleep widens the window as the reference codebook's long build does
        builds = []
        build = experiments.build_hybrid_codebook

        def slow_build(*args):
            builds.append(args)
            time.sleep(0.2)
            return build(*args)

        monkeypatch.setattr(experiments, "build_hybrid_codebook", slow_build)
        # two threads, though 4 trials are below the chunk rule's minimum
        monkeypatch.setattr(runner, "MIN_CHUNK_TRIALS", 1)
        assert len(trial_chunks(4, 2)) == 2
        # a cold cache of its own, so the cached reference workspace outlives the test
        monkeypatch.setattr(experiments, "_workspace_cache", {})
        positioning_cdf(desk_spec(cfg128, schemes=("thbt",), trials=4, workers=2))
        assert len(builds) == 1

    # the sweep baselines read the stored columns; thbt and thbt_brpss read
    # only the trained design
    @pytest.mark.parametrize("driver, schemes, holds", [
        (positioning_cdf, ("thbt", "thbt_brpss"), False),
        (positioning_cdf, ("thbt", "hfbs"), True),
        (gain_vs_snr, ("thbt",), False),
        (gain_vs_snr, ("thbt", "ffbs"), True)])
    def test_a_driver_holds_the_matrix_only_if_a_scheme_reads_it(self, cfg128, monkeypatch,
                                                                 driver, schemes, holds):
        steered = counted_steering(monkeypatch)
        driver(desk_spec(cfg128, schemes=schemes, trials=8))
        book, _, _ = experiments.workspace(cfg128, 128, 3)
        assert book.holds_matrix == holds
        assert len(steered) == 1

    def test_a_sweep_after_a_release_steers_the_matrix_once(self, cfg128, monkeypatch):
        # two chunk threads read the released matrix; one steers it
        monkeypatch.setattr(runner, "MIN_CHUNK_TRIALS", 1)
        spec = desk_spec(cfg128, schemes=("thbt", "hfbs"), trials=8, workers=2,
                         snr_grid_db=(0.0, 10.0))
        assert len(trial_chunks(spec.trials, spec.workers)) == 2
        steered = counted_steering(monkeypatch)
        held = gain_vs_snr(spec)
        assert len(steered) == 1
        monkeypatch.setattr(experiments, "_workspace_cache", {})
        positioning_cdf(desk_spec(cfg128, schemes=("thbt", "thbt_brpss"), trials=8))
        book, _, _ = experiments.workspace(cfg128, 128, 3)
        assert not book.holds_matrix and len(steered) == 2
        assert gain_vs_snr(spec) == held
        assert book.holds_matrix and len(steered) == 3

    def test_refinement_grid_rows(self, cfg512):
        from xlbeam.arrays import ChannelScenario

        spec = ExperimentSpec(cfg=cfg512, n_angles=256, n_rings=8,
                              schemes=("thbt_brpss",), trials=40, seed=5,
                              snr_grid_db=(20.0,),
                              scenario=ChannelScenario(n_paths=1,
                                                       gain_vars=(1.0,),
                                                       range_range=(10.0, 30.0)),
                              s_grid=(2, 8), fixed_q=256, fixed_s=8)
        rows = refinement_grid(spec)
        assert len(rows) == 2
        sparse, dense = rows
        assert sparse["s"] == 2 and dense["s"] == 8
        # Q=256 puts the density bound at S=8: a grid far below it leaves
        # curvature offsets outside the phase-wrap band and the error
        # tail blows up
        assert not sparse["density_ok"] and dense["density_ok"]
        assert sparse["median_error_m"] > 2 * dense["median_error_m"]
        assert sparse["p90_error_m"] > 4 * dense["p90_error_m"]


class TestTrackingExperiment:
    def test_rows_and_pilot_accounting(self, cfg128, desk_workspace):
        traj = Trajectory(start=(20.0, 20.0), velocity=(-2.0, -2.0), dt=0.05,
                          n_blocks=8)
        tcfg = TrackerConfig(dt=0.05, n_blocks=8)
        spec = desk_spec(cfg128, schemes=("nfbt", "brpss", "hfns", "ffbt_proxy"),
                         trials=3, snr_grid_db=(10.0,), trajectory=traj,
                         tracker=tcfg,
                         tracking_scenario=TrackingScenario(
                             fading=False, n_nlos=0))
        rows = tracking_experiment(spec)
        time_rows = [r for r in rows if r["experiment"] == "tracking_gain_vs_time"]
        assert len(time_rows) == 4 * 8
        se_rows = [r for r in rows if r["experiment"] == "tracking_se_vs_snr"]
        assert {r["scheme"] for r in se_rows} == {"nfbt", "brpss", "hfns",
                                                  "ffbt_proxy", "perfect_csi"}
        budgets = {r["scheme"]: r["pilots_per_block"] for r in time_rows}
        assert budgets == {"nfbt": 1, "brpss": 1, "hfns": 5, "ffbt_proxy": 3}

    # the codeword trackers read the trained design, whose build steers the
    # matrix once, and steer the few columns they point themselves; nfbt and
    # brpss read no workspace at all.  No tracking scheme reads the matrix,
    # so no run holds it.
    @pytest.mark.parametrize("schemes, builds", [(("nfbt", "brpss"), False),
                                                 (("nfbt", "ffbt_proxy"), True),
                                                 (("hfns",), True)])
    def test_a_run_holds_the_matrix_only_if_a_scheme_reads_it(self, cfg128, monkeypatch,
                                                              schemes, builds):
        steered = counted_steering(monkeypatch)
        tracking_experiment(replace(self.spec(cfg128, trials=1), schemes=schemes))
        assert len(steered) == int(builds)
        assert bool(experiments._workspace_cache) == builds
        if builds:
            book, _, _ = experiments.workspace(cfg128, 128, 3)
            assert not book.holds_matrix
            assert len(steered) == 1

    def test_scatterer_cache_keeps_rows(self, cfg128, desk_workspace):
        # a chunk of seeds, sharing the line-of-sight stack and steering at
        # each scatterer once, must reproduce bit for bit each seed run alone
        # with nothing cached (tests/oracles.py)
        spec = self.spec(cfg128, trials=4)
        noises = [snr_db_to_noise_power(snr, cfg128) for snr in (0.0, 20.0)]
        _, _, design = desk_workspace
        for noise in noises:
            tcfg = replace(spec.tracker, meas_cov=np.eye(2) * 0.05)
            chunk = experiments._tracking_run(spec, spec.schemes, noise, tcfg, range(4))
            for scheme, (_, factory) in experiments.TRACKING_SCHEMES.items():
                log = chunk[scheme]
                for s in range(4):
                    ref = uncached_tracking_run(
                        cfg128, spec.trajectory, tcfg, noise, trial_rng(spec.seed, s),
                        spec.tracking_scenario, factory(spec, design, noise, tcfg))
                    assert list(zip(log.gain[s].tolist(), log.se_bits[s].tolist())) == ref, (
                        scheme, s)
        upper = experiments._perfect_csi_se(spec, noises, self.rngs(spec, 4))
        for s, per_noise in enumerate(upper):
            assert per_noise.tolist() == [
                uncached_perfect_csi_se(cfg128, spec.trajectory, spec.tracking_scenario,
                                        noise, trial_rng(spec.seed, s))
                for noise in noises]

    def test_perfect_csi_runs_the_trackers_blocks(self, cfg128, desk_workspace):
        # a tracker that stops before the trajectory's end: the reference
        # averages over the 5 blocks the schemes run, not the trajectory's 8
        spec = replace(self.spec(cfg128, trials=3), schemes=("brpss",),
                       tracker=TrackerConfig(dt=0.05, n_blocks=5))
        noise = snr_db_to_noise_power(0.0, cfg128)
        [perfect] = [r for r in tracking_experiment(spec) if r["scheme"] == "perfect_csi"]
        ran = replace(spec.trajectory, n_blocks=5)
        assert perfect["mean_se_bits"] == float(np.mean([
            uncached_perfect_csi_se(cfg128, ran, spec.tracking_scenario, noise,
                                    trial_rng(spec.seed, s)) for s in range(3)]))

    def test_a_seed_tracks_the_same_alone_or_in_a_chunk(self, cfg128, desk_workspace):
        spec = self.spec(cfg128, trials=64)
        noise = snr_db_to_noise_power(0.0, cfg128)
        tcfg = replace(spec.tracker, meas_cov=np.eye(2) * 0.05)
        fields = ("gain", "se_bits", "pilots", "predicted", "measured", "filtered")
        # all schemes of 64 seeds in lockstep, against each scheme of a seed alone
        chunk = experiments._tracking_run(spec, spec.schemes, noise, tcfg, range(64))
        for scheme in spec.schemes:
            for s in (0, 1, 31, 63):
                alone = experiments._tracking_run(spec, (scheme,), noise, tcfg, [s])[scheme]
                for name in fields:
                    x, y = getattr(alone, name), getattr(chunk[scheme], name)
                    assert (x is None and y is None) or np.array_equal(
                        x[0], y[s], equal_nan=True), (scheme, s, name)

    @pytest.mark.parametrize("trials", [1, 7, 70])
    def test_csv_bytes_do_not_depend_on_workers(self, cfg128, desk_workspace, tmp_path,
                                                monkeypatch, trials):
        # one chunk per worker even below the chunk rule's minimum (7 trials)
        monkeypatch.setattr(runner, "MIN_CHUNK_TRIALS", 1)
        blobs = []
        for workers in (1, 2, 3):
            spec = self.spec(cfg128, trials=trials, workers=workers,
                             snr_grid_db=(0.0, 10.0))
            rows = tracking_experiment(spec)
            path = tmp_path / f"w{workers}.csv"
            write_csv(path, rows, list(rows[0]))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    @staticmethod
    def spec(cfg128, **kw):
        traj = Trajectory(start=(20.0, 20.0), velocity=(-2.0, -2.0), dt=0.05,
                          n_blocks=8)
        kw.setdefault("snr_grid_db", (0.0,))
        return desk_spec(cfg128, schemes=("nfbt", "brpss", "hfns", "ffbt_proxy"),
                         seed=5, trajectory=traj,
                         tracker=TrackerConfig(dt=0.05, n_blocks=8),
                         tracking_scenario=TrackingScenario(), **kw)

    @staticmethod
    def rngs(spec, n):
        return [trial_rng(spec.seed, s) for s in range(n)]


class TestOverheadReport:
    def test_reference_budgets(self, cfg512, full_workspace):
        rows = overhead_report(cfg512, 512, 11, measure=True, seed=1)
        by_scheme = {(r["table"], r["scheme"]): r for r in rows}
        assert by_scheme[("training", "hfbs")]["pilots"] == 6144
        assert by_scheme[("training", "ffbs")]["pilots"] == 512
        assert by_scheme[("training", "thbt")]["pilots"] == 128
        assert by_scheme[("training", "thbt_brpss")]["pilots"] == 129
        assert by_scheme[("training", "tpbt")]["pilots"] == 548
        assert not by_scheme[("training", "tpbt")]["implemented"]
        assert by_scheme[("training", "dhbt")]["pilots"] == 512
        assert by_scheme[("training", "p_somp")]["pilots"] == 128
        assert by_scheme[("tracking", "nfbt")]["pilots"] == 1
        assert by_scheme[("tracking", "hfns")]["pilots"] == 5
        assert by_scheme[("tracking", "brpss")]["pilots"] == 1
        assert by_scheme[("tracking", "ffbt_proxy")]["pilots"] == 3
        for row in rows:
            if row["implemented"]:
                assert row["measured"] == row["pilots"]


class TestIo:
    def test_fmt_values(self):
        assert fmt_value(math.inf) == "inf"
        assert fmt_value(-math.inf) == "-inf"
        assert fmt_value(math.nan) == "nan"
        assert fmt_value(0.1) == "0.1"
        assert fmt_value(True) == "true"

    def test_write_csv_fixed_format(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, [{"a": 1, "b": 0.25}, {"a": 2}], ["a", "b"])
        assert path.read_text() == "a,b\n1,0.25\n2,\n"

    def test_write_csv_quotes_only_what_needs_it(self, tmp_path):
        path = tmp_path / "out.csv"
        fields = ["Q=512,S=11", 'say "hi"', "two\nlines", "plain"]
        write_csv(path, [dict(zip("abcd", fields))], list("abcd"))
        assert path.read_text().splitlines()[1] == '"Q=512,S=11","say ""hi""","two'
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [list("abcd"), fields]

    def test_manifest_round_trip(self, tmp_path):
        cfgdict = {"x": 1, "nested": {"y": [1, 2]}}
        write_manifest(tmp_path / "manifest.json", cfgdict, 7, ["a.csv"])
        blob = json.loads((tmp_path / "manifest.json").read_text())
        assert blob["seed"] == 7
        assert blob["config_sha256"] == config_digest(cfgdict)
        assert blob["outputs"] == ["a.csv"]

    def test_manifest_records_host_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        write_manifest(tmp_path / "manifest.json", {}, 0, [])
        host = json.loads((tmp_path / "manifest.json").read_text())["host"]
        assert host["cpu_count"] == os.cpu_count()
        assert host["OPENBLAS_NUM_THREADS"] == "3"
        assert host["MKL_NUM_THREADS"] == "unset"
        assert set(host) == {"cpu_count", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS"}

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(bad)
        bad.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="must be a JSON object"):
            load_config(bad)
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path)
        bad.write_bytes(b'{"seed": "\xff"}')
        with pytest.raises(ConfigError, match="not UTF-8 text"):
            load_config(bad)

    def test_svg_plot_smoke(self, tmp_path):
        path = tmp_path / "plot.svg"
        svg_line_plot(path, {"a": ([0, 1, 2], [0.1, 0.5, 0.2]),
                             "b": ([0, 1, 2], [0.3, math.nan, 0.4])},
                      title="demo", xlabel="x", ylabel="y")
        text = path.read_text()
        assert text.startswith("<svg") and "polyline" in text
