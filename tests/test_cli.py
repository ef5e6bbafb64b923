import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlbeam import tracking
from xlbeam.arrays import ArrayConfig
from xlbeam.cli import (INTEGER, KEYS, OBJECT, Key, check_trajectory, experiment_spec,
                        keys_of, main, read_config, single_run, tracking_models)
from xlbeam.harness import ConfigError, runner
from xlbeam.harness.io import fmt_value
from xlbeam.tracking import TrackerConfig, TrackingScenario, Trajectory
from test_harness import counted_steering

DESK_ARRAY = {"n_antennas": 128, "n_rf": 4, "wavelength": 0.003}
DESK_PATHS = {"count": 3, "gain_vars": [1.0, 0.01, 0.01],
              "angle_range": [-0.866, 0.866], "range_range": [1.0, 20.0]}


def write_config(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def sweep_config(trials=12, **extra):
    cfgdict = {
        "experiment": "gain_vs_snr",
        "array": DESK_ARRAY,
        "codebook": {"q": 128, "s": 3},
        "paths": DESK_PATHS,
        "schemes": ["thbt", "hfbs"],
        "snr_grid_db": [10],
        "trials": trials,
        "seed": 3,
    }
    cfgdict.update(extra)
    return cfgdict


def track_config(**extra):
    cfgdict = {
        "array": dict(DESK_ARRAY), "snr_db": 10, "seed": 4,
        "trajectory": {"start": [8.0, 8.0], "velocity": [-0.5, -0.5],
                       "dt": 0.05, "blocks": 12},
        "tracker": {"innovation_gate": 13.8},
        "tracking_channel": {"fading": False, "n_nlos": 0},
    }
    cfgdict.update(extra)
    return cfgdict


def parent_of(cfgdict, key):
    """A deep copy of the config, the object holding the dotted ``key`` in
    it, and the key's own name."""
    out = json.loads(json.dumps(cfgdict))
    *parents, leaf = key.split(".")
    node = out
    for name in parents:
        node = node[name]
    return out, node, leaf


def with_key(cfgdict, key, value):
    """A deep copy of the config with the dotted ``key`` set to ``value``."""
    out, node, leaf = parent_of(cfgdict, key)
    node[leaf] = value
    return out


def without_key(cfgdict, key):
    """A deep copy of the config with the dotted ``key`` removed."""
    out, node, leaf = parent_of(cfgdict, key)
    del node[leaf]
    return out


def misspelt(key, how):
    """The dotted ``key`` with the last letter of its own name case-swapped,
    dropped or doubled."""
    where, dot, name = key.rpartition(".")
    return where + dot + {"case": name[:-1] + name[-1].swapcase(), "drop": name[:-1],
                          "double": name + name[-1]}[how]


def with_misspelt_key(cfgdict, key, how):
    """A deep copy of the config with the dotted ``key`` misspelt."""
    out, node, leaf = parent_of(cfgdict, key)
    node[misspelt(key, how).rpartition(".")[2]] = node.pop(leaf)
    return out


# a trajectory that reaches the array at block 20
TOO_CLOSE = {"start": [5.0, 0.0], "velocity": [-5.0, 0.0], "dt": 0.05, "blocks": 40}

# name -> (subcommand, a valid config it reads)
BASE_CONFIGS = {
    "track": ("track", track_config()),
    "sweep": ("sweep", sweep_config()),
    "refinement_grid": ("sweep", without_key(sweep_config(
        experiment="refinement_grid", q_grid=[128], s_grid=[3], fixed_q=128, fixed_s=3),
        "schemes")),
    "gain_vs_distance": ("sweep", sweep_config(experiment="gain_vs_distance",
                                               r_max_grid=[12.0])),
    "train": ("train", {"scenario": {**DESK_ARRAY, "paths": DESK_PATHS, "snr_db": 10},
                        "codebook": {"q": 128, "s": 3}}),
    "refine": ("refine", {"scenario": {**DESK_ARRAY, "paths": DESK_PATHS, "snr_db": 10},
                          "coarse": {"omega": 0.0, "range_m": 5.0}}),
    "codebook": ("codebook", {"array": DESK_ARRAY, "codebook": {"q": 128, "s": 3}}),
    "tracking": ("sweep", without_key(sweep_config(
        experiment="tracking", schemes=["nfbt"], trials=1,
        trajectory=track_config()["trajectory"]), "paths")),
    "report": ("report", {"array": DESK_ARRAY, "codebook": {"q": 128, "s": 3}}),
}


class TestSweep:
    def test_runs_and_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", sweep_config())
        out = tmp_path / "results"
        assert main(["--config", cfg, "--out", str(out), "sweep", "--svg"]) == 0
        assert (out / "gain_vs_snr.csv").exists()
        assert (out / "gain_vs_snr.svg").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert "gain_vs_snr.csv" in manifest["outputs"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", sweep_config())
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["--config", cfg, "--out", str(out), "sweep"]) == 0
            outs.append((out / "gain_vs_snr.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_threads_do_not_change_bytes(self, tmp_path, monkeypatch):
        # split the 12 trials per thread, below the chunk rule's minimum
        monkeypatch.setattr(runner, "MIN_CHUNK_TRIALS", 1)
        assert len(runner.trial_chunks(12, 2)) == 2
        cfg = write_config(tmp_path, "cfg.json", sweep_config())
        blobs = []
        for name, threads in (("t1", "1"), ("t2", "2")):
            out = tmp_path / name
            assert main(["--config", cfg, "--threads", threads, "--out",
                         str(out), "sweep"]) == 0
            blobs.append((out / "gain_vs_snr.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_cli_overrides(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", sweep_config(trials=50))
        out = tmp_path / "o"
        assert main(["--config", cfg, "--trials", "6", "--seed", "11", "--out",
                     str(out), "sweep"]) == 0
        text = (out / "gain_vs_snr.csv").read_text()
        assert ",6," in text              # trials column reflects the override
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["ran"]["trials"] == 6     # what ran, not the file's 50
        assert manifest["ran"]["seed"] == 11
        assert manifest["config"]["trials"] == 50    # the config as written

    def test_manifest_records_the_defaults_that_ran(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", without_key(sweep_config(), "snr_grid_db"))
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "sweep"]) == 0
        ran = json.loads((out / "manifest.json").read_text())["ran"]
        assert ran["experiment"] == "gain_vs_snr" and ran["snr_grid_db"] == [10.0]
        assert (ran["n_angles"], ran["n_rings"], ran["cfg"]["n_antennas"]) == (128, 3, 128)
        assert ran["scenario"]["n_paths"] == 3
        assert "r_max_grid" not in ran and "trajectory" not in ran   # not read by the kind

    def test_track_manifest_records_the_tracker_that_ran(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", track_config(tracker={}))
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "track"]) == 0
        ran = json.loads((out / "manifest.json").read_text())["ran"]
        assert ran["tracker"]["innovation_gate"] == TrackerConfig.innovation_gate
        assert np.array(ran["tracker"]["meas_cov"]).shape == (2, 2)    # calibrated
        assert ran["tracking_scenario"]["fading"] is False and ran["seed"] == 4

    def test_tracking_over_a_far_only_codebook(self, tmp_path):
        # with no rings, hfns starts from and searches far cells only
        cfgdict = with_key(BASE_CONFIGS["tracking"][1], "codebook.s", 0)
        cfgdict["schemes"] = ["hfns"]
        cfg = write_config(tmp_path, "cfg.json", cfgdict)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "sweep"]) == 0
        text = (out / "tracking.csv").read_text()
        assert ",hfns," in text and ",perfect_csi," in text

    def test_unknown_experiment_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", sweep_config(experiment="nope"))
        assert main(["--config", cfg, "--out", str(tmp_path / "x"), "sweep"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestConfigErrors:
    # argparse already types --trials as an integer, so the non-integer
    # values are config-only
    @pytest.mark.parametrize("trials, from_cli", [
        (0, True), (0, False), (-1, True), (-1, False),
        ("abc", False), (2.7, False), (True, False)])
    def test_trials_below_one(self, tmp_path, capsys, trials, from_cli):
        cfg = write_config(tmp_path, "cfg.json",
                           sweep_config() if from_cli else sweep_config(trials=trials))
        override = ["--trials", str(trials)] if from_cli else []
        assert main(["--config", cfg, *override, "--out", str(tmp_path / "x"),
                     "sweep"]) == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["abc", 2.7, True, -1])
    def test_seed_not_a_nonnegative_integer(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, "cfg.json", sweep_config(seed=seed))
        assert main(["--config", cfg, "--out", str(tmp_path / "x"), "sweep"]) == 2
        assert "seed" in capsys.readouterr().err

    # (base config, key, value): each value must be rejected while the
    # config is read, before anything runs.  The integer keys come first,
    # then the number keys and lists of numbers.
    @pytest.mark.parametrize("base, key, value", [
        ("track", "trajectory.blocks", 2.5),
        ("track", "trajectory.blocks", 0),
        ("track", "array.n_antennas", 128.6),
        ("track", "tracking_channel.n_nlos", 1.7),
        ("track", "tracking_channel.n_nlos", -1),
        ("sweep", "codebook.q", 128.9),
        ("sweep", "codebook.s", "3"),
        ("sweep", "array.n_antennas", 128.6),
        ("sweep", "array.n_rf", True),
        ("sweep", "paths.count", 2.5),
        ("refinement_grid", "q_grid", [128, 192.5]),
        ("refinement_grid", "s_grid", [3, -1]),
        ("refinement_grid", "fixed_q", 128.5),
        ("refinement_grid", "fixed_s", "3"),
        ("train", "scenario.paths.count", 1.5),
        ("sweep", "snr_grid_db", "10"),
        ("sweep", "snr_grid_db", [True]),
        ("sweep", "snr_grid_db", ["abc"]),
        ("sweep", "r_max_grid", ["x"]),
        ("sweep", "r_max_grid", "40"),
        ("sweep", "r_max_grid", [40, False]),
        ("track", "snr_db", True),
        ("track", "snr_db", "abc"),
        ("track", "snr_db", [10]),
        ("train", "scenario.snr_db", "10"),
        ("train", "scenario.snr_db", False),
        ("sweep", "snr_grid_db", []),
        ("gain_vs_distance", "r_max_grid", [0.5]),
        # phase refinement needs three subarrays
        ("sweep", "array.n_rf", 2),
        ("track", "array.n_rf", 2),
        ("track", "array.wavelength", True),
        ("track", "array.wavelength", "0.003"),
        ("sweep", "array.wavelength", -0.003),
        ("train", "scenario.wavelength", None),
        ("sweep", "paths.gain_vars", "100"),
        ("sweep", "paths.gain_vars", [1.0, -0.01, 0.01]),
        ("sweep", "paths.angle_range", [-0.5]),
        ("sweep", "paths.range_range", [1.0, "20"]),
        ("train", "scenario.paths.range_range", 20.0),
        ("track", "trajectory.start", [8.0]),
        ("track", "trajectory.velocity", "fast"),
        ("track", "trajectory.dt", True),
        ("track", "trajectory.dt", -0.05),
        ("refine", "coarse.omega", "0"),
        ("refine", "coarse.omega", 1.5),
        ("refine", "coarse.range_m", -5.0),
        ("track", "tracker.accel_intensity", "abc"),
        ("track", "tracker.meas_cov", [[1.0]]),
        ("track", "tracker.meas_cov", [[1.0, 0.0], [0.0, "1"]]),
        ("track", "tracker.init_cov_diag", [1.0, 1.0]),
        ("track", "tracking_channel.nlos_gain_var", -1),
        # ChannelScenario's own checks, named by their config key
        ("sweep", "paths.gain_vars", [1.0, 0.01]),
        ("sweep", "paths.angle_range", [0.5, -0.5]),
        ("train", "scenario.paths.angle_range", [-0.5, 1.5]),
        ("refine", "scenario.paths.range_range", [20.0, 1.0]),
        ("sweep", "array.n_antennas", 130),
        # found by TestConfigEdges: each exited 1
        ("sweep", "experiment", []),
        ("track", "tracker", "abc"),
        ("track", "tracking_channel", [None]),
        ("track", "array.wavelength", 1e300),
        ("track", "trajectory.dt", 1e300),
        ("track", "tracker.accel_intensity", 1e300),
        # a silent line of sight, which alignment gains divide by
        ("sweep", "paths.gain_vars", [0.0, 0.0, 0.0]),
        ("train", "scenario.paths.gain_vars", [0.0, 0.01, 0.01]),
        # a noise power that overflows
        ("sweep", "snr_grid_db", [10.0, -4000.0]),
        ("track", "snr_db", -4000),
        ("train", "scenario.snr_db", -4000),
        ("refine", "scenario.snr_db", -4000),
        # reaches the array at block 20, inside the range floor from block 17
        ("track", "trajectory", TOO_CLOSE),
        ("tracking", "trajectory", TOO_CLOSE),
        # a measurement covariance that is not symmetric positive
        # semidefinite, and a gate that rejects every fix
        ("track", "tracker.meas_cov", [[-1.0, 0.0], [0.0, -1.0]]),
        ("track", "tracker.meas_cov", [[1.0, 5.0], [0.0, 1.0]]),
        ("track", "tracker.innovation_gate", -1.0),
        # an empty grid writes a header-only CSV
        ("gain_vs_distance", "r_max_grid", []),
        # a repeated scheme or grid value writes each of its rows twice
        ("sweep", "schemes", ["thbt", "thbt"]),
        ("tracking", "schemes", ["nfbt", "nfbt"]),
        ("sweep", "snr_grid_db", [10, 10]),
        ("tracking", "snr_grid_db", [10, 10.0]),
        ("gain_vs_distance", "r_max_grid", [12, 12]),
        ("refinement_grid", "q_grid", [128, 128]),
        ("refinement_grid", "s_grid", [3, 3]),
        # these kinds read the first SNR only
        ("gain_vs_distance", "snr_grid_db", [10, -20]),
        ("refinement_grid", "snr_grid_db", [20, 10]),
        ("gain_vs_distance", "r_max_grid", ["x"]),
        ("gain_vs_distance", "r_max_grid", "40"),
        ("gain_vs_distance", "r_max_grid", [40, False]),
        # a JSON integer too large for a float
        pytest.param("track", "array.wavelength", 10**400, id="track-array.wavelength-huge"),
        # a key the kind does not read (the r_max_grid cases on "sweep" above too)
        ("sweep", "r_max_grid", [12.0]),
        ("tracking", "paths", DESK_PATHS),
        # refinement_grid runs no list of schemes
        ("refinement_grid", "schemes", ["thbt_brpss"]),
    ])
    def test_integer_keys(self, tmp_path, capsys, base, key, value):
        command, cfgdict = BASE_CONFIGS[base]
        cfg = write_config(tmp_path, "cfg.json", with_key(cfgdict, key, value))
        assert main(["--config", cfg, "--out", str(tmp_path / "x"), command]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("q_grid, s_grid", [([], []), (None, None), ([], None)])
    def test_an_empty_refinement_grid(self, tmp_path, capsys, q_grid, s_grid):
        # None: the key is absent
        _, cfgdict = BASE_CONFIGS["refinement_grid"]
        for key, value in (("q_grid", q_grid), ("s_grid", s_grid)):
            cfgdict = (without_key(cfgdict, key) if value is None
                       else with_key(cfgdict, key, value))
        cfg = write_config(tmp_path, "cfg.json", cfgdict)
        assert main(["--config", cfg, "--out", str(tmp_path / "x"), "sweep"]) == 2
        err = capsys.readouterr().err
        assert "q_grid" in err and "s_grid" in err

    def test_a_default_distance_grid_below_the_paths_range(self, tmp_path, capsys):
        # the default r_max_grid starts at 40 m, below these paths' 50 m
        _, cfgdict = BASE_CONFIGS["gain_vs_distance"]
        cfgdict = with_key(without_key(cfgdict, "r_max_grid"), "paths.range_range", [50, 150])
        cfg = write_config(tmp_path, "cfg.json", cfgdict)
        assert main(["--config", cfg, "--out", str(tmp_path / "x"), "sweep"]) == 2
        assert "r_max_grid" in capsys.readouterr().err

    def test_a_start_at_the_array_is_rejected(self):
        cfg = ArrayConfig(**DESK_ARRAY)
        with pytest.raises(ConfigError, match="trajectory .* at block 0"):
            check_trajectory(Trajectory((0.0, 0.0), (20.0, 0.0), 0.05, 3), cfg)
        # only the blocks the tracker runs are held to the range floor
        check_trajectory(Trajectory((0.1, 0.0), (20.0, 0.0), 0.05, 3), cfg)

    @pytest.mark.parametrize("base, key", [("sweep", "snr_grid_db"), ("track", "snr_db"),
                                           ("train", "scenario.snr_db")])
    def test_a_very_low_snr_that_stays_finite_runs(self, tmp_path, base, key):
        command, cfgdict = BASE_CONFIGS[base]
        value = [-3000.0] if key == "snr_grid_db" else -3000.0
        cfg = write_config(tmp_path, "cfg.json", with_key(cfgdict, key, value))
        assert main(["--config", cfg, "--out", str(tmp_path / "x"), command]) == 0

    @pytest.mark.parametrize("fading", ["no", 0, 1, None])
    def test_fading_not_a_bool(self, tmp_path, capsys, fading):
        cfg = write_config(tmp_path, "cfg.json", with_key(
            track_config(), "tracking_channel.fading", fading))
        assert main(["--config", cfg, "--out", str(tmp_path / "x"), "track"]) == 2
        assert "tracking_channel.fading" in capsys.readouterr().err

    # every key of these nodes is optional, so a misspelled one would
    # otherwise run with the default (the 13.8 gate, fading on)
    @pytest.mark.parametrize("base", ["track", "tracking"])
    @pytest.mark.parametrize("node, key, value", [("tracker", "innovaton_gate", 0.0),
                                                  ("tracking_channel", "fadding", False)])
    def test_an_unknown_tracking_key(self, tmp_path, capsys, base, node, key, value):
        command, cfgdict = BASE_CONFIGS[base]
        cfg = write_config(tmp_path, "cfg.json", with_key(cfgdict, node, {key: value}))
        assert main(["--config", cfg, "--out", str(tmp_path / "x"), command]) == 2
        assert f"unknown config key: {node}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("gate", ["abc", True, [13.8]])
    def test_innovation_gate_not_a_number(self, tmp_path, capsys, gate):
        cfg = write_config(tmp_path, "cfg.json", with_key(
            track_config(), "tracker.innovation_gate", gate))
        assert main(["--config", cfg, "--out", str(tmp_path / "x"), "track"]) == 2
        assert "tracker.innovation_gate" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path, "cfg.json", sweep_config())
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "--threads", threads, "--out",
                  str(tmp_path / "x"), "sweep"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_innovation_gate_null_disables_gating(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", with_key(
            track_config(), "tracker.innovation_gate", None))
        assert main(["--config", cfg, "--out", str(tmp_path / "x"), "track"]) == 0

    @pytest.mark.parametrize("schemes, experiment", [
        pytest.param(["thbt", "bogus"], "gain_vs_snr", id="schemes0"),
        pytest.param(["nfbt"], "gain_vs_snr", id="schemes1"),
        pytest.param("thbt", "gain_vs_snr", id="thbt"),
        # no scheme at all, or none the experiment reports (ffbs has no position)
        pytest.param([], "gain_vs_snr", id="empty-gain_vs_snr"),
        pytest.param([], "gain_vs_distance", id="empty-gain_vs_distance"),
        pytest.param([], "positioning_cdf", id="empty-positioning_cdf"),
        pytest.param([], "tracking", id="empty-tracking"),
        pytest.param(["ffbs"], "positioning_cdf", id="ffbs-positioning_cdf"),
    ])
    def test_unknown_scheme(self, tmp_path, capsys, schemes, experiment):
        # a tracking scheme is unknown to a training experiment
        _, base = BASE_CONFIGS.get(experiment, ("sweep", sweep_config(experiment=experiment)))
        cfg = write_config(tmp_path, "cfg.json", with_key(base, "schemes", schemes))
        assert main(["--config", cfg, "--out", str(tmp_path / "x"), "sweep"]) == 2
        assert "schemes" in capsys.readouterr().err

    # (base config, removed key, key the message names): each parser
    # requires its own keys, so no subcommand lists them again
    @pytest.mark.parametrize("base, removed, named", [
        ("sweep", "array", "array.n_antennas"),
        ("sweep", "paths.gain_vars", "paths.gain_vars"),
        ("track", "array.n_rf", "array.n_rf"),
        ("track", "snr_db", "snr_db"),
        ("train", "scenario.snr_db", "scenario.snr_db"),
        ("train", "scenario.paths.range_range", "scenario.paths.range_range"),
        ("train", "scenario", "scenario.n_antennas"),
        ("codebook", "array.wavelength", "array.wavelength"),
        ("codebook", "codebook.s", "codebook.s"),
        ("report", "array", "array.n_antennas"),
        ("report", "codebook.q", "codebook.q"),
    ])
    def test_missing_key_named(self, tmp_path, capsys, base, removed, named):
        command, cfgdict = BASE_CONFIGS[base]
        cfg = write_config(tmp_path, "cfg.json", without_key(cfgdict, removed))
        assert main(["--config", cfg, "--out", str(tmp_path / "x"), command]) == 2
        assert f"missing config key: {named}" in capsys.readouterr().err

    def test_missing_key_path_reported(self, tmp_path, capsys):
        bad = sweep_config()
        del bad["codebook"]["s"]
        cfg = write_config(tmp_path, "cfg.json", bad)
        assert main(["--config", cfg, "--out", str(tmp_path / "x"), "sweep"]) == 2
        assert "codebook.s" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "none.json"), "sweep"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_scenario_key_in_train(self, tmp_path, capsys):
        cfgdict = {"scenario": {"n_antennas": 128, "n_rf": 4,
                                "wavelength": 0.003, "snr_db": 10},
                   "codebook": {"q": 128, "s": 3}}
        cfg = write_config(tmp_path, "cfg.json", cfgdict)
        assert main(["--config", cfg, "--out", str(tmp_path / "x"), "train"]) == 2
        assert "scenario.paths.count" in capsys.readouterr().err


def config_keys(node, prefix=""):
    """Every dotted key of a config, inner nodes included."""
    for name, value in node.items():
        yield prefix + name
        if isinstance(value, dict):
            yield from config_keys(value, f"{prefix}{name}.")


# (subcommand, a tiny valid config): one training sweep and one tracking run
EDGE_BASES = [("sweep", sweep_config(trials=2)),
              ("track", with_key(track_config(), "trajectory.blocks", 3))]
# the single-run and codebook subcommands' desk configs
OTHER_EDGE_BASES = [BASE_CONFIGS[name] for name in ("train", "refine", "codebook", "report")]
# A huge integer is left out: a trial or block count would be accepted and run.
EDGE_VALUES = [True, False, "abc", "", None, [], [[1.0, 2.0]], {}, -1, -0.5,
               float("nan"), float("inf"), 1e300]


def run_one_bad_key(data, bases):
    """Replace one drawn key of one drawn base config with one drawn bad value,
    or misspell the key in one drawn way, and run its subcommand: a bad value
    must exit 0, or 2 naming the key, and a misspelt key 2 naming it."""
    command, base = data.draw(st.sampled_from(bases), label="base")
    key = data.draw(st.sampled_from(sorted(config_keys(base))), label="key")
    value = data.draw(st.sampled_from(EDGE_VALUES), label="value")
    typo = data.draw(st.sampled_from([None, "case", "drop", "double"]), label="typo")
    threads = data.draw(st.sampled_from([-1, 0, 1, 2]), label="threads")
    if typo is not None:
        base, key = with_misspelt_key(base, key, typo), misspelt(key, typo)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(base if typo else with_key(base, key, value)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(["--config", str(path), "--threads", str(threads),
                             "--out", str(Path(tmp) / "out"), command])
            except SystemExit as exc:       # argparse rejects --threads < 1
                code = exc.code
    message = err.getvalue()
    assert code in ((0, 2) if typo is None else (2,)), message
    if code == 2:
        assert (key in message if threads >= 1 else "--threads" in message), message


class TestConfigEdges:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_bad_key_exits_0_or_2_and_names_it(self, data):
        run_one_bad_key(data, EDGE_BASES)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_other_subcommands_exit_0_or_2_and_name_the_key(self, data):
        run_one_bad_key(data, OTHER_EDGE_BASES)


class TestSingleRuns:
    def _scenario(self):
        return {"scenario": {**DESK_ARRAY, "paths": DESK_PATHS, "snr_db": 10,
                             "seed": 2},
                "codebook": {"q": 128, "s": 3}}

    def test_train(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", self._scenario())
        out = tmp_path / "res"
        assert main(["--config", cfg, "--out", str(out), "train",
                     "--powers"]) == 0
        result = json.loads((out / "train_result.json").read_text())
        assert result["pilots"] == 32
        assert 0.0 <= result["gain"] <= 1.0
        powers = (out / "train_powers.csv").read_text().splitlines()
        assert powers[0] == "p,power"
        assert len(powers) == 1 + 128 * 3 + 128

    def test_refine(self, tmp_path):
        cfgdict = self._scenario()
        cfgdict["scenario"]["paths"] = {"count": 1, "gain_vars": [1.0],
                                        "angle_range": [-0.5, 0.5],
                                        "range_range": [2.0, 10.0]}
        cfgdict["coarse"] = {"omega": 0.0, "range_m": 5.0}
        del cfgdict["codebook"]     # refine reads none
        cfg = write_config(tmp_path, "cfg.json", cfgdict)
        out = tmp_path / "res"
        assert main(["--config", cfg, "--out", str(out), "refine"]) == 0
        result = json.loads((out / "refine_result.json").read_text())
        assert result["pilots"] == 1

    def test_track_with_given_meas_cov(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", with_key(
            track_config(), "tracker.meas_cov", [[0.01, 0.0], [0.0, 0.01]]))
        out = tmp_path / "res"
        assert main(["--config", cfg, "--out", str(out), "track"]) == 0
        assert len((out / "track_blocks.csv").read_text().splitlines()) == 13

    def test_track(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", track_config())
        out = tmp_path / "res"
        assert main(["--config", cfg, "--out", str(out), "track"]) == 0
        lines = (out / "track_blocks.csv").read_text().splitlines()
        assert lines[0].startswith("t_s,truth_x,truth_y,pred_x")
        assert len(lines) == 13

    @staticmethod
    def _track_rows(tmp_path, config) -> list[dict]:
        cfg = write_config(tmp_path, "cfg.json", config)
        out = tmp_path / "res"
        assert main(["--config", cfg, "--out", str(out), "track"]) == 0
        with open(out / "track_blocks.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def test_track_columns(self, tmp_path, monkeypatch):
        # meas_* is nan exactly on the blocks whose fix was invalid (here
        # every third fix is also made invalid), and t_s and truth_* are the
        # trajectory's
        oks = []
        measure = tracking.measure_blocks

        def measure_some(*args):
            meas = measure(*args)
            ok = meas.ok & (len(oks) % 3 != 1)
            oks.append(bool(ok[0]))
            return tracking.Measurement(position=np.where(ok[:, None], meas.position, np.nan),
                                        ok=ok)

        monkeypatch.setattr(tracking, "measure_blocks", measure_some)
        config = with_key(track_config(), "tracker.meas_cov", [[0.01, 0.0], [0.0, 0.01]])
        rows = self._track_rows(tmp_path, config)
        traj = Trajectory(**read_config(config, KEYS["track"], {})["trajectory"])
        assert len(rows) == len(oks) == 12 and oks.count(False) >= 4
        for i, (row, ok) in enumerate(zip(rows, oks), start=1):
            assert row["t_s"] == fmt_value(i * traj.dt)
            assert [row["truth_x"], row["truth_y"]] == [fmt_value(v)
                                                        for v in traj.position(i).tolist()]
            assert (row["meas_x"] == "nan") == (row["meas_y"] == "nan") == (not ok)

    def test_track_with_a_reject_all_gate_coasts(self, tmp_path):
        # every fix is gated out, so the filter keeps its prediction each block
        rows = self._track_rows(tmp_path, with_key(
            track_config(), "tracker.innovation_gate", 1e-12))
        assert all(r["meas_x"] != "nan" for r in rows)
        assert all((r["filt_x"], r["filt_y"]) == (r["pred_x"], r["pred_y"]) for r in rows)

    @pytest.mark.parametrize("gate", [13.8, None])
    def test_track_with_singular_innovation_covariances(self, tmp_path, gate):
        # no process noise, no initial uncertainty and an exact measurement model
        # make every innovation covariance zero; the gate and the update both
        # regularize it instead of aborting the run
        config = track_config(tracker={"accel_intensity": 0, "init_cov_diag": [0, 0, 0, 0],
                                       "meas_cov": [[0, 0], [0, 0]],
                                       "innovation_gate": gate})
        assert len(self._track_rows(tmp_path, config)) == 12

    def test_codebook(self, tmp_path, monkeypatch):
        cfgdict = {"array": DESK_ARRAY, "codebook": {"q": 128, "s": 3}}
        cfg = write_config(tmp_path, "cfg.json", cfgdict)
        out = tmp_path / "res"
        steered = counted_steering(monkeypatch)
        assert main(["--config", cfg, "--out", str(out), "codebook",
                     "--columns"]) == 0
        assert steered == []        # geometry only: no matrix is steered
        meta = json.loads((out / "codebook_meta.json").read_text())
        assert meta["columns"] == 128 * 3 + 128
        lines = (out / "codebook_columns.csv").read_text().splitlines()
        assert lines[0] == "p,kind,q,s,theta,distance_m"
        assert len(lines) == 1 + meta["columns"]

    def test_report(self, tmp_path):
        cfgdict = {"array": {"n_antennas": 512, "n_rf": 4, "wavelength": 0.003},
                   "codebook": {"q": 512, "s": 11}}
        cfg = write_config(tmp_path, "cfg.json", cfgdict)
        out = tmp_path / "res"
        assert main(["--config", cfg, "--out", str(out), "report",
                     "--no-measure"]) == 0
        text = (out / "overheads.csv").read_text()
        assert "training,hfbs,Q*(S+1),\"\"" not in text   # no stray quoting
        assert "6144" in text and "548" in text and "129" in text

    def test_measured_report_parses_to_its_header(self, tmp_path):
        # parameters such as Q=128,S=3 hold a comma, so they are quoted
        cfg = write_config(tmp_path, "cfg.json", BASE_CONFIGS["report"][1])
        out = tmp_path / "res"
        assert main(["--config", cfg, "--out", str(out), "report"]) == 0
        with open(out / "overheads.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(header) == 7 and all(len(row) == 7 for row in rows)
        hfbs = dict(zip(header, rows[0]))
        assert (hfbs["parameters"], hfbs["pilots"]) == ("Q=128,S=3", "512")


    def test_measured_report_of_a_far_only_codebook(self, tmp_path):
        # S = 0: hfbs sweeps the Q far columns, and hfns tracks far cells
        cfg = write_config(tmp_path, "cfg.json",
                           {"array": DESK_ARRAY, "codebook": {"q": 128, "s": 0}})
        out = tmp_path / "res"
        assert main(["--config", cfg, "--out", str(out), "report"]) == 0
        rows = {tuple(line.split(",")[:2]): line.split(",")[-3:]
                for line in (out / "overheads.csv").read_text().splitlines()}
        assert rows["training", "hfbs"] == ["128", "true", "128"]
        assert rows["tracking", "hfns"] == ["5", "true", "5"]


SHIPPED_CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))


def test_configs_are_shipped():
    assert len(SHIPPED_CONFIGS) >= 8


# the subcommand that reads each shipped config; the others are sweeps
SHIPPED_COMMANDS = {"codebook.json": "codebook", "refine_single_run.json": "refine",
                    "track_single_run.json": "track", "train_single_run.json": "train"}


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_is_accepted(path):
    # read each shipped config the way its subcommand does, without running it
    config = json.loads(path.read_text())
    command = SHIPPED_COMMANDS.get(path.name, "sweep")
    values = read_config(config, keys_of(command, config), {})
    if command == "sweep":
        kind, spec = experiment_spec(values, 1)
        assert kind == config["experiment"]
        assert spec.trials == config["trials"]
        assert spec.schemes == tuple(config.get("schemes", ()))
    elif "scenario" in config:
        _, _, _, seed = single_run(values)
        assert seed == config["scenario"]["seed"]
    elif command == "track":
        tracking_models(values, ArrayConfig(**values["cfg"]))
        assert values["trajectory"].n_blocks == config["trajectory"]["blocks"]
        assert isinstance(values["tracker"], TrackerConfig)
        assert isinstance(values["tracking_scenario"], TrackingScenario)
    else:
        assert ArrayConfig(**values["cfg"]).n_antennas == config["array"]["n_antennas"]


@pytest.mark.parametrize("path, key", [
    pytest.param(path, key, id=f"{path.name}-{key}") for path in SHIPPED_CONFIGS
    for key in config_keys(json.loads(path.read_text()))])
def test_a_misspelt_key_of_a_shipped_config_is_named(tmp_path, capsys, path, key):
    # every key of every node, its last letter's case swapped as in snr_grid_dB
    cfg = write_config(tmp_path, "cfg.json",
                       with_misspelt_key(json.loads(path.read_text()), key, "case"))
    command = SHIPPED_COMMANDS.get(path.name, "sweep")
    assert main(["--config", cfg, "--out", str(tmp_path / "x"), command]) == 2
    assert f"unknown config key: {misspelt(key, 'case')} " in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_read_config_names_the_missing_path():
    keys = {"paths": Key(OBJECT, keys={"count": Key(INTEGER)})}
    for config in ({"paths": {}}, {}):       # an absent object reads as empty
        with pytest.raises(ConfigError, match=r"missing config key: paths\.count"):
            read_config(config, keys, {})
