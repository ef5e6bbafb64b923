"""Command-line harness: JSON configs in, CSV/JSON artifacts out.

Subcommands: train, refine, track, sweep, codebook, report.  Exit codes:
0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .arrays import (ArrayConfig, ChannelScenario, sample_channel,
                     snr_db_to_noise_power)
from .codebooks import validate_quantization
from .harness.experiments import (POSITIONING_SCHEMES, TRACKING_SCHEMES,
                                  TRAINING_SCHEMES, ExperimentSpec, gain_vs_distance,
                                  gain_vs_snr, overhead_report, positioning_cdf,
                                  refinement_grid, tracking_experiment, workspace)
from .harness.io import (ConfigError, fail, load_config, require_keys, write_csv,
                         write_manifest)
from .harness.svgplot import svg_line_plot
from .refinement import run_brpss
from .tracking import (TrackerConfig, TrackingScenario, Trajectory, nfbt_step,
                       run_schemes, tracker_for_run)
from .training import run_thbt


def integer_of(value, key: str, minimum: int) -> int:
    """A config integer: bools, floats and strings are configuration errors."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {value}")
    return value


def integers_of(values, key: str, minimum: int) -> tuple[int, ...]:
    """A config list of integers, each checked by ``integer_of``."""
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be a list of integers, got {values!r}")
    return tuple(integer_of(v, key, minimum) for v in values)


def number_of(value, key: str, minimum: float | None = None,
              positive: bool = False) -> float:
    """A config number: bools, strings, lists and non-finite values are
    configuration errors, and so are values below ``minimum`` or, with
    ``positive``, values not above zero."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"{key} must be positive, got {value}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {value}")
    return float(value)


def numbers_of(values, key: str, length: int | None = None,
               **bounds) -> tuple[float, ...]:
    """A config list of numbers, each checked by ``number_of`` with the
    same bounds; ``length`` fixes how many."""
    if not isinstance(values, list) or (length is not None and len(values) != length):
        count = "" if length is None else f"{length} "
        raise ConfigError(f"{key} must be a list of {count}numbers, got {values!r}")
    return tuple(number_of(v, key, **bounds) for v in values)


def snr_of(value, key: str, cfg: ArrayConfig) -> float:
    """A config SNR in dB: a finite number whose noise power is finite too
    (below about -3080 dB it overflows)."""
    snr_db = number_of(value, key)
    try:
        snr_db_to_noise_power(snr_db, cfg)
    except OverflowError:
        raise ConfigError(f"{key} {snr_db} dB gives a noise power too large "
                          f"to represent") from None
    return snr_db


def seed_of(node: dict, args, default=0) -> int:
    """The run's seed: ``--seed`` if given, else the config node's."""
    seed = args.seed if args.seed is not None else node.get("seed", default)
    return integer_of(seed, "seed", 0)


def node_of(config: dict, key: str, known: tuple[str, ...]) -> dict:
    """The optional config object ``key``; absent reads as empty.

    Every key of the object is optional, so one outside ``known`` (a
    misspelling) is rejected rather than run with the default."""
    node = config.get(key, {})
    if not isinstance(node, dict):
        raise ConfigError(f"{key} must be an object, got {node!r}")
    for name in node:
        if name not in known:
            raise ConfigError(f"unknown config key: {key}.{name} "
                              f"(choose from {list(known)})")
    return node


def field_error(exc: ValueError, where: str, key_of: dict | None = None) -> ConfigError:
    """A model's own check as a config error naming the dotted key.

    The model's message starts with the field it rejects, which is read
    as key ``where.field`` unless ``key_of`` maps it to another dotted key."""
    name, _, why = str(exc).partition(" ")
    return ConfigError(f"{(key_of or {}).get(name, f'{where}.{name}')} {why}")


def parse_array(node: dict, where: str) -> ArrayConfig:
    """The array described by config node ``where``.

    Phase refinement reads second differences across the subarrays, so
    the array needs at least three RF chains.
    """
    require_keys(node, ["n_antennas", "n_rf", "wavelength"], where)
    n_antennas = integer_of(node["n_antennas"], f"{where}.n_antennas", 1)
    n_rf = integer_of(node["n_rf"], f"{where}.n_rf", 3)
    wavelength = number_of(node["wavelength"], f"{where}.wavelength", positive=True)
    try:
        return ArrayConfig(n_antennas=n_antennas, n_rf=n_rf, wavelength=wavelength)
    except ValueError as exc:
        raise field_error(exc, where) from exc


def parse_paths(node: dict, where: str) -> ChannelScenario:
    """The multipath scenario described by config node ``where``."""
    require_keys(node, ["count", "gain_vars", "angle_range", "range_range"], where)
    n_paths = integer_of(node["count"], f"{where}.count", 1)
    gain_vars = numbers_of(node["gain_vars"], f"{where}.gain_vars", minimum=0.0)
    angle_range = numbers_of(node["angle_range"], f"{where}.angle_range", length=2)
    range_range = numbers_of(node["range_range"], f"{where}.range_range", length=2)
    try:
        return ChannelScenario(n_paths=n_paths, gain_vars=gain_vars,
                               angle_range=angle_range, range_range=range_range)
    except ValueError as exc:
        raise field_error(exc, where, {"n_paths": f"{where}.count"}) from exc


def scenario_of(config: dict, args) -> tuple[ArrayConfig, ChannelScenario, float, int]:
    node = config.get("scenario")
    cfg = parse_array(node, "scenario")
    scen = parse_paths(node.get("paths"), "scenario.paths")
    require_keys(node, ["snr_db"], "scenario")
    snr_db = snr_of(node["snr_db"], "scenario.snr_db", cfg)
    return cfg, scen, snr_db, seed_of(node, args, config.get("seed", 0))


def codebook_of(config: dict) -> tuple[int, int]:
    require_keys(config, ["codebook.q", "codebook.s"])
    node = config["codebook"]
    return integer_of(node["q"], "codebook.q", 1), integer_of(node["s"], "codebook.s", 0)


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(config: dict, args) -> int:
    cfg, scen, snr_db, seed = scenario_of(config, args)
    q, s = codebook_of(config)
    book, _, design = workspace(cfg, q, s)
    rng = np.random.default_rng(seed)
    channel = sample_channel(cfg, rng, scen)
    noise = snr_db_to_noise_power(snr_db, cfg)
    res = run_thbt(cfg, book, design, channel, noise, rng)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    from .combining import alignment_gain, design_hybrid

    pair = design_hybrid(cfg, res.rough_omega, res.rough_range)
    result = {
        "best_index": res.best_index,
        "rough_omega": res.rough_omega,
        "rough_range_m": None if math.isinf(res.rough_range) else res.rough_range,
        "far_field": res.is_far,
        "gain": alignment_gain(channel, pair.combined_vector()),
        "pilots": res.pilots,
    }
    (out / "train_result.json").write_text(json.dumps(result, sort_keys=True,
                                                      indent=2) + "\n")
    outputs = ["train_result.json"]
    if args.powers:
        rows = [{"p": int(p + 1), "power": float(v)}
                for p, v in enumerate(res.powers)]
        write_csv(out / "train_powers.csv", rows, ["p", "power"])
        outputs.append("train_powers.csv")
    write_manifest(out / "manifest.json", config, seed, outputs)
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_refine(config: dict, args) -> int:
    cfg, scen, snr_db, seed = scenario_of(config, args)
    require_keys(config, ["coarse.omega", "coarse.range_m"])
    coarse_omega = number_of(config["coarse"]["omega"], "coarse.omega")
    if abs(coarse_omega) > 1.0:
        raise ConfigError(f"coarse.omega must lie in [-1, 1], got {coarse_omega}")
    raw_range = config["coarse"]["range_m"]
    coarse_range = (math.inf if raw_range in (None, "inf")
                    else number_of(raw_range, "coarse.range_m", positive=True))
    rng = np.random.default_rng(seed)
    channel = sample_channel(cfg, rng, scen)
    noise = snr_db_to_noise_power(snr_db, cfg)
    res = run_brpss(cfg, channel, coarse_omega, coarse_range, noise, rng)
    result = {
        "k": res.k, "b": res.b, "omega": res.omega,
        "range_m": None if math.isinf(res.range_m) else res.range_m,
        "far_field": res.is_far, "refined": res.refined, "pilots": res.pilots,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "refine_result.json").write_text(json.dumps(result, sort_keys=True,
                                                       indent=2) + "\n")
    write_manifest(out / "manifest.json", config, seed, ["refine_result.json"])
    print(json.dumps(result, sort_keys=True))
    return 0


def tracker_config_of(config: dict, traj: Trajectory) -> TrackerConfig:
    node = node_of(config, "tracker", ("meas_cov", "innovation_gate", "accel_intensity",
                                       "init_cov_diag"))
    cov = node.get("meas_cov")
    if cov is not None:
        if not isinstance(cov, list) or len(cov) != 2:
            raise ConfigError(f"tracker.meas_cov must be a 2x2 list of numbers, "
                              f"got {cov!r}")
        cov = np.array([numbers_of(row, "tracker.meas_cov", length=2) for row in cov])
    gate = node.get("innovation_gate", 13.8)
    if gate is not None:
        gate = number_of(gate, "tracker.innovation_gate")
    accel = number_of(node.get("accel_intensity", 1.0), "tracker.accel_intensity",
                      minimum=0.0)
    init_cov = numbers_of(node.get("init_cov_diag", [1.0, 1.0, 25.0, 25.0]),
                          "tracker.init_cov_diag", length=4, minimum=0.0)
    try:
        return TrackerConfig(dt=traj.dt, n_blocks=traj.n_blocks, accel_intensity=accel,
                             meas_cov=cov, init_cov_diag=init_cov, innovation_gate=gate)
    except ValueError as exc:
        raise field_error(exc, "tracker", {"dt": "trajectory.dt",
                                           "n_blocks": "trajectory.blocks"}) from exc


def trajectory_of(config: dict) -> Trajectory:
    require_keys(config, ["trajectory.start", "trajectory.velocity",
                          "trajectory.dt", "trajectory.blocks"])
    node = config["trajectory"]
    return Trajectory(start=numbers_of(node["start"], "trajectory.start", length=2),
                      velocity=numbers_of(node["velocity"], "trajectory.velocity",
                                          length=2),
                      dt=number_of(node["dt"], "trajectory.dt", positive=True),
                      n_blocks=integer_of(node["blocks"], "trajectory.blocks", 1))


def check_trajectory(traj: Trajectory, cfg: ArrayConfig) -> None:
    """Reject a trajectory that leaves the range model.  Every block the
    tracker runs (1..n_blocks) is steered at, so its range must reach the
    range floor; the start is only converted to (omega, range), which
    needs a non-zero range."""
    for block in range(traj.n_blocks + 1):
        zeta = float(np.hypot(*traj.position(block)))
        if not (zeta >= cfg.range_floor if block else zeta > 0.0):
            raise ConfigError(f"trajectory is {zeta:.4g} m from the array at block "
                              f"{block}: blocks 1..{traj.n_blocks} need the range floor "
                              f"{cfg.range_floor:.4g} m, and the start a non-zero range")


def tracking_scenario_of(config: dict) -> TrackingScenario:
    node = node_of(config, "tracking_channel", ("fading", "n_nlos", "nlos_gain_var"))
    kwargs = {}
    if "fading" in node:
        if not isinstance(node["fading"], bool):
            raise ConfigError(f"tracking_channel.fading must be true or false, "
                              f"got {node['fading']!r}")
        kwargs["fading"] = node["fading"]
    if "n_nlos" in node:
        kwargs["n_nlos"] = integer_of(node["n_nlos"], "tracking_channel.n_nlos", 0)
    if "nlos_gain_var" in node:
        kwargs["nlos_gain_var"] = number_of(node["nlos_gain_var"],
                                            "tracking_channel.nlos_gain_var",
                                            minimum=0.0)
    return TrackingScenario(**kwargs)


def cmd_track(config: dict, args) -> int:
    cfg = parse_array(config.get("array"), "array")
    require_keys(config, ["snr_db"])
    snr_db = snr_of(config["snr_db"], "snr_db", cfg)
    traj = trajectory_of(config)
    tcfg = tracker_config_of(config, traj)
    check_trajectory(traj, cfg)
    scen = tracking_scenario_of(config)
    seed = seed_of(config, args)
    noise = snr_db_to_noise_power(snr_db, cfg)
    tcfg = tracker_for_run(cfg, tcfg, traj, scen, noise, seed)
    step = nfbt_step(cfg, tcfg, noise, [*traj.start, 0.0, 0.0])
    [log] = run_schemes(cfg, traj, tcfg, noise, scen,
                        [(step, [np.random.default_rng(seed)])])
    rows = []
    for j in range(tcfg.n_blocks):
        row = {"t_s": (j + 1) * tcfg.dt, "gain": float(log.gain[0, j]),
               "se_bits": float(log.se_bits[0, j])}
        # a block without a fix has a NaN measured row
        for name, pos in (("truth", traj.position(j + 1)), ("pred", log.predicted[0, j]),
                          ("meas", log.measured[0, j]), ("filt", log.filtered[0, j])):
            row[f"{name}_x"], row[f"{name}_y"] = pos.tolist()
        rows.append(row)
    out = Path(args.out)
    write_csv(out / "track_blocks.csv", rows,
              ["t_s", "truth_x", "truth_y", "pred_x", "pred_y", "meas_x",
               "meas_y", "filt_x", "filt_y", "gain", "se_bits"])
    write_manifest(out / "manifest.json", config, seed, ["track_blocks.csv"])
    print(f"tracked {len(rows)} blocks -> {out / 'track_blocks.csv'}")
    return 0


EXPERIMENTS = {
    "gain_vs_snr": gain_vs_snr,
    "gain_vs_distance": gain_vs_distance,
    "positioning_cdf": positioning_cdf,
    "refinement_grid": refinement_grid,
    "tracking": tracking_experiment,
}

CSV_COLUMNS = {
    "gain_vs_snr": ["experiment", "scheme", "snr_db", "mean_gain", "std_gain",
                    "trials", "pilots"],
    "gain_vs_distance": ["experiment", "scheme", "r_max_m", "snr_db", "mean_gain",
                         "std_gain", "trials", "pilots"],
    "positioning_cdf": ["experiment", "scheme", "snr_db", "quantile", "error_m",
                        "trials"],
    "refinement_grid": ["experiment", "param", "value", "q", "s", "snr_db",
                        "median_error_m", "p90_error_m", "density_ok", "trials"],
    "tracking": ["experiment", "scheme", "snr_db", "t_s", "mean_gain",
                 "mean_se_bits", "seeds", "pilots_per_block"],
}


def experiment_spec_of(config: dict, args) -> tuple[str, ExperimentSpec]:
    require_keys(config, ["experiment"])
    kind = config["experiment"]
    if not isinstance(kind, str) or kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment: {kind} "
                          f"(choose from {sorted(EXPERIMENTS)})")
    cfg = parse_array(config.get("array"), "array")
    q, s = codebook_of(config)
    seed = seed_of(config, args)
    trials = integer_of(args.trials if args.trials is not None
                        else config.get("trials", 200), "trials", 1)
    known = TRACKING_SCHEMES if kind == "tracking" else TRAINING_SCHEMES
    schemes = config.get("schemes", list(known))
    if not isinstance(schemes, list) or not all(
            isinstance(name, str) and name in known for name in schemes):
        raise ConfigError(f"schemes must be a list of {kind} schemes "
                          f"(choose from {list(known)}), got {schemes!r}")
    # refinement_grid reads no scheme; positioning_cdf reports no ffbs position
    reported = POSITIONING_SCHEMES if kind == "positioning_cdf" else known
    if kind != "refinement_grid" and not any(name in reported for name in schemes):
        raise ConfigError(f"schemes must name a scheme that {kind} reports "
                          f"(choose from {list(reported)}), got {schemes!r}")
    scen = (parse_paths(config["paths"], "paths") if "paths" in config
            else ChannelScenario())
    snr_grid = tuple(snr_of(snr_db, "snr_grid_db", cfg) for snr_db in
                     numbers_of(config.get("snr_grid_db", [10.0]), "snr_grid_db"))
    if not snr_grid:
        raise ConfigError("snr_grid_db must list at least one SNR")
    kwargs = dict(cfg=cfg, n_angles=q, n_rings=s, schemes=tuple(schemes), trials=trials,
                  seed=seed, workers=args.threads, snr_grid_db=snr_grid,
                  scenario=scen)
    if "r_max_grid" in config:
        # each entry becomes the upper end of the paths' range_range
        kwargs["r_max_grid"] = numbers_of(config["r_max_grid"], "r_max_grid",
                                          minimum=scen.range_range[0])
        if not kwargs["r_max_grid"]:
            raise ConfigError("r_max_grid must list at least one range")
    if kind == "tracking":
        traj = trajectory_of(config)
        kwargs["trajectory"] = traj
        kwargs["tracker"] = tracker_config_of(config, traj)
        check_trajectory(traj, cfg)
        kwargs["tracking_scenario"] = tracking_scenario_of(config)
    if kind == "refinement_grid":
        kwargs["q_grid"] = integers_of(config.get("q_grid", []), "q_grid", 1)
        kwargs["s_grid"] = integers_of(config.get("s_grid", []), "s_grid", 0)
        if not kwargs["q_grid"] + kwargs["s_grid"]:
            raise ConfigError("q_grid and s_grid must list at least one value between them")
        if "fixed_q" in config:
            kwargs["fixed_q"] = integer_of(config["fixed_q"], "fixed_q", 1)
        if "fixed_s" in config:
            kwargs["fixed_s"] = integer_of(config["fixed_s"], "fixed_s", 0)
    return kind, ExperimentSpec(**kwargs)


def cmd_sweep(config: dict, args) -> int:
    kind, spec = experiment_spec_of(config, args)
    rows = EXPERIMENTS[kind](spec)
    out = Path(args.out)
    csv_name = f"{kind}.csv"
    write_csv(out / csv_name, rows, CSV_COLUMNS[kind])
    outputs = [csv_name]
    if args.svg:
        svg_name = f"{kind}.svg"
        _sweep_svg(kind, rows, out / svg_name)
        outputs.append(svg_name)
    ran = dict(config, trials=spec.trials, seed=spec.seed)   # after CLI overrides
    write_manifest(out / "manifest.json", ran, spec.seed, outputs)
    print(f"{kind}: {len(rows)} rows -> {out / csv_name}")
    return 0


def _sweep_svg(kind: str, rows: list[dict], path) -> None:
    axes = {
        "gain_vs_snr": ("snr_db", "mean_gain", "SNR (dB)", "mean gain"),
        "gain_vs_distance": ("r_max_m", "mean_gain", "max range (m)", "mean gain"),
        "positioning_cdf": ("error_m", "quantile", "error (m)", "CDF"),
        "refinement_grid": ("value", "median_error_m", "grid size",
                            "median error (m)"),
        "tracking": ("t_s", "mean_gain", "time (s)", "mean gain"),
    }
    xkey, ykey, xlabel, ylabel = axes[kind]
    series = {}
    for row in rows:
        if kind == "tracking" and row["experiment"] != "tracking_gain_vs_time":
            continue
        label = str(row.get("scheme", row.get("param", "series")))
        xs, ys = series.setdefault(label, ([], []))
        x, y = row[xkey], row[ykey]
        if isinstance(x, (int, float)) and math.isfinite(float(x)):
            xs.append(float(x))
            ys.append(float(y) if math.isfinite(float(y)) else math.nan)
    svg_line_plot(path, series, title=kind, xlabel=xlabel, ylabel=ylabel)


def cmd_codebook(config: dict, args) -> int:
    cfg = parse_array(config.get("array"), "array")
    q, s = codebook_of(config)
    book, _, _ = workspace(cfg, q, s)
    report = validate_quantization(cfg, q, s)
    meta = {
        "n_antennas": cfg.n_antennas, "n_rf": cfg.n_rf,
        "wavelength": cfg.wavelength, "q": q, "s": s,
        "columns": book.n_columns, "near_columns": q * s, "far_columns": q,
        "range_floor_m": cfg.range_floor,
        "below_floor_columns": int(book.below_floor.sum()),
        "density_ok": bool(report.ok), "s_min": report.s_min,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "codebook_meta.json").write_text(json.dumps(meta, sort_keys=True,
                                                       indent=2) + "\n")
    outputs = ["codebook_meta.json"]
    if args.columns:
        rows = []
        for p in range(1, book.n_columns + 1):
            cw = book.params(p)
            rows.append({"p": p, "kind": cw.kind, "q": cw.q,
                         "s": cw.s if cw.s is not None else "",
                         "theta": cw.theta,
                         "distance_m": cw.distance if math.isfinite(cw.distance)
                         else math.inf})
        write_csv(out / "codebook_columns.csv", rows,
                  ["p", "kind", "q", "s", "theta", "distance_m"])
        outputs.append("codebook_columns.csv")
    write_manifest(out / "manifest.json", config, 0, outputs)
    print(json.dumps(meta, sort_keys=True))
    return 0


def cmd_report(config: dict, args) -> int:
    cfg = parse_array(config.get("array"), "array")
    q, s = codebook_of(config)
    seed = seed_of(config, args)
    rows = overhead_report(cfg, q, s, measure=not args.no_measure, seed=seed)
    out = Path(args.out)
    write_csv(out / "overheads.csv", rows,
              ["table", "scheme", "formula", "parameters", "pilots",
               "implemented", "measured"])
    write_manifest(out / "manifest.json", config, seed, ["overheads.csv"])
    for row in rows:
        print(f"{row['table']:9s} {row['scheme']:12s} {row['pilots']:>6} "
              f"{'' if row['implemented'] else '(not implemented)'}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlbeam",
        description="Beam training, refinement, and tracking simulator for "
                    "very large hybrid arrays")
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--trials", type=int, default=None,
                        help="override the trial count")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for Monte Carlo trials")
    sub = parser.add_subparsers(dest="command", required=True)
    p_train = sub.add_parser("train", help="one beam-training run")
    p_train.add_argument("--powers", action="store_true",
                         help="also dump the per-codeword power profile")
    sub.add_parser("refine", help="one beam-refinement run")
    sub.add_parser("track", help="one tracking run along a trajectory")
    p_sweep = sub.add_parser("sweep", help="Monte Carlo experiment driver")
    p_sweep.add_argument("--svg", action="store_true",
                         help="emit a line plot next to the CSV")
    p_book = sub.add_parser("codebook", help="codebook metadata and geometry table")
    p_book.add_argument("--columns", action="store_true",
                        help="emit the per-column geometry CSV")
    p_report = sub.add_parser("report", help="pilot-overhead accounting table")
    p_report.add_argument("--no-measure", action="store_true",
                          help="skip runtime pilot counting")
    return parser


COMMANDS = {
    "train": cmd_train,
    "refine": cmd_refine,
    "track": cmd_track,
    "sweep": cmd_sweep,
    "codebook": cmd_codebook,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")
    try:
        config = load_config(args.config)
        return COMMANDS[args.command](config, args)
    except ConfigError as exc:
        return fail(str(exc), 2)
    except Exception as exc:  # runtime failures map to exit 1
        return fail(f"{type(exc).__name__}: {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
