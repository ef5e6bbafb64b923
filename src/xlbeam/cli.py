"""Command-line harness: JSON configs in, CSV/JSON artifacts out.

Subcommands: train, refine, track, sweep, codebook, report.  Exit codes:
0 success, 1 runtime failure, 2 configuration error: ``read_config`` reads
every config through the table of the keys its command reads (``KEYS``,
and ``SWEEP_KEYS`` per experiment kind), and any fault names its key.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arrays import (ArrayConfig, ChannelScenario, antenna_noise, sample_channels,
                     snr_db_to_noise_power)
from .codebooks import hybrid_codebook_geometry, validate_quantization
from .combining import alignment_gain, design_hybrid
from .harness.experiments import (POSITIONING_SCHEMES, TRACKING_SCHEMES,
                                  TRAINING_SCHEMES, ExperimentSpec, gain_vs_distance,
                                  gain_vs_snr, overhead_report, positioning_cdf,
                                  refinement_grid, tracking_experiment, workspace)
from .harness.io import ConfigError, fail, load_config, write_csv, write_manifest
from .harness.svgplot import svg_line_plot
from .refinement import refine_channels
from .tracking import (TrackerConfig, TrackingScenario, Trajectory, nfbt_step,
                       run_schemes, tracker_for_run)
from .training import stage1_sweep, stage2_select

# ---------------------------------------------------------------------------
# the key table

INTEGER, NUMBER, BOOL, CHOICE, LIST, OBJECT = (
    "integer", "number", "bool", "choice", "list", "object")


@dataclass(frozen=True)
class Key:
    """How one config key is read: its kind and the bounds that apply.  An
    absent optional key is left out, so the default of the model field it
    feeds (``field``, when that is not the key's name) applies."""

    kind: str
    optional: bool = False
    minimum: float | None = None        # integer, number
    maximum: float | None = None        # number
    positive: bool = False              # number
    null: bool = False                  # number: null is read as None
    choices: tuple[str, ...] = ()       # choice: the names it may take
    item: Key | None = None             # list: how each entry is read
    length: tuple[int, int | None] = (0, None)   # list: fewest, most entries
    unique: bool = False                # list: no entry twice
    keys: dict[str, Key] | None = None  # object: its own table
    field: str | None = None


PAIR = Key(LIST, item=Key(NUMBER), length=(2, 2))
SEED = Key(INTEGER, optional=True, minimum=0)
ARRAY = {"n_antennas": Key(INTEGER, minimum=1),
         # phase refinement reads second differences across the subarrays
         "n_rf": Key(INTEGER, minimum=3),
         "wavelength": Key(NUMBER, positive=True)}
PATHS = {"count": Key(INTEGER, minimum=1, field="n_paths"),
         "gain_vars": Key(LIST, item=Key(NUMBER, minimum=0.0)),
         "angle_range": PAIR, "range_range": PAIR}
ARRAY_NODE = Key(OBJECT, keys=ARRAY, field="cfg")
CODEBOOK = Key(OBJECT, keys={"q": Key(INTEGER, minimum=1), "s": Key(INTEGER, minimum=0)})
SCENARIO = Key(OBJECT, keys={**ARRAY, "paths": Key(OBJECT, keys=PATHS),
                             "snr_db": Key(NUMBER), "seed": SEED})
# read by track and by the tracking experiment
TRACKING = {
    "trajectory": Key(OBJECT, keys={"start": PAIR, "velocity": PAIR,
                                    "dt": Key(NUMBER, positive=True),
                                    "blocks": Key(INTEGER, minimum=1, field="n_blocks")}),
    "tracker": Key(OBJECT, optional=True, keys={
        "meas_cov": Key(LIST, optional=True, item=PAIR, length=(2, 2)),
        # null disables gating
        "innovation_gate": Key(NUMBER, optional=True, null=True),
        "accel_intensity": Key(NUMBER, optional=True, minimum=0.0),
        "init_cov_diag": Key(LIST, optional=True, item=Key(NUMBER, minimum=0.0),
                             length=(4, 4))}),
    "tracking_channel": Key(OBJECT, optional=True, field="tracking_scenario", keys={
        "fading": Key(BOOL, optional=True),
        "n_nlos": Key(INTEGER, optional=True, minimum=0),
        "nlos_gain_var": Key(NUMBER, optional=True, minimum=0.0)}),
}

KEYS = {
    "train": {"scenario": SCENARIO, "codebook": CODEBOOK, "seed": SEED},
    "refine": {"scenario": SCENARIO, "seed": SEED, "coarse": Key(OBJECT, keys={
        "omega": Key(NUMBER, minimum=-1.0, maximum=1.0),
        # null: a far-field coarse estimate
        "range_m": Key(NUMBER, positive=True, null=True)})},
    "track": {"array": ARRAY_NODE, "snr_db": Key(NUMBER), **TRACKING, "seed": SEED},
    "codebook": {"array": ARRAY_NODE, "codebook": CODEBOOK},
    "report": {"array": ARRAY_NODE, "codebook": CODEBOOK, "seed": SEED},
}

# experiment kind -> its driver and CSV columns
EXPERIMENTS = {
    "gain_vs_snr": (gain_vs_snr, ["experiment", "scheme", "snr_db", "mean_gain",
                                  "std_gain", "trials", "pilots"]),
    "gain_vs_distance": (gain_vs_distance, ["experiment", "scheme", "r_max_m", "snr_db",
                                            "mean_gain", "std_gain", "trials", "pilots"]),
    "positioning_cdf": (positioning_cdf, ["experiment", "scheme", "snr_db", "quantile",
                                          "error_m", "trials"]),
    "refinement_grid": (refinement_grid, ["experiment", "param", "value", "q", "s",
                                          "snr_db", "median_error_m", "p90_error_m",
                                          "density_ok", "trials"]),
    "tracking": (tracking_experiment, ["experiment", "scheme", "snr_db", "t_s",
                                       "mean_gain", "mean_se_bits", "seeds",
                                       "pilots_per_block"]),
}


def _grid(item: Key, length=(0, None)) -> Key:
    """An optional list of distinct values (a repeat would write its rows twice)."""
    return Key(LIST, optional=True, item=item, length=length, unique=True)


SWEEP = {"experiment": Key(CHOICE, choices=tuple(EXPERIMENTS)), "array": ARRAY_NODE,
         "codebook": CODEBOOK, "seed": SEED, "trials": Key(INTEGER, optional=True, minimum=1)}
GRID = _grid(Key(NUMBER), (1, None))
ONE_SNR = _grid(Key(NUMBER), (1, 1))        # the kinds that read snr_grid_db[0] only
CHANNELS = {**SWEEP, "paths": Key(OBJECT, optional=True, keys=PATHS, field="scenario")}
TRAINING = {**CHANNELS, "schemes": _grid(Key(CHOICE, choices=TRAINING_SCHEMES))}
SWEEP_KEYS = {
    "gain_vs_snr": {**TRAINING, "snr_grid_db": GRID},
    # each r_max_grid entry becomes the upper end of the paths' range_range
    "gain_vs_distance": {**TRAINING, "snr_grid_db": ONE_SNR, "r_max_grid": GRID},
    "positioning_cdf": {**TRAINING, "snr_grid_db": ONE_SNR},
    "refinement_grid": {**CHANNELS, "snr_grid_db": ONE_SNR,
                        "q_grid": _grid(Key(INTEGER, minimum=1)),
                        "s_grid": _grid(Key(INTEGER, minimum=0)),
                        "fixed_q": Key(INTEGER, optional=True, minimum=1),
                        "fixed_s": Key(INTEGER, optional=True, minimum=0)},
    "tracking": {**SWEEP, "schemes": _grid(Key(CHOICE, choices=tuple(TRACKING_SCHEMES))),
                 "snr_grid_db": GRID, **TRACKING},
}

# ---------------------------------------------------------------------------
# the walker

ABSENT = object()


def keys_of(command: str, config: dict) -> dict[str, Key]:
    """The table of the keys ``command`` reads.  A sweep's depends on its
    experiment kind; while that is unknown, every kind's keys are read, so
    that a misspelt key, or else the kind, is named."""
    if command != "sweep":
        return KEYS[command]
    kind = config.get("experiment")
    if isinstance(kind, str) and kind in SWEEP_KEYS:
        return SWEEP_KEYS[kind]
    return {name: key for keys in SWEEP_KEYS.values() for name, key in keys.items()}


def read_config(node: dict, keys: dict[str, Key], overrides: dict, where: str = "") -> dict:
    """Config object ``node``, at dotted path ``where``, read through its
    table ``keys``: ``{field: value}`` for each key given, in table order.
    ``overrides`` maps dotted keys to command-line values, read in place of
    the config's unless None.  An absent required object reads as empty, so
    the message names its first missing key."""
    prefix = f"{where}." if where else ""
    for name in node:
        if name not in keys:
            raise ConfigError(f"unknown config key: {prefix}{name} "
                              f"(choose from {list(keys)})")
    values = {}
    for name, key in keys.items():
        path = prefix + name
        value = node.get(name, ABSENT) if overrides.get(path) is None else overrides[path]
        if value is ABSENT:
            if key.optional:
                continue
            if key.kind != OBJECT:
                raise ConfigError(f"missing config key: {path}")
            value = {}
        values[key.field or name] = read_value(value, key, path, overrides)
    return values


def read_value(value, key: Key, path: str, overrides: dict):
    """One config value, checked against its key's kind and bounds.  A
    number is read as a float, and a list as a tuple."""
    if key.kind == OBJECT:
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object, got {value!r}")
        return read_config(value, key.keys, overrides, path)
    if key.kind == LIST:
        lo, hi = key.length
        if not isinstance(value, list) or not lo <= len(value) <= (hi or len(value)):
            count = f"{lo} " if lo == hi else f"{lo} or more " if lo else ""
            raise ConfigError(f"{path} must be a list of {count}value{'s' * (hi != 1)}, "
                              f"got {value!r}")
        items = tuple(read_value(item, key.item, path, overrides) for item in value)
        if key.unique and len(set(items)) < len(items):
            raise ConfigError(f"{path} must not repeat a value, got {value!r}")
        return items
    if key.kind == BOOL:
        if not isinstance(value, bool):
            raise ConfigError(f"{path} must be true or false, got {value!r}")
        return value
    if key.kind == CHOICE:
        if not isinstance(value, str) or value not in key.choices:
            raise ConfigError(f"unknown {path}: {value!r} (choose from {list(key.choices)})")
        return value
    if value is None and key.null:
        return None
    if key.kind == INTEGER:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path} must be an integer, got {value!r}")
    elif (isinstance(value, bool) or not isinstance(value, (int, float))
          or not abs(value) <= sys.float_info.max):     # NaN, inf or a huge integer
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    else:
        value = float(value)
    if key.positive and not value > 0:
        raise ConfigError(f"{path} must be positive, got {value}")
    if key.minimum is not None and value < key.minimum:
        raise ConfigError(f"{path} must be at least {key.minimum}, got {value}")
    if key.maximum is not None and value > key.maximum:
        raise ConfigError(f"{path} must be at most {key.maximum}, got {value}")
    return value


def model_of(cls, values: dict, where: str, key_of: dict | None = None, **more):
    """``cls`` made of the read values of node ``where`` and of ``more``.

    A model's own check is a config error naming the dotted key: its message
    starts with the field it rejects, which is read as key ``where.field``
    unless ``key_of`` maps it to another dotted key."""
    try:
        return cls(**values, **more)
    except ValueError as exc:
        name, _, why = str(exc).partition(" ")
        raise ConfigError(f"{(key_of or {}).get(name, f'{where}.{name}')} {why}") from exc


def noise_of(snr_db: float, key: str, cfg: ArrayConfig) -> float:
    """The noise power of an SNR in dB; below about -3080 dB it overflows."""
    try:
        return snr_db_to_noise_power(snr_db, cfg)
    except OverflowError:
        raise ConfigError(f"{key} {snr_db} dB gives a noise power too large "
                          f"to represent") from None


def single_run(values: dict) -> tuple[ArrayConfig, ChannelScenario, float, int]:
    """The array, paths, noise power and seed of a train or refine scenario."""
    node = values["scenario"]
    cfg = model_of(ArrayConfig, {name: node[name] for name in ARRAY}, "scenario")
    scen = model_of(ChannelScenario, node["paths"], "scenario.paths")
    noise = noise_of(node["snr_db"], "scenario.snr_db", cfg)
    return cfg, scen, noise, node.get("seed", values.get("seed", 0))


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


def tracking_models(values: dict, cfg: ArrayConfig) -> None:
    """Make the read trajectory, tracker and tracking channel models, in place."""
    traj = values["trajectory"] = Trajectory(**values["trajectory"])
    values["tracker"] = model_of(TrackerConfig, values.get("tracker", {}), "tracker",
                                 {"dt": "trajectory.dt"}, dt=traj.dt, n_blocks=traj.n_blocks)
    check_trajectory(traj, cfg)
    values["tracking_scenario"] = TrackingScenario(**values.get("tracking_scenario", {}))


def experiment_spec(values: dict, workers: int) -> tuple[str, ExperimentSpec]:
    """The experiment kind and spec of a sweep's read values, whose nodes
    become their models in place."""
    kind, codebook = values.pop("experiment"), values.pop("codebook")
    cfg = values["cfg"] = model_of(ArrayConfig, values["cfg"], "array")
    if "scenario" in values:
        values["scenario"] = model_of(ChannelScenario, values["scenario"], "paths")
    if kind == "tracking":
        tracking_models(values, cfg)
    schemes = SWEEP_KEYS[kind].get("schemes")      # None: the kind runs no schemes
    known = () if schemes is None else schemes.item.choices
    values.setdefault("schemes", known)
    spec = ExperimentSpec(n_angles=codebook["q"], n_rings=codebook["s"], workers=workers,
                          **values)
    for snr_db in spec.snr_grid_db:
        noise_of(snr_db, "snr_grid_db", cfg)
    # positioning_cdf reports no ffbs position
    reported = POSITIONING_SCHEMES if kind == "positioning_cdf" else known
    if known and not set(spec.schemes) & set(reported):
        raise ConfigError(f"schemes must name a scheme that {kind} reports "
                          f"(choose from {list(reported)}), got {list(spec.schemes)}")
    if kind == "gain_vs_distance" and min(spec.r_max_grid) < spec.scenario.range_range[0]:
        raise ConfigError(f"r_max_grid must be at least paths.range_range[0] "
                          f"{spec.scenario.range_range[0]}, got {list(spec.r_max_grid)}")
    if kind == "refinement_grid" and not spec.q_grid + spec.s_grid:
        raise ConfigError("q_grid and s_grid must list at least one value between them")
    return kind, spec


# ---------------------------------------------------------------------------
# subcommands


def write_result(out: Path, name: str, result: dict, config: dict, seed: int,
                 outputs: list[str] = ()) -> int:
    """Write a single run's ``result`` as JSON file ``name`` and the manifest
    of it and ``outputs``, and print the result on one line."""
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(json.dumps(result, sort_keys=True, indent=2) + "\n")
    write_manifest(out / "manifest.json", config, seed, [name, *outputs])
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_train(config: dict, values: dict, args) -> int:
    cfg, scen, noise, seed = single_run(values)
    codebook = values["codebook"]
    book, _, design = workspace(cfg, codebook["q"], codebook["s"])
    # a stack of one channel
    rngs = [np.random.default_rng(seed)]
    channels = sample_channels(cfg, rngs, scen)
    res = stage2_select(book, design,
                        stage1_sweep(cfg, design.sub_book, channels.h, noise, rngs))
    pair = design_hybrid(cfg, res.rough_omega, res.rough_range)
    rough_range = float(res.rough_range[0])
    result = {
        "best_index": int(res.best_index[0]),
        "rough_omega": float(res.rough_omega[0]),
        "rough_range_m": None if math.isinf(rough_range) else rough_range,
        "far_field": math.isinf(rough_range),
        "gain": float(alignment_gain(channels, pair.combined_vector())[0]),
        "pilots": res.pilots,
    }
    if args.powers:
        rows = [{"p": int(p + 1), "power": float(v)}
                for p, v in enumerate(res.powers[0])]
        write_csv(Path(args.out) / "train_powers.csv", rows, ["p", "power"])
    return write_result(Path(args.out), "train_result.json", result, config, seed,
                        ["train_powers.csv"] if args.powers else [])


def cmd_refine(config: dict, values: dict, args) -> int:
    cfg, scen, noise, seed = single_run(values)
    coarse = values["coarse"]
    coarse_range = math.inf if coarse["range_m"] is None else coarse["range_m"]
    # a stack of one channel
    rngs = [np.random.default_rng(seed)]
    channels = sample_channels(cfg, rngs, scen)
    res = refine_channels(cfg, channels.h, [coarse["omega"]], [coarse_range],
                          antenna_noise(rngs, cfg.n_antennas, noise))
    range_m = float(res.range_m[0])
    result = {
        "k": float(res.k[0]), "b": float(res.b[0]), "omega": float(res.omega[0]),
        "range_m": None if math.isinf(range_m) else range_m,
        "far_field": math.isinf(range_m), "refined": bool(res.refined[0]),
        "pilots": res.pilots,
    }
    return write_result(Path(args.out), "refine_result.json", result, config, seed)


def cmd_track(config: dict, values: dict, args) -> int:
    cfg = values["cfg"] = model_of(ArrayConfig, values["cfg"], "array")
    noise = noise_of(values["snr_db"], "snr_db", cfg)
    tracking_models(values, cfg)
    traj, scen = values["trajectory"], values["tracking_scenario"]
    seed = values.setdefault("seed", 0)
    tcfg = values["tracker"] = tracker_for_run(cfg, values["tracker"], traj, scen, noise,
                                               seed)
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
    # what ran: the models with their defaults, and the calibrated meas_cov
    write_manifest(out / "manifest.json", config, seed, ["track_blocks.csv"], ran=values)
    print(f"tracked {len(rows)} blocks -> {out / 'track_blocks.csv'}")
    return 0


def cmd_sweep(config: dict, values: dict, args) -> int:
    kind, spec = experiment_spec(values, args.threads)
    driver, columns = EXPERIMENTS[kind]
    rows = driver(spec)
    out = Path(args.out)
    csv_name = f"{kind}.csv"
    write_csv(out / csv_name, rows, columns)
    outputs = [csv_name]
    if args.svg:
        svg_name = f"{kind}.svg"
        _sweep_svg(kind, rows, out / svg_name)
        outputs.append(svg_name)
    # what ran: the spec fields the kind reads, after overrides, defaults filled in
    read = {key.field or name for name, key in SWEEP_KEYS[kind].items()}
    ran = {name: value for name, value in vars(spec).items()
           if name in read | {"n_angles", "n_rings"}}
    write_manifest(out / "manifest.json", config, spec.seed, outputs,
                   ran={"experiment": kind, **ran})
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


def cmd_codebook(config: dict, values: dict, args) -> int:
    cfg = model_of(ArrayConfig, values["cfg"], "array")
    q, s = values["codebook"]["q"], values["codebook"]["s"]
    book = hybrid_codebook_geometry(cfg, q, s)       # the grids only: no column is read
    report = validate_quantization(cfg, q, s)
    meta = {
        "n_antennas": cfg.n_antennas, "n_rf": cfg.n_rf,
        "wavelength": cfg.wavelength, "q": q, "s": s,
        "columns": book.n_columns, "near_columns": q * s, "far_columns": q,
        "range_floor_m": cfg.range_floor,
        "below_floor_columns": int(book.below_floor.sum()),
        "density_ok": bool(report.ok), "s_min": report.s_min,
    }
    if args.columns:
        rows = []
        for p in range(1, book.n_columns + 1):
            cw = book.params(p)
            rows.append({"p": p, "kind": cw.kind, "q": cw.q,
                         "s": cw.s if cw.s is not None else "",
                         "theta": cw.theta,
                         "distance_m": cw.distance if math.isfinite(cw.distance)
                         else math.inf})
        write_csv(Path(args.out) / "codebook_columns.csv", rows,
                  ["p", "kind", "q", "s", "theta", "distance_m"])
    return write_result(Path(args.out), "codebook_meta.json", meta, config, 0,
                        ["codebook_columns.csv"] if args.columns else [])


def cmd_report(config: dict, values: dict, args) -> int:
    cfg = model_of(ArrayConfig, values["cfg"], "array")
    seed = values.get("seed", 0)
    rows = overhead_report(cfg, values["codebook"]["q"], values["codebook"]["s"],
                           measure=not args.no_measure, seed=seed)
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
        # --seed stands in for a single run's scenario.seed too
        values = read_config(config, keys_of(args.command, config), {
            "seed": args.seed, "scenario.seed": args.seed, "trials": args.trials})
        return COMMANDS[args.command](config, values, args)
    except ConfigError as exc:
        return fail(str(exc), 2)
    except Exception as exc:  # runtime failures map to exit 1
        return fail(f"{type(exc).__name__}: {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
