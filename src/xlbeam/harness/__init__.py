"""Monte Carlo experiment drivers, deterministic scheduling, and result IO."""

from .experiments import (ExperimentSpec, clear_workspace_cache, gain_vs_distance,
                          gain_vs_snr, overhead_report, positioning_cdf,
                          refinement_grid, tracking_experiment, workspace)
from .io import ConfigError, load_config, write_csv, write_manifest
from .runner import run_trials, trial_rng
from .svgplot import svg_line_plot
