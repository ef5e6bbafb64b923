"""Beam alignment for very large partially-connected hybrid arrays:
near/far-field channel synthesis, hybrid-field beam training, closed-form
phase-shift beam refinement, and Kalman-filtered near-field tracking.
"""

__version__ = "0.1.0"

from .arrays import (ArrayConfig, ChannelRealization, ChannelScenario, FAR_FIELD,
                     QuadraticPhase, antenna_noise, crandn, element_distance,
                     sample_channel, sample_channels, snr_db_to_noise_power, steering,
                     steering_far, steering_near, steering_quadratic)
from .codebooks import (CodewordParams, HybridCodebook, SubarrayCodebook,
                        build_hybrid_codebook, build_subarray_codebook,
                        validate_quantization)
from .combining import (CombinerPair, alignment_gain, design_hybrid, gain_map,
                        hybrid_beam_gain, quantize_pointing, subarray_outputs,
                        subarray_pointing)
from .refinement import (RefinementResult, estimate_offsets, measure_subarrays,
                         phase_differences, refine, refine_channels, run_brpss)
from .tracking import (LineOfSight, StepResult, TrackerConfig, TrackingScenario,
                       TrackState, Trajectory, brpss_step, calibrate_measurement_cov,
                       ffbt_proxy_step, filter_update, hfns_step, innovation_distances,
                       line_of_sight, measure_blocks, nfbt_step, predict, run_schemes)
from .training import (Stage1Sweep, TrainedDesign, TrainingResult, assemble_reused,
                       baseline_ffbs, baseline_hfbs, design_all, run_thbt,
                       stage1_sweep, stage2_select)
