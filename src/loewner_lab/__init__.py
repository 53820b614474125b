"""Loewner-framework toolkit: rational approximation of frequency-response
data, data-driven and model-based PI design, and interpolation-based
stability analysis."""

from . import errors
from .descriptor_ops import (
    DescriptorRealization,
    GridNorm,
    StableSplit,
    TransferMap,
    closed_loop_delay,
    densify_log_grid,
    eval_transfer,
    feedback_unity,
    linf_norm_grid,
    load_realization,
    poles,
    save_realization,
    series,
    stable_antistable_split,
)
from .freq_data import (
    FrequencyDataset,
    PointPartition,
    close_conjugate,
    load_csv,
    partition_points,
    save_csv,
)
from .lddc import (
    ReductionSweep,
    SweepRow,
    closed_loop_reference,
    ideal_controller_response,
    reduce_controller,
    reference_from_dataset,
    second_order_reference,
    small_gain_bound,
)
from .loewner_core import (
    LoewnerPencil,
    RankReport,
    build_pencil,
    detect_rank,
    reduce_to_realization,
)
from .mfsa import (
    DelayRow,
    DelaySweepResult,
    StabilityReport,
    delay_margin_sweep,
    nyquist_curve,
    stability_tag,
)
from .pi_synth import (
    PIController,
    SynthesisResult,
    WeightingFilters,
    default_weights,
    eval_weighted_performance,
    fit_pi_gains,
    optimize_pi,
)
from .plant_oracle import PlantParameters, eval_actuator, eval_plant, sample_grid

__version__ = "0.1.0"
