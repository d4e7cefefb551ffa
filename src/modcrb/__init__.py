"""Range and angle Cramer-Rao bounds for modular antenna arrays.

The package models a modular linear array observing a near-field point
target through one of four wavefront approximations, provides closed-form
range/angle Cramer-Rao bounds with their degenerate cases, a generic
Fisher-information oracle that certifies the closed forms, and a small
toolkit (configs, presets, sweeps, CLI) to reproduce the reference
experiments.
"""

from .config import (
    PRESET_NAMES,
    SPEED_OF_LIGHT,
    ExperimentConfig,
    load_config,
    parse_config,
    parse_models,
    preset,
    serialize_config,
)
from .crb import (
    FLAG_DEGENERATE,
    FLAG_ENDFIRE,
    CrbPair,
    SensingSnr,
    crb_boresight,
    crb_boresight_far,
    crb_bounds,
)
from .errors import InvalidConfigurationError, NumericDomainError, SingularGeometryError
from .geometry import (
    FieldRegions,
    ModularLayout,
    TargetPolar,
    arrival_sine_terms,
    build_layout,
    field_regions,
    radial_terms,
)
from .oracle import (
    ValidationReport,
    VerificationSummary,
    cross_validate,
    oracle_dtype,
    relative_error,
    sample_case,
    verify_batch,
)
from .sweeps import (
    CSV_HEADER,
    SweepRecord,
    emit_outputs,
    read_csv,
    run_layout_sweep,
    run_point,
    run_range_sweep,
    write_csv,
    write_json,
    write_plot_script,
)
from .wavefront import (
    MODEL_ORDER,
    WavefrontModel,
    steering,
    steering_derivatives,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "CrbPair",
    "ExperimentConfig",
    "FLAG_DEGENERATE",
    "FLAG_ENDFIRE",
    "FieldRegions",
    "InvalidConfigurationError",
    "MODEL_ORDER",
    "ModularLayout",
    "NumericDomainError",
    "PRESET_NAMES",
    "SPEED_OF_LIGHT",
    "SensingSnr",
    "SingularGeometryError",
    "SweepRecord",
    "TargetPolar",
    "ValidationReport",
    "VerificationSummary",
    "WavefrontModel",
    "arrival_sine_terms",
    "build_layout",
    "crb_boresight",
    "crb_boresight_far",
    "crb_bounds",
    "cross_validate",
    "emit_outputs",
    "field_regions",
    "load_config",
    "oracle_dtype",
    "parse_config",
    "parse_models",
    "preset",
    "radial_terms",
    "read_csv",
    "relative_error",
    "run_layout_sweep",
    "run_point",
    "run_range_sweep",
    "sample_case",
    "serialize_config",
    "steering",
    "steering_derivatives",
    "verify_batch",
    "write_csv",
    "write_json",
    "write_plot_script",
]
