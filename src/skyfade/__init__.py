"""Angle-aware shadow-fading estimation for air-to-ground links.

The package decomposes UAV RSRP measurements into a deterministic two-ray
path-loss estimate and a residual shadow-fading term, learns a
distance-and-attitude-dependent correlation model from the residuals, and
interpolates unmeasured poses with Ordinary Kriging.
"""

from .correlation import (
    AngleBins,
    CorrelationModel,
    DedmParams,
    balance_resample,
    dedm_eval,
    deserialize_model,
    empirical_angular_correlation,
    empirical_correlogram,
    fit_correlation_model,
    load_model,
    save_model,
    serialize_model,
)
from .errors import (
    DegenerateCorrelationError,
    InsufficientCoverageError,
    InsufficientDataError,
    IngestError,
    NotPositiveDefiniteError,
    SchemaError,
    SingularSystemError,
    SkyfadeError,
    UndefinedGeometryError,
    ValidationError,
)
from .evaluation import EvalConfig, EvalResult, run_evaluation
from .fieldsim import (
    FlightSpec,
    SimConfig,
    generate_trajectory,
    sample_sf_field,
    synthesize_dataset,
    truth_sidecar,
)
from .geometry import (
    Geometry,
    LinkGeometry,
    MeasurementSample,
    project_enu,
)
from .kriging import (
    Prediction,
    assemble_system,
    predict_sf,
    predict_sf_batch,
)
from .propagation import (
    GainTable,
    LinkBudget,
    SfSample,
    SfTable,
    sf_statistics,
    two_ray_rsrp,
)

__version__ = "0.1.0"

__all__ = [
    "AngleBins",
    "CorrelationModel",
    "DedmParams",
    "DegenerateCorrelationError",
    "EvalConfig",
    "EvalResult",
    "FlightSpec",
    "GainTable",
    "Geometry",
    "IngestError",
    "InsufficientCoverageError",
    "InsufficientDataError",
    "LinkBudget",
    "LinkGeometry",
    "MeasurementSample",
    "NotPositiveDefiniteError",
    "Prediction",
    "SchemaError",
    "SfSample",
    "SfTable",
    "SimConfig",
    "SingularSystemError",
    "SkyfadeError",
    "UndefinedGeometryError",
    "ValidationError",
    "assemble_system",
    "balance_resample",
    "dedm_eval",
    "deserialize_model",
    "empirical_angular_correlation",
    "empirical_correlogram",
    "fit_correlation_model",
    "generate_trajectory",
    "load_model",
    "predict_sf",
    "predict_sf_batch",
    "project_enu",
    "run_evaluation",
    "sample_sf_field",
    "save_model",
    "serialize_model",
    "sf_statistics",
    "synthesize_dataset",
    "truth_sidecar",
    "two_ray_rsrp",
]
