"""PACE performance-prediction substrate (Fig. 1).

Application models + resource models are combined by an evaluation engine
into execution-time predictions ``t_x(ρ, σ)``, with a demand-driven cache —
the capability both the local schedulers and the grid agents consume.
"""

from repro.pace.application import ApplicationModel, TabulatedModel
from repro.pace.cache import CacheStats, EvaluationCache
from repro.pace.evaluation import EvaluationEngine
from repro.pace.forecast import (
    AdaptiveForecaster,
    ExponentialSmoothing,
    LastValue,
    LoadTracker,
    MedianWindow,
    Predictor,
    RunningMean,
    SlidingWindowMean,
    default_predictor_family,
)
from repro.pace.fitting import (
    FitResult,
    fit_amdahl,
    fit_best,
    fit_comm_overhead,
    fit_linear,
    fit_power_overhead,
)
from repro.pace.hardware import (
    DEFAULT_CATALOGUE,
    SGI_ORIGIN_2000,
    SUN_SPARC_STATION_2,
    SUN_ULTRA_1,
    SUN_ULTRA_5,
    SUN_ULTRA_10,
    HardwareCatalogue,
    PlatformSpec,
)
from repro.pace.parametric import (
    AmdahlModel,
    CommOverheadModel,
    LinearModel,
    PowerOverheadModel,
)
from repro.pace.resource import Node, ResourceModel
from repro.pace.structural import (
    Broadcast,
    Exchange,
    ParallelCompute,
    Reduction,
    SerialCompute,
    Step,
    StructuralModel,
)
from repro.pace.workloads import (
    APPLICATION_NAMES,
    TABLE1_DEADLINE_BOUNDS,
    TABLE1_TIMES,
    ApplicationSpec,
    paper_application_specs,
    paper_applications,
)

__all__ = [
    "AdaptiveForecaster",
    "ExponentialSmoothing",
    "LastValue",
    "LoadTracker",
    "MedianWindow",
    "Predictor",
    "RunningMean",
    "SlidingWindowMean",
    "default_predictor_family",
    "ApplicationModel",
    "TabulatedModel",
    "CacheStats",
    "EvaluationCache",
    "EvaluationEngine",
    "FitResult",
    "fit_amdahl",
    "fit_best",
    "fit_comm_overhead",
    "fit_linear",
    "fit_power_overhead",
    "PowerOverheadModel",
    "DEFAULT_CATALOGUE",
    "SGI_ORIGIN_2000",
    "SUN_SPARC_STATION_2",
    "SUN_ULTRA_1",
    "SUN_ULTRA_5",
    "SUN_ULTRA_10",
    "HardwareCatalogue",
    "PlatformSpec",
    "AmdahlModel",
    "CommOverheadModel",
    "LinearModel",
    "Node",
    "ResourceModel",
    "Broadcast",
    "Exchange",
    "ParallelCompute",
    "Reduction",
    "SerialCompute",
    "Step",
    "StructuralModel",
    "APPLICATION_NAMES",
    "TABLE1_DEADLINE_BOUNDS",
    "TABLE1_TIMES",
    "ApplicationSpec",
    "paper_application_specs",
    "paper_applications",
]
