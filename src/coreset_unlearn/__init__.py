"""Core-set selective sampling with exact deletion, capacity accounting, and a benchmark harness."""

from .baselines import exact_unlearn, ridge_fit, ridge_retrain, sisa_fit, sisa_unlearn
from .bbq_linear import (
    BBQParams,
    ModelState,
    SystemState,
    bbq_fit,
    deletion_update,
    load_model,
    predict,
    replay_on_coreset,
    save_model,
    state_of_system,
    system_states_equal,
)
from .capacity import (
    CapacityParams,
    MetricSet,
    capacity_gate,
    coreset_capacity,
    drift_bound,
    expected_capacity_mc,
    expected_capacity_uniform,
    expected_deletion_time,
)
from .core_linalg import (
    GramState,
    gram_init,
    leverage,
    log_det_ratio,
    rank_one_downdate,
    rank_one_update,
    refresh_inverse,
)
from .datastreams import (
    Dataset,
    DatasetSpec,
    DeletionDistribution,
    LabeledSample,
    deletion_stream,
    gen_dataset,
    load_dataset,
    save_dataset,
)
from .general_bbq import (
    FiniteFunctionClass,
    GeneralModelState,
    d2_score,
    erm_fit,
    general_bbq_fit,
    general_bbq_trace,
    general_deletion_update,
    general_state_of_system,
    load_function_class,
    projected_dimension,
)
from .harness import ExperimentConfig, ExperimentReport, emit_report, run_experiment

__version__ = "0.1.0"
