"""Highway junction route prediction with a from-scratch kernel SVM."""

from .traffic_sim import ConfigError, ScenarioConfig, Trace, generate_trace, make_trace, vehicle_position
from .svm import (
    KernelSpec,
    LabeledExample,
    SvmModel,
    TrainConfig,
    classify,
    extract_hyperplane,
    functional_margin,
    geometric_margin,
    kernel_eval,
    load_model,
    predict,
    save_model,
    train,
)
from .dataset_io import (
    Dataset,
    read_fcd_xml,
    read_trace_csv,
    sample_examples,
    write_trace_csv,
)
from .eval_pipeline import EvaluationReport, accuracy_sweep, boundary_report, evaluate, split_examples

__version__ = "0.1.0"
