import pytest

from routesvm.dataset_io import sample_examples
from routesvm.eval_pipeline import train_position_model
from routesvm.svm import KernelSpec, TrainConfig
from routesvm.traffic_sim import ScenarioConfig, generate_trace


@pytest.fixture(scope="session")
def default_trace():
    """The documented default scenario: 600 vehicles, seed 7."""
    return generate_trace(ScenarioConfig(num_vehicles=600, rng_seed=7))


@pytest.fixture(scope="session")
def default_model(default_trace):
    """Linear model trained on 400 examples from the default trace, seed 7,
    through the pipeline trainer (the model run-paper ships)."""
    train_ds = sample_examples(default_trace, 400, 7)
    return train_position_model(train_ds, KernelSpec.linear(), TrainConfig(rng_seed=7))


@pytest.fixture(scope="session")
def small_trace():
    """A quick 60-vehicle scenario for I/O and CLI tests."""
    return generate_trace(ScenarioConfig(num_vehicles=60, num_steps=30, rng_seed=3))
