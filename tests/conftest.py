import numpy as np
import pytest

from tvqueue.functions import ConstantFn, SinusoidFn
from tvqueue.model import ModelSpec
from tvqueue.patience import ExponentialPatience, h2_from_scv
from tvqueue.fluid import solve_fluid
from tvqueue.gaussian import propagate


@pytest.fixture(scope="session")
def sine_h2_spec():
    """Sinusoidal arrivals, unit staffing, heavy-tailed-ish H2 patience."""
    return ModelSpec(
        arrival_rate=SinusoidFn(1.0, 0.6),
        staffing=ConstantFn(1.0),
        mu=1.0,
        patience=h2_from_scv(2.0, 4.0),
        horizon=16.0,
    )


@pytest.fixture(scope="session")
def sine_h2_fluid(sine_h2_spec):
    return solve_fluid(sine_h2_spec)


@pytest.fixture(scope="session")
def sine_h2_gaussian(sine_h2_fluid):
    return propagate(sine_h2_fluid)


@pytest.fixture(scope="session")
def stationary_ol_spec():
    """Constant overload: lambda=1.5, s=1, mu=1, exponential patience 0.5."""
    return ModelSpec(
        arrival_rate=ConstantFn(1.5),
        staffing=ConstantFn(1.0),
        mu=1.0,
        patience=ExponentialPatience(0.5),
        horizon=30.0,
        x0=1.0,
    )


@pytest.fixture(scope="session")
def stationary_ol_fluid(stationary_ol_spec):
    return solve_fluid(stationary_ol_spec)


@pytest.fixture(scope="session")
def stationary_ol_gaussian(stationary_ol_fluid):
    return propagate(stationary_ol_fluid)
