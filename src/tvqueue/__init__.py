"""Fluid and Gaussian performance approximations for many-server queues
with time-varying arrival rate and staffing, plus an exact discrete-event
simulator for validation."""

from .approx import PerformanceReport, report, truncated_moments
from .compare import CompareResult, compare
from .fluid import (
    FluidInterval,
    FluidSolution,
    StaffingInfeasibleError,
    CriticalLoadingError,
    BoundaryDensityError,
    solve_fluid,
)
from .functions import ConstantFn, LinearFn, PiecewisePolyFn, SinusoidFn, SmoothFn
from .gaussian import GaussianSolution, propagate
from .model import ModelSpec, ValidationReport, load_spec, spec_from_dict, validate
from .patience import (
    ExponentialPatience,
    H2Patience,
    PatienceDist,
    TabulatedPatience,
    h2_from_scv,
)
from .sim import SimConfig, SimEstimate, SimPath, estimate, run_replication

__version__ = "0.1.0"
