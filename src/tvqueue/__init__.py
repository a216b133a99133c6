"""Fluid and Gaussian performance approximations for many-server queues
with time-varying arrival rate and staffing, plus an exact discrete-event
simulator for validation.  The package exports no names: each is
imported from its module, as `from tvqueue.fluid import solve_fluid`."""

__version__ = "0.1.0"
