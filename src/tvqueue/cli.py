"""Command-line front end.

Subcommands: fluid, variance, approx, simulate, compare.  Each reads a
JSON model config, runs the corresponding pipeline and writes CSV output
to the chosen directory.  Exit codes: 0 ok, 2 config error, 3 invalid
model, 4 infeasible staffing, 5 acceptance failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import approx, fluid, gaussian, sim
from .compare import compare as run_compare
from .compare import write_compare_csv, write_summary
from .model import load_spec, validate

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVALID = 3
EXIT_INFEASIBLE = 4
EXIT_ACCEPTANCE = 5


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _load(args):
    try:
        spec = load_spec(args.config)
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise _CliError(EXIT_CONFIG, f"config error: {exc}")
    report = validate(spec)
    if not report.ok:
        raise _CliError(EXIT_INVALID, f"invalid model: {report}")
    return spec


@contextmanager
def _run_errors():
    """Map the solvers' failures to their exit codes; a ValueError (a grid
    step the fluid solver rejects, a c_lambda or var_x0 the simulator
    does not model, no point for compare to compare) is a config error,
    an arrival rate above the simulator's thinning bound an invalid
    model."""
    try:
        yield
    except ValueError as exc:
        raise _CliError(EXIT_CONFIG, str(exc))
    except fluid.StaffingInfeasibleError as exc:
        raise _CliError(EXIT_INFEASIBLE, str(exc))
    except (fluid.CriticalLoadingError, fluid.BoundaryDensityError,
            sim.EnvelopeError) as exc:
        raise _CliError(EXIT_INVALID, str(exc))


def _solve_fluid(args):
    """Load the config and solve its fluid model."""
    spec = _load(args)
    with _run_errors():
        return fluid.solve_fluid(spec, args.grid_step)


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_fluid(args):
    sol = _solve_fluid(args)
    path = _outdir(args) / "fluid.csv"
    fluid.write_fluid_csv(sol, path)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_variance(args):
    sol = _solve_fluid(args)
    gs = gaussian.propagate(sol)
    path = _outdir(args) / "variance.csv"
    gaussian.write_gaussian_csv(gs, path)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_approx(args):
    sol = _solve_fluid(args)
    gs = gaussian.propagate(sol)
    rep = approx.report(args.n, gs)
    path = _outdir(args) / "approx.csv"
    approx.write_report_csv(rep, path)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_simulate(args):
    spec = _load(args)
    with _run_errors():
        cfg = sim.SimConfig(spec, n=args.n, reps=args.reps, base_seed=args.seed,
                            obs_step=args.obs_step, parallel=args.parallel)
        est = sim.estimate(cfg)
    path = _outdir(args) / "simulate.csv"
    sim.write_estimate_csv(est, path)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_compare(args):
    spec = _load(args)
    with _run_errors():
        result = run_compare(
            spec, n=args.n, reps=args.reps, seed=args.seed,
            grid_step=args.grid_step, obs_step=args.obs_step,
            parallel=args.parallel, tol_mean=args.tol_mean,
            tol_var=args.tol_var, tol_wait=args.tol_wait,
        )
    out = _outdir(args)
    write_compare_csv(result, out / "compare.csv")
    write_summary(result, out / "summary.txt")
    for line in result.summary_lines():
        print(line)
    print(f"wrote {out / 'compare.csv'} and {out / 'summary.txt'}")
    return EXIT_OK if result.ok else EXIT_ACCEPTANCE


def _positive(kind):
    """argparse type: a finite number of the given kind that is > 0."""
    def parse(text):
        value = kind(text)
        if not 0 < value < float("inf"):      # also rejects nan
            raise argparse.ArgumentTypeError(f"must be positive and finite: {text!r}")
        return value
    parse.__name__ = kind.__name__     # argparse names the type in its errors
    return parse


def _nonnegative_int(text):
    """argparse type: an integer that is >= 0 (a seed)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {text!r}")
    return value


_nonnegative_int.__name__ = "int"      # argparse names the type in its errors


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tvqueue",
        description="Fluid and Gaussian approximations for time-varying "
                    "many-server queues, with an exact simulation oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_scale=False, with_sim=False, with_fluid=True):
        p.add_argument("--config", required=True, help="JSON model config")
        p.add_argument("--out", default=".", help="output directory")
        if with_fluid:
            p.add_argument("--grid-step", type=_positive(float), default=1e-3,
                           dest="grid_step")
        if with_scale:
            p.add_argument("--n", type=_positive(int), required=True, help="system scale")
        if with_sim:
            p.add_argument("--reps", type=_positive(int), default=100)
            p.add_argument("--seed", type=_nonnegative_int, default=0)
            p.add_argument("--obs-step", type=_positive(float), default=0.05,
                           dest="obs_step")
            p.add_argument("--parallel", type=_positive(int), default=1)

    common(sub.add_parser("fluid", help="deterministic fluid solution"))
    common(sub.add_parser("variance", help="Gaussian variance grids"))
    common(sub.add_parser("approx", help="finite-scale performance report"),
           with_scale=True)
    common(sub.add_parser("simulate", help="replicated exact simulation"),
           with_scale=True, with_sim=True, with_fluid=False)
    p = sub.add_parser("compare", help="predictions vs simulation with "
                                       "pass/fail error metrics")
    common(p, with_scale=True, with_sim=True)
    p.add_argument("--tol-mean", type=_positive(float), default=0.05, dest="tol_mean")
    p.add_argument("--tol-var", type=_positive(float), default=1.25, dest="tol_var",
                   help="variance ratio must lie in [1/tol, tol]")
    p.add_argument("--tol-wait", type=_positive(float), default=0.07, dest="tol_wait")
    return parser


_COMMANDS = {
    "fluid": cmd_fluid,
    "variance": cmd_variance,
    "approx": cmd_approx,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
