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
    out = Path(args.out).absolute()
    if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
        raise _CliError(EXIT_CONFIG, f"config error: --out {args.out} cannot be a directory")
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


def _write(args, *files):
    """Write each (name, writer, result) of files into the output
    directory, made if missing; an OSError doing so is a config error."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, write, result in files:
            write(result, out / name)
    except OSError as exc:
        raise _CliError(EXIT_CONFIG, f"config error: {exc}")
    print("wrote " + " and ".join(str(out / name) for name, _, _ in files))
    return EXIT_OK


def cmd_fluid(args):
    return _write(args, ("fluid.csv", fluid.write_fluid_csv, _solve_fluid(args)))


def cmd_variance(args):
    gs = gaussian.propagate(_solve_fluid(args))
    return _write(args, ("variance.csv", gaussian.write_gaussian_csv, gs))


def cmd_approx(args):
    rep = approx.report(args.n, gaussian.propagate(_solve_fluid(args)))
    return _write(args, ("approx.csv", approx.write_report_csv, rep))


def cmd_simulate(args):
    spec = _load(args)
    with _run_errors():
        cfg = sim.SimConfig(spec, n=args.n, reps=args.reps, base_seed=args.seed,
                            obs_step=args.obs_step, parallel=args.parallel)
        est = sim.estimate(cfg)
    return _write(args, ("simulate.csv", sim.write_estimate_csv, est))


def cmd_compare(args):
    spec = _load(args)
    with _run_errors():
        result = run_compare(
            spec, n=args.n, reps=args.reps, seed=args.seed,
            grid_step=args.grid_step, obs_step=args.obs_step,
            parallel=args.parallel, tol_mean=args.tol_mean,
            tol_var=args.tol_var, tol_wait=args.tol_wait,
        )
    for line in result.summary_lines():
        print(line)
    _write(args, ("compare.csv", write_compare_csv, result),
           ("summary.txt", write_summary, result))
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


def build_parser(command=None):
    """The parser of the command line.  Given the command, only that
    command's options are added: parsing its line needs no others."""
    parser = argparse.ArgumentParser(
        prog="tvqueue",
        description="Fluid and Gaussian approximations for time-varying "
                    "many-server queues, with an exact simulation oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, run, text, with_scale=False, with_sim=False, with_fluid=True):
        p = sub.add_parser(name, help=text)
        if command not in (None, name):
            return
        p.set_defaults(run=run)
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
        if name == "compare":
            p.add_argument("--tol-mean", type=_positive(float), default=0.05, dest="tol_mean")
            p.add_argument("--tol-var", type=_positive(float), default=1.25, dest="tol_var",
                           help="variance ratio must lie in [1/tol, tol]")
            p.add_argument("--tol-wait", type=_positive(float), default=0.07, dest="tol_wait")

    common("fluid", cmd_fluid, "deterministic fluid solution")
    common("variance", cmd_variance, "Gaussian variance grids")
    common("approx", cmd_approx, "finite-scale performance report", with_scale=True)
    common("simulate", cmd_simulate, "replicated exact simulation", with_scale=True,
           with_sim=True, with_fluid=False)
    common("compare", cmd_compare, "predictions vs simulation with pass/fail error "
           "metrics", with_scale=True, with_sim=True)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.run(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
