"""One fresh interpreter of the benchmark: set-up, then optionally the workload.

Usage (from the repository root, with `src` on PYTHONPATH):

    python3 bench/child.py setup   <workdir> <workload> <seed>
    python3 bench/child.py run     <workdir> <workload> <seed>
    python3 bench/child.py trace   <workdir> <workload> <seed>
    python3 bench/child.py path    <workdir> <workload> <seed>

`setup` times the set-up every CLI call pays: importing tvqueue and its
CLI, then loading and validating the workload's configs.  `run` does the
same and then times the workload's CLI calls.  Both are timed with the
speed probe interleaved (speed.py): `setup_s` and `wall_s` are seconds
at reference speed, `setup_raw_s` and `wall_raw_s` the wall time less
the probes.  `trace` runs the CLI calls with every layer's public
functions wrapped (see spans.py), times them by the wall clock alone and
writes the spans.  `path` runs one replication of the `staffed_2000` config and
dumps the path for the exactness checks.  The last line of stdout is a
JSON object.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from speed import Paced


def _configs(workdir):
    """[(label, argv)] and config paths the runner wrote to workdir.

    Read from JSON, not from workloads.py, which imports numpy: nothing
    the program imports may be loaded before its set-up is timed.
    """
    with open(Path(workdir) / "ops.json", encoding="utf-8") as fh:
        ops = json.load(fh)
    return ops, [Path(workdir) / "configs" / f"{label}.json" for label, _ in ops]


def _setup(paths):
    import tvqueue  # noqa: F401
    from tvqueue import cli  # noqa: F401
    from tvqueue.model import load_spec, validate
    for p in paths:
        report = validate(load_spec(p))
        if not report.ok:
            raise SystemExit(f"invalid benchmark config {p}: {report}")


def _cli_calls(workdir, ops, paths, main, paced):
    """Run the CLI calls; returns (exit codes, wall seconds, paced seconds).

    The wall seconds leave out the probes; the paced seconds are the same
    time at reference speed (speed.py), or None without `paced`.
    """
    codes, wall, at_ref = [], 0.0, 0.0
    for (label, argv), cfg in zip(ops, paths):
        out = Path(workdir) / "out" / label
        full = list(argv) + ["--config", str(cfg), "--out", str(out)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            if paced:
                with Paced() as p:
                    code = main(full)
                wall += p.raw_seconds
                at_ref += p.seconds
            else:
                t = time.perf_counter()
                code = main(full)
                wall += time.perf_counter() - t
        codes.append(code)
    return codes, wall, at_ref if paced else None


def main():
    mode, workdir, workload, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
    ops, paths = _configs(workdir)
    with Paced() as p:
        _setup(paths)
    result = {"setup_s": p.seconds, "setup_raw_s": p.raw_seconds}
    if mode == "run":
        from tvqueue.cli import main as cli_main
        result["codes"], result["wall_raw_s"], result["wall_s"] = _cli_calls(
            workdir, ops, paths, cli_main, True)
    elif mode == "trace":
        from spans import Tracer
        from tvqueue.cli import main as cli_main
        tracer = Tracer(workload)
        tracer.install()
        result["codes"], result["wall_s"], _ = _cli_calls(
            workdir, ops, paths, tracer.wrap_entry(cli_main), False)
        tracer.uninstall()
        tracer.write(Path(workdir) / "spans.json")
        result["layers"] = tracer.layer_metrics()
    elif mode == "path":
        from tvqueue.model import load_spec
        from tvqueue.sim import SimConfig, run_replication
        from workloads import STAFFED_N
        p = run_replication(SimConfig(load_spec(paths[0]), n=STAFFED_N, reps=1), seed)
        result["path"] = {k: [float(x) for x in getattr(p, k)]
                          for k in ("t", "X", "Q", "B", "s", "N", "D", "A", "forced")}
        result["path"]["x0"] = int(p.x0)
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
