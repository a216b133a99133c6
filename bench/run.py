"""Benchmark of the tvqueue CLI paths `compare`, `approx` and `simulate`.

    python3 bench/run.py --workload desk_sine --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from `src/`; the
benchmark never changes it.  Every interpreter the benchmark starts gets
one BLAS/OpenMP thread, so an idle thread pool does not take CPU from the
single-threaded program on a small machine.

`--trace 0` measures the end-to-end metrics.  It repeats rounds until
`--seconds` have passed (at least one round).  A round starts a fresh
interpreter that only sets up, then one that sets up and runs the
workload's CLI calls.  It reports the median over rounds of:

  setup_s      import tvqueue + CLI, load and validate the configs
               (every set-up sample of the run, two per round)
  wall_s       the workload's CLI calls, from entry to the last file written
  peak_rss_mb  peak resident memory of the process that ran the workload

Both times are seconds at reference speed: the wall time, less an
interleaved probe's own time, scaled by how fast the probe ran meanwhile
(speed.py), so that the machine's slow and fast phases cancel out.

`--trace 1` gives the per-layer metrics (see spans.py): one import-time
profile, one untraced run and one traced run of the workload.

Every CLI call is one operation.  It fails when it exits nonzero or when
a check on its output (checks.py) fails.  The last line of stdout is the
JSON result; problems go to stderr.  If no round completes, the result
has `"correct": false`, no metrics, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402

CHILD_TIMEOUT_S = 150


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(mode, workdir, workload, seed):
    """Run child.py in a fresh interpreter; returns its JSON result."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(workdir), workload, str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_configs(workdir, ops):
    """The configs, and the CLI calls on them (ops.json) for child.py."""
    (workdir / "configs").mkdir(parents=True, exist_ok=True)
    for label, cfg, _ in ops:
        with open(workdir / "configs" / f"{label}.json", "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    with open(workdir / "ops.json", "w", encoding="utf-8") as fh:
        json.dump([[label, argv] for label, _, argv in ops], fh)


def check_round(workdir, workload, seed, ops, codes, with_path):
    """Number of failed operations in one round; reasons go to stderr.

    With `with_path` (once per run), `staffed_2000` also checks one more
    replication of its config, which counts against the `simulate` call.
    """
    failed = 0
    for (label, _, _), code in zip(ops, codes):
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            problems = checks.check_output(workload, label, workdir / "out" / label)
        if with_path and code == 0 and workload == "staffed_2000":
            try:
                problems += checks.check_path(run_child("path", workdir, workload, seed)["path"])
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                problems.append(str(exc))
        if problems:
            failed += 1
            for p in problems:
                print(f"{workload}/{label}: {p}", file=sys.stderr)
    return failed


def timed_run(workdir, workload, seed, seconds, ops):
    setup, wall, rss = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        try:
            r = run_child("setup", workdir, workload, seed)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
        else:
            setup.append(r["setup_s"])
        attempted += len(ops)
        shutil.rmtree(workdir / "out", ignore_errors=True)
        try:
            r = run_child("run", workdir, workload, seed)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            failed += len(ops)
        else:
            setup.append(r["setup_s"])
            wall.append(r["wall_s"])
            rss.append(r["peak_rss_mb"])
            failed += check_round(workdir, workload, seed, ops, r["codes"],
                                  with_path=len(wall) == 1)
        if time.monotonic() - start >= seconds:
            break
    metrics = {}
    if wall:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(wall), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    return attempted, failed, metrics


def traced_run(workdir, workload, seed, ops):
    attempted, failed = 2 * len(ops), 0
    plain = traced = None
    for mode in ("run", "trace"):
        shutil.rmtree(workdir / "out", ignore_errors=True)
        try:
            r = run_child(mode, workdir, workload, seed)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            failed += len(ops)
            continue
        failed += check_round(workdir, workload, seed, ops, r["codes"],
                              with_path=mode == "run")
        if mode == "run":
            plain = r
        else:
            traced = r
    if traced is None or plain is None:
        return attempted, failed, {}
    try:
        metrics = dict(spans.import_metrics(run_importtime()))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"{workload}: {exc}", file=sys.stderr)
        return attempted, failed, {}
    metrics.update(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_raw_s"]
    shutil.copyfile(workdir / "spans.json", HERE / "out" / f"spans-{workload}-seed{seed}.json")
    return attempted, failed, {name: {"value": metrics[name], "unit": unit}
                               for name, unit in spans.per_layer_units().items()}


def run_importtime():
    """stderr of `python -X importtime -c "import tvqueue.cli"`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tvqueue.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import profile failed:\n{proc.stderr[-2000:]}")
    return proc.stderr


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tvqueue" / "__init__.py").is_file():
        print(f"error: no tvqueue sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ops = operations(args.workload, args.seed)
    workdir = HERE / "out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    write_configs(workdir, ops)
    try:
        if args.trace:
            attempted, failed, metrics = traced_run(workdir, args.workload, args.seed, ops)
        else:
            attempted, failed, metrics = timed_run(workdir, args.workload, args.seed,
                                                   args.seconds, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not metrics:
        print("error: no run completed", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
