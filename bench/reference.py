"""Reference figures: two sets of timed runs, then two traced runs.

    python3 bench/reference.py

Run from the repository root.  Each timed run is `bench/run.py --trace 0`
with its own seed (1, 2, ...); the run length is BENCHMARK.json's
`run_seconds`.  Each set makes ten runs per workload.  For every
end-to-end metric and workload it prints each set's median and
quartiles, the spread (quartile distance over the median), the bound in
BENCHMARK.json, a bound the measured spread would support (three times
the largest spread seen), and whether the sets agree: every spread within
the bound, the two medians apart by no more than the bound (in either
direction), and the same share of failed operations.

Then it makes two traced runs per workload (`--trace 1`, seed 1) and
prints the per-layer metrics of both, and whether every count repeats
exactly.  All raw results go to bench/out/reference.json; the tables
are Markdown, ready for the README.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

RUNS, SETS, FIRST_SEED = 10, 2, 1


def bench_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]), elapsed_s=elapsed)


def quartiles(values):
    return statistics.quantiles(values, n=4)


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def timed_tables(results, spec):
    """Markdown rows comparing the sets, and whether all of them agree."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = ["| workload | metric | " + " | ".join(
        f"set {i + 1} median [q1, q3] | spread {i + 1}" for i in range(len(results)))
        + " | bound | 3x spread | agree |",
        "|" + " --- |" * (5 + 2 * len(results))]
    all_ok = True
    for w in results[0]:
        shares = [sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w])
                  for s in results]
        for name, bound in bounds.items():
            series = [[r["metrics"][name]["value"] for r in s[w]] for s in results]
            unit = results[0][w][0]["metrics"][name]["unit"]
            cells, spreads = [], []
            for vals in series:
                q1, q2, q3 = quartiles(vals)
                spreads.append(spread(vals))
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] {unit} | {spreads[-1]:.3f}")
            first, last = statistics.median(series[0]), statistics.median(series[-1])
            ok = (max(spreads) <= bound and abs(last - first) / first <= bound
                  and len(set(shares)) == 1)
            all_ok &= ok
            rows.append(f"| {w} | {name} | " + " | ".join(cells)
                        + f" | {bound} | {3 * max(spreads):.3f} | {'yes' if ok else 'NO'} |")
    return rows, all_ok


def trace_tables(traced):
    per_layer = [m["name"] for m in bench_spec()["per_layer"]]
    rows = ["| metric | " + " | ".join(f"{w} (run 1 / run 2)" for w in traced) + " |",
            "|" + " --- |" * (1 + len(traced))]
    repeat = True
    for name in per_layer:
        cells = []
        for w, (a, b) in traced.items():
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if a["metrics"][name]["unit"] == "count":
                repeat &= va == vb
                cells.append(f"{va:.0f} / {vb:.0f}")
            else:
                cells.append(f"{va:.4g} / {vb:.4g}")
        rows.append(f"| {name} | " + " | ".join(cells) + " |")
    return rows, repeat


def main():
    spec = bench_spec()
    seconds = spec["run_seconds"]
    results, seed = [], FIRST_SEED
    for s in range(SETS):
        results.append({})
        for w in WORKLOADS:
            results[-1][w] = []
            for _ in range(RUNS):
                results[-1][w].append(one_run(w, seed, seconds, 0))
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in results[-1][w][-1]["metrics"].items()),
                    file=sys.stderr, flush=True)
                seed += 1
    rows, ok = timed_tables(results, spec)
    print(f"run_seconds {seconds}, {RUNS} runs per set, seeds {FIRST_SEED}..{seed - 1}\n")
    print("\n".join(rows))
    print(f"\nsets agree within the bounds: {'yes' if ok else 'NO'}")
    for w in WORKLOADS:
        took = [r["elapsed_s"] for s in results for r in s[w]]
        print(f"{w}: one run took {statistics.median(took):.1f} s (median), "
              f"{max(took):.1f} s (max)")

    traced = {w: [one_run(w, FIRST_SEED, seconds, 1) for _ in range(2)] for w in WORKLOADS}
    rows, repeat = trace_tables(traced)
    print(f"\ntraced runs, seed {FIRST_SEED}\n")
    print("\n".join(rows))
    print(f"\ncounts repeat exactly: {'yes' if repeat else 'NO'}")
    for w, runs in traced.items():
        print(f"{w}: one traced run took " + ", ".join(f"{r['elapsed_s']:.1f}" for r in runs)
              + " s")

    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"run_seconds": seconds, "timed": results, "traced": traced}, fh)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
