"""Benchmark of `gcg run` on two workloads, each bound by another layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/gcg` and `BENCHMARK.json`.
Every `gcg run` executes in a fresh process (bench/child.py) with BLAS
pinned to one thread.  The outputs of every run are checked against
recomputations made apart from `gcg` (bench/checks.py); a run that exits
non-zero or fails a check counts as a failed operation.  ex1-n64 is bound by
the line search and per-iteration overhead, heat-2d by sparse step solves.

--trace 0: on one core, a warm-up set-up, SETUP_SAMPLES timed set-ups, then
whole runs until S seconds have passed (at least one).  A fixed reference
kernel (bench/reference.py) is timed around every run, and each time is
reported in reference seconds: wall seconds over the kernel's time around
it.  Prints the end-to-end metrics.
--trace 1: pairs of one traced and one untraced run, started together, until
S seconds have passed (at least one pair).  Prints the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; it is printed whenever the runs were made.  A
metric no run could measure, or a count that differs between runs, reads
null.  The exit code is 1 if an operation failed or a check did not hold.
No workload draws random inputs, so the seed is accepted but changes nothing.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 4
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170

WORKLOADS = {
    "ex1-n64": {
        "args": ["--problem", "stadler-ex1", "--n", "64", "--tol", "1e-9"],
        "problem": "stadler-ex1",
        "tol": 1e-9,
    },
    "heat-2d": {
        "args": ["--problem", "parabolic-ex", "--n", "32", "--nt", "500"],
        "problem": "parabolic-ex",
        "tol": 1e-10,  # the `gcg run` default
    },
}
OUTPUT_FILES = ("history.csv", "control.txt", "diagnostics.txt")
TIMES = ("setup_s", "solve_s", "run_s")


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(root / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_children(root: Path, jobs: list[tuple[str, str, Path]]) -> list[dict | None]:
    """Start one child per (mode, workload, out_dir) together; wait for all.

    Returns each child's result, or None when it failed to produce one.
    """
    procs = []
    try:
        for mode, workload, out_dir in jobs:
            if out_dir.exists():
                shutil.rmtree(out_dir)
            out_dir.mkdir(parents=True)
            cmd = [
                sys.executable,
                str(HERE / "child.py"),
                mode,
                str(out_dir / "result.json"),
                *WORKLOADS[workload]["args"],
                "--out-dir",
                str(out_dir),
            ]
            procs.append(
                subprocess.Popen(
                    cmd, cwd=root, env=child_env(root), stdout=subprocess.DEVNULL
                )
            )
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        for proc in procs:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("bench: a gcg run exceeded its time limit", file=sys.stderr)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    results = []
    for proc, (_, _, out_dir) in zip(procs, jobs):
        result = None
        if proc.returncode == 0:
            result = json.loads((out_dir / "result.json").read_text())
            if result["exit_code"] != 0:
                print(f"bench: gcg run exited {result['exit_code']}", file=sys.stderr)
                result = None
        else:
            print(f"bench: child exited {proc.returncode}", file=sys.stderr)
        results.append(result)
    return results


def check_outputs(workload: str, out_dir: Path) -> list[str]:
    problem, tol = WORKLOADS[workload]["problem"], WORKLOADS[workload]["tol"]
    try:
        if problem == "parabolic-ex":
            return checks.check_parabolic(out_dir, tol)
        return checks.check_elliptic(problem, out_dir, tol)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"outputs unreadable: {exc!r}"]


def iterations(out_dir: Path) -> int:
    return int(checks.read_diagnostics(out_dir / "diagnostics.txt")["iterations"])


class Tally:
    """Operations attempted and failed, and whether every check passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, result, fails: list[str]) -> bool:
        self.attempted += 1
        for msg in fails:
            self.reject(f"check failed: {msg}")
        ok = result is not None and not fails
        self.failed += not ok
        return ok

    def reject(self, msg: str) -> None:
        print(f"bench: {msg}", file=sys.stderr)
        self.correct = False


def median_or_none(values):
    values = list(values)
    return statistics.median(values) if values else None


def same_or_none(values, name: str, tally: Tally):
    """The one value every run gave for a count, else None."""
    values = list(values)
    if len(set(values)) == 1:
        return values[0]
    if values:
        tally.reject(f"count {name} differs between runs: {values}")
    return None


def pin_to_one_core() -> None:
    """Keep this process, its children and the reference kernel on one core,
    so that the kernel times the core the runs ran on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure_end_to_end(root, workload, seconds, base, tally) -> dict[str, float]:
    """End-to-end figures in reference seconds (see bench/reference.py).

    The reference kernel is timed before and after the block of set-up
    samples and after every run; each time is scaled by 1 s over the mean of
    the two kernel times around it.
    """
    pin_to_one_core()
    ref = reference.Reference()
    before = ref.seconds()
    raw_setup = []
    for _ in range(SETUP_SAMPLES):
        (result,) = run_children(root, [("setup", workload, base / "setup")])
        if result is not None:
            raw_setup.append(result["setup_s"])
    after = ref.seconds()
    setup = [s * 2.0 / (before + after) for s in raw_setup]
    kernel = [before, after]
    runs, raw, counts = [], [], []
    start = time.perf_counter()
    while not tally.attempted or time.perf_counter() - start < seconds:
        before = after
        out_dir = base / "run"
        (result,) = run_children(root, [("run", workload, out_dir)])
        after = ref.seconds()
        kernel.append(after)
        fails = check_outputs(workload, out_dir) if result is not None else []
        if tally.record(result, fails):
            scale = 2.0 / (before + after)
            raw.append(result)
            runs.append({name: result[name] * scale for name in TIMES})
            setup.append(result["setup_s"] * scale)
            counts.append(iterations(out_dir))
    print(
        "bench: wall-clock medians: "
        + ", ".join(f"{name} {median_or_none(r[name] for r in raw)}" for name in TIMES)
        + f"; reference kernel {statistics.median(kernel)} s",
        file=sys.stderr,
    )
    return {
        "setup_s": median_or_none(setup),
        "solve_s": median_or_none(r["solve_s"] for r in runs),
        "run_s": median_or_none(r["run_s"] for r in runs),
        "iterations": same_or_none(counts, "iterations", tally),
        "peak_rss_mb": median_or_none(r["peak_rss_mb"] for r in raw),
    }


def measure_layers(root, workload, seconds, base, tally) -> dict[str, float]:
    """Per-layer figures; empty when no pair of runs passed."""
    rounds = []
    start = time.perf_counter()
    while not tally.attempted or time.perf_counter() - start < seconds:
        traced_dir, plain_dir = base / "traced", base / "untraced"
        traced, plain = run_children(
            root, [("trace", workload, traced_dir), ("run", workload, plain_dir)]
        )
        fails = check_outputs(workload, traced_dir) if traced is not None else []
        if traced is not None and plain is not None:
            for name in ("history.csv", "control.txt"):
                if not filecmp.cmp(traced_dir / name, plain_dir / name, shallow=False):
                    fails.append(f"traced {name} differs from the untraced run's")
        traced_ok = tally.record(traced, fails)
        plain_fails = check_outputs(workload, plain_dir) if plain is not None else []
        plain_ok = tally.record(plain, plain_fails)
        if traced_ok and plain_ok:
            layers = dict(traced["layers"])
            layers["cli.output_bytes"] = sum(
                (traced_dir / name).stat().st_size for name in OUTPUT_FILES
            )
            layers["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
            rounds.append(layers)

    out = {}
    for name, first in (rounds[0] if rounds else {}).items():
        values = [r[name] for r in rounds]
        if isinstance(first, int):
            out[name] = same_or_none(values, name, tally)
        else:
            out[name] = median_or_none(values)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gcg" / "cli.py").is_file():
        print(f"bench: no gcg source under {root / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }

    base = root / ".bench_out" / args.workload
    run_children(root, [("setup", args.workload, base / "setup")])  # warm caches
    tally = Tally()
    measure = measure_layers if args.trace else measure_end_to_end
    values = measure(root, args.workload, args.seconds, base, tally)
    if values and set(values) != set(units):
        print(
            f"bench: measured {sorted(set(values) ^ set(units))} "
            "does not match BENCHMARK.json",
            file=sys.stderr,
        )
        return 2

    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": values.get(name), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if tally.correct and not tally.failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
