"""Run one `gcg run` in this process and write its timings as JSON.

    python3 bench/child.py MODE RESULT_JSON [gcg run arguments...]

MODE is one of
  run    the plain run; only the single `gcg_solve` call is timed
  setup  import `gcg` and build the instance, then stop as the solver starts
  trace  the run with every layer wrapped by bench/spans.py; the spans go to
         trace.csv in the run's output directory.  The wrappers' own cost is
         calibrated after the run ends, outside every timed interval.

Times are measured from the start of this script, before `gcg` is imported.
"""

import json
import resource
import sys
import time

T0 = time.perf_counter()


class _StopAtSolve(BaseException):
    """Raised at solver entry in setup mode; a BaseException so that no
    handler in the program mistakes it for one of its own errors."""


def main() -> int:
    mode, result_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import gcg.cli
    import gcg.core

    from spans import Tracer, calibrate, install, layer_metrics, patch_everywhere

    marks = {}
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        install(tracer)
    solve = gcg.core.gcg_solve if tracer is None else gcg.cli.gcg_solve

    def timed_solve(*args, **kwargs):
        marks["solve_start"] = time.perf_counter()
        if mode == "setup":
            raise _StopAtSolve
        try:
            return solve(*args, **kwargs)
        finally:
            marks["solve_end"] = time.perf_counter()

    patch_everywhere(solve, timed_solve)
    entry = gcg.cli.main if tracer is None else tracer.wrap("cli.main", gcg.cli.main)
    try:
        code = entry(["run", *argv])
    except _StopAtSolve:
        code = 0
    end = time.perf_counter()

    result = {
        "exit_code": code,
        "setup_s": marks["solve_start"] - T0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if mode != "setup":
        result["solve_s"] = marks["solve_end"] - marks["solve_start"]
        result["run_s"] = end - T0
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, calibrate())
        out_dir = argv[argv.index("--out-dir") + 1]
        tracer.write_csv(f"{out_dir}/trace.csv")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
