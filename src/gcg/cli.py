"""Command-line experiment runner.

Two subcommands: ``run`` solves a registered problem instance and writes
the iteration history (CSV), the final control (text field dump), and a
diagnostics report; ``list`` prints the problem registry, which maps each
name to its instance module; ``run`` passes the sizes that module states
(SIZES), so ``--nt`` is unused on an elliptic problem.  All output is
deterministic at a fixed BLAS thread count: rerunning the same
configuration reproduces byte-identical files.  The sine-basis products
sum in a thread-dependent order, so pin the count, for example with
OPENBLAS_NUM_THREADS=1 as CI does, to compare runs byte for byte.

Exit codes: 0 on a completed solve, 1 on usage errors and on running out
of memory, 2 on numerical failures, 3 on I/O failures.

A run whose estimated peak, 8 bytes x its instance module's RUN_ARRAYS x
the nodes of its grid (times nt in space-time), exceeds MAX_RUN_BYTES is
refused as a usage error before any array is built, and so is a grid
whose control.txt header would be ambiguous.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

from . import diagnostics as diag
from . import elliptic, parabolic
from .core import OracleError, SolverConfig, SolveStatus, gcg_solve
from .pde import ResidualCheckError, field_header, write_field


# The largest estimated peak, in bytes, of a run that gcg starts.
MAX_RUN_BYTES = 4 * 2**30


# name -> instance module, which states EXAMPLES (name -> description) and
# SIZES; make_example is looked up in the module at call time
_REGISTRY = {
    name: module for module in (elliptic, parabolic) for name in module.EXAMPLES
}


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one solver invocation.

    The fields are the settings-file keys, with ``tol`` in the file for
    ``gap_tol``.  A setting that neither the file nor a flag gives takes
    the default here, which for the solver settings is SolverConfig's, and
    a size setting the default in the problem's module; a size the problem
    does not take stays as given and is unused.
    """

    problem: str
    n: int | None = None
    nt: int | None = None
    gap_tol: float = SolverConfig.gap_tol
    max_iter: int = SolverConfig.max_iter
    alpha: float = SolverConfig.alpha
    gamma: float = SolverConfig.gamma
    out_dir: str = "."
    track_errors: bool = False
    diagnostics: bool = True


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gcg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve a registered problem instance")
    run_p.add_argument("--problem", required=True, help="registry name (see: gcg list)")
    run_p.add_argument("--n", type=int, default=None, help="spatial nodes per direction")
    run_p.add_argument("--nt", type=int, default=None, help="time steps (parabolic only)")
    run_p.add_argument("--tol", dest="gap_tol", type=float, default=None, help="gap tolerance")
    run_p.add_argument("--max-iter", type=int, default=None, help="iteration cap")
    run_p.add_argument("--alpha", type=float, default=None, help="descent fraction")
    run_p.add_argument("--gamma", type=float, default=None, help="backtracking ratio")
    run_p.add_argument("--config", default=None, help="key=value settings file")
    run_p.add_argument("--out-dir", default=None, help="output directory")
    run_p.add_argument(
        "--track-errors",
        action="store_true",
        default=None,
        help=(
            "solve twice and record each iterate's distance to the final "
            "iterate of the first, identical solve (0 on the last row)"
        ),
    )
    run_p.add_argument(
        "--no-diagnostics",
        dest="diagnostics",
        action="store_false",
        default=None,
        help="skip the diagnostics report",
    )

    sub.add_parser("list", help="list the problem registry")
    return parser


_BOOL_WORDS = {
    "true": True,
    "false": False,
    "yes": True,
    "no": False,
    "1": True,
    "0": False,
}

_FILE_KEYS = {"gap_tol": "tol"}  # RunConfig field -> settings-file key


def _value_type(hint) -> type:
    """The type a setting's text converts to; ``int | None`` reads as int."""
    return next((t for t in get_args(hint) if t is not type(None)), hint)


_HINTS = get_type_hints(RunConfig)
# settings-file key -> (RunConfig field, value type)
_SETTINGS = {
    _FILE_KEYS.get(f.name, f.name): (f.name, _value_type(_HINTS[f.name]))
    for f in fields(RunConfig)
}


def load_config_file(path) -> dict:
    """Parse a flat key=value settings file into RunConfig field values.

    '#' starts a comment.  The file must be UTF-8 text; a leading
    byte-order mark, as some editors write, is skipped.
    """
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SETTINGS:
            raise UsageError(f"{path}:{lineno}: unknown setting {key!r}")
        name, value_type = _SETTINGS[key]
        try:
            if value_type is bool:
                settings[name] = _BOOL_WORDS[value.lower()]
            else:
                settings[name] = value_type(value)
        except (KeyError, ValueError):
            raise UsageError(f"{path}:{lineno}: bad value {value!r} for {key}") from None
    return settings


def resolve_config(args) -> RunConfig:
    """Merge the config file, then the flags given (flags win), into a RunConfig."""
    settings = {} if args.config is None else load_config_file(args.config)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            settings[f.name] = value
    name = settings.get("problem")
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise UsageError(f"unknown problem {name!r} (known: {known})")
    return RunConfig(**{**_REGISTRY[name].SIZES, **settings})


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _write_history_csv(path: Path, history, errors) -> None:
    lines = ["k,j,gap,step,backtracks,err_u,err_v"]
    for rec in history:
        err_u, err_v = errors.get(rec.k, (None, None))
        lines.append(
            f"{rec.k},{_fmt(rec.j_value)},{_fmt(rec.gap)},{_fmt(rec.step)},"
            f"{rec.backtracks},{_fmt(err_u)},{_fmt(err_v)}"
        )
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _report_text(value) -> str:
    """A report value as diagnostics.txt writes it: floats by repr, None as n/a."""
    if value is None:
        return "n/a"
    return repr(float(value)) if isinstance(value, float) else str(value)


def check_fits(module, grid) -> None:
    """Refuse with ValueError a grid whose run would peak above MAX_RUN_BYTES.

    The estimate is 8 bytes x module.RUN_ARRAYS x grid.n_nodes, from the
    instance module's count and the grid alone, which holds no arrays.
    """
    need = 8 * module.RUN_ARRAYS * grid.n_nodes
    if need > MAX_RUN_BYTES:
        raise ValueError(
            f"a grid of {grid.n_nodes} nodes needs an estimated "
            f"{need / 2**30:.3g} GiB, above the limit of {MAX_RUN_BYTES / 2**30:g} GiB"
        )


def run(config: RunConfig) -> int:
    try:
        solver_config = SolverConfig(
            gap_tol=config.gap_tol,
            max_iter=config.max_iter,
            alpha=config.alpha,
            gamma=config.gamma,
        )
        module = _REGISTRY[config.problem]
        args = (config.problem, *(getattr(config, key) for key in module.SIZES))
        grid = module.example_grid(*args)
        check_fits(module, grid)
        field_header(grid)  # refuse a grid control.txt cannot describe
        prob = module.make_example(*args)
        u0 = prob.zero_control()
    except ValueError as exc:
        print(f"gcg: error: {exc}", file=sys.stderr)
        return 1

    composite = prob.composite()
    errors = {}  # k -> dual-norm distances of u and v to the reference
    try:
        if config.track_errors:
            reference = gcg_solve(composite, u0, solver_config).final_iterate

            def record_errors(record, u, v):
                errors[record.k] = (
                    composite.dual_norm(u.diff(reference)),
                    composite.dual_norm(v.diff(reference)),
                )

            solver_config = replace(solver_config, callback=record_errors)
        result = gcg_solve(composite, u0, solver_config)
        if config.diagnostics:
            report = diag.run_report(prob, result)
    except (OracleError, ResidualCheckError, ValueError) as exc:
        print(f"gcg: numerical failure: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_history_csv(out_dir / "history.csv", result.history, errors)
        write_field(out_dir / "control.txt", result.final_iterate)
        if config.diagnostics:
            text = "".join(f"{k} = {_report_text(v)}\n" for k, v in report.items())
            (out_dir / "diagnostics.txt").write_text(text, newline="\n")
    except OSError as exc:
        print(f"gcg: i/o failure: {exc}", file=sys.stderr)
        return 3

    label = {
        SolveStatus.CONVERGED: "Converged",
        SolveStatus.MAX_ITER_REACHED: "MaxIterReached",
        SolveStatus.LINE_SEARCH_FAILED: "LineSearchFailed",
    }[result.status]
    print(
        f"{label} after {result.iterations} iterations, "
        f"final gap {result.history[-1].gap:.6e}, output in {out_dir}"
    )
    return 2 if result.status is SolveStatus.LINE_SEARCH_FAILED else 0


def list_problems() -> int:
    for name in sorted(_REGISTRY):
        module = _REGISTRY[name]
        print(f"{name:18s} (default n={module.SIZES['n']}) {module.EXAMPLES[name]}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return list_problems()
    try:
        config = resolve_config(args)
    except UsageError as exc:
        print(f"gcg: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"gcg: i/o failure: {exc}", file=sys.stderr)
        return 3
    try:
        return run(config)
    except MemoryError as exc:  # in the build, the solves, the report or the dump
        print(f"gcg: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
