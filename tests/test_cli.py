"""Tests for the command-line runner: parsing, outputs, exit codes."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gcg
from gcg import cli, diagnostics, elliptic, parabolic, pde
from gcg.cli import RunConfig, build_parser, load_config_file, main, resolve_config
from gcg.core import SolverConfig, gcg_solve

FAST = [
    "run",
    "--problem",
    "parabolic-ex-1d",
    "--n",
    "8",
    "--nt",
    "12",
    "--max-iter",
    "40",
]


def run_cli(argv):
    return main([str(a) for a in argv])


def test_list_names_every_problem(capsys):
    assert run_cli(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("parabolic-ex", "parabolic-ex-1d", "stadler-ex1", "stadler-ex3"):
        assert name in out
    lines = [line.split()[0] for line in out.strip().splitlines()]
    assert lines == sorted(lines)
    assert "default n=64" in out and "default n=32" in out


ELLIPTIC_FAST = ["run", "--problem", "stadler-ex1", "--n", "8", "--max-iter", "40"]


@pytest.mark.parametrize(
    "argv, structure_keys, build",
    [
        (
            FAST,
            ("time_sparsity_fraction = ", "control_norm_max = ", "adjoint_norm_max = "),
            lambda: parabolic.make_example("parabolic-ex-1d", 8, 12),
        ),
        (
            ELLIPTIC_FAST,
            ("three_value_fraction = ", "case_match_fraction = "),
            lambda: elliptic.make_example("stadler-ex1", 8),
        ),
    ],
    ids=["parabolic-ex-1d", "stadler-ex1"],
)
def test_run_writes_all_outputs(tmp_path, capsys, argv, structure_keys, build):
    code = run_cli(argv + ["--out-dir", tmp_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "iterations" in out and "final gap" in out
    assert (tmp_path / "history.csv").is_file()
    assert (tmp_path / "control.txt").is_file()
    assert (tmp_path / "diagnostics.txt").is_file()

    report = (tmp_path / "diagnostics.txt").read_text()
    for key in (
        "status = ",
        "iterations = ",
        "j_final = ",
        "gap_final = ",
        "L_est = ",
        "q_env = ",
        *structure_keys,
    ):
        assert key in report
    values = dict(line.split(" = ", 1) for line in report.splitlines())
    # the file is the run report of the same solve, in order, floats by repr
    prob = build()
    result = gcg_solve(prob.composite(), prob.zero_control(), SolverConfig(max_iter=40))
    expected = diagnostics.run_report(prob, result)
    assert list(values) == list(expected)
    floats = {k: v for k, v in expected.items() if isinstance(v, float)}
    assert "L_est" in floats and all(values[k] == repr(v) for k, v in floats.items())


@pytest.mark.parametrize(
    "argv",
    [
        ["--problem", "stadler-ex1", "--n", "4"],
        ["--problem", "parabolic-ex-1d", "--n", "4", "--nt", "8"],
    ],
    ids=["stadler-ex1", "parabolic-ex-1d"],
)
def test_no_kept_growth_bin_is_not_vacuous(tmp_path, capsys, argv):
    # all 18 sampled level-set measures are nonzero but the bin filter keeps
    # none; only all-zero measures make the growth assumption vacuous
    assert run_cli(["run", *argv, "--out-dir", tmp_path]) == 0
    capsys.readouterr()
    text = (tmp_path / "diagnostics.txt").read_text()
    assert "kappa_hat = n/a (no bin kept of 18 nonzero measures)\n" in text
    assert "kappa_fit_bins = 0\n" in text


def test_history_csv_parses_back(tmp_path, capsys):
    run_cli(FAST + ["--out-dir", tmp_path])
    stdout = capsys.readouterr().out
    iterations = int(stdout.split(" after ")[1].split(" ")[0])
    lines = (tmp_path / "history.csv").read_text().strip().splitlines()
    assert lines[0] == "k,j,gap,step,backtracks,err_u,err_v"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == iterations + 1
    ks = [int(row[0]) for row in rows]
    assert ks == list(range(len(rows)))
    js = np.array([float(row[1]) for row in rows])
    assert np.all(np.diff(js) <= 0.0)
    # the terminal record carries no step and no errors by default
    assert float(rows[-1][3]) == 0.0
    assert rows[-1][5] == "" and rows[-1][6] == ""


@pytest.mark.parametrize(
    "problem, gamma",
    [("stadler-ex1", "1e-8"), ("stadler-ex1", "1e-12"), ("stadler-ex3", "1e-7")],
)
def test_small_gamma_keeps_stepping(tmp_path, capsys, problem, gamma):
    # gamma**2 * gap lies below the rounding of j(u), where the computed
    # test is no longer monotone; the line search must still take the
    # steps that pass above it rather than fail
    argv = ["run", "--problem", problem, "--n", "8", "--gamma", gamma]
    assert run_cli(argv + ["--max-iter", "50", "--out-dir", tmp_path]) == 0
    assert "MaxIterReached after 50 iterations" in capsys.readouterr().out
    rows = (tmp_path / "history.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 51
    assert all(float(row.split(",")[3]) > 0.0 for row in rows[:-1])


def test_gamma_near_one_runs_without_a_backtrack_budget(tmp_path, capsys):
    # gamma**5000 is about 0.9995, so a fixed budget of 5000 backtracks
    # failed the first search; only the underflow stop ends a search now
    argv = ["run", "--problem", "stadler-ex1", "--n", "8", "--gamma", "0.9999999"]
    assert run_cli(argv + ["--out-dir", tmp_path]) == 0
    assert "MaxIterReached after 1000 iterations" in capsys.readouterr().out
    rows = (tmp_path / "history.csv").read_text().strip().splitlines()[1:]
    assert all(float(row.split(",")[3]) > 0.0 for row in rows[:-1])


def test_run_stopped_at_k0_reports_no_step_taken(tmp_path, capsys):
    # the initial gap is below the tolerance, so no step is taken and the
    # initial residual against the final j is 0 because j never moved
    argv = ["run", "--problem", "stadler-ex1", "--n", "8", "--tol", "1"]
    assert run_cli(argv + ["--out-dir", tmp_path]) == 0
    assert "Converged after 0 iterations" in capsys.readouterr().out
    text = (tmp_path / "diagnostics.txt").read_text()
    assert "q_env = n/a (no step taken)\n" in text


def test_envelope_constant_that_rounds_to_zero_reads_n_a(tmp_path, capsys):
    # gamma = 5e-324 rounds q = alpha gamma r0 / (2 L mstar**2) to 0.0, where
    # the envelope check cannot be made; the finished run still writes its
    # outputs and reports the check as not made
    argv = ["run", "--problem", "parabolic-ex-1d", "--n", "4", "--nt", "3"]
    argv += ["--gamma", "5e-324", "--max-iter", "1", "--out-dir", tmp_path]
    assert run_cli(argv) == 0
    assert "MaxIterReached after 1 iterations" in capsys.readouterr().out
    for name in ("history.csv", "control.txt", "diagnostics.txt"):
        assert (tmp_path / name).is_file()
    text = (tmp_path / "diagnostics.txt").read_text()
    assert "q_env = n/a (q rounds to 0.0)\n" in text
    assert "envelope_ok" not in text and "envelope_violation" not in text


def test_rerun_is_byte_identical(tmp_path, capsys):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_cli(FAST + ["--out-dir", dir_a])
    run_cli(FAST + ["--out-dir", dir_b])
    capsys.readouterr()
    for name in ("history.csv", "control.txt", "diagnostics.txt"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_track_errors_populates_columns(tmp_path, capsys):
    run_cli(FAST + ["--track-errors", "--out-dir", tmp_path])
    capsys.readouterr()
    rows = [
        line.split(",")
        for line in (tmp_path / "history.csv").read_text().strip().splitlines()[1:]
    ]
    # both columns on every row, from the callback of the second solve
    assert all(row[5] and row[6] for row in rows)
    errs = [float(row[5]) for row in rows]
    assert errs[0] > 0.0  # zero start vs the reference solution
    assert errs[-1] <= errs[0]
    # the reference is the final iterate of an identical first solve, so
    # the last row is at distance zero from it
    assert rows[-1][5] == "0.0" and errs[-1] == 0.0


def test_no_option_skips_the_diagnostics_report(tmp_path, capsys):
    # every run writes diagnostics.txt: the retired flag and settings key
    # are refused as any unknown flag or key is, and nothing is written
    with pytest.raises(SystemExit) as exc:
        run_cli(FAST + ["--no-diagnostics", "--out-dir", tmp_path])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.endswith("gcg: error: unrecognized arguments: --no-diagnostics\n")
    cfg = tmp_path / "skip.cfg"
    cfg.write_text("diagnostics = no\n")
    assert run_cli(FAST + ["--config", cfg, "--out-dir", tmp_path]) == 1
    assert capsys.readouterr().err == (
        f"gcg: error: {cfg}:1: unknown setting 'diagnostics'\n"
    )
    assert not (tmp_path / "history.csv").exists()


def test_unknown_problem_is_usage_error(capsys):
    code = run_cli(["run", "--problem", "no-such-problem"])
    err = capsys.readouterr().err
    assert code == 1
    assert "unknown problem" in err
    assert "stadler-ex1" in err  # the message lists what is available


def test_bad_flags_exit_one():
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--bogus-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli(["run"])  # --problem is required
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli([])  # a subcommand is required
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "key, value",
    [
        ("alpha", "0.7"),
        ("gamma", "1.5"),
        ("max_iter", "0"),
        ("tol", "-1"),
        ("tol", "nan"),
        ("tol", "inf"),
    ],
)
def test_bad_solver_settings_exit_one(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    base = ["run", "--problem", "stadler-ex1", "--n", "8", "--out-dir", tmp_path]
    for source in (["--" + key.replace("_", "-"), value], ["--config", cfg]):
        assert run_cli(base + source) == 1
        err = capsys.readouterr().err
        assert err.startswith("gcg: error: ") and "Traceback" not in err
    assert not (tmp_path / "history.csv").exists()


def test_step_rule_is_checked_before_the_gap_tolerance(tmp_path, capsys):
    # SolverConfig checks alpha and gamma first, so of two bad settings the
    # alpha error is the one line printed
    argv = ["run", "--problem", "stadler-ex1", "--tol", "-1", "--alpha", "0.7"]
    assert run_cli(argv + ["--out-dir", tmp_path]) == 1
    assert capsys.readouterr().err == "gcg: error: alpha must lie in (0, 1/2]\n"
    assert not (tmp_path / "history.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--problem", "stadler-ex1", "--n", "1"],
        ["--problem", "parabolic-ex", "--n", "1", "--nt", "3"],
    ],
    ids=["stadler-ex1", "parabolic-ex"],
)
def test_single_node_2d_grid_refused_before_solve(tmp_path, capsys, monkeypatch, argv):
    # control.txt could not describe a 2D grid with one node per direction;
    # the array-free grid shows it before the instance is built
    def build(*args):
        raise AssertionError("make_example ran")

    monkeypatch.setattr(elliptic, "make_example", build)
    monkeypatch.setattr(parabolic, "make_example", build)
    out_dir = tmp_path / "out"
    assert run_cli(["run", *argv, "--out-dir", out_dir]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("gcg: error: ") and "n = 1" in captured.err
    assert "iterations" not in captured.out
    assert not out_dir.exists()


def test_grid_too_large_to_allocate_exits_one(tmp_path, capsys):
    # the estimate refuses this grid of 10**36 nodes before any array is
    # built; were it let through, its first array, the 10**18 axis
    # coordinates, would need more than a 57-bit address space holds
    out_dir = tmp_path / "out"
    argv = ["run", "--problem", "stadler-ex1", "--n", 10**18, "--out-dir", out_dir]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"gcg: error: a grid of {10**36} nodes needs")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "name, message, written",
    [
        ("gcg_solve", "Unable to allocate 2.00 GiB for an array", False),
        ("write_field", "", True),
    ],
)
def test_memory_error_after_building_exits_one(
    tmp_path, capsys, monkeypatch, name, message, written
):
    # the solve and the dump take the memory the estimate allows, whatever
    # the machine has free; running out there is the same one line, and a
    # MemoryError without a message says what it is
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, name, exhausted)
    out_dir = tmp_path / "out"
    assert run_cli(ELLIPTIC_FAST + ["--out-dir", out_dir]) == 1
    err = capsys.readouterr().err
    assert err == f"gcg: error: {message or 'out of memory'}\n"
    assert (out_dir / "history.csv").exists() is written


@pytest.mark.parametrize(
    "argv, nodes",
    [
        (["--problem", "parabolic-ex-1d", "--n", "3", "--nt", "100000000"], 3 * 10**8),
        (["--problem", "parabolic-ex", "--n", "100000", "--nt", "100000"], 10**15),
        (["--problem", "stadler-ex3", "--n", "100000000"], 10**16),
    ],
    ids=["space-time-1d", "space-time-2d", "elliptic"],
)
def test_grid_over_the_estimate_is_refused_before_any_array(
    tmp_path, capsys, monkeypatch, argv, nodes
):
    # each grid's estimate is far above MAX_RUN_BYTES; a build would raise
    def build(*args):
        raise AssertionError("make_example ran")

    monkeypatch.setattr(elliptic, "make_example", build)
    monkeypatch.setattr(parabolic, "make_example", build)
    out_dir = tmp_path / "out"
    assert run_cli(["run", *argv, "--out-dir", out_dir]) == 1
    err = capsys.readouterr().err
    module = parabolic if argv[1].startswith("parabolic") else elliptic
    need = 8 * module.RUN_ARRAYS * nodes / 2**30
    assert err == (
        f"gcg: error: a grid of {nodes} nodes needs an estimated {need:.3g} GiB, "
        f"above the limit of {cli.MAX_RUN_BYTES / 2**30:g} GiB\n"
    )
    assert not out_dir.exists()


def test_estimate_limit_is_inclusive(tmp_path, capsys, monkeypatch):
    # with the limit set to a small grid's estimate, that grid runs and the
    # next larger one is refused; no array near the real limit is made
    grid = parabolic.example_grid("parabolic-ex-1d", 8, 12)
    monkeypatch.setattr(cli, "MAX_RUN_BYTES", 8 * parabolic.RUN_ARRAYS * grid.n_nodes)
    assert run_cli(FAST + ["--out-dir", tmp_path / "fits"]) == 0
    assert run_cli(FAST + ["--nt", "13", "--out-dir", tmp_path / "over"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"gcg: error: a grid of {8 * 13} nodes needs an estimated")
    assert not (tmp_path / "over").exists()


def test_each_instance_is_estimated_by_its_own_count(tmp_path, capsys, monkeypatch):
    # at the limit of a parabolic grid's own estimate, that grid runs, while
    # an elliptic grid of as many nodes, which peaks at about twice the
    # arrays, is refused
    nodes = 8 * 8
    monkeypatch.setattr(cli, "MAX_RUN_BYTES", 8 * parabolic.RUN_ARRAYS * nodes)
    assert parabolic.RUN_ARRAYS < elliptic.RUN_ARRAYS
    argv = ["run", "--problem", "parabolic-ex-1d", "--n", 8, "--nt", 8, "--max-iter", 5]
    assert run_cli(argv + ["--out-dir", tmp_path / "heat"]) == 0
    assert run_cli(ELLIPTIC_FAST + ["--out-dir", tmp_path / "ex1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"gcg: error: a grid of {nodes} nodes needs an estimated")
    assert not (tmp_path / "ex1").exists()


def test_memory_error_while_building_exits_one(tmp_path, capsys, monkeypatch):
    # a grid under the limit that the machine still cannot hold
    def build(*args):
        raise MemoryError("Unable to allocate 1.00 GiB for an array")

    monkeypatch.setattr(elliptic, "make_example", build)
    out_dir = tmp_path / "out"
    assert run_cli(ELLIPTIC_FAST + ["--out-dir", out_dir]) == 1
    err = capsys.readouterr().err
    assert err == "gcg: error: Unable to allocate 1.00 GiB for an array\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, nodes",
    [
        (["stadler-ex1", "--n", "512", "--track-errors"], 512**2),
        (["parabolic-ex", "--n", "32", "--nt", "500", "--track-errors"], 32**2 * 500),
        (["parabolic-ex-1d", "--n", "128", "--nt", "4000"], 128 * 4000),
    ],
    ids=["ex1-track", "heat-2d", "heat-1d"],
)
def test_run_arrays_covers_the_measured_peak(tmp_path, capsys, argv, nodes):
    # each instance module's RUN_ARRAYS is the peak of a whole run under
    # tracemalloc, in float64 arrays of the grid's size, at sizes where one
    # field spans several dump chunks; the runs with --track-errors set it
    module = parabolic if argv[0].startswith("parabolic") else elliptic
    argv = ["run", "--problem", *argv, "--max-iter", "3"]
    tracemalloc.start()
    try:
        assert run_cli(argv + ["--out-dir", tmp_path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * nodes)
    assert arrays <= module.RUN_ARRAYS
    if "--track-errors" in argv:
        assert arrays > module.RUN_ARRAYS - 2


def test_failed_residual_check_exits_two(tmp_path, capsys, monkeypatch):
    # a 1e-9 relative change of the largest entry of every sweep is a real
    # solve error that the backward-error check must catch
    check_steps = pde.HeatOperator._check_steps

    def perturbed(self, forcing, states, backward):
        states.flat[np.argmax(np.abs(states))] *= 1.0 + 1e-9
        check_steps(self, forcing, states, backward)

    monkeypatch.setattr(pde.HeatOperator, "_check_steps", perturbed)
    out_dir = tmp_path / "out"
    argv = ["run", "--problem", "parabolic-ex-1d", "--n", "300", "--nt", "4"]
    assert run_cli(argv + ["--max-iter", "5", "--out-dir", out_dir]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("gcg: numerical failure: ")
    assert "residual check" in captured.err and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--problem", "parabolic-ex-1d", "--n", "300", "--nt", "4", "--max-iter", "5"],
        ["--problem", "stadler-ex1", "--n", "255", "--max-iter", "3"],
    ],
    ids=["heat-1d-n300", "ex1-n255"],
)
def test_ill_conditioned_solves_pass_the_check(tmp_path, argv):
    # tau a |A| (heat) and |A| / lambda_min (Poisson) are large here, so a
    # relative residual bound of the size of rounding would reject them
    out_dir = tmp_path / "out"
    assert run_cli(["run", *argv, "--out-dir", out_dir]) == 0
    assert (out_dir / "control.txt").exists()


def test_unwritable_out_dir_exits_three(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the directory should go\n")
    code = run_cli(FAST + ["--out-dir", blocker])
    assert code == 3
    assert "i/o failure" in capsys.readouterr().err


def test_missing_config_file_exits_three(tmp_path, capsys):
    code = run_cli(
        ["run", "--problem", "stadler-ex1", "--config", tmp_path / "nope.cfg"]
    )
    assert code == 3
    assert "i/o failure" in capsys.readouterr().err


def test_defaults_resolve_per_problem():
    parser = build_parser()
    config = resolve_config(parser.parse_args(["run", "--problem", "stadler-ex1"]))
    assert config == RunConfig(
        problem="stadler-ex1",
        n=64,
        nt=None,
        gap_tol=1e-10,
        max_iter=1000,
        alpha=0.5,
        gamma=0.99,
        out_dir=".",
        track_errors=False,
    )
    config = resolve_config(parser.parse_args(["run", "--problem", "parabolic-ex"]))
    assert config.n == 32 and config.nt == 100


def test_nt_is_unused_on_an_elliptic_problem(tmp_path, capsys):
    # the registry passes an instance only the sizes its module states
    argv = ["run", "--problem", "stadler-ex1", "--n", "4", "--max-iter", "5"]
    assert run_cli(argv + ["--out-dir", tmp_path / "plain"]) == 0
    assert run_cli(argv + ["--nt", "7", "--out-dir", tmp_path / "nt"]) == 0
    capsys.readouterr()
    for name in ("history.csv", "control.txt", "diagnostics.txt"):
        assert (tmp_path / "nt" / name).read_bytes() == (
            tmp_path / "plain" / name
        ).read_bytes()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "settings.cfg"
    cfg.write_text(
        "# solver settings\n"
        "n = 16   # grid nodes\n"
        "max_iter = 77\n"
        "tol = 1e-8\n"
        "track_errors = yes\n"
    )
    parser = build_parser()
    args = parser.parse_args(
        ["run", "--problem", "parabolic-ex-1d", "--config", str(cfg), "--n", "9"]
    )
    config = resolve_config(args)
    assert config.problem == "parabolic-ex-1d"
    assert config.n == 9  # flag beats file
    assert config.max_iter == 77  # file beats default
    assert config.gap_tol == 1e-8
    assert config.track_errors is True
    assert config.nt == 100  # untouched default


def test_config_file_rejects_bad_content(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("volume = 11\n")
    code = run_cli(
        ["run", "--problem", "stadler-ex1", "--config", bad_key]
    )
    assert code == 1
    assert "unknown setting" in capsys.readouterr().err

    # the problem is a flag only; a file that names one is refused, not
    # silently overridden by --problem
    named = tmp_path / "named.cfg"
    named.write_text("n = 8\nproblem = parabolic-ex-1d\n")
    code = run_cli(["run", "--problem", "stadler-ex1", "--config", named])
    assert code == 1
    assert capsys.readouterr().err == (
        f"gcg: error: {named}:2: unknown setting 'problem'\n"
    )

    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("max_iter = soon\n")
    code = run_cli(["run", "--problem", "stadler-ex1", "--config", bad_value])
    assert code == 1
    assert "bad value" in capsys.readouterr().err

    no_eq = tmp_path / "no_eq.cfg"
    no_eq.write_text("just words\n")
    code = run_cli(["run", "--problem", "stadler-ex1", "--config", no_eq])
    assert code == 1
    assert "expected key=value" in capsys.readouterr().err

    not_utf8 = tmp_path / "not_utf8.cfg"
    not_utf8.write_bytes(b"problem = stadler-ex1\n\xff = 3\n")
    code = run_cli(["run", "--problem", "stadler-ex1", "--config", not_utf8])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("gcg: error: ") and "UTF-8" in err
    assert len(err.splitlines()) == 1


def test_config_file_with_a_byte_order_mark(tmp_path):
    # editors that write a UTF-8 byte-order mark give the same settings
    text = "n = 16\ntol = 1e-8\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    parser = build_parser()
    configs = [
        resolve_config(
            parser.parse_args(["run", "--problem", "stadler-ex1", "--config", str(path)])
        )
        for path in (plain, marked)
    ]
    assert configs[0] == configs[1]
    assert configs[0].n == 16 and configs[0].gap_tol == 1e-8
    # a bad byte after the mark is still refused, at its offset in the file
    marked.write_bytes(b"\xef\xbb\xbfn = 16\n\xff = 3\n")
    with pytest.raises(cli.UsageError, match=r"not UTF-8 text \(byte 10\)"):
        load_config_file(marked)


def test_load_config_file_types(tmp_path):
    cfg = tmp_path / "typed.cfg"
    cfg.write_text("alpha = 0.25\ntrack_errors = false\nout_dir = results\n")
    settings = load_config_file(cfg)
    assert settings == {"alpha": 0.25, "track_errors": False, "out_dir": "results"}


def test_module_entry_point(tmp_path):
    # The child runs from a foreign directory, where a relative PYTHONPATH
    # entry no longer resolves; point it at the package this suite imported.
    src_dir = str(Path(gcg.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run(
        [sys.executable, "-m", "gcg", "list"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0
    assert "stadler-ex1" in proc.stdout


def test_run_path_imports_no_scipy(tmp_path):
    # `gcg run` needs numpy only; scipy is a test and benchmark dependency
    src_dir = str(Path(gcg.__file__).resolve().parent.parent)
    argv = [*FAST, "--out-dir", str(tmp_path / "out")]
    script = (
        "import sys\n"
        "from gcg.cli import main\n"
        f"code = main({argv!r})\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(code, loaded)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "control.txt").is_file()
