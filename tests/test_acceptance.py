"""Acceptance suite: one test per shipped claim, one PASS/FAIL line each.

Each criterion runs at desk scale on the bundled examples.  The heavy
solves are shared module-scoped fixtures; every test prints a single
summary line so the suite output doubles as a checklist.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from gcg import cli, diagnostics as diag, elliptic, parabolic
from gcg.core import SolverConfig, SolveStatus, gcg_solve
from gcg.pde import (
    Grid,
    HeatOperator,
    SpaceTimeGrid,
)

from helpers import (
    pairing,
    recursion_oracle_44,
    recursion_oracle_48,
    sample_feasible,
    sublinear_constants,
)

ALPHA = 0.5
GAMMA = 0.99


def report(label: str, ok: bool, detail: str = "") -> str:
    line = f"{label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return line


def solve_with_replay(prob, gap_tol, max_iter):
    """Solve from zero while re-checking the accepted step of every iteration.

    The callback rebuilds the exact line objective the solver used and
    replays the backtracking inequality at the accepted step and at the
    previous (rejected) probe, counting violations of either property.
    The run's report is the one `gcg run` writes to diagnostics.txt.
    """
    composite = prob.composite()
    checks = {"steps": 0, "hold_fail": 0, "minimal_fail": 0}

    def callback(record, u, v):
        if record.step == 0.0:
            return
        phi = composite.line_objective(u, v)
        checks["steps"] += 1
        accept = ALPHA * record.step * record.gap <= record.j_value - phi(record.step)
        if not accept:
            checks["hold_fail"] += 1
        if record.backtracks > 0:
            s_prev = GAMMA ** (record.backtracks - 1)
            rejected = ALPHA * s_prev * record.gap <= record.j_value - phi(s_prev)
            if rejected:
                checks["minimal_fail"] += 1

    config = SolverConfig(
        gap_tol=gap_tol, max_iter=max_iter, alpha=ALPHA, gamma=GAMMA, callback=callback
    )
    started = time.perf_counter()
    result = gcg_solve(composite, prob.zero_control(), config)
    elapsed = time.perf_counter() - started
    return SimpleNamespace(
        prob=prob,
        result=result,
        report=diag.run_report(prob, result),
        armijo_checks=checks,
        elapsed=elapsed,
    )


@pytest.fixture(scope="module")
def elliptic_run():
    return solve_with_replay(
        elliptic.make_example("stadler-ex1", 64), gap_tol=1e-10, max_iter=6000
    )


@pytest.fixture(scope="module")
def parabolic_run():
    return solve_with_replay(
        parabolic.make_example("parabolic-ex", 32, 100), gap_tol=1e-10, max_iter=1000
    )


@pytest.fixture(scope="module")
def parabolic_run_fine_time():
    return solve_with_replay(
        parabolic.make_example("parabolic-ex", 32, 500), gap_tol=1e-10, max_iter=1000
    )


def test_criterion_01_gradient_checks():
    started = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(101)
    for prob in (
        elliptic.make_example("stadler-ex1", 16),
        parabolic.make_example("parabolic-ex", 16, 20),
    ):
        t = 1e-5
        for trial in range(20):
            u = sample_feasible(prob, rng)
            d = u.with_values(rng.standard_normal(u.size))
            _, grad = prob.f_and_grad(u)
            dd = pairing(grad, d)
            f_plus, _ = prob.f_and_grad(u.with_values(u.values + t * d.values))
            f_minus, _ = prob.f_and_grad(u.with_values(u.values - t * d.values))
            fd = (f_plus - f_minus) / (2.0 * t)
            worst = max(worst, abs(fd - dd) / (1.0 + abs(dd)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed <= 10.0
    line = report(
        "criterion 1 gradient checks",
        ok,
        f"worst rel err {worst:.3e}, {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_02_adjoint_exactness():
    rng = np.random.default_rng(103)
    worst = 0.0

    prob = elliptic.make_example("stadler-ex1", 16)
    grid = prob.grid
    for trial in range(20):
        u = grid.field(rng.standard_normal(grid.n_nodes))
        w = grid.field(rng.standard_normal(grid.n_nodes))
        y = u.with_values(prob.solve_state(u.values))
        p = w.with_values(prob.solve_adjoint(w.values))
        gap = abs(pairing(y, w) - pairing(u, p))
        worst = max(worst, gap / (math.sqrt(pairing(u, u)) * math.sqrt(pairing(w, w))))

    st = SpaceTimeGrid(Grid(8, 2), nt=10, horizon=1.0)
    heat = HeatOperator(st, 0.7)
    for trial in range(20):
        u = st.field(rng.standard_normal(st.n_nodes))
        w = st.field(rng.standard_normal(st.n_nodes))
        y = st.field(heat.forward(st.as_slices(u.values)))
        p = st.field(heat.adjoint(st.as_slices(w.values)))
        gap = abs(pairing(y, w) - pairing(u, p))
        worst = max(worst, gap / (math.sqrt(pairing(u, u)) * math.sqrt(pairing(w, w))))

    ok = worst <= 1e-12
    line = report("criterion 2 adjoint exactness", ok, f"worst ratio {worst:.3e}")
    assert ok, line


def test_criterion_03_lmo_brute_force():
    rng = np.random.default_rng(107)
    samples = 100000
    ok = True

    prob = elliptic.make_example("stadler-ex3", 2)
    sweep = np.linspace(0.0, 1.0, samples)
    for trial in range(5):
        p = prob.grid.field(rng.uniform(-3 * prob.reg_beta, 3 * prob.reg_beta, 4))
        v = prob.lmo(p)
        for i in range(4):
            lo, up = prob.lower.values[i], prob.upper.values[i]
            cand = lo + sweep * (up - lo)
            obj = p.values[i] * cand + prob.reg_beta * np.abs(cand)
            got = p.values[i] * v.values[i] + prob.reg_beta * abs(v.values[i])
            slack = (abs(p.values[i]) + prob.reg_beta) * (up - lo) / samples
            ok = ok and got <= float(obj.min()) + 1e-12
            ok = ok and float(obj.min()) <= got + 2.0 * slack + 1e-12

    grid = SpaceTimeGrid(Grid(1, 1), nt=3, horizon=1.0)
    pprob = parabolic.ParabolicProblem(
        grid=grid,
        conductivity=1.0,
        reg_alpha=0.3,
        ball_radius=0.7,
        target=grid.zero_field(),
    )
    h = grid.space.h
    vmax = pprob.ball_radius / math.sqrt(h)
    sweep = np.linspace(-vmax, vmax, samples)
    for trial in range(5):
        p = grid.field(rng.standard_normal(3))
        v = pprob.lmo(p)
        v_sl = grid.as_slices(v.values)[:, 0]
        p_sl = grid.as_slices(p.values)[:, 0]
        for m in range(3):
            obj = p_sl[m] * sweep * h + pprob.reg_alpha * math.sqrt(h) * np.abs(sweep)
            got = p_sl[m] * v_sl[m] * h + pprob.reg_alpha * math.sqrt(h) * abs(v_sl[m])
            slack = (
                (abs(p_sl[m]) * h + pprob.reg_alpha * math.sqrt(h))
                * 2.0
                * vmax
                / samples
            )
            ok = ok and got <= float(obj.min()) + 1e-12
            ok = ok and float(obj.min()) <= got + 2.0 * slack + 1e-12

    line = report("criterion 3 oracle equivalence", ok, f"{samples} samples per node")
    assert ok, line


def test_criterion_04_backtracking_contract(
    elliptic_run, parabolic_run, parabolic_run_fine_time
):
    total = hold = minimal = 0
    for run in (elliptic_run, parabolic_run, parabolic_run_fine_time):
        assert run.result.status is SolveStatus.CONVERGED
        total += run.armijo_checks["steps"]
        hold += run.armijo_checks["hold_fail"]
        minimal += run.armijo_checks["minimal_fail"]
    ok = hold == 0 and minimal == 0 and total > 0
    line = report(
        "criterion 4 backtracking contract",
        ok,
        f"{total} accepted steps replayed, {hold} hold / {minimal} minimality failures",
    )
    assert ok, line


def test_criterion_05_monotone_descent_and_gap_domination(
    elliptic_run, parabolic_run, parabolic_run_fine_time
):
    monotone = True
    for run in (elliptic_run, parabolic_run, parabolic_run_fine_time):
        hist = run.result.history
        for a, b in zip(hist, hist[1:]):
            if a.gap > 1e-10 and not (b.j_value < a.j_value):
                monotone = False

    hist = elliptic_run.result.history
    j_ref = hist[-1].j_value
    eps = elliptic_run.result.eps_fp
    dominated = all(rec.gap >= (rec.j_value - j_ref) - eps for rec in hist)
    ok = monotone and dominated
    line = report(
        "criterion 5 descent and gap domination",
        ok,
        f"monotone={monotone}, dominated={dominated}",
    )
    assert ok, line


def test_criterion_06_sublinear_envelope(elliptic_run, parabolic_run):
    details = []
    ok = True
    budget = elliptic_run.elapsed + parabolic_run.elapsed

    for run in (elliptic_run, parabolic_run):
        q_env = run.report["q_env"]
        ok = ok and run.report["envelope_ok"] is True
        details.append(f"q={q_env:.3e} violation={run.report['envelope_violation']}")
    ok = ok and budget <= 300.0
    line = report(
        "criterion 6 sublinear envelope",
        ok,
        "; ".join(details) + f"; solves {budget:.0f}s",
    )
    assert ok, line


def test_criterion_07_linear_rate_fit(elliptic_run, parabolic_run_fine_time):
    details = []
    ok = True
    for run in (elliptic_run, parabolic_run_fine_time):
        lam, r_squared = run.report["rate_lambda"], run.report["rate_r_squared"]
        ok = ok and lam < 1.0 and r_squared >= 0.99
        details.append(
            f"lambda={lam:.5f} r2={r_squared:.5f} pts={run.report['rate_fit_points']}"
        )
    line = report("criterion 7 geometric rate fit", ok, "; ".join(details))
    assert ok, line


def test_criterion_08a_elliptic_structure(elliptic_run):
    """The minimizer u* is three-valued on at least 99% of the domain.

    The claim is about u*, not the iterate: GCG moves a node towards its
    oracle vertex only by the factor (1 - s_k) per step.  The run certifies
    u* nodewise instead.  f is quadratic, so 0.5 |S(u - u*)|^2 <= j(u) - j*
    <= gap, and the dual of the closed-form l2-by-l1 bound of K gives
    |p - p*|_inf <= delta = sqrt(L_est) * sqrt(2 gap).  Wherever
    | |p| - beta | > delta, p* lies on the same side of the threshold as p
    and u* takes the oracle vertex there.
    """
    prob, p = elliptic_run.prob, elliptic_run.result.final_gradient
    u = elliptic_run.result.final_iterate
    gap = elliptic_run.result.history[-1].gap
    delta = math.sqrt(prob.lipschitz_estimate) * math.sqrt(2.0 * gap)
    (undecided,) = diag.growth_measures(
        prob.growth_distance(p), prob.growth_quantum, [delta]
    )
    certified = 1.0 - undecided / (u.weight * u.size)
    iterate = prob.structure(u, p)["three_value_fraction"]
    ok = certified >= 0.99
    line = report(
        "criterion 8a elliptic three-valued minimizer",
        ok,
        f"certified fraction {certified:.4f} vs 0.99 required; delta {delta:.3e}, "
        f"final gap {gap:.3e}, iterate three-valued fraction {iterate:.4f}",
    )
    assert ok, line


def test_criterion_08b_parabolic_structure(parabolic_run):
    fraction = parabolic_run.report["time_sparsity_fraction"]
    ok = fraction >= 0.95
    line = report(
        "criterion 8b parabolic slice structure",
        ok,
        f"fraction {fraction:.4f} vs 0.95 required",
    )
    assert ok, line


def test_criterion_09_growth_exponent(elliptic_run, parabolic_run):
    details = []
    ok = True
    for name, run in (("elliptic", elliptic_run), ("parabolic", parabolic_run)):
        kappa = run.report["kappa_hat"]
        ok = ok and isinstance(kappa, float) and 0.75 <= kappa <= 1.25
        details.append(f"{name} kappa={kappa:.4f} bins={run.report['kappa_fit_bins']}")

    line = report("criterion 9 growth exponent in [0.75, 1.25]", ok, "; ".join(details))
    assert ok, line


def test_criterion_10_recursion_property_suites():
    rng = np.random.default_rng(109)

    # all 10000 draws at once: one sequence per column, with the floats of
    # 10000 scalar calls
    q = rng.uniform(1e-3, 1.0, 10000)
    h = recursion_oracle_44(q, 150)
    bound = 1.0 / (1.0 + np.arange(151)[:, None] * q)
    ok = bool(np.all(h <= bound + 1e-14))

    # 10000 trials of uniform(0.5, 0.95), uniform(0.05, 0.95) and
    # uniform(0.01 c_max, c_max) in turn, drawn at once: uniform(a, b) is
    # a + (b - a) * random(), so these are the floats of 30000 scalar draws
    u = rng.random((10000, 3))
    deltas = 0.5 + (0.95 - 0.5) * u[:, 0]
    betas = 0.05 + (0.95 - 0.05) * u[:, 1]
    c_maxes = (1.0 - deltas) * 0.99
    lows = 0.01 * c_maxes
    cs = lows + (c_maxes - lows) * u[:, 2]
    for delta, beta, c in zip(deltas.tolist(), betas.tolist(), cs.tolist()):
        _, violation = recursion_oracle_48(delta, c, beta, 200)
        ok = ok and violation is None

    n, _ = sublinear_constants(0.5, 0.5, 0.1, 1.0)
    hand_ok = abs(n - math.sqrt(2.0)) <= 1e-6
    ok = ok and hand_ok
    line = report(
        "criterion 10 recursion suites",
        ok,
        f"2x10000 draws, shift constant n={n:.7f}",
    )
    assert ok, line


def test_criterion_11_parabolic_iteration_count(parabolic_run):
    result = parabolic_run.result
    ok = result.status is SolveStatus.CONVERGED and result.iterations <= 50
    line = report(
        "criterion 11 parabolic iteration budget",
        ok,
        f"{result.iterations} iterations, status {result.status.value}",
    )
    assert ok, line


def test_criterion_12_deterministic_outputs(tmp_path):
    argv = [
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
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(argv + ["--out-dir", str(dir_a)]) == 0
    assert cli.main(argv + ["--out-dir", str(dir_b)]) == 0
    same = {
        name: (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        for name in ("history.csv", "control.txt", "diagnostics.txt")
    }
    ok = all(same.values())
    line = report(
        "criterion 12 deterministic outputs",
        ok,
        "byte-identical " + ", ".join(sorted(same)),
    )
    assert ok, line
