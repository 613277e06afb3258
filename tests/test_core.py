"""Solver-level tests: gap arithmetic, backtracking, and loop invariants."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gcg.core import (
    ArmijoParams,
    CompositeProblem,
    ControlField,
    LineSearchError,
    OracleError,
    SolverConfig,
    SolveStatus,
    armijo_step,
    dual_gap,
    gcg_solve,
    pairing,
)


def scalar_problem(target, lower=-1.0, upper=1.0):
    """f(u) = (u - target)^2 / 2 on [lower, upper] with unit mass, g = indicator."""

    def smooth(u):
        r = u.values[0] - target
        return 0.5 * r * r, u.with_values(np.array([r]))

    def nonsmooth(u):
        x = u.values[0]
        return 0.0 if lower - 1e-12 <= x <= upper + 1e-12 else math.inf

    def lmo(p):
        return p.with_values(np.array([lower if p.values[0] > 0.0 else upper]))

    def dual_norm(u):
        return abs(u.values[0])

    return CompositeProblem(smooth, nonsmooth, lmo, dual_norm)


def field(*values):
    vals = np.asarray(values, dtype=float)
    return ControlField(vals, np.ones_like(vals))


def boxed_l1_problem(rng, n):
    """Random diagonal quadratic with mass-weighted l1 and box feasibility."""
    mass = rng.uniform(0.5, 2.0, n)
    target = rng.normal(size=n)
    beta = rng.uniform(0.05, 0.5)
    lower = -rng.uniform(0.5, 2.0, n)
    upper = rng.uniform(0.5, 2.0, n)

    def smooth(u):
        r = u.values - target
        return 0.5 * float(np.dot(mass * r, r)), ControlField(r, mass)

    def nonsmooth(u):
        x = u.values
        if np.any(x < lower - 1e-12) or np.any(x > upper + 1e-12):
            return math.inf
        return beta * float(np.dot(mass, np.abs(x)))

    def lmo(p):
        pv = p.values
        v = np.where(pv > beta, lower, np.where(pv < -beta, upper, 0.0))
        return ControlField(v, mass)

    def dual_norm(u):
        return float(np.dot(mass, np.abs(u.values)))

    zero = ControlField(np.zeros(n), mass)
    return CompositeProblem(smooth, nonsmooth, lmo, dual_norm), zero


def test_pairing_is_mass_weighted():
    a = ControlField(np.array([1.0, 2.0]), np.array([0.5, 2.0]))
    b = ControlField(np.array([3.0, -1.0]), np.array([0.5, 2.0]))
    assert pairing(a, b) == 0.5 * 3.0 - 2.0 * 2.0


def test_derived_fields_share_mass_and_check_values():
    mass = np.array([0.5, 2.0, 1.5])
    u = ControlField(np.array([1.0, -2.0, 0.25]), mass, meta="grid")
    v = ControlField(np.array([0.0, 4.0, -1.0]), mass.copy())
    for w, expected in (
        (u.with_values([3.0, 2.0, 1.0]), [3.0, 2.0, 1.0]),
        (u.blend(v, 0.25), u.values + 0.25 * (v.values - u.values)),
        (u.diff(v), u.values - v.values),
    ):
        assert w.mass is u.mass and w.meta == "grid"
        assert w.values.dtype == float
        np.testing.assert_array_equal(w.values, expected)
    for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]], [1.0, np.nan, 0.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError):
            u.with_values(np.array(bad))
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        u.blend(v, 1e308)  # overflows to inf
    # public construction still checks the mass
    for bad_mass in ([0.5, 0.0, 1.0], [0.5, np.nan, 1.0], [0.5, 1.0]):
        with pytest.raises(ValueError):
            ControlField(np.zeros(3), np.array(bad_mass))


def test_dual_gap_identity_case():
    u = field(0.3)
    grad = field(1.7)
    assert dual_gap(u, grad, 2.5, u, 2.5) == 0.0


def test_dual_gap_hand_value():
    # f(u) = (u-1)^2/2 on [-1, 1] at u = -1: grad -2, oracle point +1, gap 4
    u = field(-1.0)
    grad = field(-2.0)
    v = field(1.0)
    assert dual_gap(u, grad, 0.0, v, 0.0) == 4.0


def test_dual_gap_clamps_rounding_noise():
    u = field(0.0)
    grad = field(0.0)
    assert dual_gap(u, grad, -1e-13, u, 0.0, slack=1e-12) == 0.0


def test_dual_gap_rejects_broken_oracle():
    u = field(0.0)
    grad = field(0.0)
    with pytest.raises(OracleError):
        dual_gap(u, grad, -1e-6, u, 0.0, slack=1e-12)


def test_dual_gap_rejects_nonfinite():
    u = field(0.0)
    grad = field(0.0)
    with pytest.raises(ValueError):
        dual_gap(u, grad, math.inf, u, 0.0)


def test_armijo_full_step():
    # condition 2s <= 4s - 2s^2 holds for every s <= 1, so n = 0
    prob = scalar_problem(1.0)
    u, v = field(-1.0), field(1.0)
    step, n, j_new = armijo_step(u, v, 4.0, prob, ArmijoParams(0.5, 0.5))
    assert (step, n, j_new) == (1.0, 0, 0.0)


def test_armijo_one_backtrack():
    # f(u) = u^2/2 at u=1 towards v=-1: condition s <= 2s - 2s^2 iff s <= 1/2
    prob = scalar_problem(0.0)
    u, v = field(1.0), field(-1.0)
    step, n, _ = armijo_step(u, v, 2.0, prob, ArmijoParams(0.5, 0.5))
    assert (step, n) == (0.5, 1)


def segment_phi(problem, u, v):
    """j(u + s (v - u)) by direct evaluation of f + g."""

    def phi(s):
        w = u.blend(v, s)
        f_val, _ = problem.smooth_eval(w)
        return f_val + problem.nonsmooth_eval(w)

    return phi


def counting(problem, probes):
    """The same problem, with every segment evaluation appended to probes."""

    def line_objective(u, v):
        phi = segment_phi(problem, u, v)

        def counted(s):
            probes.append(s)
            return phi(s)

        return counted

    return dataclasses.replace(problem, line_objective=line_objective)


def scan_tests(u, v, gap, problem, params, j_u=None):
    """The test at n = 0, 1, 2, ... as (step, j, passed), until the scan stops
    for a reason other than a pass: the target underflows or the budget ends."""
    phi = segment_phi(problem, u, v)
    j0 = phi(0.0) if j_u is None else j_u
    budget = params.max_backtracks
    for n in itertools.count() if budget is None else range(budget + 1):
        s = params.gamma**n
        target = params.alpha * s * gap
        if target == 0.0:
            return
        j_s = phi(s)
        yield s, j_s, target <= j0 - j_s


def scan_armijo_step(u, v, gap, problem, params, j_u=None):
    """Reference: the linear scan over n = 0, 1, 2, ... that armijo_step replaced."""
    n = -1
    for n, (s, j_s, passed) in enumerate(scan_tests(u, v, gap, problem, params, j_u)):
        if passed:
            return s, n, j_s
    raise LineSearchError("reference scan exhausted", n + 1)


def search_outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except LineSearchError:
        return LineSearchError


def assert_matches_scan(u, v, gap, problem, params, j_u=None):
    got = search_outcome(armijo_step, u, v, gap, problem, params, j_u=j_u)
    want = search_outcome(scan_armijo_step, u, v, gap, problem, params, j_u=j_u)
    assert got == want
    return got


def test_armijo_gamma_099_takes_69_trials():
    probes = []
    prob = counting(scalar_problem(0.0), probes)
    u, v = field(1.0), field(-1.0)
    step, n, _ = armijo_step(u, v, 2.0, prob, ArmijoParams(0.5, 0.99))
    assert n == 69 == math.ceil(math.log(0.5) / math.log(0.99))
    assert step == 0.99**69
    # a scan from n = 0 would make 71 probes, counting the one at s = 0
    assert len(probes) <= 2 * math.ceil(math.log2(n + 1)) + 1


def test_armijo_requires_positive_gap():
    prob = scalar_problem(0.0)
    with pytest.raises(ValueError):
        armijo_step(field(1.0), field(-1.0), 0.0, prob, ArmijoParams())


def test_armijo_exhaustion_raises():
    # u == v means no descent is possible; an overstated gap must be detected
    prob = scalar_problem(0.0)
    u = field(0.5)
    with pytest.raises(LineSearchError) as raised:
        armijo_step(u, u, 1.0, prob, ArmijoParams(0.5, 0.5, max_backtracks=12))
    assert raised.value.exponent == 13  # the first exponent past the budget


def test_armijo_step_underflow_raises():
    # 0.5**n hits 0.0 near n = 1075, well before the backtrack budget runs
    # out. A zero trial step satisfies the sufficient-decrease test
    # trivially, so the search must refuse it rather than freeze the
    # iterate and report success.
    probes = []
    prob = counting(scalar_problem(0.0), probes)
    u = field(0.5)
    with pytest.raises(LineSearchError) as raised:
        armijo_step(u, u, 1.0, prob, ArmijoParams(0.5, 0.5, max_backtracks=5000))
    assert raised.value.exponent == 1074
    # the target 0.5 * 0.5**n first underflows at n = 1074; a scan probes
    # every n below that
    assert 0.5 * 0.5**1074 == 0.0 < 0.5 * 0.5**1073
    assert len(probes) <= 2 * math.ceil(math.log2(1075)) + 1


def test_default_budget_reaches_short_steps():
    # with no budget a gamma near 1 still reaches the step 1/2 this segment
    # needs, at n near 6.9e6, far past any fixed budget of a few thousand
    assert ArmijoParams().max_backtracks is None
    gamma = 0.9999999
    prob, u, v = scalar_problem(0.0), field(1.0), field(-1.0)
    step, n, _ = armijo_step(u, v, 2.0, prob, ArmijoParams(0.5, gamma))
    assert step == gamma**n and 6_000_000 < n < 8_000_000
    phi = segment_phi(prob, u, v)
    assert 0.5 * step * 2.0 <= phi(0.0) - phi(step)
    assert 0.5 * gamma ** (n - 1) * 2.0 > phi(0.0) - phi(gamma ** (n - 1))


def test_failed_search_records_where_it_stopped():
    # a gradient of the wrong sign overstates the gap, so no step descends
    # and the search stops where the decrease target first underflows
    prob = scalar_problem(0.0)

    def wrong_sign(u):
        f, grad = prob.smooth_eval(u)
        return f, grad.with_values(-grad.values)

    wrong = dataclasses.replace(prob, smooth_eval=wrong_sign)
    config = SolverConfig(armijo=ArmijoParams(0.5, 0.5))
    result = gcg_solve(wrong, field(0.5), config)
    assert result.status is SolveStatus.LINE_SEARCH_FAILED
    (record,) = result.history
    n = record.backtracks
    assert record.gap == 0.25 and record.step == 0.0
    assert 0.5 * 0.5**n * record.gap == 0.0 < 0.5 * 0.5 ** (n - 1) * record.gap


def test_armijo_matches_scan_on_edge_cases():
    full = scalar_problem(1.0)
    assert assert_matches_scan(
        field(-1.0), field(1.0), 4.0, full, ArmijoParams(0.5, 0.5)
    ) == (1.0, 0, 0.0)
    # f = u^2/2 from u = 1 towards v = -7 with gap 8: the test reads
    # 4s <= 8s - 32s^2, which holds with equality at s = 1/8 = 0.5**3
    wide = scalar_problem(0.0, lower=-8.0)
    u, v = field(1.0), field(-7.0)
    tie = assert_matches_scan(u, v, 8.0, wide, ArmijoParams(0.5, 0.5))
    assert tie == (0.125, 3, 0.0)
    assert 0.5 * 0.125 * 8.0 == 0.5 - tie[2]  # j(u) = 0.5
    # the minimal n exactly at the budget returns; one above it raises
    for budget, want in ((3, tie), (2, LineSearchError)):
        params = ArmijoParams(0.5, 0.5, max_backtracks=budget)
        assert assert_matches_scan(u, v, 8.0, wide, params) == want
    prob = scalar_problem(0.0)
    u, v = field(1.0), field(-1.0)
    at_budget = assert_matches_scan(u, v, 2.0, prob, ArmijoParams(0.5, 0.99, 69))
    assert at_budget[1] == 69
    over = assert_matches_scan(u, v, 2.0, prob, ArmijoParams(0.5, 0.99, 68))
    assert over is LineSearchError
    # f = |w|^2 / 2 from u = e_4 towards v = -e_4 with gap 2: the test passes
    # at n = 1, and at n = 2 the decrease 2e-20 rounds to 0 against j(u) = 0.5.
    # A gallop from n = 0 straight to n = 2 would pass over n = 1 and raise
    quad = CompositeProblem(
        lambda w: (0.5 * float(w.values @ w.values), w), lambda w: 0.0, None, None
    )
    e4 = field(0.0, 0.0, 0.0, 1.0)
    params = ArmijoParams(0.5, 1e-10, max_backtracks=2)
    rounded = assert_matches_scan(e4, e4.with_values(-e4.values), 2.0, quad, params)
    assert rounded[:2] == (1e-10, 1)
    # with gamma = eps the scan's n = 1 lies at the rounding of j(u) itself:
    # the decrease is 2 eps against j(u) = 0.5, and the test still passes
    eps = float(np.finfo(float).eps)
    at_rounding = assert_matches_scan(u, v, 2.0, prob, ArmijoParams(0.5, eps, 1))
    assert at_rounding == (eps, 1, 0.5 - 2.0 * eps)
    # u == v: no decrease at any step, so the target underflows and both raise
    same = field(0.5)
    for j_u in (None, 0.125):
        got = assert_matches_scan(same, same, 1.0, prob, ArmijoParams(0.5, 0.5), j_u=j_u)
        assert got is LineSearchError


@st.composite
def convex_segment(draw):
    """A quadratic plus a mass-weighted |.| term, and a segment of positive gap."""
    n = draw(st.integers(1, 4))
    coords = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    mass = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    curv = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    target = np.array(draw(coords))
    beta = draw(st.floats(0.0, 1.0))

    def smooth(w):
        r = w.values - target
        return 0.5 * float(np.dot(mass * curv, r * r)), w.with_values(curv * r)

    def nonsmooth(w):
        return beta * float(np.dot(mass, np.abs(w.values)))

    prob = CompositeProblem(smooth, nonsmooth, lmo=None, dual_norm=None)
    u = ControlField(np.array(draw(coords)), mass)
    v = ControlField(np.array(draw(coords)), mass)
    _, grad = smooth(u)
    gap = pairing(grad, u.diff(v)) + nonsmooth(u) - nonsmooth(v)
    return prob, u, v, gap


@settings(max_examples=200, deadline=None)
@given(
    segment=convex_segment(),
    alpha=st.floats(0.0, 0.5, exclude_min=True),
    gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    budget=st.integers(1, 3000),
    pass_j_u=st.booleans(),
)
def test_armijo_matches_linear_scan(segment, alpha, gamma, budget, pass_j_u):
    prob, u, v, gap = segment
    assume(math.isfinite(gap) and gap > 0.0)
    j_u = segment_phi(prob, u, v)(0.0) if pass_j_u else None
    params = ArmijoParams(alpha, gamma, budget)
    tests = list(scan_tests(u, v, gap, prob, params, j_u))
    passes = [passed for _, _, passed in tests]
    first = passes.index(True) if True in passes else len(passes)
    got = search_outcome(armijo_step, u, v, gap, prob, params, j_u=j_u)
    if all(passes[first:]):
        # the computed test is monotone in n, as it is in exact arithmetic
        assert got == search_outcome(scan_armijo_step, u, v, gap, prob, params, j_u)
    elif got is LineSearchError:
        # past the first pass the decrease fell below rounding and the test
        # failed again, so the search may bracket a later switch; it raises
        # only where the test fails just before the scan would stop
        assert not passes[-1]
    else:
        # ... and where it returns, it keeps the backtracking contract
        step, n, j_new = got
        assert tests[n] == (step, j_new, True)
        assert n == 0 or not passes[n - 1]


def test_armijo_params_validation():
    with pytest.raises(ValueError):
        ArmijoParams(alpha=0.6)
    with pytest.raises(ValueError):
        ArmijoParams(gamma=1.0)
    with pytest.raises(ValueError):
        ArmijoParams(max_backtracks=0)


def test_solver_config_validation():
    for gap_tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SolverConfig(gap_tol=gap_tol)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


def test_one_step_convergence():
    prob = scalar_problem(1.0)
    result = gcg_solve(
        prob, field(-1.0), SolverConfig(armijo=ArmijoParams(0.5, 0.5))
    )
    assert result.status is SolveStatus.CONVERGED
    assert len(result.history) == 2
    first, last = result.history
    assert (first.j_value, first.gap, first.step) == (2.0, 4.0, 1.0)
    assert (last.j_value, last.gap, last.step) == (0.0, 0.0, 0.0)
    assert result.final_iterate.values[0] == 1.0
    assert result.iterations == 1


def test_start_at_optimum_returns_immediately():
    prob = scalar_problem(0.0)
    result = gcg_solve(prob, field(0.0), SolverConfig())
    assert result.status is SolveStatus.CONVERGED
    assert len(result.history) == 1
    assert result.history[0].step == 0.0


def test_infeasible_start_raises():
    prob = scalar_problem(0.0)
    with pytest.raises(ValueError):
        gcg_solve(prob, field(3.0), SolverConfig())


def test_eps_fp_matches_initial_objective():
    prob = scalar_problem(1.0)
    result = gcg_solve(prob, field(-1.0), SolverConfig())
    assert result.eps_fp == 1e-12 * (2.0 + 1.0)


def test_history_keeps_terminal_record_at_iteration_cap():
    rng = np.random.default_rng(3)
    prob, zero = boxed_l1_problem(rng, 6)
    result = gcg_solve(prob, zero, SolverConfig(gap_tol=0.0, max_iter=3))
    assert result.status is SolveStatus.MAX_ITER_REACHED
    assert len(result.history) == 4
    assert result.history[-1].step == 0.0


def test_monotone_descent_and_gap_domination():
    """j decreases strictly and the gap certificate dominates the residual."""
    rng = np.random.default_rng(11)
    fast = ArmijoParams(0.5, 0.7)
    for trial in range(8):
        prob, zero = boxed_l1_problem(rng, int(rng.integers(2, 9)))
        tight = gcg_solve(
            prob, zero, SolverConfig(gap_tol=1e-8, max_iter=1200, armijo=fast)
        )
        result = gcg_solve(
            prob, zero, SolverConfig(gap_tol=1e-6, max_iter=800, armijo=fast)
        )
        j_ref = tight.history[-1].j_value
        eps = result.eps_fp
        hist = result.history
        for a, b in zip(hist, hist[1:]):
            assert b.j_value < a.j_value
        for rec in hist:
            assert rec.gap >= (rec.j_value - j_ref) - eps


def test_descent_recursion_bound():
    """Each step removes at least the alpha * s fraction of the residual."""
    rng = np.random.default_rng(29)
    alpha = 0.5
    fast = ArmijoParams(alpha, 0.7)
    for trial in range(8):
        prob, zero = boxed_l1_problem(rng, int(rng.integers(2, 9)))
        tight = gcg_solve(
            prob, zero, SolverConfig(gap_tol=1e-8, max_iter=1200, armijo=fast)
        )
        result = gcg_solve(
            prob, zero, SolverConfig(gap_tol=1e-6, max_iter=800, armijo=fast)
        )
        j_ref = tight.history[-1].j_value
        eps = result.eps_fp
        hist = result.history
        for a, b in zip(hist, hist[1:]):
            r_now = a.j_value - j_ref
            r_next = b.j_value - j_ref
            assert r_next <= (1.0 - alpha * a.step) * r_now + eps


def test_armijo_minimality_along_runs():
    """The recorded step satisfies the descent condition; step/gamma fails it."""
    rng = np.random.default_rng(47)
    gamma = 0.7
    alpha = 0.5
    seen_backtrack = False
    for trial in range(10):
        prob, zero = boxed_l1_problem(rng, int(rng.integers(2, 9)))
        probes = []
        config = SolverConfig(
            gap_tol=1e-10,
            max_iter=500,
            armijo=ArmijoParams(alpha, gamma),
            callback=lambda rec, u, v: probes.append((rec, u, v)),
        )
        gcg_solve(prob, zero, config)
        for rec, u, v in probes:
            if rec.step == 0.0:
                continue
            phi = segment_phi(prob, u, v)
            assert alpha * rec.step * rec.gap <= rec.j_value - phi(rec.step)
            if rec.step < 1.0:
                seen_backtrack = True
                s_up = rec.step / gamma
                assert alpha * s_up * rec.gap > rec.j_value - phi(s_up)
    assert seen_backtrack


def test_bitwise_determinism():
    rng = np.random.default_rng(101)
    prob, zero = boxed_l1_problem(rng, 7)
    fast = ArmijoParams(0.5, 0.7)
    a = gcg_solve(prob, zero, SolverConfig(gap_tol=1e-12, max_iter=1000, armijo=fast))
    b = gcg_solve(prob, zero, SolverConfig(gap_tol=1e-12, max_iter=1000, armijo=fast))
    assert len(a.history) == len(b.history)
    for ra, rb in zip(a.history, b.history):
        assert ra == rb
    assert np.array_equal(a.final_iterate.values, b.final_iterate.values)
    assert a.mstar == b.mstar


def test_mstar_covers_iterates_and_oracle_points():
    rng = np.random.default_rng(59)
    prob, zero = boxed_l1_problem(rng, 5)
    norms = []
    config = SolverConfig(
        gap_tol=1e-12,
        max_iter=500,
        armijo=ArmijoParams(0.5, 0.7),
        callback=lambda rec, u, v: norms.extend(
            [prob.dual_norm(u), prob.dual_norm(v)]
        ),
    )
    result = gcg_solve(prob, zero, config)
    assert result.mstar == max(norms)


def test_error_recording_against_reference():
    rng = np.random.default_rng(83)
    prob, zero = boxed_l1_problem(rng, 5)
    fast = ArmijoParams(0.5, 0.7)
    tight = gcg_solve(
        prob, zero, SolverConfig(gap_tol=1e-13, max_iter=2000, armijo=fast)
    )
    ref = tight.final_iterate
    result = gcg_solve(
        prob,
        zero,
        SolverConfig(
            gap_tol=1e-10, max_iter=500, armijo=fast, record_errors_against=ref
        ),
    )
    errs = [rec.err_u for rec in result.history]
    assert all(e is not None and e >= 0.0 for e in errs)
    assert errs[0] == prob.dual_norm(zero.diff(ref))
    assert errs[-1] <= errs[0]
    plain = gcg_solve(
        prob, zero, SolverConfig(gap_tol=1e-10, max_iter=500, armijo=fast)
    )
    assert all(rec.err_u is None and rec.err_v is None for rec in plain.history)


def test_control_field_validation():
    with pytest.raises(ValueError):
        ControlField(np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        ControlField(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        ControlField(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(ValueError):
        ControlField(np.array([1.0, 2.0]), np.array([1.0]))


def test_blend_endpoints():
    u = field(1.0, -2.0)
    v = field(3.0, 4.0)
    assert np.array_equal(u.blend(v, 0.0).values, u.values)
    assert np.array_equal(u.blend(v, 1.0).values, v.values)
    assert np.array_equal(u.blend(v, 0.5).values, np.array([2.0, 1.0]))
