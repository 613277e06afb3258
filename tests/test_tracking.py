"""Tests for the shared tracking term: the one-slot state memo and the
state carried from the line search into the next iterate."""

import dataclasses

import numpy as np
import pytest

from gcg import core, elliptic, parabolic
from gcg.core import (
    ArmijoParams,
    ControlField,
    LineSearchError,
    SolverConfig,
    SolveStatus,
    armijo_step,
    dual_gap,
    gcg_solve,
)
from gcg.pde import Grid

BUILDERS = {
    "elliptic": lambda: elliptic.make_example("stadler-ex1", 12),
    "parabolic": lambda: parabolic.make_example("parabolic-ex", 8, 10),
}
STEPS = (0.0, 0.17, 0.5, 0.99**7, 1.0)

# one run per way a solve stops: (instance builder, solver settings, status)
STOPS = {
    "converged": (
        lambda: parabolic.make_example("parabolic-ex-1d", 8, 12),
        SolverConfig(),
        SolveStatus.CONVERGED,
    ),
    "max-iter": (
        lambda: elliptic.make_example("stadler-ex1", 16),
        SolverConfig(max_iter=200),
        SolveStatus.MAX_ITER_REACHED,
    ),
    "failed-search": (
        lambda: elliptic.make_example("stadler-ex1", 2),
        SolverConfig(),
        SolveStatus.LINE_SEARCH_FAILED,
    ),
}


def count_solves(prob, names=("solve_state",)) -> list:
    """Record every call of the named solves on prob; by default only S."""
    calls = []
    for name in names:
        solve = getattr(prob, name)

        def counted(values, name=name, solve=solve):
            calls.append(name)
            return solve(values)

        setattr(prob, name, counted)
    return calls


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_memo_parity_with_a_fresh_instance(kind):
    prob, fresh = BUILDERS[kind](), BUILDERS[kind]()
    rng = np.random.default_rng(89)
    u, w = prob.sample_feasible(rng), prob.sample_feasible(rng)
    _, grad = prob.f_and_grad(u)
    v = prob.lmo(grad)
    expected = [fresh.line_objective(u, v)(s) for s in STEPS]
    calls = count_solves(prob)

    # right after the gradient at u, only S (v - u) is solved
    phi = prob.line_objective(u, v)
    assert len(calls) == 1
    assert [phi(s) for s in STEPS] == expected

    # the gradient at the same u reuses the state too
    f_val, grad_again = prob.f_and_grad(u)
    assert len(calls) == 1
    f_fresh, grad_fresh = BUILDERS[kind]().f_and_grad(u)
    assert f_val == f_fresh
    assert np.array_equal(grad_again.values, grad_fresh.values)

    # after the gradient at another field, the state at u is solved again
    prob.f_and_grad(w)
    calls.clear()
    phi = prob.line_objective(u, v)
    assert len(calls) == 2
    assert [phi(s) for s in STEPS] == expected


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_final_gradient_is_the_gradient_at_the_final_iterate(kind):
    prob = BUILDERS[kind]()
    result = gcg_solve(prob.composite(), prob.zero_control(), SolverConfig(max_iter=30))
    u = result.final_iterate
    # a fresh instance has no state memo, so its gradient is solved anew
    _, fresh = BUILDERS[kind]().f_and_grad(u)
    assert np.array_equal(result.final_gradient.values, fresh.values)


@pytest.mark.parametrize("stop", sorted(STOPS))
def test_carried_state_keeps_the_fresh_state_steps(stop):
    build, config, status = STOPS[stop]
    prob, fresh_prob = build(), build()
    carried = gcg_solve(prob.composite(), prob.zero_control(), config)
    fresh_problem = dataclasses.replace(fresh_prob.composite(), step=None)
    fresh = gcg_solve(fresh_problem, fresh_prob.zero_control(), config)
    assert carried.status is fresh.status is status
    assert [(r.step, r.backtracks) for r in carried.history] == [
        (r.step, r.backtracks) for r in fresh.history
    ]
    j_carried = np.array([r.j_value for r in carried.history])
    j_fresh = np.array([r.j_value for r in fresh.history])
    # measured at most 2.9 eps on these runs
    drift = np.abs(j_carried - j_fresh) / np.abs(j_fresh)
    assert drift.max() <= 16 * np.finfo(float).eps


@pytest.mark.parametrize("stop", sorted(STOPS))
def test_two_solves_per_iteration(stop):
    build, config, status = STOPS[stop]
    prob = build()
    calls = count_solves(prob, ("solve_state", "solve_adjoint"))
    result = gcg_solve(prob.composite(), prob.zero_control(), config)
    assert result.status is status
    # per step S (v - u) and S* at the new point; S u and S* at the start;
    # both again where the run refreshes the carried state before it stops
    expected = 2 * result.iterations + 2 + 2
    if status is SolveStatus.LINE_SEARCH_FAILED:
        # the failed search solves S (v - u), and again once refreshed
        expected += 2
    assert len(calls) == expected
    assert calls.count("solve_adjoint") == result.iterations + 2


@pytest.mark.parametrize("stop", sorted(STOPS))
def test_final_row_comes_from_a_fresh_evaluation(stop):
    build, config, status = STOPS[stop]
    prob = build()
    result = gcg_solve(prob.composite(), prob.zero_control(), config)
    assert result.status is status
    last, u = result.history[-1], result.final_iterate

    # a fresh instance has no state memo, so it solves everything anew
    fresh = build()
    f_val, p = fresh.f_and_grad(u)
    g_u = fresh.g_eval(u)
    v = fresh.lmo(p)
    gap = dual_gap(u, p, g_u, v, fresh.g_eval(v), slack=result.eps_fp)
    assert last.j_value == f_val + g_u
    assert last.gap == gap
    assert np.array_equal(result.final_gradient.values, p.values)
    if status is SolveStatus.LINE_SEARCH_FAILED:
        with pytest.raises(LineSearchError) as failed:
            armijo_step(u, v, gap, fresh.composite(), ArmijoParams(), last.j_value)
        assert failed.value.exponent == last.backtracks


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_step_carries_the_state_of_the_priced_segment_only(kind):
    prob = BUILDERS[kind]()
    rng = np.random.default_rng(97)
    u, w = prob.sample_feasible(rng), prob.sample_feasible(rng)
    _, grad = prob.f_and_grad(u)
    v = prob.lmo(grad)
    s = 0.99**7
    prob.line_objective(u, v)
    calls = count_solves(prob)

    # a pair line_objective did not price: a plain blend, solved afresh
    x = prob.step(u, w, s)
    assert np.array_equal(x.values, u.blend(w, s).values)
    f_x, p_x = prob.f_and_grad(x)
    assert len(calls) == 1
    f_fresh, p_fresh = BUILDERS[kind]().f_and_grad(x)
    assert f_x == f_fresh
    assert np.array_equal(p_x.values, p_fresh.values)

    # the priced pair: the state comes from the segment, with no solve
    prob.line_objective(u, v)
    calls.clear()
    y = prob.step(u, v, s)
    assert np.array_equal(y.values, u.blend(v, s).values)
    f_y, _ = prob.f_and_grad(y)
    assert calls == []
    f_fresh, _ = BUILDERS[kind]().f_and_grad(y)
    assert f_y == pytest.approx(f_fresh, rel=1e-14)

    # the segment is released: the same pair again is a plain blend
    calls.clear()
    z = prob.step(u, v, s)
    prob.f_and_grad(z)
    assert len(calls) == 1


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_reused_values_are_the_fresh_floats(kind):
    # f0 from the memo, the step from the kept difference and the carried
    # state give, bit for bit, what computing each afresh gives
    prob, fresh = BUILDERS[kind](), BUILDERS[kind]()
    rng = np.random.default_rng(101)
    u = prob.sample_feasible(rng)
    _, grad = prob.f_and_grad(u)
    v = prob.lmo(grad)
    y_u = fresh.solve_state(u.values)
    dy = fresh.solve_state(v.values - u.values)
    for s in STEPS:
        calls = count_solves(prob)
        phi = prob.line_objective(u, v)  # a memo hit: f(u) is not recomputed
        assert len(calls) == 1
        expected = BUILDERS[kind]().line_objective(u, v)
        assert [phi(t) for t in STEPS] == [expected(t) for t in STEPS]
        w = prob.step(u, v, s)
        assert w.values.tobytes() == u.blend(v, s).values.tobytes()
        state, f_w = prob._memo[1:]
        assert prob._memo[0] is w and f_w is None
        assert state.tobytes() == (y_u + s * dy).tobytes()
        prob.f_and_grad(u)  # the memo back at u for the next step


# elliptic runs whose segments the closed-form bracket prices
ENCLOSED = {
    "ex1-max-iter": STOPS["max-iter"],
    "ex3": (
        lambda: elliptic.make_example("stadler-ex3", 16),
        SolverConfig(),
        SolveStatus.CONVERGED,
    ),
    "ex1-failed-search": STOPS["failed-search"],
}


def logged_searches(monkeypatch) -> list:
    """Log every armijo_step: (gap, j_u, params, [(s, lo, hi)], [s of phi])."""
    searches = []
    search = core.armijo_step

    def logged(u, v, gap, problem, params, j_u):
        brackets, priced = [], []
        searches.append((gap, j_u, params, brackets, priced))
        line_objective, line_enclosure = problem.line_objective, problem.line_enclosure

        def objective(u, v):
            phi = line_objective(u, v)

            def counted(s):
                priced.append(s)
                return phi(s)

            return counted

        def enclosure(u, v):
            bounds = line_enclosure(u, v)

            def recorded(s):
                lo, hi = bounds(s)
                brackets.append((s, lo, hi))
                return lo, hi

            return recorded

        problem = dataclasses.replace(
            problem, line_objective=objective, line_enclosure=enclosure
        )
        return search(u, v, gap, problem, params, j_u)

    monkeypatch.setattr(core, "armijo_step", logged)
    return searches


@pytest.mark.parametrize("run", sorted(ENCLOSED))
def test_enclosure_parity_with_the_direct_probes(run, monkeypatch):
    build, config, status = ENCLOSED[run]
    prob, direct_prob = build(), build()
    assert prob.composite().line_enclosure is not None
    direct = gcg_solve(
        dataclasses.replace(direct_prob.composite(), line_enclosure=None),
        direct_prob.zero_control(),
        config,
    )
    searches = logged_searches(monkeypatch)
    result = gcg_solve(prob.composite(), prob.zero_control(), config)
    assert result.status is direct.status is status
    assert result.history == direct.history
    assert result.final_iterate.values.tobytes() == direct.final_iterate.values.tobytes()
    assert result.final_gradient.values.tobytes() == direct.final_gradient.values.tobytes()

    # phi prices a probe only where its bracket straddles the target
    fallbacks = 0
    for gap, j0, params, brackets, priced in searches:
        assert brackets and len(priced) <= len(brackets)
        straddles = {}
        for s, lo, hi in brackets:
            target = params.alpha * s * gap
            assert lo <= hi
            straddles[s] = target <= j0 - lo and not target <= j0 - hi
        assert all(straddles[s] for s in priced)
        fallbacks += len(priced)
    if status is SolveStatus.LINE_SEARCH_FAILED:
        # the failed search's borderline decisions reach phi
        assert fallbacks >= 1
    probes = sum(len(brackets) for *_, brackets, _ in searches)
    assert sum(len(priced) for *_, priced in searches) < probes


def bracket_contains(prob, u, du, steps):
    """Assert g_along(u, du)(s) lies in the bracket at every s; the brackets."""
    g_along, bounds = prob.g_along(u, du), prob.g_along_bounds(u, du)
    out = []
    for s in steps:
        lo, hi = bounds(s)
        assert lo <= g_along(s) <= hi, (s, lo, g_along(s), hi)
        out.append((lo, hi))
    return out


def test_enclosure_holds_around_kinks():
    prob = elliptic.make_example("stadler-ex1", 8)
    lower, upper = prob.lower.values, prob.upper.values
    rng = np.random.default_rng(103)
    n = lower.size
    eps = np.finfo(float).eps
    for trial in range(40):
        mass = rng.uniform(0.01, 3.0, n) * 10.0 ** rng.integers(-3, 2)
        vals = rng.uniform(lower, upper)
        vals[rng.random(n) < 0.3] = 0.0
        vals[rng.random(n) < 0.1] = lower[0]
        vals[rng.random(n) < 0.1] = upper[0]
        v = rng.choice([lower[0], 0.0, upper[0]], n)
        u = ControlField(vals, mass)
        du = v - vals
        kinks = -vals / np.where(du == 0.0, 1.0, du)
        kinks = kinks[(vals * du < 0.0) & (kinks < 1.0)]
        assert kinks.size >= 3
        t1 = kinks.min()
        steps = [0.0, 1.0, *rng.random(8)]
        for t in [t1, *rng.choice(kinks, min(kinks.size, 6), replace=False)]:
            steps += [np.nextafter(t, 0.0), t, np.nextafter(t, 1.0)]
        brackets = bracket_contains(prob, u, du, steps)
        # tight up to the first kink, e(s) = 4 (N + 16) eps beta S, and
        # open above beyond it
        scale = 4 * (n + 16) * eps * prob.reg_beta
        for s, (lo, hi) in zip(steps, brackets):
            if s <= t1:
                e = scale * (mass @ np.abs(vals) + s * (mass @ np.abs(du)))
                assert hi - lo <= 2 * e * (1 + 1e-12) + 4 * np.spacing(hi), s
            else:
                assert hi == np.inf, s


def test_enclosure_hand_case_with_two_kinks():
    # beta (0.5 |1 - 4s| + 0.25 |4s - 3| + 2 * 2): kinks at s = 1/4 and 3/4;
    # up to the first, g is the line beta (5.25 - 3 s)
    grid = Grid(3, 1)
    prob = elliptic.EllipticProblem(
        grid=grid,
        reg_beta=0.5,
        lower=grid.field([-4.0, -4.0, -4.0]),
        upper=grid.field([4.0, 4.0, 4.0]),
        target=grid.field([0.0, 0.0, 0.0]),
    )
    mass = np.array([0.5, 0.25, 2.0])
    u = ControlField(np.array([1.0, -3.0, 2.0]), mass)
    du = np.array([-3.0, 1.0, 2.0]) - u.values
    exact = {0.0: 5.25, 0.125: 4.875, 0.25: 4.5, 0.5: 4.75, 0.75: 5.0, 1.0: 5.75}
    brackets = bracket_contains(prob, u, du, list(exact))
    eps = np.finfo(float).eps
    for (s, g), (lo, hi) in zip(exact.items(), brackets):
        assert prob.g_along(u, du)(s) == 0.5 * g
        # e(s) = 4 (N + 16) eps beta (sum m |u| + s sum m |du|)
        e = 4 * (3 + 16) * eps * 0.5 * (5.25 + s * 3.0)
        line = 0.5 * (5.25 - 3.0 * s)
        if s <= 0.25:
            assert line == 0.5 * g
            assert lo < 0.5 * g < hi
            assert (lo + hi) / 2 == 0.5 * g
            assert hi - lo == pytest.approx(2 * e, rel=1e-12)
        else:
            # the tangent at 0 bounds g from below; no upper end
            assert line < 0.5 * g
            assert abs(lo - (line - e)) <= 2 * np.spacing(line)
            assert hi == np.inf
    # at s = 0 the closed form is g_eval(u) bit for bit
    e0 = 4 * (3 + 16) * eps * 0.5 * 5.25
    assert brackets[0] == (prob.g_eval(u) - e0, prob.g_eval(u) + e0)


def test_overflowing_bracket_leaves_every_probe_to_phi():
    # beta = 1e308 with bounds +-1: g(u) = beta sum m |u| = 5e307 is finite,
    # but 2 beta (U + D) overflows, so g_along_bounds gives no bracket
    grid = Grid(3, 1)  # mass 1/4 per node
    ones = grid.field(np.ones(3))

    def build():
        return elliptic.EllipticProblem(
            grid=grid,
            reg_beta=1e308,
            lower=grid.field(-ones.values),
            upper=ones,
            target=grid.zero_field(),
        )

    prob = build()
    u = grid.field([1.0, -0.5, 0.5])
    f_u, grad = prob.f_and_grad(u)
    g_u = prob.g_eval(u)
    assert g_u == 5e307
    v = prob.lmo(grad)  # |p| < beta everywhere, so v = 0
    assert not v.values.any()
    gap = dual_gap(u, grad, g_u, v, prob.g_eval(v))
    assert prob.g_along_bounds(u, v.values - u.values) is None

    composite = prob.composite()
    composite.line_objective(u, v)
    assert composite.line_enclosure(u, v) is None
    # a pair other than the last one priced has no bracket either
    other = v.with_values(v.values)
    assert composite.line_enclosure(u, other) is None
    assert composite.line_enclosure(other, v) is None

    # the true gap passes at once; three times it never passes and the
    # budget ends the search
    outcomes = []
    for gap_k, params in ((gap, ArmijoParams()), (3.0 * gap, ArmijoParams(0.5, 0.5, 40))):
        results = []
        for enclosed in (True, False):
            composite = build().composite()
            if not enclosed:
                composite = dataclasses.replace(composite, line_enclosure=None)
            try:
                results.append(armijo_step(u, v, gap_k, composite, params, f_u + g_u))
            except LineSearchError as exc:
                results.append(("raised", exc.exponent))
        assert results[0] == results[1]
        outcomes.append(results[0])
    assert outcomes == [(1.0, 0), ("raised", 41)]
