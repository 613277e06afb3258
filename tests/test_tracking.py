"""Tests for the shared tracking term: the one memo record of the state and
the last segment, and the state carried from the line search into the next
iterate."""

import dataclasses
import inspect
import itertools
import math

import numpy as np
import pytest

from gcg import core, elliptic, parabolic
from gcg.core import (
    LineSearchError,
    SolverConfig,
    SolveStatus,
    armijo_step,
    dual_gap,
    gcg_solve,
)
from gcg.pde import ResidualCheckError

from helpers import sample_feasible

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
    u, w = sample_feasible(prob, rng), sample_feasible(prob, rng)
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
            armijo_step(fresh.line_objective(u, v), last.j_value, gap, config)
        assert failed.value.exponent == last.backtracks


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_step_carries_the_state_of_the_priced_segment_only(kind):
    prob = BUILDERS[kind]()
    rng = np.random.default_rng(97)
    u, w = sample_feasible(prob, rng), sample_feasible(prob, rng)
    _, grad = prob.f_and_grad(u)
    v = prob.lmo(grad)
    s = 0.99**7
    prob.line_objective(u, v)
    calls = count_solves(prob)

    # a pair line_objective did not price: a plain blend, solved afresh
    z = prob.step(w, v, s)
    assert np.array_equal(z.values, w.blend(v, s).values)
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

    # the memo moved to another field since the pricing: a plain blend,
    # from u as from that field
    for start in (u, w):
        prob.f_and_grad(u)
        prob.line_objective(u, v)
        prob.f_and_grad(w)
        calls.clear()
        z = prob.step(start, v, s)
        assert np.array_equal(z.values, start.blend(v, s).values)
        prob.f_and_grad(z)
        assert len(calls) == 1

    # a solve that raised left the record as it was: the priced pair still
    # carries its state, with no solve
    def failing(values):
        raise ResidualCheckError("the state solve failed its check")

    prob.line_objective(u, v)
    record = prob._memo
    solve, prob.solve_state = prob.solve_state, failing
    with pytest.raises(ResidualCheckError):
        prob.f_and_grad(x)
    prob.solve_state = solve
    assert prob._memo is record
    calls.clear()
    z = prob.step(u, v, s)
    assert np.array_equal(z.values, u.blend(v, s).values)
    prob.f_and_grad(z)
    assert calls == []


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_reused_values_are_the_fresh_floats(kind):
    # f0 from the recorded state, the step from the kept difference and the
    # carried state give, bit for bit, what computing each afresh gives
    prob, fresh = BUILDERS[kind](), BUILDERS[kind]()
    rng = np.random.default_rng(101)
    u = sample_feasible(prob, rng)
    f_u, grad = prob.f_and_grad(u)
    v = prob.lmo(grad)
    y_u = fresh.solve_state(u.values)
    dy = fresh.solve_state(v.values - u.values)
    f_fresh, _ = BUILDERS[kind]().f_and_grad(u)
    for s in STEPS:
        calls = count_solves(prob)
        phi = prob.line_objective(u, v)  # a memo hit: only S (v - u) is solved
        assert len(calls) == 1
        assert inspect.getclosurevars(phi).nonlocals["f0"] == f_u == f_fresh
        expected = BUILDERS[kind]().line_objective(u, v)
        assert [phi(t) for t in STEPS] == [expected(t) for t in STEPS]
        w = prob.step(u, v, s)
        assert w.values.tobytes() == u.blend(v, s).values.tobytes()
        w_memo, state, segment = prob._memo
        assert w_memo is w and segment is None
        assert state.tobytes() == (y_u + s * dy).tobytes()
        prob.f_and_grad(u)  # the memo back at u for the next step


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_phi_at_zero_is_j_of_u_bit_for_bit(kind):
    # the search weighs phi(0) = j(u) against phi(gamma**n); phi(0) takes f0
    # and g_along(0) by the formulas of f_and_grad and g_eval
    prob = BUILDERS[kind]()
    rng = np.random.default_rng(0)
    for _ in range(200):
        u, v = sample_feasible(prob, rng), sample_feasible(prob, rng)
        f_u, _ = prob.f_and_grad(u)
        assert prob.line_objective(u, v)(0.0) == f_u + prob.g_eval(u)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_penalty_is_the_measured_sum_of_group_norms(kind):
    # g_eval, dual_norm, g_along and growth_distance all come from the
    # instance's group norms, summed as penalty * (growth_quantum * sum)
    prob = BUILDERS[kind]()
    lam, q = prob.penalty, prob.growth_quantum
    rng = np.random.default_rng(43)
    for _ in range(50):
        u, v = sample_feasible(prob, rng), sample_feasible(prob, rng)
        du = v.values - u.values
        norms = prob.group_norms(u)
        along = prob.group_norms_along(u, du)
        assert along(0.0).tobytes() == norms.tobytes()
        assert prob.dual_norm(u) == q * float(norms.sum())
        assert prob.g_eval(u) == lam * prob.dual_norm(u)
        g_along = prob.g_along(u, du)
        assert g_along(0.0) == prob.g_eval(u)
        for s in STEPS:
            assert g_along(s) == lam * (q * float(along(s).sum()))
        _, p = prob.f_and_grad(u)
        distance = prob.growth_distance(p)
        assert distance.tobytes() == np.abs(prob.group_norms(p) - lam).tobytes()

    # a vertex of the oracle sits on the boundary of the feasible set; a step
    # of 1e-13 beyond stays within the set's 1e-12 slack, one of 1e-9 leaves it
    vertex = prob.lmo(u.with_values(rng.standard_normal(u.size)))
    assert prob.dual_norm(vertex) > 0.0
    for scale, inside in ((1.0, True), (1.0 + 1e-13, True), (1.0 + 1e-9, False)):
        x = vertex.with_values(scale * vertex.values)
        assert prob.feasible(x) is inside
        assert math.isfinite(prob.g_eval(x)) is inside


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_curvature_from_phi_at_one_is_the_segment_norm(kind):
    # armijo_step takes c = 2 (phi(1) - j(u) + gap) for the curvature
    # |S (v - u)|**2 of the priced segment; it is that norm to rounding
    prob = BUILDERS[kind]()
    rng = np.random.default_rng(107)
    eps = np.finfo(float).eps
    for u in (prob.zero_control(), *(sample_feasible(prob, rng) for _ in range(4))):
        f_u, grad = prob.f_and_grad(u)
        g_u = prob.g_eval(u)
        v = prob.lmo(grad)
        j_u = f_u + g_u
        gap = dual_gap(u, grad, g_u, v, prob.g_eval(v), slack=1e-12 * (abs(j_u) + 1.0))
        j_v = prob.line_objective(u, v)(1.0)
        dy = prob._memo[2][2]
        norm_sq = u.weight * float(np.dot(dy, dy))
        assert norm_sq > 0.0
        c = 2.0 * (j_v - j_u + gap)
        assert abs(c - norm_sq) <= 16 * eps * (abs(j_u) + abs(j_v) + gap)


# elliptic runs whose searches start at the curvature's step, walk down from
# it, and, at n = 2, reach rounding level, where the start falls back
SEARCH_RUNS = {
    "ex1-max-iter": STOPS["max-iter"],
    "ex3": (
        lambda: elliptic.make_example("stadler-ex3", 16),
        SolverConfig(),
        SolveStatus.CONVERGED,
    ),
    "ex1-failed-search": STOPS["failed-search"],
}


def logged_searches(monkeypatch) -> list:
    """Log every armijo_step: (gap, j_u, params, phi, [s of phi], outcome),
    with outcome (step, n), or ("raised", exponent) for a failed search."""
    searches = []
    search = core.armijo_step

    def logged(phi, j_u, gap, params):
        priced = []

        def counted(s):
            priced.append(s)
            return phi(s)

        outcome = None
        try:
            outcome = search(counted, j_u, gap, params)
            return outcome
        except LineSearchError as exc:
            outcome = ("raised", exc.exponent)
            raise
        finally:
            searches.append((gap, j_u, params, phi, priced, outcome))

    monkeypatch.setattr(core, "armijo_step", logged)
    return searches


def rounding_edge(gap, j_u, gamma):
    """The last n whose gamma**n * gap lies above the rounding of j(u),
    8 eps |j(u)|, as armijo_step places it; -1 when there is none."""
    ratio = 8.0 * np.finfo(float).eps * abs(j_u) / gap
    if not 0.0 < ratio < 1.0:
        return -1
    return math.ceil(math.log(ratio) / math.log(gamma)) - 1


def scan_passes(gap, j_u, params, phi, deepest, last):
    """The test at n = 0, 1, ... down to the step deepest and to n = last,
    or to where the scan stops untested; and the n where it stops, or None."""
    passes = []
    for n in itertools.count():
        s = params.gamma**n
        target = params.alpha * s * gap
        if target == 0.0:
            return passes, n
        if s < deepest and n > last:
            return passes, None
        passes.append(target <= j_u - phi(s))


@pytest.mark.parametrize("run", sorted(SEARCH_RUNS))
def test_searches_keep_the_scan_along_runs(run, monkeypatch):
    # each search returns the linear scan's (step, n) wherever the scan's
    # test is monotone from its first pass down to the rounding edge or
    # over the exponents the search probed; elsewhere it keeps the
    # backtracking contract
    build, config, status = SEARCH_RUNS[run]
    prob = build()
    searches = logged_searches(monkeypatch)
    result = gcg_solve(prob.composite(), prob.zero_control(), config)
    assert result.status is status
    assert len(searches) >= result.iterations
    matched = 0
    for gap, j_u, params, phi, priced, outcome in searches:
        assert priced[0] == 1.0
        edge = rounding_edge(gap, j_u, params.gamma)
        # the second probe, the start or the gallop's n = 2, lies above the
        # rounding of j(u) wherever the edge leaves room for it
        if len(priced) > 1:
            assert priced[1] >= params.gamma ** max(edge, 2)
        if outcome[0] == "raised":
            # only where the test fails just before the scan stops
            passes, stop = scan_passes(gap, j_u, params, phi, 0.0, edge)
            assert stop == outcome[1] and not passes[-1]
            continue
        step, n = outcome
        passes, _ = scan_passes(gap, j_u, params, phi, min(priced), edge)
        first = passes.index(True)
        monotone_to_edge = first <= edge and all(passes[first : edge + 1])
        if monotone_to_edge or all(passes[first:]):
            assert (step, n) == (params.gamma**first, first)
            matched += 1
        else:
            assert passes[n] and (n == 0 or not passes[n - 1])
    assert matched >= len(searches) // 2
    # phi(1), the start and the exponent above it decide most searches;
    # the failed search, at rounding level, falls back to the gallop
    probes = [len(priced) for *_, priced, _ in searches]
    assert sum(p <= 3 for p in probes) >= 0.8 * len(probes)
    if status is SolveStatus.LINE_SEARCH_FAILED:
        assert max(probes) > 3


@pytest.mark.parametrize(
    "build, gap_tol, searches, probes",
    [
        (lambda: elliptic.make_example("stadler-ex1", 64), 1e-9, 417, 1243),
        (lambda: parabolic.make_example("parabolic-ex", 32, 500), 1e-10, 13, 53),
    ],
    ids=["ex1-n64", "heat-2d"],
)
def test_benchmark_workloads_keep_their_search_counts(build, gap_tol, searches, probes):
    # the two benchmark workloads as `gcg run` solves them, with the line
    # searches and phi evaluations that bench/run.py reports as
    # core.line_searches and core.probes; a change to the step rule or to
    # the rounding of phi moves them
    prob = build()
    composite = prob.composite()
    counts = [0, 0]

    def line_objective(u, v):
        phi = composite.line_objective(u, v)
        counts[0] += 1

        def counted(s):
            counts[1] += 1
            return phi(s)

        return counted

    counted_problem = dataclasses.replace(composite, line_objective=line_objective)
    result = gcg_solve(counted_problem, prob.zero_control(), SolverConfig(gap_tol))
    assert result.status is SolveStatus.CONVERGED
    assert (result.iterations, *counts) == (searches, searches, probes)
