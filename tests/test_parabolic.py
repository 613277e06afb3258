"""Tests for the heat tracking instance: gradient, slicewise LMO, sparsity."""

import math
import operator

import numpy as np
import pytest

from gcg import parabolic
from gcg.core import ControlField, SolverConfig, gcg_solve
from gcg.diagnostics import growth_measures
from gcg.parabolic import (
    EXAMPLES,
    ParabolicProblem,
    make_example,
)
from gcg.pde import (
    Grid,
    SpaceTimeGrid,
    slice_sq_norms,
)

from helpers import pairing, sample_feasible, slice_l2_norms


def tiny_problem(alpha=0.5, radius=1.0, nt=3):
    grid = SpaceTimeGrid(Grid(1, 1), nt=nt, horizon=1.0)
    return ParabolicProblem(
        grid=grid,
        conductivity=1.0,
        reg_alpha=alpha,
        ball_radius=radius,
        target=grid.zero_field(),
    )


def test_gradient_matches_central_difference():
    prob = make_example("parabolic-ex", 16, 20)
    rng = np.random.default_rng(53)
    t = 1e-5
    for trial in range(20):
        u = sample_feasible(prob, rng)
        d = u.with_values(rng.standard_normal(u.size))
        f_val, grad = prob.f_and_grad(u)
        f_plus, _ = prob.f_and_grad(u.with_values(u.values + t * d.values))
        f_minus, _ = prob.f_and_grad(u.with_values(u.values - t * d.values))
        fd = (f_plus - f_minus) / (2.0 * t)
        assert abs(fd - pairing(grad, d)) <= 1e-6 * (1.0 + abs(f_val))


def test_lmo_beats_dense_slicewise_scan():
    # one spatial node: each slice minimizes tau * (p v h + alpha sqrt(h)|v|)
    # over sqrt(h) |v| <= M; sweep candidate values densely per slice
    prob = tiny_problem(alpha=0.3, radius=0.7)
    h = prob.grid.space.h
    vmax = prob.ball_radius / math.sqrt(h)
    sweep = np.linspace(-vmax, vmax, 100001)
    rng = np.random.default_rng(61)
    for trial in range(5):
        p = prob.grid.field(rng.standard_normal(prob.grid.n_nodes))
        v = prob.lmo(p)
        v_sl = prob.grid.as_slices(v.values)[:, 0]
        p_sl = prob.grid.as_slices(p.values)[:, 0]
        for m in range(prob.grid.nt):
            obj = p_sl[m] * sweep * h + prob.reg_alpha * math.sqrt(h) * np.abs(sweep)
            got = p_sl[m] * v_sl[m] * h + prob.reg_alpha * math.sqrt(h) * abs(v_sl[m])
            assert got <= float(obj.min()) + 1e-12


def test_lmo_certificate_against_random_feasible_points():
    prob = make_example("parabolic-ex-1d", 6, 8)
    rng = np.random.default_rng(67)
    p = prob.grid.field(rng.standard_normal(prob.grid.n_nodes) * 0.01)
    v = prob.lmo(p)
    lhs = pairing(p, v) + prob.g_eval(v)
    for trial in range(1000):
        w = sample_feasible(prob, rng)
        rhs = pairing(p, w) + prob.g_eval(w)
        assert lhs <= rhs + 1e-12 * (1.0 + abs(rhs))


def test_lmo_slice_cases():
    grid = SpaceTimeGrid(Grid(1, 1), nt=3, horizon=1.0)
    h = grid.space.h
    loud = 3.0 / math.sqrt(h)
    p = grid.field([loud, 0.5 / math.sqrt(h), 0.1])
    # pin the threshold to the middle slice's computed norm so the tie is
    # exact in floating point
    tie_norm = float(slice_l2_norms(p)[1])
    prob = ParabolicProblem(
        grid=grid,
        conductivity=1.0,
        reg_alpha=tie_norm,
        ball_radius=2.0,
        target=grid.zero_field(),
    )
    v = prob.lmo(p)
    norms = slice_l2_norms(v)
    assert norms[0] == pytest.approx(2.0, rel=1e-12)
    assert norms[1] == pytest.approx(2.0, rel=1e-12)  # ties go to the boundary
    assert norms[2] == 0.0
    # antipodal direction
    v_sl = prob.grid.as_slices(v.values)
    assert v_sl[0, 0] < 0.0
    # zero input stays zero even with zero penalty
    prob0 = tiny_problem(alpha=0.0, radius=2.0)
    assert np.all(prob0.lmo(prob0.grid.zero_field()).values == 0.0)


def test_g_eval_ball_and_group_penalty():
    prob = tiny_problem(alpha=0.5, radius=1.0)
    h = prob.grid.space.h
    tau = prob.grid.tau
    u = prob.grid.field([1.0, -1.2, 0.0])
    norms = math.sqrt(h) * np.array([1.0, 1.2, 0.0])
    assert np.all(norms <= 1.0)
    assert prob.g_eval(u) == pytest.approx(0.5 * tau * norms.sum())
    too_big = prob.grid.field([0.0, 3.0, 0.0])  # slice norm sqrt(h)*3 > 1
    assert prob.g_eval(too_big) == math.inf
    # fp slack at the ball surface
    edge = prob.grid.field([0.0, (1.0 + 1e-13) / math.sqrt(h), 0.0])
    assert math.isfinite(prob.g_eval(edge))


def test_line_objective_matches_direct_evaluation():
    prob = make_example("parabolic-ex-1d", 8, 10)
    rng = np.random.default_rng(71)
    for trial in range(5):
        u = sample_feasible(prob, rng)
        _, grad = prob.f_and_grad(u)
        v = prob.lmo(grad)
        phi = prob.line_objective(u, v)
        for s in (0.0, 0.25, 0.8, 1.0, float(rng.uniform())):
            blend = u.with_values(u.values + s * (v.values - u.values))
            f_val, _ = prob.f_and_grad(blend)
            direct = f_val + prob.g_eval(blend)
            assert phi(s) == pytest.approx(direct, rel=1e-12, abs=1e-14)


def test_power_convexity_antipodal_value():
    # for v = -u the modulus ratio is exactly 1/4:
    # (|p| + |p|) / (2 |p| * 4) = 1/4
    prob = tiny_problem()
    p = prob.grid.field([2.0, -1.0, 0.5])
    w = p.weight
    p_norm = math.sqrt(w * float(np.dot(p.values, p.values)))
    u = p.values / p_norm
    v = -u
    num = p_norm - w * float(np.dot(p.values, v))
    dist_sq = w * float(np.dot(u - v, u - v))
    assert num / (2.0 * p_norm * dist_sq) == pytest.approx(0.25, rel=1e-14)


def power_convexity_check(
    p: ControlField, trials: int, seed: int = 0
) -> float:
    """Minimum of (|p| - (p, v)) / (2 |p| |u - v|**2) over random unit-ball v.

    u = p/|p| maximizes the pairing over the unit ball; the ratio is the
    modulus with which the maximum is attained.  In this weighted Euclidean
    geometry the infimum over the ball is 1/4 (attained as |v| -> 1), so the
    sampled minimum sits slightly above it.  Points with |u - v| <= 1e-8
    are skipped.  Requires p != 0.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    w = p.weight
    p_norm = math.sqrt(w * float(np.dot(p.values, p.values)))
    if p_norm == 0.0:
        raise ValueError("the check needs a nonzero reference vector")
    u = p.values / p_norm
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(trials):
        g = rng.standard_normal(p.size)
        g_norm = math.sqrt(w * float(np.dot(g, g)))
        if g_norm == 0.0:
            continue
        v = (rng.uniform() / g_norm) * g
        dist_sq = w * float(np.dot(u - v, u - v))
        if dist_sq <= 1e-16:
            continue
        num = p_norm - w * float(np.dot(p.values, v))
        best = min(best, num / (2.0 * p_norm * dist_sq))
    return best


def test_power_convexity_sampled_minimum_stays_above_quarter():
    prob = make_example("parabolic-ex-1d", 6, 10)
    rng = np.random.default_rng(73)
    p = prob.grid.field(rng.standard_normal(prob.grid.n_nodes))
    best = power_convexity_check(p, trials=2000, seed=5)
    assert best >= 0.25 - 1e-12
    assert math.isfinite(best)
    with pytest.raises(ValueError):
        power_convexity_check(p, trials=0)
    with pytest.raises(ValueError):
        power_convexity_check(prob.grid.zero_field(), trials=10)


def test_solution_slice_structure():
    # at (near) optimality the control follows the adjoint slicewise:
    # quiet slices are off, loud slices sit antipodally on the ball surface
    prob = make_example("parabolic-ex-1d", 10, 24)
    res = gcg_solve(
        prob.composite(), prob.zero_control(), SolverConfig(gap_tol=1e-9, max_iter=300)
    )
    u = res.final_iterate
    _, p = prob.f_and_grad(u)
    sl_u = prob.grid.as_slices(u.values)
    sl_p = prob.grid.as_slices(p.values)
    w = prob.grid.space.weight
    u_norms = slice_l2_norms(u)
    p_norms = slice_l2_norms(p)
    alpha, m_ball = prob.reg_alpha, prob.ball_radius
    quiet = p_norms < alpha - 2e-4
    loud = p_norms > alpha + 2e-4
    assert quiet.any() and loud.any()
    assert float(u_norms[quiet].max()) <= 1e-6
    for m in np.flatnonzero(loud):
        ideal = -m_ball * sl_p[m] / p_norms[m]
        err = math.sqrt(w * float(np.dot(sl_u[m] - ideal, sl_u[m] - ideal)))
        assert err <= 5e-3 * m_ball


def test_structure_slice_norms_and_sparsity():
    prob = tiny_problem(alpha=0.5, radius=0.8, nt=4)
    h = prob.grid.space.h
    scale = 1.0 / math.sqrt(h)
    u = prob.grid.field(np.array([0.0, 0.8, 0.4, 0.8]) * scale)
    _, p = prob.f_and_grad(u)
    np.testing.assert_allclose(prob.grid.times(), [0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(slice_l2_norms(u), [0.0, 0.8, 0.4, 0.8], atol=1e-14)
    rep = prob.structure(u, p)
    keys = ["time_sparsity_fraction", "control_norm_max", "adjoint_norm_max"]
    assert list(rep) == keys
    assert rep["time_sparsity_fraction"] == pytest.approx(0.75)
    assert rep["control_norm_max"] == pytest.approx(0.8)
    assert rep["adjoint_norm_max"] == float(np.max(slice_l2_norms(p)))


def test_growth_measure_time_band():
    prob = tiny_problem(alpha=0.5, radius=1.0, nt=4)
    h = prob.grid.space.h
    scale = 1.0 / math.sqrt(h)
    p = prob.grid.field(np.array([0.7, 0.1, 0.55, 0.45]) * scale)
    tau = prob.grid.tau
    assert prob.growth_quantum == tau
    distance = prob.growth_distance(p)
    np.testing.assert_allclose(distance, [0.2, 0.4, 0.05, 0.05])
    measures = growth_measures(distance, tau, [0.1, 0.25])
    assert measures == pytest.approx([2 * tau, 3 * tau])
    with pytest.raises(ValueError):
        growth_measures(distance, tau, [-1.0])


def test_example_parameters():
    prob = make_example("parabolic-ex", 4, 6)
    assert prob.conductivity == 0.7
    assert prob.reg_alpha == 0.0035
    assert prob.ball_radius == 0.8
    assert prob.grid.nt == 6
    assert prob.grid.horizon == 1.0
    x1, x2 = prob.grid.space.coords()
    spatial = np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2) * np.exp(2 * x1) / 6.0
    t = prob.grid.times()
    expected = np.outer(np.sin(np.pi * t), spatial).ravel()
    np.testing.assert_allclose(prob.target.values, expected, rtol=1e-12)

    prob1d = make_example("parabolic-ex-1d", 5, 7)
    assert prob1d.grid.space.n_nodes == 5
    (x,) = prob1d.grid.space.coords()
    spatial1 = np.sin(2 * np.pi * x) * np.exp(2 * x) / 6.0
    t1 = prob1d.grid.times()
    np.testing.assert_allclose(
        prob1d.target.values, np.outer(np.sin(np.pi * t1), spatial1).ravel(), rtol=1e-12
    )

    with pytest.raises(ValueError):
        make_example("no-such-example", 4, 4)
    assert set(EXAMPLES) == {"parabolic-ex", "parabolic-ex-1d"}


def test_sample_feasible_stays_in_ball():
    prob = make_example("parabolic-ex-1d", 6, 9)
    rng = np.random.default_rng(79)
    for trial in range(10):
        u = sample_feasible(prob, rng)
        assert np.all(slice_l2_norms(u) <= prob.ball_radius * (1.0 + 1e-12))
        assert math.isfinite(prob.g_eval(u))


def test_problem_validation():
    grid = SpaceTimeGrid(Grid(2, 1), nt=2, horizon=1.0)
    target = grid.zero_field()
    with pytest.raises(ValueError):
        ParabolicProblem(grid, 1.0, -0.1, 1.0, target)
    with pytest.raises(ValueError):
        ParabolicProblem(grid, 1.0, 0.1, 0.0, target)
    with pytest.raises(ValueError):
        ParabolicProblem(grid, 1.0, 0.1, 1.0, Grid(2, 1).zero_field())


def test_memoised_slice_norms_match_slice_l2_norms(monkeypatch):
    # g_eval, dual_norm and g_along share one pass over each field's slices,
    # with the floats of the formulas on slice_l2_norms; a0, a1 and a2 are
    # h**dim times the per-slice dots
    prob = make_example("parabolic-ex", 6, 9)
    grid, w = prob.grid, prob.grid.space.weight
    rng = np.random.default_rng(29)
    u, v = sample_feasible(prob, rng), sample_feasible(prob, rng)
    du = v.values - u.values
    passes = []

    def counted(field):
        passes.append(field)
        return slice_sq_norms(field)

    def passes_over(*fields):
        return len(passes) == len(fields) and all(map(operator.is_, passes, fields))

    monkeypatch.setattr(parabolic, "slice_sq_norms", counted)
    got = (prob.g_eval(u), prob.g_eval(v), prob.dual_norm(u), prob.dual_norm(v))
    g_along = prob.g_along(u, du)
    assert passes_over(u, v)

    def time_l1(field):
        return float(grid.tau * slice_l2_norms(field).sum())

    assert got == (
        prob.reg_alpha * time_l1(u),
        prob.reg_alpha * time_l1(v),
        time_l1(u),
        time_l1(v),
    )
    u_sl, d_sl = grid.as_slices(u.values), grid.as_slices(du)
    a0, a1, a2 = (
        w * np.einsum("ij,ij->i", x, y)
        for x, y in ((u_sl, u_sl), (u_sl, d_sl), (d_sl, d_sl))
    )
    for s in (0.0, 0.3, 0.99**5, 1.0):
        sq = np.maximum(a0 + 2.0 * s * a1 + s * s * a2, 0.0)
        assert g_along(s) == prob.reg_alpha * float(grid.tau * np.sqrt(sq).sum())

    # a third field takes the oldest slot; a field that no longer exists
    # matches nothing, whatever reuses its identity
    x = sample_feasible(prob, rng)
    assert prob.dual_norm(x) == time_l1(x)
    assert prob.dual_norm(u) == time_l1(u)
    assert passes_over(u, v, x, u)
    del x, passes[:]
    y = sample_feasible(prob, rng)
    assert prob.dual_norm(y) == time_l1(y)
    assert passes_over(y)


def test_report_reads_slice_norms_from_the_memo(monkeypatch):
    # growth_distance and structure take the slice norms of p and of u once
    # each, with the floats of slice_l2_norms
    prob = make_example("parabolic-ex", 6, 9)
    u = sample_feasible(prob, np.random.default_rng(31))
    _, p = prob.f_and_grad(u)
    passes = []

    def counted(field):
        passes.append(field)
        return slice_sq_norms(field)

    monkeypatch.setattr(parabolic, "slice_sq_norms", counted)
    epsilons = [2.0**-k for k in range(1, 19)]
    distance = prob.growth_distance(p)
    rep = prob.structure(u, p)
    measures = growth_measures(distance, prob.growth_quantum, epsilons)
    assert len(passes) == 2 and passes[0] is p and passes[1] is u

    p_norms, u_norms = slice_l2_norms(p), slice_l2_norms(u)
    band = np.abs(p_norms - prob.reg_alpha)
    assert measures == [
        float(prob.grid.tau * np.count_nonzero(band <= eps)) for eps in epsilons
    ]
    assert any(measures)
    assert rep["control_norm_max"] == float(np.max(u_norms))
    assert rep["adjoint_norm_max"] == float(np.max(p_norms))
