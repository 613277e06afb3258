"""Tests for the Poisson tracking instance: gradient, LMO, structure tools."""

import math
import tracemalloc

import numpy as np
import pytest

from gcg._sparse_reference import assemble_laplacian
from gcg.core import (
    ControlField,
    SolverConfig,
    SolveStatus,
    dual_gap,
    gcg_solve,
)
from gcg.diagnostics import growth_measures
from gcg.elliptic import (
    EXAMPLES,
    EllipticProblem,
    make_example,
)
from gcg.pde import Grid

from helpers import pairing, sample_feasible


def dense_inverse(grid):
    return np.linalg.inv(assemble_laplacian(grid).matrix.toarray())


def small_problem(beta=0.5):
    grid = Grid(3, 1)
    return EllipticProblem(
        grid=grid,
        reg_beta=beta,
        lower=grid.field([-1.0, -1.0, -1.0]),
        upper=grid.field([1.0, 1.0, 1.0]),
        target=grid.field([0.0, 0.0, 0.0]),
    )


def test_gradient_matches_central_difference():
    prob = make_example("stadler-ex1", 16)
    rng = np.random.default_rng(7)
    t = 1e-5
    for trial in range(20):
        u = sample_feasible(prob, rng)
        d = u.with_values(rng.standard_normal(u.size))
        f_val, grad = prob.f_and_grad(u)
        f_plus, _ = prob.f_and_grad(u.with_values(u.values + t * d.values))
        f_minus, _ = prob.f_and_grad(u.with_values(u.values - t * d.values))
        fd = (f_plus - f_minus) / (2.0 * t)
        assert abs(fd - pairing(grad, d)) <= 1e-6 * (1.0 + abs(f_val))


def test_gradient_is_adjoint_state():
    # p = K (K u - target) against a dense reference on a small grid
    prob = small_problem()
    prob = EllipticProblem(
        grid=prob.grid,
        reg_beta=prob.reg_beta,
        lower=prob.lower,
        upper=prob.upper,
        target=prob.grid.field([0.1, -0.2, 0.3]),
    )
    inv = dense_inverse(prob.grid)
    u = prob.grid.field([0.5, -0.4, 0.2])
    _, grad = prob.f_and_grad(u)
    expected = inv @ (inv @ u.values - prob.target.values)
    np.testing.assert_allclose(grad.values, expected, rtol=1e-12, atol=1e-14)


def test_lmo_beats_dense_nodewise_scan():
    # nodewise the oracle minimizes mass * (p v + beta |v|) over [lo, up];
    # compare against a fine sweep of candidate values at every node
    prob = make_example("stadler-ex3", 2)
    rng = np.random.default_rng(13)
    sweep = np.linspace(0.0, 1.0, 100001)
    for trial in range(5):
        p = prob.grid.field(rng.uniform(-3 * prob.reg_beta, 3 * prob.reg_beta, 4))
        v = prob.lmo(p)
        for i in range(4):
            cand = prob.lower.values[i] + sweep * (
                prob.upper.values[i] - prob.lower.values[i]
            )
            obj = p.values[i] * cand + prob.reg_beta * np.abs(cand)
            got = p.values[i] * v.values[i] + prob.reg_beta * abs(v.values[i])
            assert got <= float(obj.min()) + 1e-12


def test_lmo_certificate_against_random_feasible_points():
    prob = make_example("stadler-ex1", 6)
    rng = np.random.default_rng(19)
    p = prob.grid.field(rng.standard_normal(prob.grid.n_nodes) * prob.reg_beta * 2)
    v = prob.lmo(p)
    lhs = pairing(p, v) + prob.g_eval(v)
    for trial in range(1000):
        w = sample_feasible(prob, rng)
        rhs = pairing(p, w) + prob.g_eval(w)
        assert lhs <= rhs + 1e-12 * (1.0 + abs(rhs))


def test_lmo_threshold_cases_and_ties():
    prob = small_problem(beta=0.5)
    p = prob.grid.field([0.7, 0.1, -0.7])
    np.testing.assert_array_equal(prob.lmo(p).values, [-1.0, 0.0, 1.0])
    # ties at |p| = beta resolve to the bound
    p_tie = prob.grid.field([0.5, -0.5, 0.0])
    np.testing.assert_array_equal(prob.lmo(p_tie).values, [-1.0, 1.0, 0.0])


def test_lmo_output_is_gap_certified():
    prob = make_example("stadler-ex1", 6).composite()
    rng = np.random.default_rng(29)
    grid_field = sample_feasible(make_example("stadler-ex1", 6), rng)
    _, grad = prob.smooth_eval(grid_field)
    v = prob.lmo(grad)
    gap = dual_gap(
        grid_field,
        grad,
        prob.nonsmooth_eval(grid_field),
        v,
        prob.nonsmooth_eval(v),
    )
    assert gap >= 0.0


def test_g_eval_box_and_penalty():
    prob = small_problem(beta=0.5)
    u = prob.grid.field([1.0, -0.5, 0.0])
    assert prob.g_eval(u) == pytest.approx(0.5 * 0.25 * 1.5)
    outside = prob.grid.field([1.1, 0.0, 0.0])
    assert prob.g_eval(outside) == math.inf
    # fp slack keeps roundoff-level violations feasible
    nudged = prob.grid.field([1.0 + 1e-13, 0.0, 0.0])
    assert math.isfinite(prob.g_eval(nudged))
    # the slack is 1e-12 bound_scale: a node at lower - slack or upper +
    # slack is feasible, and one double further out is not
    grid = prob.grid
    wide = EllipticProblem(
        grid=grid,
        reg_beta=0.5,
        lower=grid.field([-30.0, -2.0, 0.0]),
        upper=grid.field([1.0, 30.0, 0.0]),
        target=grid.zero_field(),
    )
    assert wide.bound_scale == 30.0
    slack = 1e-12 * wide.bound_scale
    for i in range(grid.n_nodes):
        lower, upper = wide.lower.values[i], wide.upper.values[i]
        for edge, away in ((lower - slack, -math.inf), (upper + slack, math.inf)):
            values = np.zeros(grid.n_nodes)
            values[i] = edge
            assert math.isfinite(wide.g_eval(grid.field(values)))
            values[i] = np.nextafter(edge, away)
            assert wide.g_eval(grid.field(values)) == math.inf


def test_line_objective_matches_direct_evaluation():
    prob = make_example("stadler-ex3", 8)
    rng = np.random.default_rng(37)
    for trial in range(5):
        u = sample_feasible(prob, rng)
        _, grad = prob.f_and_grad(u)
        v = prob.lmo(grad)
        phi = prob.line_objective(u, v)
        for s in (0.0, 0.17, 0.5, 1.0, float(rng.uniform())):
            blend = u.with_values(u.values + s * (v.values - u.values))
            f_val, _ = prob.f_and_grad(blend)
            direct = f_val + prob.g_eval(blend)
            assert phi(s) == pytest.approx(direct, rel=1e-12, abs=1e-14)


def test_each_probe_of_the_group_norms_takes_one_buffer():
    # a backtracking probe sums |u + s du| from one full-size buffer, the
    # array it returns
    prob = make_example("stadler-ex1", 64)
    rng = np.random.default_rng(17)
    u, v = sample_feasible(prob, rng), sample_feasible(prob, rng)
    along = prob.group_norms_along(u, v.values - u.values)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        norms = along(0.3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert norms.nbytes <= peak < 1.5 * norms.nbytes


def test_structure_hand_case():
    prob = small_problem(beta=0.5)
    u = prob.grid.field([-1.0, 0.0, 0.5])
    p = prob.grid.field([0.7, 0.1, -0.7])
    rep = prob.structure(u, p)
    assert list(rep) == ["three_value_fraction", "case_match_fraction"]
    # node 2 sits strictly between 0 and the bound where p < -beta
    assert rep["three_value_fraction"] == pytest.approx(2.0 / 3.0)
    assert rep["case_match_fraction"] == pytest.approx(2.0 / 3.0)


def test_structure_transition_band():
    prob = small_problem(beta=0.5)
    # p exactly at the threshold: any value in the adjacent interval is fine
    u = prob.grid.field([-0.3, 0.0, 0.0])
    p = prob.grid.field([0.5, 0.0, 0.0])
    rep = prob.structure(u, p)
    assert rep["case_match_fraction"] == pytest.approx(1.0)
    assert rep["three_value_fraction"] == pytest.approx(2.0 / 3.0)


def test_growth_measure_band_mass():
    prob = small_problem(beta=0.5)
    p = prob.grid.field([0.75, 0.1, -0.55])  # node 0 on the 0.25 band's edge
    distance = prob.growth_distance(p)
    np.testing.assert_allclose(distance, [0.25, 0.4, 0.05])
    measures = growth_measures(distance, prob.growth_quantum, [0.1, 0.25])
    assert measures == pytest.approx([0.25, 0.5])
    with pytest.raises(ValueError):
        growth_measures(distance, prob.growth_quantum, [0.1, 0.0])


def test_example_parameters():
    prob1 = make_example("stadler-ex1", 8)
    assert prob1.reg_beta == 0.001
    np.testing.assert_array_equal(prob1.lower.values, np.full(64, -30.0))
    np.testing.assert_array_equal(prob1.upper.values, np.full(64, 30.0))
    x1, x2 = prob1.grid.coords()
    y_d = np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2) * np.exp(2 * x1) / 6.0
    np.testing.assert_allclose(prob1.target.values, y_d, rtol=1e-12)

    prob3 = make_example("stadler-ex3", 8)
    assert prob3.reg_beta == 0.002
    np.testing.assert_array_equal(prob3.lower.values, np.full(64, -10.0))
    x1, _ = prob3.grid.coords()
    np.testing.assert_allclose(
        prob3.upper.values, np.where(x1 <= 0.25, 0.0, -5.0 + 20.0 * x1)
    )
    assert np.all(prob3.upper.values <= 1e-12) or np.any(prob3.upper.values > 0)

    with pytest.raises(ValueError):
        make_example("no-such-example", 8)
    assert set(EXAMPLES) == {"stadler-ex1", "stadler-ex3"}


def test_example_fixed_source_folds_into_target():
    prob3 = make_example("stadler-ex3", 6)
    x1, x2 = prob3.grid.coords()
    y_d = np.sin(4 * np.pi * x1) * np.cos(8 * np.pi * x2) * np.exp(2 * x1)
    h_src = 10.0 * np.cos(8 * np.pi * x1) * np.sin(8 * np.pi * x2)
    expected = y_d - dense_inverse(prob3.grid) @ h_src
    np.testing.assert_allclose(prob3.target.values, expected, rtol=1e-12)


def test_zero_control_objective_approaches_closed_form():
    # f(0) = 0.5 |y_d|^2 with |y_d|^2 = (1/36) I1 I2 for the separable
    # target; I1 = ((e^4 - 1)/8) pi^2/(1+pi^2), I2 = 1/2
    i1 = (math.exp(4.0) - 1.0) / 8.0 * math.pi**2 / (1.0 + math.pi**2)
    exact = 0.5 * i1 * 0.5 / 36.0
    errs = []
    for n in (8, 16, 32):
        prob = make_example("stadler-ex1", n)
        f0, _ = prob.f_and_grad(prob.zero_control())
        errs.append(abs(f0 - exact) / exact)
    assert errs[1] <= 5e-4
    assert errs[0] > errs[1] > errs[2]


def test_lipschitz_estimate_bounds_gradient_differences():
    prob = make_example("stadler-ex1", 6)
    big_l = prob.lipschitz_estimate
    rng = np.random.default_rng(43)
    for trial in range(10):
        u = sample_feasible(prob, rng)
        w = sample_feasible(prob, rng)
        _, gu = prob.f_and_grad(u)
        _, gw = prob.f_and_grad(w)
        diff, grad_diff = u.diff(w), gu.diff(gw)
        grad_diff = math.sqrt(pairing(grad_diff, grad_diff))
        assert grad_diff <= big_l * prob.dual_norm(diff) * (1.0 + 1e-12)


def test_gap_bounds_adjoint_distance_to_minimizer():
    # 0.5 |S(u - u*)|^2 <= gap(u) for the quadratic f, and the dual of the
    # closed-form l2-by-l1 bound of K turns that into
    # |p - p*|_inf <= sqrt(L) sqrt(2 gap);
    # two runs at different gaps must then lie within the sum of both radii.
    prob = make_example("stadler-ex1", 12)
    adjoints, radii = [], []
    for gap_tol in (1e-6, 1e-8):
        config = SolverConfig(gap_tol=gap_tol, max_iter=20000)
        result = gcg_solve(prob.composite(), prob.zero_control(), config)
        assert result.status is SolveStatus.CONVERGED
        adjoints.append(result.final_gradient.values)
        radii.append(math.sqrt(prob.lipschitz_estimate * 2.0 * result.history[-1].gap))
    assert np.max(np.abs(adjoints[0] - adjoints[1])) <= sum(radii)


def test_sample_feasible_respects_bounds():
    prob = make_example("stadler-ex3", 5)
    rng = np.random.default_rng(47)
    for trial in range(10):
        u = sample_feasible(prob, rng)
        assert np.all(u.values >= prob.lower.values)
        assert np.all(u.values <= prob.upper.values)
        assert math.isfinite(prob.g_eval(u))


def test_problem_validation():
    grid = Grid(3, 1)
    ones = grid.field(np.ones(3))
    neg_ones = grid.field(-np.ones(3))
    zeros = grid.zero_field()
    with pytest.raises(ValueError):
        EllipticProblem(grid, -0.1, neg_ones, ones, zeros)
    with pytest.raises(ValueError):
        # lower bound above zero excludes the origin
        EllipticProblem(grid, 0.1, ones, ones, zeros)
    with pytest.raises(ValueError):
        EllipticProblem(grid, 0.1, neg_ones, ones, Grid(4, 1).zero_field())


def test_examples_are_square_only():
    # example_grid names the example and builds the square grid, so the
    # fields need no checks of their own
    for name in EXAMPLES:
        assert make_example(name, 4).grid == Grid(4, 2)
    with pytest.raises(ValueError, match="unknown elliptic example 'stadler-ex2'"):
        make_example("stadler-ex2", 4)
