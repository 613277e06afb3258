"""Tests for grids, the Laplacian stencils, heat stepping, and field I/O."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from gcg._sparse_reference import (
    DiscreteOperator,
    _inf_norm,
    _stencil,
    assemble_laplacian,
    estimate_c_constant,
)
from gcg.core import ControlField
from gcg.pde import (
    _CHECK_BLOCK,
    _DUMP_CHUNK,
    _SLICE_BLOCK,
    Grid,
    HeatOperator,
    ResidualCheckError,
    ShiftedLaplacian,
    SpaceTimeGrid,
    _fixed_exponents,
    _format_values,
    check_residual,
    field_header,
    heat_c_constant,
    laplacian_c_constant,
    read_field,
    smallest_laplacian_eigenvalue,
    write_field,
)

from helpers import pairing, slice_l2_norms


def l1_norm(u):
    """The weighted l1 norm, weight * sum_i |u_i|."""
    return u.weight * float(np.abs(u.values).sum())


def l2_norm(u):
    """The weighted l2 norm, sqrt(pairing(u, u))."""
    return math.sqrt(pairing(u, u))


def time_l1(grid, u):
    """Time integral of the slice l2 norms, tau * sum_m |u(t_m)|_2."""
    return float(grid.tau * slice_l2_norms(grid, u).sum())


def solve_poisson(op: DiscreteOperator, rhs: ControlField) -> ControlField:
    """Solve op @ y = rhs nodewise; the weight carries over."""
    if rhs.size != op.size:
        raise ValueError("rhs length does not match the operator")
    return rhs.with_values(op.solve(rhs.values))


def node_weights(grid) -> np.ndarray:
    """The grid's weight at every node, the array estimate_c_constant takes."""
    return np.full(grid.n_nodes, grid.weight)


def test_grid_basics():
    g1 = Grid(3, 1)
    assert g1.h == 0.25
    assert g1.n_nodes == 3
    assert g1.weight == 0.25 and type(g1.weight) is float
    assert g1.field(np.zeros(3)).weight == 0.25
    np.testing.assert_allclose(g1.coords()[0], [0.25, 0.5, 0.75])

    g2 = Grid(2, 2)
    assert g2.h == pytest.approx(1.0 / 3.0)
    assert g2.n_nodes == 4
    assert g2.weight == g2.h**2 == pytest.approx(1.0 / 9.0)
    x1, x2 = g2.coords()
    # x1 varies fastest in the flattening
    np.testing.assert_allclose(x1, [1 / 3, 2 / 3, 1 / 3, 2 / 3])
    np.testing.assert_allclose(x2, [1 / 3, 1 / 3, 2 / 3, 2 / 3])

    st = SpaceTimeGrid(Grid(2, 1), nt=3, horizon=1.5)
    assert st.tau == 0.5
    assert st.n_nodes == 6
    np.testing.assert_allclose(st.times(), [0.5, 1.0, 1.5])
    assert st.weight == 0.5 * (1.0 / 3.0) and type(st.weight) is float
    assert st.zero_field().weight == st.weight
    np.testing.assert_allclose(
        st.as_slices(np.arange(6.0)), [[0, 1], [2, 3], [4, 5]]
    )


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0, 1)
    with pytest.raises(ValueError):
        Grid(0, 2)
    for dim in (0, 3):
        with pytest.raises(ValueError):
            Grid(3, dim)
    with pytest.raises(ValueError):
        SpaceTimeGrid(Grid(2, 1), nt=0)
    with pytest.raises(ValueError):
        SpaceTimeGrid(Grid(2, 1), nt=4, horizon=0.0)


def test_laplacian_smallest_cases():
    # one interior node on the square: h = 1/2, diagonal 4/h**2 = 16
    op2 = assemble_laplacian(Grid(1, 2))
    np.testing.assert_allclose(op2.matrix.toarray(), [[16.0]])

    # 1D with n = 3: 16 * tridiag(-1, 2, -1)
    op1 = assemble_laplacian(Grid(3, 1))
    expected = 16.0 * np.array(
        [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]
    )
    np.testing.assert_allclose(op1.matrix.toarray(), expected)


def test_laplacian_2d_matches_kron_structure():
    n = 4
    op = assemble_laplacian(Grid(n, 2))
    dense = op.matrix.toarray()
    assert dense.shape == (16, 16)
    np.testing.assert_allclose(dense, dense.T)
    h2 = (n + 1) ** 2
    assert dense[0, 0] == pytest.approx(4 * h2)
    # neighbor couplings only along the two axes of the flattening
    assert dense[0, 1] == pytest.approx(-h2)
    assert dense[0, n] == pytest.approx(-h2)
    assert dense[0, n + 1] == 0.0


def test_poisson_quadratic_exact():
    # -y'' = 1 with zero boundary has solution x(1-x)/2; the 3-point stencil
    # reproduces it exactly because the truncation error needs 4 derivatives
    grid = Grid(3, 1)
    rhs = grid.field(np.ones(3))
    y = solve_poisson(assemble_laplacian(grid), rhs)
    np.testing.assert_allclose(y.values, [0.09375, 0.125, 0.09375], atol=1e-14)
    assert y.weight == grid.weight


def test_poisson_rejects_length_mismatch():
    op = assemble_laplacian(Grid(3, 1))
    with pytest.raises(ValueError):
        solve_poisson(op, Grid(4, 1).field(np.ones(4)))


def test_smallest_eigenvalue_matches_dense():
    for grid in (Grid(7, 1), Grid(7, 2)):
        dense = assemble_laplacian(grid).matrix.toarray()
        mu_dense = float(np.linalg.eigvalsh(dense)[0])
        mu = smallest_laplacian_eigenvalue(grid)
        assert mu == pytest.approx(mu_dense, rel=1e-12)


def test_operator_solver_contract():
    op = assemble_laplacian(Grid(5, 1))
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(5)
    y = op.solve(rhs)
    assert np.linalg.norm(op.matrix @ y - rhs) <= 1e-12 * np.linalg.norm(rhs)
    # zero input short-circuits to zero output
    np.testing.assert_array_equal(op.solve(np.zeros(5)), np.zeros(5))
    with pytest.raises(ValueError):
        op.solve(np.ones(4))
    with pytest.raises(ValueError):
        DiscreteOperator(np.ones((2, 3)))


def test_elliptic_solve_is_self_adjoint():
    rng = np.random.default_rng(17)
    for grid in (Grid(9, 1), Grid(6, 2)):
        solver = ShiftedLaplacian(grid)
        for trial in range(10):
            u = grid.field(rng.standard_normal(grid.n_nodes))
            w = grid.field(rng.standard_normal(grid.n_nodes))
            lhs = pairing(u.with_values(solver.solve(u.values)), w)
            rhs = pairing(u, w.with_values(solver.solve(w.values)))
            scale = l2_norm(u) * l2_norm(w)
            assert abs(lhs - rhs) <= 1e-12 * scale


GRIDS = [Grid(1, 1), Grid(7, 1), Grid(1, 2), Grid(5, 2), Grid(64, 2)]
GRID_IDS = ["1", "7", "1x1", "5x5", "64x64"]


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_poisson_solver_matches_sparse_solve(grid):
    # the sine-basis solve against the sparse LU solve it replaced
    rng = np.random.default_rng(grid.n + grid.dim)
    for trial in range(3):
        rhs = rng.standard_normal(grid.n_nodes)
        got = ShiftedLaplacian(grid).solve(rhs)
        want = assemble_laplacian(grid).solve(rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_poisson_check_catches_a_perturbed_solution(grid):
    solver = ShiftedLaplacian(grid)
    rhs = np.random.default_rng(5).standard_normal(grid.n_nodes)
    y = solver.solve(rhs)
    check_residual(solver, y, rhs)  # the solve passes
    y[grid.n_nodes // 2] *= 1.0 + 1e-9
    with pytest.raises(ResidualCheckError, match="residual check"):
        check_residual(solver, y, rhs)


def test_check_residual_names_the_first_failed_row():
    # a NaN row fails like a perturbed one, and the message names the first
    # failed row; a batch whose rows all pass raises nothing
    grid = Grid(5, 2)
    solver = ShiftedLaplacian(grid)
    rhs = np.random.default_rng(8).standard_normal((3, grid.n_nodes))
    y = np.array([solver.solve(r) for r in rhs])
    check_residual(solver, y, rhs, "row {}")
    y[2, 7] *= 1.0 + 1e-9
    with pytest.raises(ResidualCheckError, match=r"^row 2 failed the residual check"):
        check_residual(solver, y, rhs, "row {}")
    y[1, 3] = np.nan
    with pytest.raises(ResidualCheckError, match=r"^row 1 failed the residual check"):
        check_residual(solver, y, rhs, "row {}")


SMALL_GRIDS = [Grid(n, dim) for dim in (1, 2) for n in (1, 2, 3, 5)]
SMALL_IDS = [f"{g.n}" if g.dim == 1 else f"{g.n}x{g.n}" for g in SMALL_GRIDS]


@pytest.mark.parametrize("grid", SMALL_GRIDS, ids=SMALL_IDS)
def test_matrix_free_stencil_matches_assembled(grid):
    # the residual of A and of I + tau a A against the assembled matrices,
    # and the closed-form |M|_inf against their largest row sum; for n <= 2
    # every row is a boundary row.  A one-row batch is one line along the
    # widest stride, which skips the line-end fix, and must give the bits
    # of the same row in a batch of four
    amat = _stencil(grid)
    tau_a = 0.7 / 500
    step = sparse.identity(grid.n_nodes) + tau_a * amat
    rng = np.random.default_rng(grid.n + 10 * grid.dim)
    y = rng.standard_normal((4, grid.n_nodes))
    eps = np.finfo(float).eps
    for free, assembled in ((ShiftedLaplacian(grid), amat), (ShiftedLaplacian(grid, 1.0, tau_a), step)):
        assert free.norm == pytest.approx(_inf_norm(assembled), rel=4 * eps)
        for rhs in (np.zeros_like(y), rng.standard_normal(y.shape)):
            kept = y.copy()
            got = free.residual(y, rhs)
            np.testing.assert_array_equal(y, kept)
            want = np.abs((assembled @ y.T).T - rhs)
            scale = free.norm * np.abs(y).max(axis=1) + np.abs(rhs).max(axis=1)
            assert np.all(np.abs(got - want) <= 8 * eps * scale[:, None])
            for i in range(y.shape[0]):
                row = free.residual(y[i : i + 1], rhs[i : i + 1])
                np.testing.assert_array_equal(y, kept)
                np.testing.assert_array_equal(row, got[i : i + 1])


def test_poisson_solver_rejects_length_mismatch():
    with pytest.raises(ValueError):
        ShiftedLaplacian(Grid(3, 1)).solve(np.ones(4))


def test_heat_single_node_single_step():
    # one interior node on the square, one step of length 1: the stencil is
    # the scalar 16, so (1 + tau * a * 16) y = tau * u gives y = u / 17
    grid = SpaceTimeGrid(Grid(1, 2), nt=1, horizon=1.0)
    u = grid.field([1.0])
    y = grid.field(HeatOperator(grid, 1.0).forward(grid.as_slices(u.values)))
    assert y.values[0] == pytest.approx(1.0 / 17.0, rel=1e-14)


def test_heat_matches_dense_recursion():
    # replay the implicit Euler recursion with dense linear algebra
    grid = SpaceTimeGrid(Grid(4, 1), nt=6, horizon=0.9)
    a = 0.7
    rng = np.random.default_rng(5)
    u = grid.field(rng.standard_normal(grid.n_nodes))
    y = grid.field(HeatOperator(grid, a).forward(grid.as_slices(u.values)))

    amat = assemble_laplacian(grid.space).matrix.toarray()
    step = np.eye(4) + grid.tau * a * amat
    state = np.zeros(4)
    expected = []
    for u_m in grid.as_slices(u.values):
        state = np.linalg.solve(step, state + grid.tau * u_m)
        expected.append(state.copy())
    np.testing.assert_allclose(
        grid.as_slices(y.values), np.array(expected), rtol=1e-12, atol=1e-14
    )


def test_heat_adjoint_is_transpose():
    rng = np.random.default_rng(23)
    for space, nt in ((Grid(5, 1), 7), (Grid(3, 2), 4)):
        grid = SpaceTimeGrid(space, nt=nt, horizon=1.3)
        heat = HeatOperator(grid, 0.8)
        for trial in range(10):
            u = grid.field(rng.standard_normal(grid.n_nodes))
            w = grid.field(rng.standard_normal(grid.n_nodes))
            lhs = pairing(grid.field(heat.forward(grid.as_slices(u.values))), w)
            rhs = pairing(u, grid.field(heat.adjoint(grid.as_slices(w.values))))
            scale = l2_norm(u) * l2_norm(w)
            assert abs(lhs - rhs) <= 1e-12 * scale


def replay_heat_steps(grid, a, slices, backward):
    """The step recursion through DiscreteOperator(I + tau a A).solve."""
    amat = assemble_laplacian(grid.space).matrix
    step = DiscreteOperator(sparse.identity(amat.shape[0]) + grid.tau * a * amat)
    order = range(grid.nt - 1, -1, -1) if backward else range(grid.nt)
    out = np.empty_like(slices)
    state = np.zeros(slices.shape[1])
    for m in order:
        state = step.solve(state + grid.tau * slices[m])
        out[m] = state
    return out


@pytest.mark.parametrize("nt", [1, 3, 2 * _SLICE_BLOCK + 2])
@pytest.mark.parametrize(
    "space", [Grid(1, 2), Grid(5, 2), Grid(7, 1)], ids=["1x1", "5x5", "7"]
)
def test_heat_sweep_matches_sparse_step_solves(space, nt):
    # the sine-basis sweep against the step-by-step solves it replaced
    grid = SpaceTimeGrid(space, nt=nt, horizon=1.1)
    a = 0.7
    heat = HeatOperator(grid, a)
    rng = np.random.default_rng(nt + 10 * space.n)
    slices = rng.standard_normal((nt, space.n_nodes))
    for backward, sweep in ((False, heat.forward), (True, heat.adjoint)):
        got = sweep(slices)
        want = replay_heat_steps(grid, a, slices, backward)
        err = np.linalg.norm(got - want, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1))


@pytest.mark.parametrize("backward", [False, True], ids=["forward", "adjoint"])
@pytest.mark.parametrize(
    "m", [0, _CHECK_BLOCK - 1, _CHECK_BLOCK, 2 * _CHECK_BLOCK + 4],
    ids=["first", "block_end", "block_start", "last"],
)
def test_heat_check_catches_a_perturbed_step(backward, m):
    # nt leaves a short tail block after two full check blocks
    nt = 2 * _CHECK_BLOCK + 5
    assert nt % _CHECK_BLOCK
    grid = SpaceTimeGrid(Grid(4, 2), nt=nt, horizon=1.0)
    heat = HeatOperator(grid, 0.7)
    rng = np.random.default_rng(3)
    forcing = rng.standard_normal((grid.nt, grid.space.n_nodes))
    states = heat.adjoint(forcing) if backward else heat.forward(forcing)
    heat._check_steps(forcing, states, backward)  # the sweep itself passes
    states[m, 5] *= 1.0 + 1e-9
    # y_m enters step m and, as the previous state, step m + 1 going
    # forward or step m - 1 going backward; the check names the first
    first = m - 1 if backward and m > 0 else m
    message = f"^heat step {first} failed the residual check"
    with pytest.raises(ResidualCheckError, match=message):
        heat._check_steps(forcing, states, backward)


@pytest.mark.parametrize("backward", [False, True], ids=["forward", "adjoint"])
def test_heat_check_of_a_one_slice_tail_block(backward):
    # nt = 2 _CHECK_BLOCK + 1 leaves the last step alone in its check block,
    # a one-line batch along the widest stride; only step m reads u_m, so a
    # perturbed u_m fails that step alone
    nt = 2 * _CHECK_BLOCK + 1
    grid = SpaceTimeGrid(Grid(4, 2), nt=nt, horizon=1.0)
    heat = HeatOperator(grid, 0.7)
    forcing = np.random.default_rng(4).standard_normal((nt, grid.space.n_nodes))
    states = heat.adjoint(forcing) if backward else heat.forward(forcing)
    heat._check_steps(forcing, states, backward)  # the sweep itself passes
    m = nt - 1
    forcing[m, 5] += 1e-6
    message = f"^heat step {m} failed the residual check"
    with pytest.raises(ResidualCheckError, match=message):
        heat._check_steps(forcing, states, backward)


def test_sparse_solve_check_raises_named_error():
    class OffByOnePercent:
        def solve(self, rhs):
            return 1.01 * np.linalg.solve(op.matrix.toarray(), rhs)

    op = assemble_laplacian(Grid(3, 1))
    op._factor = OffByOnePercent()
    with pytest.raises(ResidualCheckError, match="residual check"):
        op.solve(np.ones(3))


def test_heat_reaches_steady_state():
    # a constant source drives the discrete state to the exact fixed point
    # (a A)^-1 u of the stepping map; at horizon 40 the transient is gone
    grid = SpaceTimeGrid(Grid(3, 1), nt=400, horizon=40.0)
    a = 1.0
    source = np.ones(3)
    u = grid.field(np.tile(source, grid.nt))
    y = grid.field(HeatOperator(grid, a).forward(grid.as_slices(u.values)))
    y_inf = assemble_laplacian(grid.space).solve(source) / a
    final = grid.as_slices(y.values)[-1]
    np.testing.assert_allclose(final, y_inf, rtol=1e-12)


def test_heat_stability_bound():
    # |S u|_L2 <= c * (time integral of slice l2 norms) for the closed-form c
    grid = SpaceTimeGrid(Grid(4, 1), nt=8, horizon=1.0)
    a = 0.5
    c = heat_c_constant(grid, a)
    rng = np.random.default_rng(41)
    for trial in range(20):
        u = grid.field(rng.standard_normal(grid.n_nodes))
        y = grid.field(HeatOperator(grid, a).forward(grid.as_slices(u.values)))
        assert l2_norm(y) <= c * time_l1(grid, u) * (1.0 + 1e-12)


def test_heat_c_constant_attained_by_slow_mode():
    # an impulse on the first slice shaped like the slowest stencil mode
    # attains the closed-form response ratio exactly
    space = Grid(3, 1)
    grid = SpaceTimeGrid(space, nt=5, horizon=1.0)
    a = 0.7
    x = space.coords()[0]
    mode = np.sin(math.pi * x)
    values = np.zeros((grid.nt, space.n_nodes))
    values[0] = mode
    u = grid.field(values.ravel())
    y = grid.field(HeatOperator(grid, a).forward(grid.as_slices(u.values)))
    ratio = l2_norm(y) / time_l1(grid, u)
    assert ratio == pytest.approx(heat_c_constant(grid, a), rel=1e-12)


def test_heat_rejects_bad_conductivity():
    grid = SpaceTimeGrid(Grid(2, 1), nt=2, horizon=1.0)
    with pytest.raises(ValueError):
        HeatOperator(grid, 0.0)


def test_norm_hand_values():
    g = Grid(3, 1)
    u = g.field([1.0, -2.0, 2.0])
    assert l1_norm(u) == pytest.approx(1.25)
    assert l2_norm(u) == pytest.approx(1.5)

    grid = SpaceTimeGrid(Grid(1, 1), nt=2, horizon=1.0)
    w = grid.field([3.0, -4.0])
    np.testing.assert_allclose(
        slice_l2_norms(grid, w), [3.0 / math.sqrt(2.0), 4.0 / math.sqrt(2.0)]
    )
    assert time_l1(grid, w) == pytest.approx(7.0 / (2.0 * math.sqrt(2.0)))


def test_estimate_c_constant_single_node():
    # inverse of [[16]] paired with mass 1/4: sqrt(1/4)*(1/16)/(1/4) = 1/8
    grid = Grid(1, 2)
    op = assemble_laplacian(grid)
    c = estimate_c_constant(op, node_weights(grid))
    assert c == pytest.approx(0.125, rel=1e-14)


def test_estimate_c_constant_matches_dense_scan():
    grid = Grid(6, 1)
    op = assemble_laplacian(grid)
    mass = node_weights(grid)
    inv = np.linalg.inv(op.matrix.toarray())
    best = max(
        math.sqrt(float(mass @ inv[:, j] ** 2)) / mass[j] for j in range(6)
    )
    # small chunk exercises the blocked scan
    c = estimate_c_constant(op, mass, chunk=2)
    assert c == pytest.approx(best, rel=1e-12)
    with pytest.raises(ValueError):
        estimate_c_constant(op, np.ones(5))


def test_estimate_c_constant_bounds_random_inputs():
    grid = Grid(8, 1)
    op = assemble_laplacian(grid)
    c = estimate_c_constant(op, node_weights(grid))
    rng = np.random.default_rng(9)
    for trial in range(20):
        u = grid.field(rng.standard_normal(8))
        y = solve_poisson(op, u)
        assert l2_norm(y) <= c * l1_norm(u) * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "dim, n", [(1, 1), (1, 3), (1, 8), (1, 100), (2, 1), (2, 3), (2, 8), (2, 32)]
)
def test_laplacian_c_constant_matches_scan(dim, n):
    grid = Grid(n, dim)
    scan = estimate_c_constant(assemble_laplacian(grid), node_weights(grid))
    closed = laplacian_c_constant(grid)
    assert closed**2 == pytest.approx(scan**2, rel=1e-13)


def test_laplacian_c_constant_single_node():
    # the closed form reproduces the scan's hand value 1/8 to the last bit
    assert laplacian_c_constant(Grid(1, 2)) == 0.125


def test_field_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    grids = [Grid(4, 1), Grid(3, 2), SpaceTimeGrid(Grid(3, 1), nt=4, horizon=2.0)]
    for i, grid in enumerate(grids):
        u = grid.field(rng.standard_normal(grid.n_nodes))
        path = tmp_path / f"field_{i}.txt"
        write_field(path, grid, u)
        back = read_field(path)
        np.testing.assert_array_equal(back.values, u.values)
        assert back.weight == u.weight
        assert back.size == grid.n_nodes
    # tau = 2.0 / 4 and h = 1 / 4 on the space-time grid
    assert read_field(tmp_path / "field_2.txt").weight == pytest.approx(0.125)


@pytest.mark.parametrize("size", [40, _DUMP_CHUNK, _DUMP_CHUNK + 5])
def test_field_dump_matches_per_value_format(tmp_path, size):
    # the chunked dump writes the bytes of formatting each value on its own
    info = np.finfo(float)
    largest_subnormal = np.nextafter(info.smallest_normal, 0.0)
    special = [0.0, -0.0, 5e-324, largest_subnormal, 1e308, -1e308, info.max, -info.max]
    rng = np.random.default_rng(size)
    values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-17.0, 2.0, size)
    values[: len(special)] = special
    values[-len(special) :] = special  # across the chunk boundary when size > chunk
    # zeros print without formatting and every other value gets its digits
    no_zeros = values.copy()
    no_zeros[no_zeros == 0.0] = 1.5
    negative_zero_in_zeros = np.zeros(size)
    negative_zero_in_zeros[size // 2] = -0.0
    zeros_around_boundary = values.copy()
    edge = min(size, _DUMP_CHUNK)
    zeros_around_boundary[edge - 3 : edge + 3] = 0.0
    cases = {
        "mixed": values,
        "all +0.0": np.zeros(size),
        "no zeros": no_zeros,
        "-0.0 among +0.0": negative_zero_in_zeros,
        "+0.0 around the chunk boundary": zeros_around_boundary,
    }
    grid = Grid(size, 1)
    for name, case in cases.items():
        path = tmp_path / "field.txt"
        write_field(path, grid, grid.field(case))
        want = field_header(grid) + "\n" + "".join(f"{x:.17g}\n" for x in case)
        assert path.read_bytes() == want.encode(), name
        back = read_field(path).values
        np.testing.assert_array_equal(back, case)
        np.testing.assert_array_equal(np.signbit(back), np.signbit(case))


def per_value_dump(values) -> bytes:
    return "".join(f"{x:.17g}\n" for x in np.asarray(values).tolist()).encode()


def test_field_dump_matches_per_value_format_on_a_million_values(tmp_path):
    # random bit patterns span every exponent, subnormals included; the
    # log-uniform half concentrates on the fixed-notation range and its
    # edges at 1e-5 and 1e17
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, 310_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert np.count_nonzero(np.abs(values) < np.finfo(float).smallest_normal) > 0
    signs = rng.choice([-1.0, 1.0], 700_000)
    spread = signs * 10.0 ** rng.uniform(-26.0, 26.0, signs.size)
    values = np.concatenate([values, spread])
    assert values.size >= 1_000_000
    grid = Grid(values.size, 1)
    path = tmp_path / "field.txt"
    write_field(path, grid, grid.field(values))
    want = (field_header(grid) + "\n").encode() + per_value_dump(values)
    assert path.read_bytes() == want


def test_field_dump_at_powers_of_ten_and_notation_edges():
    powers = [10.0**k for k in range(-6, 19)] + [float(10**k) for k in range(19)]
    powers = np.array(powers)
    cases = np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    )
    # scientific below 1e-4 and from 1e17 on, fixed in between
    edges = [1e-5, 1e-4, 9.99999999999999e-5, 1.0000000000000001e-4, 1e16, 1e17]
    edges += [99999999999999984.0, 99999999999999999.0, 9999999999999998.0]
    # 17-digit carries: the rounded digits reach the next power of ten
    carries = [np.nextafter(1e-3, 0.0), np.nextafter(1.0, 0.0), np.nextafter(0.1, 0.0)]
    carries += [0.99999999999999999, 9.9999999999999999, 0.00099999999999999999]
    cases = np.concatenate([cases, edges, carries])
    cases = np.concatenate([cases, -cases])
    assert _format_values(cases).encode() == per_value_dump(cases)


def exact_exponent_and_digits(x: float) -> tuple[int, int]:
    """%.17g's exponent X and digits D of x > 0, in rational arithmetic."""
    a = Fraction(x)
    e = math.floor(math.log10(x))
    e += (Fraction(10) ** (e + 1) <= a) - (Fraction(10) ** e > a)
    q = a * Fraction(10) ** (16 - e)
    d = math.floor(q)
    d += q - d > Fraction(1, 2) or (q - d == Fraction(1, 2) and d % 2 == 1)
    return (e + 1, d // 10) if d == 10**17 else (e, d)


def test_fixed_exponents_match_rational_arithmetic():
    # six doubles either side of each power of ten, where floor(log10 x)
    # can miss, and random values: every fixed row has the exact X and D,
    # and only values next to a power of ten leave the fixed range to CPython
    values = []
    for k in range(-6, 19):
        lo = hi = float(Fraction(10) ** k)
        values.append(lo)
        for _ in range(6):
            lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
            values += [float(lo), float(hi)]
    rng = np.random.default_rng(11)
    values += (10.0 ** rng.uniform(-6.0, 18.0, 2000)).tolist()
    fixed, x, d = _fixed_exponents(np.array(values))
    for i, value in enumerate(values):
        e, digits = exact_exponent_and_digits(value)
        if fixed[i]:
            assert (x[i], d[i]) == (e, digits), value
        elif -4 <= e <= 16:
            nearest = Fraction(10) ** round(math.log10(value))
            assert abs(Fraction(value) / nearest - 1) < 1e-14, value
    assert fixed.sum() > 1800


def test_field_dump_rounds_ties_to_even():
    # m 2**-(k + 1) with m odd: exact binary fractions, many of which sit
    # exactly halfway between two 17-digit decimals
    rng = np.random.default_rng(7)
    m = rng.integers(2**49, 2**53, 200_000) | 1
    k = rng.integers(0, 12, m.size)
    values = np.ldexp(m.astype(np.float64), -(k + 1))
    values = np.concatenate([values, -values])
    ties = up = 0
    for x in values[:4000].tolist():
        digits = Decimal(x).as_tuple().digits
        if len(digits) == 18 and digits[-1] == 5:
            ties += 1
            up += digits[-2] % 2  # an odd 17th digit rounds away from zero
    assert ties > 500 and 0 < up < ties
    assert _format_values(values).encode() == per_value_dump(values)


def test_field_dump_of_an_all_zero_chunk(tmp_path):
    # a chunk of +0.0 alone is written without the kernel; a chunk that
    # holds one -0.0 among them, and a mixed tail, go through it
    size = 2 * _DUMP_CHUNK + 5
    values = np.zeros(size)
    values[_DUMP_CHUNK + 17] = -0.0
    values[2 * _DUMP_CHUNK :] = [0.0, -0.0, 0.25, 1e-300, -3.0]
    grid = Grid(size, 1)
    path = tmp_path / "field.txt"
    write_field(path, grid, grid.field(values))
    want = (field_header(grid) + "\n").encode() + per_value_dump(values)
    assert path.read_bytes() == want
    back = read_field(path).values
    np.testing.assert_array_equal(np.signbit(back), np.signbit(values))


def test_field_dump_zeros_and_fallback_rows_at_chunk_edges(tmp_path):
    size = 2 * _DUMP_CHUNK + 3
    values = np.full(size, 0.25)
    fallback = [1e-300, -5e-324, 1e17, -1.5e22, 1e-5]
    for edge in (_DUMP_CHUNK, 2 * _DUMP_CHUNK):
        values[edge - 3 : edge + 2] = fallback
        values[edge + 2] = -0.0
    values[-1] = 0.0
    grid = Grid(size, 1)
    path = tmp_path / "field.txt"
    for case in (values, -values, np.where(values == 0.25, 0.0, values)):
        write_field(path, grid, grid.field(case))
        want = (field_header(grid) + "\n").encode() + per_value_dump(case)
        assert path.read_bytes() == want
    assert _format_values(np.array([0.0, -0.0])) == "0\n-0\n"
    assert _format_values(np.zeros(0)) == ""


def test_write_field_refuses_a_field_of_another_grid(tmp_path):
    # a header of 4 nodes over 3 values would be a dump read_field refuses;
    # the refusal comes before the file is opened
    path = tmp_path / "field.txt"
    short = Grid(3, 1).zero_field()
    with pytest.raises(ValueError, match=r"\b3 values\b.*\b4 nodes\b"):
        write_field(path, Grid(4, 1), short)
    assert not path.exists()
    path.write_bytes(b"kept\n")
    with pytest.raises(ValueError):
        write_field(path, Grid(4, 1), short)
    assert path.read_bytes() == b"kept\n"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40
    )
)
def test_field_dump_property_matches_per_value_format(values):
    assert _format_values(np.array(values)).encode() == per_value_dump(values)


def test_field_io_rejects_bad_headers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 1 0.5\n0\n0\n0\n")  # h inconsistent with n = 3
    with pytest.raises(ValueError):
        read_field(path)
    path.write_text("3 1\n")  # truncated header
    with pytest.raises(ValueError):
        read_field(path)
    path.write_text("3 2 0.25\n" + "0\n" * 6)  # non-square 2D layout
    with pytest.raises(ValueError):
        read_field(path)
    path.write_text("3 2 4 0.25 0.5\n" + "0\n" * 24)  # the same, space-time
    with pytest.raises(ValueError):
        read_field(path)
    path.write_text("2 1 0.3333333333333333\n0\n")  # value count mismatch
    with pytest.raises(ValueError):
        read_field(path)
    # the header "1 1 h" of Grid(1, 2) would read back as Grid(1, 1)
    for grid in (Grid(1, 2), SpaceTimeGrid(Grid(1, 2), nt=3, horizon=1.0)):
        with pytest.raises(ValueError):
            write_field(path, grid, grid.zero_field())
