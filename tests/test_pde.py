"""Tests for grids, the Laplacian stencils, heat stepping, and field I/O."""

import math

import numpy as np
import pytest
from scipy import sparse

from gcg._sparse_reference import (
    DiscreteOperator,
    _inf_norm,
    _stencil,
    assemble_laplacian,
    estimate_c_constant,
)
from gcg.core import ControlField, pairing
from gcg.pde import (
    _DUMP_CHUNK,
    _SLICE_BLOCK,
    Grid,
    HeatOperator,
    PoissonSolver,
    ResidualCheckError,
    SpaceTimeGrid,
    _Stencil,
    check_residual,
    field_header,
    group_l1_time,
    heat_c_constant,
    l1_norm,
    l2_norm,
    laplacian_c_constant,
    read_field,
    slice_l2_norms,
    smallest_laplacian_eigenvalue,
    write_field,
)


def solve_poisson(op: DiscreteOperator, rhs: ControlField) -> ControlField:
    """Solve op @ y = rhs nodewise; mass weights and grid tag carry over."""
    if rhs.size != op.size:
        raise ValueError("rhs length does not match the operator")
    return rhs.with_values(op.solve(rhs.values))


def test_grid_basics():
    g1 = Grid(3, 1)
    assert g1.h == 0.25
    assert g1.n_nodes == 3
    np.testing.assert_allclose(g1.mass_weights(), [0.25, 0.25, 0.25])
    np.testing.assert_allclose(g1.coords()[0], [0.25, 0.5, 0.75])

    g2 = Grid(2, 2)
    assert g2.h == pytest.approx(1.0 / 3.0)
    assert g2.n_nodes == 4
    np.testing.assert_allclose(g2.mass_weights(), np.full(4, 1.0 / 9.0))
    x1, x2 = g2.coords()
    # x1 varies fastest in the flattening
    np.testing.assert_allclose(x1, [1 / 3, 2 / 3, 1 / 3, 2 / 3])
    np.testing.assert_allclose(x2, [1 / 3, 1 / 3, 2 / 3, 2 / 3])

    st = SpaceTimeGrid(Grid(2, 1), nt=3, horizon=1.5)
    assert st.tau == 0.5
    assert st.n_nodes == 6
    np.testing.assert_allclose(st.times(), [0.5, 1.0, 1.5])
    np.testing.assert_allclose(st.mass_weights(), np.full(6, 0.5 / 3.0))
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
    assert y.meta is grid


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
        solver = PoissonSolver(grid)
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
        got = PoissonSolver(grid).solve(rhs)
        want = assemble_laplacian(grid).solve(rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_poisson_check_catches_a_perturbed_solution(grid):
    solver = PoissonSolver(grid)
    rhs = np.random.default_rng(5).standard_normal(grid.n_nodes)
    y = solver.solve(rhs)
    check_residual(solver.stencil, solver._norm, y, rhs)  # the solve passes
    y[grid.n_nodes // 2] *= 1.0 + 1e-9
    with pytest.raises(ResidualCheckError, match="residual check"):
        check_residual(solver.stencil, solver._norm, y, rhs)


SMALL_GRIDS = [Grid(n, dim) for dim in (1, 2) for n in (1, 2, 3, 5)]
SMALL_IDS = [f"{g.n}" if g.dim == 1 else f"{g.n}x{g.n}" for g in SMALL_GRIDS]


@pytest.mark.parametrize("grid", SMALL_GRIDS, ids=SMALL_IDS)
def test_matrix_free_stencil_matches_assembled(grid):
    # the residual of A and of I + tau a A against the assembled matrices,
    # and the closed-form |M|_inf against their largest row sum; for n <= 2
    # every row is a boundary row
    amat = _stencil(grid)
    tau_a = 0.7 / 500
    step = sparse.identity(grid.n_nodes) + tau_a * amat
    rng = np.random.default_rng(grid.n + 10 * grid.dim)
    y = rng.standard_normal((4, grid.n_nodes))
    eps = np.finfo(float).eps
    for free, assembled in ((_Stencil(grid), amat), (_Stencil(grid, 1.0, tau_a), step)):
        assert free.norm == pytest.approx(_inf_norm(assembled), rel=4 * eps)
        for rhs in (np.zeros_like(y), rng.standard_normal(y.shape)):
            kept = y.copy()
            got = free.residual(y, rhs)
            np.testing.assert_array_equal(y, kept)
            want = np.abs((assembled @ y.T).T - rhs)
            scale = free.norm * np.abs(y).max(axis=1) + np.abs(rhs).max(axis=1)
            assert np.all(np.abs(got - want) <= 8 * eps * scale[:, None])


def test_poisson_solver_rejects_length_mismatch():
    with pytest.raises(ValueError):
        PoissonSolver(Grid(3, 1)).solve(np.ones(4))


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
    "m", [0, _SLICE_BLOCK - 1, _SLICE_BLOCK, 2 * _SLICE_BLOCK + 1],
    ids=["first", "block_end", "block_start", "last"],
)
def test_heat_check_catches_a_perturbed_step(backward, m):
    grid = SpaceTimeGrid(Grid(4, 2), nt=2 * _SLICE_BLOCK + 2, horizon=1.0)
    heat = HeatOperator(grid, 0.7)
    rng = np.random.default_rng(3)
    forcing = rng.standard_normal((grid.nt, grid.space.n_nodes))
    states = heat.adjoint(forcing) if backward else heat.forward(forcing)
    heat._check_steps(forcing, states, backward)  # the sweep itself passes
    states[m, 5] *= 1.0 + 1e-9
    with pytest.raises(ResidualCheckError, match="residual check"):
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
        assert l2_norm(y) <= c * group_l1_time(u) * (1.0 + 1e-12)


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
    ratio = l2_norm(y) / group_l1_time(u)
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
        slice_l2_norms(w), [3.0 / math.sqrt(2.0), 4.0 / math.sqrt(2.0)]
    )
    assert group_l1_time(w) == pytest.approx(7.0 / (2.0 * math.sqrt(2.0)))


def test_slice_norms_need_space_time_grid():
    u = Grid(3, 1).field([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        slice_l2_norms(u)
    with pytest.raises(ValueError):
        group_l1_time(u)


def test_estimate_c_constant_single_node():
    # inverse of [[16]] paired with mass 1/4: sqrt(1/4)*(1/16)/(1/4) = 1/8
    grid = Grid(1, 2)
    op = assemble_laplacian(grid)
    c = estimate_c_constant(op, grid.mass_weights())
    assert c == pytest.approx(0.125, rel=1e-14)


def test_estimate_c_constant_matches_dense_scan():
    grid = Grid(6, 1)
    op = assemble_laplacian(grid)
    mass = grid.mass_weights()
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
    mass = grid.mass_weights()
    c = estimate_c_constant(op, mass)
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
    scan = estimate_c_constant(assemble_laplacian(grid), grid.mass_weights())
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
        write_field(path, u)
        back = read_field(path)
        np.testing.assert_array_equal(back.values, u.values)
        np.testing.assert_array_equal(back.mass, u.mass)
        assert back.meta == grid
    st = read_field(tmp_path / "field_2.txt").meta
    assert st.nt == 4
    assert st.tau == pytest.approx(0.5)


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
    grid = Grid(size, 1)
    path = tmp_path / "field.txt"
    write_field(path, grid.field(values))
    want = field_header(grid) + "\n" + "".join(f"{x:.17g}\n" for x in values)
    assert path.read_bytes() == want.encode()
    back = read_field(path).values
    np.testing.assert_array_equal(back, values)
    np.testing.assert_array_equal(np.signbit(back), np.signbit(values))


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
    with pytest.raises(ValueError):
        write_field(path, ControlFieldNoMeta())
    # the header "1 1 h" of Grid(1, 2) would read back as Grid(1, 1)
    for grid in (Grid(1, 2), SpaceTimeGrid(Grid(1, 2), nt=3, horizon=1.0)):
        with pytest.raises(ValueError):
            write_field(path, grid.zero_field())


class ControlFieldNoMeta:
    """Minimal stand-in with no grid descriptor."""

    values = np.zeros(1)
    mass = np.ones(1)
    meta = None
