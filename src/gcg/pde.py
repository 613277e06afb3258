"""Finite difference grids, elliptic/parabolic solve kernels, weighted norms.

Spatial domains are the unit interval or unit square, one Grid(n, dim)
with dim 1 or 2, with homogeneous Dirichlet boundary values.  Interior
nodes sit at multiples of h = 1/(n+1); the Laplacian is the standard
3-point (1D) or 5-point (2D) stencil divided by h**2, and integrals use
composite midpoint weights h (1D) or h**2 (2D).
Time stepping is implicit Euler on a uniform mesh of nt steps; the adjoint
stepper is the exact transpose of the forward map in the space-time inner
product, so discrete adjoint identities hold to rounding.
The orthonormal sine basis diagonalises the stencil, and with it every
implicit Euler step.  PoissonSolver divides by the stencil eigenvalues in
that basis and HeatOperator sweeps mode by mode in it.  check_residual then
checks every solve and step in backward-error form,
|M y - r|_inf <= 64 eps (|M|_inf |y|_inf + |r|_inf), and raises
ResidualCheckError on a miss.  M, the stencil or the step I + tau a A, is
applied matrix-free with array slices, and |M|_inf comes in closed form, so
this module needs numpy only.
The l2-by-l1 response constants of both solution operators come in closed
form from the same basis: laplacian_c_constant for the inverse Laplacian,
heat_c_constant for the heat solve.  The assembled sparse stencil, its LU
solve DiscreteOperator and the column scan estimate_c_constant live in
gcg._sparse_reference, which no run imports; the tests check this module
against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gcg.core import ControlField

# Slices per block in the heat sweep's basis changes and residual checks.
_SLICE_BLOCK = 64

# Backward-error bound of every checked solve: 64 eps.
_BACKWARD_TOL = 64 * np.finfo(float).eps

# Values per formatted chunk of a field dump.
_DUMP_CHUNK = 1 << 16

# Names that moved to gcg._sparse_reference and are still looked up here by
# the benchmark's tracer (bench/spans.py).
_FORWARDED = ("DiscreteOperator", "estimate_c_constant", "splu")


def __getattr__(name):
    """Forward the moved sparse-reference names; importing them loads scipy."""
    if name in _FORWARDED:
        from gcg import _sparse_reference

        return getattr(_sparse_reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ResidualCheckError(RuntimeError):
    """A linear solve or heat step missed its a-posteriori residual bound."""


@dataclass(frozen=True)
class Grid:
    """Interior nodes of the unit interval (dim 1) or unit square (dim 2).

    There are n nodes per direction at multiples of h = 1/(n+1).  In 2D
    they are flattened row-major with x1 varying fastest: node (iy, ix)
    maps to index iy*n + ix and sits at (x1, x2) = ((ix+1) h, (iy+1) h).
    """

    n: int
    dim: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("grid needs at least one interior node")
        if self.dim not in (1, 2):
            raise ValueError("grid dimension must be 1 or 2")

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    @property
    def n_nodes(self) -> int:
        return self.n**self.dim

    def mass_weights(self) -> np.ndarray:
        return np.full(self.n_nodes, self.h**self.dim)

    def coords(self) -> tuple[np.ndarray, ...]:
        axis = self.h * np.arange(1, self.n + 1)
        if self.dim == 1:
            return (axis,)
        x2, x1 = np.meshgrid(axis, axis, indexing="ij")
        return x1.ravel(), x2.ravel()

    def field(self, values) -> ControlField:
        return ControlField(np.asarray(values, dtype=float), self.mass_weights(), self)

    def zero_field(self) -> ControlField:
        return self.field(np.zeros(self.n_nodes))


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform time mesh over a spatial grid; slice m lives at t = m*tau.

    Controls and states are stored on the nt right-endpoint time levels
    (implicit Euler evaluation points), flattened slice by slice, with
    space-time quadrature weight tau * (spatial weight) at every node.
    """

    space: Grid
    nt: int
    horizon: float = 1.0

    def __post_init__(self):
        if self.nt < 1:
            raise ValueError("need at least one time step")
        if self.horizon <= 0.0:
            raise ValueError("time horizon must be positive")

    @property
    def tau(self) -> float:
        return self.horizon / self.nt

    @property
    def n_nodes(self) -> int:
        return self.nt * self.space.n_nodes

    def times(self) -> np.ndarray:
        return self.tau * np.arange(1, self.nt + 1)

    def mass_weights(self) -> np.ndarray:
        return np.tile(self.tau * self.space.mass_weights(), self.nt)

    def as_slices(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float).reshape(self.nt, self.space.n_nodes)

    def field(self, values) -> ControlField:
        flat = np.asarray(values, dtype=float).ravel()
        return ControlField(flat, self.mass_weights(), self)

    def zero_field(self) -> ControlField:
        return self.field(np.zeros(self.n_nodes))


def check_residual(operator, norm, y, rhs, label="linear solve", first=0):
    """Raise ResidualCheckError unless every row of y solves M y = rhs.

    A row passes when |M y - r|_inf <= 64 eps (|M|_inf |y|_inf + |r|_inf),
    a backward error that a stable solve meets whatever the condition of M.
    operator gives |M y_i - r_i| of every row by its residual method, and
    norm is |M|_inf, computed once per operator.  y and rhs hold one vector
    or one per row.  The message names the first failed row
    label.format(first + i).
    """
    y = y.reshape(-1, y.shape[-1])
    rhs = rhs.reshape(y.shape)
    resid = operator.residual(y, rhs).max(axis=1)
    scale = norm * np.abs(y).max(axis=1) + np.abs(rhs).max(axis=1)
    bad = np.flatnonzero(~(resid <= _BACKWARD_TOL * scale))
    if bad.size:
        i = bad[0]
        raise ResidualCheckError(
            f"{label.format(first + i)} failed the residual check "
            f"(backward error {resid[i] / scale[i]:.1e})"
        )


class _Stencil:
    """M = shift I + scale A for the Dirichlet stencil A of one grid, matrix-free.

    A has the diagonal 2 dim/h**2 and the entry -1/h**2 for each neighbour
    along an axis (see Grid for the node order).  norm is |M|_inf in closed
    form: a row has at most min(n - 1, 2) neighbours per direction, and for
    n <= 2 every row is a boundary row.
    """

    def __init__(self, grid: Grid, shift: float = 0.0, scale: float = 1.0):
        h2 = grid.h**2
        self._n = grid.n
        self._strides = (1, grid.n)[: grid.dim]
        self._coupling = scale / h2
        self._diagonal = shift + 2 * grid.dim * self._coupling
        self.norm = shift + scale * ((2 + min(grid.n - 1, 2)) * grid.dim / h2)

    def residual(self, y: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """|M y_i - r_i| of every row i of y and rhs, shape (k, n_nodes).

        One scaled copy w = c y and in-place neighbour subtractions on the
        flattened rows, where the neighbours along an axis of stride s sit s
        entries apart.  Each line along the axis is followed by the next, so
        the end of w that a shift would carry into the next line is zeroed
        for that subtraction and then restored.  Contiguous shifts run much
        faster than the same subtractions on strided slices.
        """
        c, n = self._coupling, self._n
        y = np.ascontiguousarray(y)
        w = c * y
        out = self._diagonal * y
        w_flat, out_flat = w.reshape(-1), out.reshape(-1)
        for s in self._strides:
            lines, y_lines = w.reshape(-1, n, s), y.reshape(-1, n, s)
            lines[:, -1] = 0.0
            out_flat[s:] -= w_flat[:-s]
            np.multiply(c, y_lines[:, -1], out=lines[:, -1])
            lines[:, 0] = 0.0
            out_flat[:-s] -= w_flat[s:]
            np.multiply(c, y_lines[:, 0], out=lines[:, 0])
        out -= rhs
        return np.abs(out, out=out)


def smallest_laplacian_eigenvalue(grid: Grid) -> float:
    """Closed-form smallest eigenvalue of the assembled Dirichlet stencil."""
    h = grid.h
    return grid.dim * ((4.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2)


class _SineBasis:
    """The orthonormal sine basis that diagonalises the stencil of one grid.

    sines are sin(pi h j k), j, k = 1..n, and mu the 1D stencil eigenvalues.
    matrix = sqrt(2h) sines is the orthonormal DST-I matrix S: symmetric,
    its own inverse, and S T S = diag(mu) for the 1D stencil T.
    eigenvalues are the stencil's, flattened like the nodes: the mode (p, q)
    of S Y S in 2D has mu_p + mu_q.  laplacian_c_constant scales the sines
    itself, so it keeps its own rounding of S o S.
    """

    def __init__(self, grid: Grid):
        h = grid.h
        k = np.arange(1, grid.n + 1)
        self.sines = np.sin(math.pi * h * np.outer(k, k))
        # mu = 4 sin(x)**2 / h**2 with x = pi h k / 2.  From the middle mode
        # up, 4 sin(x)**2 = 2 (1 - sin(pi/2 - 2x)) is free of cancellation and
        # exact at x = pi/4, the only mode of Grid(1, dim).
        t = math.pi * h * (grid.n + 1 - 2 * k) / 2.0
        mu = self.mu = np.where(
            t > 0.0, 4.0 * np.sin(math.pi * h * k / 2.0) ** 2, 2.0 * (1.0 - np.sin(t))
        ) / h**2
        self.dim = grid.dim
        self.matrix = math.sqrt(2.0 * h) * self.sines
        self.eigenvalues = mu if grid.dim == 1 else (mu[:, None] + mu[None, :]).ravel()

    def change(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write S x_m (1D) or S X_m S (2D) of every row to out; out may be x.

        S is its own inverse, so the same map takes modes back to nodes.
        Rows go through in blocks of _SLICE_BLOCK.
        """
        s = self.matrix
        n = s.shape[0]
        for b0 in range(0, x.shape[0], _SLICE_BLOCK):
            block = x[b0 : b0 + _SLICE_BLOCK]
            if self.dim == 1:
                out[b0 : b0 + _SLICE_BLOCK] = block @ s
            else:
                np.matmul(
                    s,
                    block.reshape(-1, n, n) @ s,
                    out=out[b0 : b0 + _SLICE_BLOCK].reshape(-1, n, n),
                )


class PoissonSolver:
    """Solves A y = r for the Dirichlet stencil A of one grid.

    y = S Lambda**-1 S r in the stencil's orthonormal sine basis S, then
    checked against the matrix-free stencil by check_residual.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.stencil = _Stencil(grid)
        self._norm = self.stencil.norm
        self._basis = _SineBasis(grid)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.grid.n_nodes,):
            raise ValueError("right hand side has the wrong length")
        y = np.empty((1, rhs.size))
        self._basis.change(rhs[None], y)
        y /= self._basis.eigenvalues
        self._basis.change(y, y)
        check_residual(self.stencil, self._norm, y[0], rhs)
        return y[0]


class HeatOperator:
    """Implicit Euler stepping for d/dt y + a * (Laplacian stencil) y = u.

    Forward:  (I + tau a A) y_m = y_{m-1} + tau u_m,  y_0 = 0, m = 1..nt.
    Adjoint:  (I + tau a A) p_m = p_{m+1} + tau w_m,  p_{nt+1} = 0, backward.
    The adjoint is the exact transpose of the forward map with respect to
    the space-time inner product sum_m tau (x_m, z_m)_h.

    A sweep maps every slice to the orthonormal sine basis, where each step
    is the per-mode recursion z = (z + tau u_m) / (1 + tau a lambda), and
    maps back.  check_residual then checks every step against step, the
    matrix-free I + tau a A.
    """

    def __init__(self, grid: SpaceTimeGrid, conductivity: float):
        if conductivity <= 0.0:
            raise ValueError("conductivity must be positive")
        self.grid = grid
        self.conductivity = conductivity
        space = grid.space
        self.step = _Stencil(space, 1.0, grid.tau * conductivity)
        self._basis = _SineBasis(space)
        self._decay = 1.0 + grid.tau * conductivity * self._basis.eigenvalues

    def forward(self, u_slices: np.ndarray) -> np.ndarray:
        return self._sweep(u_slices, backward=False)

    def adjoint(self, w_slices: np.ndarray) -> np.ndarray:
        return self._sweep(w_slices, backward=True)

    def _sweep(self, slices: np.ndarray, backward: bool) -> np.ndarray:
        """Take one implicit Euler step per slice, last slice first if backward."""
        nt = slices.shape[0]
        modes = np.empty(slices.shape)
        self._basis.change(slices, modes)
        modes *= self.grid.tau
        order = range(nt - 1, -1, -1) if backward else range(nt)
        modes[order[0]] /= self._decay
        for prev, m in zip(order, order[1:]):
            modes[m] += modes[prev]
            modes[m] /= self._decay
        self._basis.change(modes, modes)
        self._check_steps(slices, modes, backward)
        return modes

    def _check_steps(
        self, forcing: np.ndarray, states: np.ndarray, backward: bool
    ) -> None:
        """Residual of (I + tau a A) y_m = y_prev + tau u_m for every slice."""
        nt = states.shape[0]
        for b0 in range(0, nt, _SLICE_BLOCK):
            b1 = min(b0 + _SLICE_BLOCK, nt)
            rhs = self.grid.tau * forcing[b0:b1]
            if backward:
                prev = states[b0 + 1 : b1 + 1]
                rhs[: prev.shape[0]] += prev
            else:
                prev = states[max(b0 - 1, 0) : b1 - 1]
                rhs[rhs.shape[0] - prev.shape[0] :] += prev
            check_residual(
                self.step, self.step.norm, states[b0:b1], rhs, "heat step {}", b0
            )


def l1_norm(u: ControlField) -> float:
    """Mass-weighted l1 norm sum_i mass_i |u_i|."""
    return float(np.dot(u.mass, np.abs(u.values)))


def l2_norm(u: ControlField) -> float:
    """Mass-weighted l2 norm sqrt(sum_i mass_i u_i**2)."""
    return math.sqrt(float(np.dot(u.mass, u.values**2)))


def slice_l2_norms(u: ControlField) -> np.ndarray:
    """Spatial l2 norm of every time slice of a space-time field."""
    grid = u.meta
    if not isinstance(grid, SpaceTimeGrid):
        raise ValueError("slice norms need a field on a SpaceTimeGrid")
    slices = grid.as_slices(u.values)
    return np.sqrt(slices**2 @ grid.space.mass_weights())

def group_l1_time(u: ControlField) -> float:
    """Time integral of the spatial l2 norm: sum_m tau * |u(t_m)|_2."""
    grid = u.meta
    if not isinstance(grid, SpaceTimeGrid):
        raise ValueError("group norm needs a field on a SpaceTimeGrid")
    return float(grid.tau * slice_l2_norms(u).sum())


def laplacian_c_constant(grid: Grid) -> float:
    """Largest l2 response of the inverse stencil over unit-l1 node inputs.

    The value estimate_c_constant scans for, c = max_j |A**-1 e_j|_2,mass /
    mass_j, in closed form.  The orthonormal DST-I matrix
    S = sqrt(2h) sin(pi h j k) diagonalises the 1D stencil, so
    A = (S x S) Lambda (S x S)^T in 2D and
    c**2 = max_j diag(A**-2)_j / h**dim, a column maximum of
    (S o S) Lambda**-2 (S o S)^T with o the entrywise product.
    """
    h = grid.h
    basis = _SineBasis(grid)
    mu, s2 = basis.mu, 2.0 * h * basis.sines**2
    if grid.dim == 1:
        diag = s2 @ mu**-2.0
    else:
        diag = s2 @ (mu[:, None] + mu[None, :]) ** -2.0 @ s2.T
    return math.sqrt(float(diag.max()) / h**grid.dim)


def heat_c_constant(grid: SpaceTimeGrid, conductivity: float) -> float:
    """Largest space-time l2 response over unit time-slice impulses.

    An impulse on one time slice with unit L1-in-time/L2-in-space norm
    excites the slowest stencil mode the hardest, giving
    c**2 = tau * sum_{l=1..nt} b**(2l) with b = 1/(1 + tau a mu_min).
    This bounds |S u|_L2 <= c |u| in the slicewise-l1 norm by convexity.
    """
    mu = smallest_laplacian_eigenvalue(grid.space)
    b = 1.0 / (1.0 + grid.tau * conductivity * mu)
    r = b * b
    total = r * (1.0 - r**grid.nt) / (1.0 - r)
    return math.sqrt(grid.tau * total)


def field_header(meta) -> str:
    """Header line of a field dump on a Grid or SpaceTimeGrid.

    Spatial grids get "nx ny h" (ny = 1 in 1D); space-time grids get
    "nx ny nt h tau".  A 2D grid with n = 1 is refused with ValueError:
    its header "1 1 h" would read back as 1D.
    """
    space = meta.space if isinstance(meta, SpaceTimeGrid) else meta
    if space is None:
        raise ValueError("field has no grid descriptor to write a header from")
    if space.dim == 2 and space.n == 1:
        raise ValueError("a 2D grid with n = 1 has no unambiguous field header")
    ny = space.n if space.dim == 2 else 1
    if space is meta:
        return f"{space.n} {ny} {space.h:.17g}"
    return f"{space.n} {ny} {meta.nt} {space.h:.17g} {meta.tau:.17g}"


def write_field(path, u: ControlField) -> None:
    """Write a field as a text dump: field_header, then one value per line.

    Values are printed row-major with 17 significant digits, enough to
    round-trip float64 exactly.  They are formatted as Python floats, in
    chunks of _DUMP_CHUNK values.
    """
    header = field_header(u.meta)
    values = u.values
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, values.size, _DUMP_CHUNK):
            chunk = values[start : start + _DUMP_CHUNK].tolist()
            fh.write("".join(["%.17g\n" % x for x in chunk]))


def read_field(path) -> ControlField:
    """Read a field written by write_field, reconstructing its grid."""
    with open(path) as fh:
        tokens = fh.readline().split()
        values = np.array([float(line) for line in fh if line.strip()])
    if len(tokens) not in (3, 5):
        raise ValueError("unrecognized field header")
    nx, ny = int(tokens[0]), int(tokens[1])
    if ny not in (1, nx):
        raise ValueError("only square 2D grids are supported")
    grid = space = Grid(nx, 1 if ny == 1 else 2)
    if len(tokens) == 5:
        nt, tau = int(tokens[2]), float(tokens[4])
        grid = SpaceTimeGrid(space, nt, horizon=nt * tau)
    header_h = float(tokens[3 if len(tokens) == 5 else 2])
    if abs(space.h - header_h) > 1e-12 * max(1.0, header_h):
        raise ValueError("header h is inconsistent with the node count")
    if values.size != grid.n_nodes:
        raise ValueError("value count does not match the header")
    return grid.field(values)
