"""Finite difference grids, elliptic/parabolic solve kernels, weighted norms.

Spatial domains are the unit interval or unit square, one Grid(n, dim)
with dim 1 or 2, with homogeneous Dirichlet boundary values.  Interior
nodes sit at multiples of h = 1/(n+1); the Laplacian is the standard
3-point (1D) or 5-point (2D) stencil divided by h**2, and integrals use
the composite midpoint rule: one weight per grid, h**dim in space and
tau h**dim in space-time, so every weighted sum is that weight times a
plain sum or dot product.  The norms here are the per-slice ones the
parabolic penalty uses: slice_dots and slice_sq_norms.
Time stepping is implicit Euler on a uniform mesh of nt steps; the adjoint
stepper is the exact transpose of the forward map in the space-time inner
product, so discrete adjoint identities hold to rounding.
Both PDEs invert one operator, M = shift I + scale A: the stencil A itself
(shift 0, scale 1) for the Poisson solve, and I + tau a A for every
implicit Euler step.  ShiftedLaplacian states it once.  It applies M
matrix-free with array slices, gives |M|_inf in closed form, changes to
the orthonormal sine basis that diagonalises M, and holds M's eigenvalues
in that basis.  Its solve divides by them, and HeatOperator sweeps mode by
mode with them.  check_residual then checks every solve and step in
backward-error form, |M y - r|_inf <= 64 eps (|M|_inf |y|_inf + |r|_inf),
and raises ResidualCheckError on a miss, so this module needs numpy only.
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

# Slices per block in the sine-basis changes.  The block size sets the
# rounding of the 1D products, so changing it changes the outputs.
_SLICE_BLOCK = 64

# Slices per block in the heat step residual checks.
_CHECK_BLOCK = 32

# Backward-error bound of every checked solve: 64 eps.
_BACKWARD_TOL = 64 * np.finfo(float).eps

# Values per formatted chunk of a field dump, whose buffers peak near 1.8 MB.
_DUMP_CHUNK = 1 << 13

# 10**k for k = 0..20, each an exact double (5**20 < 2**53), and the range of
# the 17-digit significands of a field dump.
_POW10 = np.array([float(10**k) for k in range(21)])
_SIG_MIN, _SIG_MAX = 10**16, 10**17

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

    @property
    def weight(self) -> float:
        """Midpoint quadrature weight of every node, h**dim."""
        return self.h**self.dim

    def coords(self) -> tuple[np.ndarray, ...]:
        axis = self.h * np.arange(1, self.n + 1)
        if self.dim == 1:
            return (axis,)
        x2, x1 = np.meshgrid(axis, axis, indexing="ij")
        return x1.ravel(), x2.ravel()

    def field(self, values) -> ControlField:
        return ControlField(np.asarray(values, dtype=float), self.weight, self)

    def zero_field(self) -> ControlField:
        return self.field(np.zeros(self.n_nodes))


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform time mesh over a spatial grid; slice m lives at t = m*tau.

    Controls and states are stored on the nt right-endpoint time levels
    (implicit Euler evaluation points), flattened slice by slice, with
    space-time quadrature weight tau * h**dim at every node.
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

    @property
    def weight(self) -> float:
        """Space-time quadrature weight of every node, tau * h**dim."""
        return self.tau * self.space.weight

    def as_slices(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float).reshape(self.nt, self.space.n_nodes)

    def field(self, values) -> ControlField:
        flat = np.asarray(values, dtype=float).ravel()
        return ControlField(flat, self.weight, self)

    def zero_field(self) -> ControlField:
        return self.field(np.zeros(self.n_nodes))


def check_residual(operator, y, rhs, label="linear solve", first=0):
    """Raise ResidualCheckError unless every row of y solves M y = rhs.

    A row passes when |M y - r|_inf <= 64 eps (|M|_inf |y|_inf + |r|_inf),
    a backward error that a stable solve meets whatever the condition of M.
    operator gives |M y_i - r_i| of every row by its residual method, and
    |M|_inf as its norm, computed once per operator.  y and rhs hold one
    vector or one per row.  The message names the first failed row
    label.format(first + i).
    """
    y = y.reshape(-1, y.shape[-1])
    rhs = rhs.reshape(y.shape)
    resid = operator.residual(y, rhs).max(axis=1)
    scale = operator.norm * np.abs(y).max(axis=1) + np.abs(rhs).max(axis=1)
    ok = resid <= _BACKWARD_TOL * scale
    if not ok.all():
        i = ok.argmin()
        raise ResidualCheckError(
            f"{label.format(first + i)} failed the residual check "
            f"(backward error {resid[i] / scale[i]:.1e})"
        )


def smallest_laplacian_eigenvalue(grid: Grid) -> float:
    """Closed-form smallest eigenvalue of the assembled Dirichlet stencil."""
    h = grid.h
    return grid.dim * ((4.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2)


class ShiftedLaplacian:
    """M = shift I + scale A for the Dirichlet stencil A of one grid.

    A has the diagonal 2 dim/h**2 and the entry -1/h**2 for each neighbour
    along an axis (see Grid for the node order).  residual applies M
    matrix-free, and norm is |M|_inf in closed form: a row has at most
    min(n - 1, 2) neighbours per direction, and for n <= 2 every row is a
    boundary row.  Those two are what check_residual reads.

    The orthonormal sine basis diagonalises M.  sines are sin(pi h j k),
    j, k = 1..n, and matrix = sqrt(2h) sines is the orthonormal DST-I
    matrix S: symmetric, its own inverse, and S T S = diag(mu) for the 1D
    stencil T.  divisor = shift + scale lambda holds M's eigenvalues,
    flattened like the nodes: the mode (p, q) of S Y S in 2D has
    lambda = mu_p + mu_q.  solve divides by them in that basis.
    laplacian_c_constant scales the sines itself, so it keeps its own
    rounding of S o S.
    """

    def __init__(self, grid: Grid, shift: float = 0.0, scale: float = 1.0):
        h, h2 = grid.h, grid.h**2
        self.grid = grid
        self._strides = (1, grid.n)[: grid.dim]
        self._coupling = scale / h2
        self._diagonal = shift + 2 * grid.dim * self._coupling
        self.norm = shift + scale * ((2 + min(grid.n - 1, 2)) * grid.dim / h2)
        k = np.arange(1, grid.n + 1)
        self.sines = np.sin(math.pi * h * np.outer(k, k))
        self.matrix = math.sqrt(2.0 * h) * self.sines
        # mu = 4 sin(x)**2 / h**2 with x = pi h k / 2.  From the middle mode
        # up, 4 sin(x)**2 = 2 (1 - sin(pi/2 - 2x)) is free of cancellation and
        # exact at x = pi/4, the only mode of Grid(1, dim).
        t = math.pi * h * (grid.n + 1 - 2 * k) / 2.0
        mu = np.where(
            t > 0.0, 4.0 * np.sin(math.pi * h * k / 2.0) ** 2, 2.0 * (1.0 - np.sin(t))
        ) / h2
        eigenvalues = mu if grid.dim == 1 else (mu[:, None] + mu[None, :]).ravel()
        self.divisor = shift + scale * eigenvalues

    def residual(self, y: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """|M y_i - r_i| of every row i of y and rhs, shape (k, n_nodes).

        One scaled copy w = c y and in-place neighbour subtractions on the
        flattened rows, where the neighbours along an axis of stride s sit s
        entries apart.  Each line along the axis is followed by the next, so
        the end of w that a shift would carry into the next line is zeroed
        for that subtraction and then restored.  A batch that is one line
        along the axis (y.size == n s) has no next line, and skips that fix.
        Contiguous shifts run much faster than the same subtractions on
        strided slices.
        """
        c, n = self._coupling, self.grid.n
        y = np.ascontiguousarray(y)
        w = c * y
        out = self._diagonal * y
        w_flat, out_flat = w.reshape(-1), out.reshape(-1)
        for s in self._strides:
            if y.size == n * s:
                out_flat[s:] -= w_flat[:-s]
                out_flat[:-s] -= w_flat[s:]
                continue
            lines, y_lines = w.reshape(-1, n, s), y.reshape(-1, n, s)
            lines[:, -1] = 0.0
            out_flat[s:] -= w_flat[:-s]
            np.multiply(c, y_lines[:, -1], out=lines[:, -1])
            lines[:, 0] = 0.0
            out_flat[:-s] -= w_flat[s:]
            np.multiply(c, y_lines[:, 0], out=lines[:, 0])
        out -= rhs
        return np.abs(out, out=out)

    def change(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write S x_m (1D) or S X_m S (2D) of every row to out; out may be x.

        S is its own inverse, so the same map takes modes back to nodes.
        Rows go through in blocks of _SLICE_BLOCK.
        """
        s = self.matrix
        n = s.shape[0]
        for b0 in range(0, x.shape[0], _SLICE_BLOCK):
            block = x[b0 : b0 + _SLICE_BLOCK]
            if self.grid.dim == 1:
                out[b0 : b0 + _SLICE_BLOCK] = block @ s
            else:
                np.matmul(
                    s,
                    block.reshape(-1, n, n) @ s,
                    out=out[b0 : b0 + _SLICE_BLOCK].reshape(-1, n, n),
                )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """y with M y = r: S diag(divisor)**-1 S r, checked by check_residual."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.grid.n_nodes,):
            raise ValueError("right hand side has the wrong length")
        y = np.empty((1, rhs.size))
        self.change(rhs[None], y)
        y /= self.divisor
        self.change(y, y)
        check_residual(self, y[0], rhs)
        return y[0]


class HeatOperator:
    """Implicit Euler stepping for d/dt y + a * (Laplacian stencil) y = u.

    Forward:  (I + tau a A) y_m = y_{m-1} + tau u_m,  y_0 = 0, m = 1..nt.
    Adjoint:  (I + tau a A) p_m = p_{m+1} + tau w_m,  p_{nt+1} = 0, backward.
    The adjoint is the exact transpose of the forward map with respect to
    the space-time inner product sum_m tau (x_m, z_m)_h.

    step is the ShiftedLaplacian I + tau a A of the spatial grid.  A sweep
    changes every slice to its sine basis with step.change, runs the
    per-mode recursion z = (z + tau u_m) / step.divisor there, and changes
    back.  check_residual then checks each Euler step against that operator.
    """

    def __init__(self, grid: SpaceTimeGrid, conductivity: float):
        if conductivity <= 0.0:
            raise ValueError("conductivity must be positive")
        self.grid = grid
        self.step = ShiftedLaplacian(grid.space, 1.0, grid.tau * conductivity)

    def forward(self, u_slices: np.ndarray) -> np.ndarray:
        return self._sweep(u_slices, backward=False)

    def adjoint(self, w_slices: np.ndarray) -> np.ndarray:
        return self._sweep(w_slices, backward=True)

    def _sweep(self, slices: np.ndarray, backward: bool) -> np.ndarray:
        """Take one implicit Euler step per slice, last slice first if backward."""
        step, nt = self.step, slices.shape[0]
        divisor = step.divisor
        modes = np.empty(slices.shape)
        step.change(slices, modes)
        modes *= self.grid.tau
        order = range(nt - 1, -1, -1) if backward else range(nt)
        modes[order[0]] /= divisor
        for prev, m in zip(order, order[1:]):
            modes[m] += modes[prev]
            modes[m] /= divisor
        step.change(modes, modes)
        self._check_steps(slices, modes, backward)
        return modes

    def _check_steps(
        self, forcing: np.ndarray, states: np.ndarray, backward: bool
    ) -> None:
        """Residual of (I + tau a A) y_m = y_prev + tau u_m for every slice,
        _CHECK_BLOCK slices at a time."""
        nt = states.shape[0]
        for b0 in range(0, nt, _CHECK_BLOCK):
            b1 = min(b0 + _CHECK_BLOCK, nt)
            rhs = self.grid.tau * forcing[b0:b1]
            if backward:
                prev = states[b0 + 1 : b1 + 1]
                rhs[: prev.shape[0]] += prev
            else:
                prev = states[max(b0 - 1, 0) : b1 - 1]
                rhs[rhs.shape[0] - prev.shape[0] :] += prev
            check_residual(self.step, states[b0:b1], rhs, "heat step {}", b0)


def slice_dots(grid: SpaceTimeGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Spatial inner product of every time slice: h**dim * (a_m, b_m).

    One pass over the slices of a and b, with no product array.
    """
    prods = np.einsum("ij,ij->i", grid.as_slices(a), grid.as_slices(b))
    return grid.space.weight * prods


def slice_sq_norms(u: ControlField) -> np.ndarray:
    """Squared spatial l2 norm of every time slice of a space-time field:
    h**dim times the slice's dot with itself, by slice_dots."""
    grid = u.meta
    if not isinstance(grid, SpaceTimeGrid):
        raise ValueError("slice norms need a field on a SpaceTimeGrid")
    return slice_dots(grid, u.values, u.values)


def laplacian_c_constant(grid: Grid) -> float:
    """Largest l2 response of the inverse stencil over unit-l1 node inputs.

    The value estimate_c_constant scans for, c = max_j |A**-1 e_j|_2,w / w
    with w = h**dim, in closed form.  The orthonormal DST-I matrix
    S = sqrt(2h) sin(pi h j k) diagonalises the 1D stencil, so
    A = (S x S) Lambda (S x S)^T in 2D and
    c**2 = max_j diag(A**-2)_j / h**dim, a column maximum of
    (S o S) Lambda**-2 (S o S)^T with o the entrywise product.  Lambda is
    the divisor of ShiftedLaplacian(grid), mu_p + mu_q at (p, q) in 2D.
    """
    h = grid.h
    stencil = ShiftedLaplacian(grid)
    s2, inv_sq = 2.0 * h * stencil.sines**2, stencil.divisor**-2.0
    if grid.dim == 1:
        diag = s2 @ inv_sq
    else:
        diag = s2 @ inv_sq.reshape(grid.n, grid.n) @ s2.T
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


def _split(x):
    """Dekker's split x = hi + lo, each half with at most 26 significant bits."""
    t = x * 134217729.0  # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _round_scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10**(16 - e)), exactly, as int64; e in [-4, 16].

    c = 10**(16 - e) is an exact double, and Dekker's TwoProduct gives
    a c = p + err exactly, p = fl(a c).  Where p >= 2**53, p is an even
    integer, so a c rounds to p + rint(err) (rint rounds ties to even).
    Where p < 2**53, the result is below 10**16 whatever it is exactly.
    """
    k = 16 - e
    c = _POW10[k]
    p = a * c
    ah, al = _split(a)
    ch, cl = _POW10_HI[k], _POW10_LO[k]
    err = ((ah * ch - p) + ah * cl + al * ch) + al * cl
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _fixed_exponents(a: np.ndarray):
    """(fixed, X, D) for positive values a printed by "%.17g".

    X is the decimal exponent of a rounded to 17 significant digits and
    D = round-half-even(a * 10**(16 - X)) its digits.  The candidate
    x = floor(log10 a) is X wherever D(x) lies strictly between 10**16
    and 10**17: below floor(log10 a) D(x) >= 10**17, above it
    D(x) <= 10**16, and at it D(x) = 10**17 where the 17 digits carry into
    the next power of ten.  fixed marks the values with such an x in
    [-4, 16], where "%.17g" prints fixed notation.  The others, among them
    the values within a few units in the last place of a power of ten,
    where log10 can round across it, are left to CPython.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.floor(np.log10(a))
    fixed = (x >= -4.0) & (x <= 16.0)
    x = np.where(fixed, x, 0.0).astype(np.int64)
    d = _round_scaled(np.where(fixed, a, 0.0), x)
    fixed &= (d > _SIG_MIN) & (d < _SIG_MAX)
    return fixed, x, d


def _decimal_digits(d: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each d in [10**16, 10**17), one row each."""
    digits = np.empty((17, d.size), np.uint32)
    high = d // 10**9
    row = 0
    for half, width in ((high, 8), (d - high * 10**9, 9)):
        half = half.astype(np.uint32)
        for j in range(width):
            np.floor_divide(half, np.uint32(10 ** (width - 1 - j)), out=digits[row + j])
        digits[row + 1 : row + width] -= np.uint32(10) * digits[row : row + width - 1]
        row += width
    return digits.astype(np.uint8)


# Slot indices of the 17 significand digits and of the 4 leading zeros in
# the digit string "0000" + D of _format_values.
_DIGIT_SLOTS = np.arange(4, 21, dtype=np.int8)[:, None]
_LEAD_SLOTS = np.arange(4, dtype=np.int8)[:, None]
# A row that leaves its value to CPython: a "%.17g" placeholder.
_PLACEHOLDER = np.frombuffer(b"\0%.17g" + bytes(37), np.uint8)


def _format_values(values: np.ndarray) -> str:
    """The concatenated bytes of "%.17g\n" % x for each x in values.

    Each value gets a row of 44 bytes, NUL for padding: a '-' slot, 21
    pairs of a character and a '.' slot, and '\n'; translate then drops
    the NULs.  A fixed-notation value a = D * 10**(X - 16) fills the pairs
    from the digit string Z = "0000" + D, whose units digit is Z[4 + X]:
    Z[i] is kept from i = min(4, 4 + X) up to the units digit or the last
    nonzero digit, whichever is later, and '.' follows the units digit
    when a nonzero digit comes after it.  +-0.0 print as "0" and "-0".
    Every other value gets the placeholder, filled by one % at the end.
    """
    rows = np.zeros((values.size, 44), np.uint8)
    rows[:, 0] = np.signbit(values) * np.uint8(ord("-"))
    rows[:, 1] = ord("0")
    rows[:, 43] = ord("\n")
    nonzero = np.flatnonzero(values)
    fixed, x, d = _fixed_exponents(np.abs(values[nonzero]))
    rest, nonzero = nonzero[~fixed], nonzero[fixed]
    if nonzero.size:
        units = 4 + x[fixed].astype(np.int8)
        digits = _decimal_digits(d[fixed])
        last = ((digits != 0) * _DIGIT_SLOTS).max(axis=0)
        digits += ord("0")
        digits *= _DIGIT_SLOTS <= np.maximum(last, units)
        pairs = np.zeros((nonzero.size, 21, 2), np.uint8)
        pairs[:, :4, 0] = ((_LEAD_SLOTS >= units) * np.uint8(ord("0"))).T
        pairs[:, 4:, 0] = digits.T
        point = np.flatnonzero(last > units)
        pairs[point, units[point], 1] = ord(".")
        rows[nonzero, 1:43] = pairs.reshape(nonzero.size, 42)
    rows[rest, :43] = _PLACEHOLDER
    text = rows.tobytes().translate(None, b"\0").decode("ascii")
    if rest.size:
        text %= tuple(values[rest].tolist())
    return text


def write_field(path, u: ControlField) -> None:
    """Write a field as a text dump: field_header, then one value per line.

    Values are printed row-major with 17 significant digits, enough to
    round-trip float64 exactly: the bytes of "%.17g\n" % x for each value x,
    formatted in chunks of _DUMP_CHUNK values by _format_values.

    Fast range: nonzero finite x whose exponent X after rounding to 17
    digits lies in [-4, 16], where "%.17g" uses fixed notation.  There the
    digits D = round-half-even(|x| * 10**(16 - X)) are computed exactly:
    10**k is an exact double for k <= 22, Dekker's TwoProduct gives
    |x| 10**k as p + err with no rounding, and p >= 10**16 > 2**53 is an
    even integer, so D = p + rint(err) (_round_scaled, _fixed_exponents).
    +0.0 and -0.0 print as "0" and "-0" directly, and a chunk of +0.0 alone
    as one repeated "0\n", with no kernel call.  Fallback: every other
    value (scientific range, subnormals, |x| >= 1e17, inf, nan, and the
    few values next to a power of ten whose exponent log10 leaves in
    doubt) is left to CPython's "%.17g" through one % per chunk.
    """
    header = field_header(u.meta)
    values = u.values
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, values.size, _DUMP_CHUNK):
            chunk = values[start : start + _DUMP_CHUNK]
            if chunk.view(np.uint64).any():
                fh.write(_format_values(chunk))
            else:  # every bit zero: all +0.0
                fh.write("0\n" * chunk.size)


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
