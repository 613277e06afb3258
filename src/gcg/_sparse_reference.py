"""The assembled sparse stencil and its LU solve: the reference of gcg.pde.

No run imports this module, so `gcg run` needs numpy only.  The tests check
the matrix-free stencil, the sine-basis solves and the closed-form
constants of gcg.pde against what is assembled here:

- _stencil(grid), the Dirichlet Laplacian as a sparse matrix, and
  _inf_norm, its largest absolute row sum;
- DiscreteOperator, a sparse LU solve under pde.check_residual, and
  assemble_laplacian, the stencil wrapped in one;
- estimate_c_constant, the column scan of the inverse that the closed form
  pde.laplacian_c_constant replaced.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from gcg.pde import Grid, check_residual


def _inf_norm(matrix) -> float:
    """Largest absolute row sum of a sparse matrix."""
    return float(abs(matrix).sum(axis=1).max())


def _stencil(grid: Grid):
    """The Dirichlet Laplacian stencil as a sparse matrix (see assemble_laplacian)."""
    main = np.full(grid.n, 2.0)
    off = np.full(grid.n - 1, -1.0)
    t = sparse.diags([off, main, off], [-1, 0, 1], format="csr") / grid.h**2
    if grid.dim == 1:
        return t
    eye = sparse.identity(grid.n, format="csr")
    return sparse.kron(eye, t) + sparse.kron(t, eye)


class DiscreteOperator:
    """Sparse operator with a cached direct factorization.

    Solves go through an LU factorization computed at the first solve and
    are checked a posteriori by check_residual.
    """

    def __init__(self, matrix):
        matrix = sparse.csc_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        self.matrix = matrix
        self._norm = _inf_norm(matrix)
        self._factor = None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def residual(self, y: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """|M y_i - r_i| of every row i of y and rhs, as check_residual takes it."""
        return np.abs((self.matrix @ y.T).T - rhs)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve op @ y = rhs for one vector or one per column."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.size:
            raise ValueError("right hand side has the wrong length")
        if self._factor is None:
            self._factor = splu(self.matrix)
        y = self._factor.solve(rhs)
        check_residual(self, self._norm, y.T, rhs.T)
        return y


def assemble_laplacian(grid: Grid) -> DiscreteOperator:
    """Dirichlet Laplacian stencil: 3-point in 1D, 5-point in 2D.

    Diagonal entries are 2/h**2 (1D) or 4/h**2 (2D), neighbor entries
    -1/h**2; boundary nodes are eliminated.  The matrix is symmetric
    positive definite with eigenvalues
    (4/h**2) * sum_d sin(i_d pi h / 2)**2 over the active directions.
    """
    return DiscreteOperator(_stencil(grid))


def estimate_c_constant(op: DiscreteOperator, mass: np.ndarray, chunk: int = 256) -> float:
    """Largest l2 response of op**-1 over unit-l1 single-node inputs.

    Scans the columns of the inverse: c = max_j |K e_j|_2,mass / mass_j,
    which bounds |K u|_2 <= c |u|_1 for every u by convexity of the l1 ball.
    """
    mass = np.asarray(mass, dtype=float)
    if mass.shape != (op.size,):
        raise ValueError("mass weights do not match the operator size")
    best = 0.0
    n = op.size
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = np.zeros((n, stop - start))
        block[np.arange(start, stop), np.arange(stop - start)] = 1.0
        cols = op.solve(block)
        col_norms = np.sqrt(mass @ cols**2)
        best = max(best, float(np.max(col_norms / mass[start:stop])))
    return best
