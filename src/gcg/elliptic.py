"""Poisson tracking control with an L1 penalty and box constraints.

Minimizes  f(u) + g(u)  over controls on the unit square (or interval) with

    f(u) = 0.5 * |K u - target|_2,w**2,      K = inverse Dirichlet stencil,
    g(u) = beta * |u|_1,w + indicator of {lower <= u <= upper},

where w = h**2 is the grid's one midpoint weight, so |x|_1,w = w sum |x_i|,
and the target absorbs any fixed source term: target = y_d - K h.  The
gradient of f is the adjoint state p = K (K u - target); the LMO thresholds
p nodewise at +-beta, producing controls supported on {lower, 0, upper}.
Minimizers inherit that three-valued structure wherever |p| != beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from gcg.core import ControlField
from gcg.pde import Grid, ShiftedLaplacian, laplacian_c_constant
from gcg.tracking import TrackingProblem

# Full-size float64 arrays that a run keeps live at its peak, measured with
# tracemalloc and pinned by tests/test_cli.py: stadler-ex1 at n = 512 peaks
# at 20.1 of them with --track-errors and 19.0 without.  The control dump's
# buffers, at most about 1.8 MB for its chunk of 2**13 values, are left out.
RUN_ARRAYS = 21


@dataclass(eq=False)
class EllipticProblem(TrackingProblem):
    """One tracking instance: grid, penalty weight, bounds, target.

    K is the inverse of the grid's Dirichlet stencil; a ShiftedLaplacian
    applies it in the stencil's sine basis.  The penalty's groups are the
    nodes, of measure h**dim each, and its feasible set is the box.
    """

    grid: Grid
    reg_beta: float
    lower: ControlField
    upper: ControlField
    target: ControlField

    def __post_init__(self):
        if self.reg_beta < 0.0:
            raise ValueError("penalty weight must be nonnegative")
        if np.any(self.lower.values > 0.0) or np.any(self.upper.values < 0.0):
            raise ValueError("bounds must satisfy lower <= 0 <= upper nodewise")
        n = self.grid.n_nodes
        if not (self.lower.size == self.upper.size == self.target.size == n):
            raise ValueError("bounds and target must live on the problem grid")

    @cached_property
    def bound_scale(self) -> float:
        return max(
            1.0,
            float(np.max(np.abs(self.lower.values))),
            float(np.max(np.abs(self.upper.values))),
        )

    @cached_property
    def _box(self) -> tuple[np.ndarray, np.ndarray]:
        """lower - tol and upper + tol, tol = 1e-12 bound_scale: the feasible box."""
        tol = 1e-12 * self.bound_scale
        return self.lower.values - tol, self.upper.values + tol

    @cached_property
    def _poisson(self) -> ShiftedLaplacian:
        return ShiftedLaplacian(self.grid)

    def solve_state(self, values: np.ndarray) -> np.ndarray:
        return self._poisson.solve(values)

    solve_adjoint = solve_state  # the stencil is symmetric, so S* = S = K

    @property
    def penalty(self) -> float:
        return self.reg_beta

    @property
    def growth_quantum(self) -> float:
        """Weight of one node: the smallest nonzero growth measure."""
        return self.grid.weight

    def group_norms(self, u: ControlField) -> np.ndarray:
        return np.abs(u.values)

    def group_norms_along(self, u: ControlField, du: np.ndarray) -> Callable:
        """s -> |u + s du|, each probe in one fresh buffer."""
        vals = u.values

        def norms(s: float) -> np.ndarray:
            x = s * du
            x += vals
            return np.abs(x, out=x)

        return norms

    def feasible(self, u: ControlField) -> bool:
        """Whether u lies in _box: the bounds plus a floating-point slack."""
        lo, up = self._box
        return not ((u.values < lo).any() or (u.values > up).any())

    def lmo(self, p: ControlField) -> ControlField:
        """Nodewise minimizer of p*v + beta*|v| over [lower, upper].

        v = lower where p >= beta, upper where p <= -beta, else 0; ties on
        |p| = beta resolve to the bound, matching the case analysis of the
        optimality system.
        """
        beta = self.reg_beta
        vals = np.where(
            p.values >= beta,
            self.lower.values,
            np.where(p.values <= -beta, self.upper.values, 0.0),
        )
        return p.with_values(vals)

    def response_constant(self) -> float:
        """c, the l2-by-l1 bound of K, in closed form from the stencil's sine
        basis; the column scan _sparse_reference.estimate_c_constant is its
        test oracle."""
        return laplacian_c_constant(self.grid)

    def structure(self, u: ControlField, p: ControlField) -> dict[str, float]:
        """Measure fractions describing how bang-bang-off a control is.

        Every node has the same weight, so each fraction is a node count
        over the node count.

        three_value_fraction: nodes within tolerance of {lower, 0, upper}.
        case_match_fraction: nodes consistent with the adjoint-based case
        rule (at the lower bound where p > beta, zero where |p| < beta, at
        the upper bound where p < -beta, anywhere in the adjacent interval
        on the transition bands |p| = beta).
        """
        tol = 1e-6
        atol = tol * self.bound_scale
        vals, total = u.values, u.size
        lo, up = self.lower.values, self.upper.values

        dist3 = np.minimum(
            np.abs(vals - lo), np.minimum(np.abs(vals), np.abs(vals - up))
        )
        three = float(np.count_nonzero(dist3 <= atol)) / total

        beta = self.reg_beta
        pv = p.values
        ptol = tol * max(1.0, float(np.max(np.abs(pv))))
        at_lo = np.abs(vals - lo) <= atol
        at_up = np.abs(vals - up) <= atol
        at_zero = np.abs(vals) <= atol
        in_lo_band = (vals >= lo - atol) & (vals <= atol)
        in_up_band = (vals >= -atol) & (vals <= up + atol)
        ok = np.where(
            pv > beta + ptol,
            at_lo,
            np.where(
                pv < -beta - ptol,
                at_up,
                np.where(
                    np.abs(pv) < beta - ptol,
                    at_zero,
                    np.where(pv > 0, in_lo_band, in_up_band),
                ),
            ),
        )
        case = float(np.count_nonzero(ok)) / total
        return {"three_value_fraction": three, "case_match_fraction": case}


def _example_fields(name: str, grid: Grid):
    """Bounds, y_d, fixed source and beta of a bundled instance."""
    x1, x2 = grid.coords()
    if name == "stadler-ex1":
        lower = np.full(grid.n_nodes, -30.0)
        upper = np.full(grid.n_nodes, 30.0)
        y_d = np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2) * np.exp(2 * x1) / 6.0
        source = None
        beta = 0.001
    else:  # stadler-ex3
        lower = np.full(grid.n_nodes, -10.0)
        upper = np.where(x1 <= 0.25, 0.0, -5.0 + 20.0 * x1)
        y_d = np.sin(4 * np.pi * x1) * np.cos(8 * np.pi * x2) * np.exp(2 * x1)
        source = 10.0 * np.cos(8 * np.pi * x1) * np.sin(8 * np.pi * x2)
        beta = 0.002
    return lower, upper, y_d, source, beta


def example_grid(name: str, n: int) -> Grid:
    """The grid of a bundled instance, Grid(n, 2); it holds no arrays."""
    if name not in EXAMPLES:
        raise ValueError(f"unknown elliptic example {name!r}")
    return Grid(n, 2)


def make_example(name: str, n: int) -> EllipticProblem:
    """Build a bundled benchmark instance at resolution n.

    stadler-ex1: bounds +-30, beta = 1e-3, smooth oscillatory target, no
    fixed source.  stadler-ex3: lower bound -10, upper bound 0 for x1 <= 1/4
    and -5 + 20 x1 beyond, beta = 2e-3, with a fixed source folded into the
    target as target = y_d - K h.
    """
    grid = example_grid(name, n)
    lower, upper, y_d, source, beta = _example_fields(name, grid)
    target = y_d if source is None else y_d - ShiftedLaplacian(grid).solve(source)
    return EllipticProblem(
        grid=grid,
        reg_beta=beta,
        lower=grid.field(lower),
        upper=grid.field(upper),
        target=grid.field(target),
    )


# the bundled instances, name -> description
EXAMPLES = {
    "stadler-ex1": "elliptic tracking, constant bounds +-30, three-valued optimal control",
    "stadler-ex3": "elliptic tracking, spatially varying upper bound and fixed source",
}

# the sizes example_grid and make_example take after the name, with defaults
SIZES = {"n": 64}
