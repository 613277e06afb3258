"""Poisson tracking control with an L1 penalty and box constraints.

Minimizes  f(u) + g(u)  over controls on the unit square (or interval) with

    f(u) = 0.5 * |K u - target|_2,mass**2,      K = inverse Dirichlet stencil,
    g(u) = beta * |u|_1,mass + indicator of {lower <= u <= upper},

where the target absorbs any fixed source term: target = y_d - K h.  The
gradient of f is the adjoint state p = K (K u - target); the LMO thresholds
p nodewise at +-beta, producing controls supported on {lower, 0, upper}.
Minimizers inherit that three-valued structure wherever |p| != beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from gcg.core import ControlField
from gcg.pde import Grid, PoissonSolver, l1_norm, laplacian_c_constant
from gcg.tracking import TrackingProblem


@dataclass(eq=False)
class EllipticProblem(TrackingProblem):
    """One tracking instance: grid, penalty weight, bounds, target.

    K is the inverse of the grid's Dirichlet stencil; a PoissonSolver
    applies it in the stencil's sine basis.
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

    @property
    def bound_scale(self) -> float:
        return max(
            1.0,
            float(np.max(np.abs(self.lower.values))),
            float(np.max(np.abs(self.upper.values))),
        )

    @cached_property
    def _poisson(self) -> PoissonSolver:
        return PoissonSolver(self.grid)

    def solve_state(self, values: np.ndarray) -> np.ndarray:
        return self._poisson.solve(values)

    solve_adjoint = solve_state  # the stencil is symmetric, so S* = S = K

    def g_eval(self, u: ControlField) -> float:
        """beta-weighted l1 norm, infinite outside the box (with fp slack)."""
        tol = 1e-12 * self.bound_scale
        if np.any(u.values < self.lower.values - tol) or np.any(
            u.values > self.upper.values + tol
        ):
            return math.inf
        return self.reg_beta * l1_norm(u)

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

    def dual_norm(self, u: ControlField) -> float:
        return l1_norm(u)

    def g_along(self, u: ControlField, du: np.ndarray) -> Callable[[float], float]:
        """beta-weighted l1 norm of u + s du; the box holds on [0, 1]."""
        beta, mass, vals = self.reg_beta, u.mass, u.values

        def g_val(s: float) -> float:
            return beta * float(np.dot(mass, np.abs(vals + s * du)))

        return g_val

    @cached_property
    def lipschitz_estimate(self) -> float:
        """Gradient Lipschitz bound c**2, c the l2-by-l1 bound of K.

        c comes in closed form from the sine eigenbasis of the grid's
        stencil (pde.laplacian_c_constant); the column scan
        _sparse_reference.estimate_c_constant is its test oracle.
        """
        c = laplacian_c_constant(self.grid)
        return c * c

    @property
    def growth_quantum(self) -> float:
        """Mass of one node: the smallest nonzero growth measure."""
        return float(self.grid.mass_weights()[0])

    def growth_measure(self, p: ControlField, eps: float) -> float:
        """Mass of the near-threshold set { | |p| - beta | <= eps }."""
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        band = np.abs(np.abs(p.values) - self.reg_beta) <= eps
        return float(p.mass[band].sum())

    def structure(self, u: ControlField, p: ControlField) -> dict[str, float]:
        """Mass fractions describing how bang-bang-off a control is.

        three_value_fraction: nodes within tolerance of {lower, 0, upper}.
        case_match_fraction: nodes consistent with the adjoint-based case
        rule (at the lower bound where p > beta, zero where |p| < beta, at
        the upper bound where p < -beta, anywhere in the adjacent interval
        on the transition bands |p| = beta).
        """
        tol = 1e-6
        atol = tol * self.bound_scale
        vals, mass = u.values, u.mass
        lo, up = self.lower.values, self.upper.values
        total = float(mass.sum())

        dist3 = np.minimum(
            np.abs(vals - lo), np.minimum(np.abs(vals), np.abs(vals - up))
        )
        three = float(mass[dist3 <= atol].sum()) / total

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
        case = float(mass[ok].sum()) / total
        return {"three_value_fraction": three, "case_match_fraction": case}

    def sample_feasible(self, rng: np.random.Generator) -> ControlField:
        vals = rng.uniform(self.lower.values, self.upper.values)
        return self.lower.with_values(vals)


def _example_fields(name: str, grid: Grid):
    if grid.dim != 2:
        raise ValueError("the bundled examples are posed on the unit square")
    x1, x2 = grid.coords()
    if name == "stadler-ex1":
        lower = np.full(grid.n_nodes, -30.0)
        upper = np.full(grid.n_nodes, 30.0)
        y_d = np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2) * np.exp(2 * x1) / 6.0
        source = None
        beta = 0.001
    elif name == "stadler-ex3":
        lower = np.full(grid.n_nodes, -10.0)
        upper = np.where(x1 <= 0.25, 0.0, -5.0 + 20.0 * x1)
        y_d = np.sin(4 * np.pi * x1) * np.cos(8 * np.pi * x2) * np.exp(2 * x1)
        source = 10.0 * np.cos(8 * np.pi * x1) * np.sin(8 * np.pi * x2)
        beta = 0.002
    else:
        raise ValueError(f"unknown elliptic example {name!r}")
    return lower, upper, y_d, source, beta


def make_example(name: str, n: int) -> EllipticProblem:
    """Build a bundled benchmark instance at resolution n.

    stadler-ex1: bounds +-30, beta = 1e-3, smooth oscillatory target, no
    fixed source.  stadler-ex3: lower bound -10, upper bound 0 for x1 <= 1/4
    and -5 + 20 x1 beyond, beta = 2e-3, with a fixed source folded into the
    target as target = y_d - K h.
    """
    grid = Grid(n, 2)
    lower, upper, y_d, source, beta = _example_fields(name, grid)
    target = y_d if source is None else y_d - PoissonSolver(grid).solve(source)
    return EllipticProblem(
        grid=grid,
        reg_beta=beta,
        lower=grid.field(lower),
        upper=grid.field(upper),
        target=grid.field(target),
    )


ELLIPTIC_EXAMPLES = {
    "stadler-ex1": "elliptic tracking, constant bounds +-30, three-valued optimal control",
    "stadler-ex3": "elliptic tracking, spatially varying upper bound and fixed source",
}
