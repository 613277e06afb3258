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
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from gcg.core import ControlField
from gcg.pde import Grid, PoissonSolver, l1_norm, laplacian_c_constant
from gcg.tracking import TrackingProblem


@dataclass(eq=False)
class EllipticProblem(TrackingProblem):
    """One tracking instance: grid, penalty weight, bounds, target.

    K is the inverse of the grid's Dirichlet stencil; a PoissonSolver
    applies it in the stencil's sine basis.  g_along_bounds brackets the
    penalty along a segment in closed form, exact up to the first sign
    change and bounded below by the tangent beyond it, so most
    backtracking probes take a few float operations instead of an O(N)
    sum.
    g_eval, dual_norm and g_along_bounds share pde.l1_norm of each field
    through TrackingProblem._memo_norm, so one iteration sums m |u| over u
    and over v once each.
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
        return self.reg_beta * self._memo_norm(u, l1_norm)

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
        return self._memo_norm(u, l1_norm)

    def g_along(self, u: ControlField, du: np.ndarray) -> Callable[[float], float]:
        """beta-weighted l1 norm of u + s du; the box holds on [0, 1]."""
        beta, mass, vals = self.reg_beta, u.mass, u.values

        def g_val(s: float) -> float:
            return beta * float(np.dot(mass, np.abs(vals + s * du)))

        return g_val

    def g_along_bounds(
        self, u: ControlField, du: np.ndarray
    ) -> Optional[Callable[[float], tuple[float, float]]]:
        """Bracket [lo, hi] of the float g_along(u, du)(s) returns, s >= 0.

        g(s) = beta sum_i m_i |u_i + s du_i| is convex.  With tau_i =
        sign(u_i), or sign(du_i) where u_i = 0, node i contributes
        m_i tau_i (u_i + s du_i) up to its kink t_i = |u_i| / |du_i|, where
        tau_i du_i < 0.  So up to the first kink t1 = min t_i, g is the line
        beta (a0 + s b), a0 = sum m |u| (pde.l1_norm, shared with g_eval, so
        g(0) is g_eval(u) bit for bit) and b = sum m tau du.  The line is
        g's tangent at 0+, so it bounds g from below beyond t1 too: the
        bracket is [line - e, line + e] for s <= t1 and [line - e, inf)
        after.

        Rounding bound.  Let u_r = eps / 2, U = sum m |u|, D = sum m |du|
        and S = U + s D.  A dot product of N terms carries an error of at
        most gamma_N = N u_r / (1 - N u_r) times the sum of the terms'
        magnitudes, in any summation order, fused or not (Higham,
        Accuracy and Stability, sec. 3.1).  To first order in u_r:

        - the direct sum rounds s du_i and u_i + s du_i, so each
          |u_i + s du_i| is off by at most 2 u_r (|u_i| + s |du_i|); the
          dot adds gamma_N and the product with beta u_r: (N + 3) u_r S.
        - the line: the dots a0 and b (N u_r S), then the product with s,
          the sum and the product with beta (3 u_r S).  The computed t1 may
          sit one rounding above the true one; a node i whose kink lies
          below s <= fl(t1) <= fl(t_i) then takes the wrong sign, but
          |u_i + s du_i| <= u_r |u_i| there: 2 u_r U.  In all (N + 5) u_r S.

        The two differ by at most (2N + 8) u_r S = (N + 4) eps S.  The
        bracket takes e(s) = 4 (N + 16) eps beta S, over four times that,
        which covers the higher-order terms, U and D being computed sums
        themselves, and the rounding of e and of line -/+ e.

        None when beta (U + D) is not finite, where the closed form could
        overflow and the direct sum not.
        """
        beta, mass, vals = self.reg_beta, u.mass, u.values
        a0 = self._memo_norm(u, l1_norm)
        tau_du = np.abs(du)
        d_sum = float(np.dot(mass, tau_du))
        if not math.isfinite(2.0 * beta * (a0 + d_sum)):
            return None
        # tau du is |du| except where u and du have strictly opposite signs
        signed_du = np.sign(vals)
        signed_du *= du  # sign(u) du, exactly
        opposite = np.flatnonzero(signed_du < 0.0)
        signed_du = signed_du[opposite]
        tau_du[opposite] = signed_du
        slope = float(np.dot(mass, tau_du))
        t1 = float(np.min(np.abs(vals[opposite]) / -signed_du, initial=math.inf))
        scale = 4.0 * (vals.size + 16) * sys.float_info.epsilon * beta
        e0, e1 = scale * a0, scale * d_sum

        def bounds(s: float) -> tuple[float, float]:
            g = beta * (a0 + s * slope)
            e = e0 + s * e1
            return g - e, (g + e if s <= t1 else math.inf)

        return bounds

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
