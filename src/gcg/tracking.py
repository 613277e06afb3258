"""The tracking term and the group-norm penalty shared by the bundled instances.

Both instances minimize  f(u) + g(u)  with the same smooth part

    f(u) = 0.5 * |S u - target|**2 = 0.5 * w * dot(r, r),   r = S u - target,

for a linear control-to-state map S and the grid's one quadrature weight
w.  Its gradient is the adjoint state p = S* (S u - target), and along a
segment u + s (v - u) it is the exact quadratic f0 + s f1 + s**2 f2 / 2,
with f1 = w dot(r, dy) and f2 = w dot(dy, dy), so one more solve for
dy = S (v - u) prices every backtracking probe without further PDE work.
The accepted point's state is then S u + s dy, kept in one memo record,
so the next gradient needs only the adjoint solve: two PDE solves per
iteration.

Both share g too: g(u) = lambda * (q * sum_i |u_i|) on a feasible set, and
infinite off it, for groups i of measure q, nodes or time slices.  f0 is
f(u) by f_and_grad's expression and g_along sums as g_eval does, so phi(0)
is j(u) bit for bit wherever group_norms_along(u, du)(0) is group_norms(u).

TrackingProblem implements f, its gradient, the segment objective, g and
the solver bundle once.  An instance class mixes it in and supplies:

    target, grid                the tracked state; a grid with zero_field()
    solve_state, solve_adjoint  S and S* applied to nodal values
    penalty, growth_quantum     lambda and q
    group_norms(u)              the array of group norms |u_i|
    group_norms_along(u, du)    callable s -> group_norms(u + s du)
    feasible(u), lmo(p)         the feasible set and the penalty's oracle
    response_constant()         c, the l2 bound of S over unit-measure inputs
    structure(u, p)             the run report's structure entries

and the rest follows, down to growth_distance(p) = | |p_i| - lambda |, from
which gcg.diagnostics counts the near-threshold sets.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional

import numpy as np

from gcg.core import CompositeProblem, ControlField


class TrackingProblem:
    """f(u) = 0.5 |S u - target|**2 with one memo record of the state S u,
    and g(u) = penalty * dual_norm(u) on the feasible set.

    Every sum of the misfit is u's weight times a plain dot product of the
    residual and the state difference, f = 0.5 w dot(r, r) and the segment
    coefficients f1 = w dot(r, dy), f2 = w dot(dy, dy).

    The record is (u, S u, segment), keyed on the identity of the
    ControlField u, so a line search that follows a gradient evaluation at
    the same iterate reuses its state, with the same floats.  segment is
    (v, v - u, S (v - u)) of the last segment line_objective priced from u,
    or None.  A new record replaces the old one whole, and only that
    releases a segment.  step builds the accepted point from the kept
    difference and records it with the state S u + s S (v - u), so the
    state is solved afresh only for a field no step made.  Carried states
    drift from a fresh solve by rounding; gcg_solve evaluates at a new
    field before it stops.  The record assumes that no field's values are
    changed in place; the solver makes every iterate a new ControlField.

    The segment's curvature |S (v - u)|**2 needs no field: armijo_step
    recovers it from phi(1) and starts where it guarantees a pass.
    """

    # (u, S u, segment), segment = (v, v - u, S (v - u)) of the last segment
    # priced from u, or None
    _memo: Optional[tuple[ControlField, np.ndarray, Optional[tuple]]] = None

    def _state_at(self, u: ControlField) -> np.ndarray:
        if self._memo is not None and self._memo[0] is u:
            return self._memo[1]
        y = self.solve_state(u.values)
        self._memo = (u, y, None)
        return y

    def zero_control(self) -> ControlField:
        return self.grid.zero_field()

    def f_and_grad(self, u: ControlField) -> tuple[float, ControlField]:
        """Tracking misfit and its gradient, the adjoint state p."""
        resid = self._state_at(u) - self.target.values
        f_val = 0.5 * u.weight * float(np.dot(resid, resid))
        return f_val, u.with_values(self.solve_adjoint(resid))

    def line_objective(
        self, u: ControlField, v: ControlField
    ) -> Callable[[float], float]:
        """Exact objective along the segment u + s (v - u).

        The misfit is quadratic in s; its coefficients take the state at u,
        from the record after f_and_grad, and one solve for the difference
        dy.  Each is the weight times one dot product, with no product
        array, and f0 is f_and_grad's own expression, so phi(0) is j(u) bit
        for bit.  Feasibility holds on [0, 1] by convexity and is not
        rechecked.
        """
        du = v.values - u.values
        y_u = self._state_at(u)
        dy = self.solve_state(du)
        g_along = self.g_along(u, du)
        w = u.weight
        resid = y_u - self.target.values
        f0 = 0.5 * w * float(np.dot(resid, resid))
        f1 = w * float(np.dot(resid, dy))
        f2 = w * float(np.dot(dy, dy))
        self._memo = (u, y_u, (v, du, dy))

        def phi(s: float) -> float:
            return f0 + s * f1 + 0.5 * s * s * f2 + g_along(s)

        return phi

    def step(self, u: ControlField, v: ControlField, s: float) -> ControlField:
        """The point u + s (v - u), with its state when the segment was priced.

        When the record holds u and, by identity, the v of its segment, the
        point is s du + u from the kept du = v - u, the floats of
        u.blend(v, s), and the new record holds the point with the state
        S u + s S (v - u).  Otherwise the point is a plain blend and the
        record stays.
        """
        u_memo, y_u, segment = self._memo or (None, None, None)
        if u_memo is not u or segment is None or segment[0] is not v:
            return u.blend(v, s)
        _, du, dy = segment
        values = s * du
        values += u.values
        w = u.with_values(values)
        dy *= s  # dy is ours alone, so the sum y_u + s dy reuses it
        dy += y_u
        self._memo = (w, dy, None)
        return w

    def g_eval(self, u: ControlField) -> float:
        """penalty * dual_norm(u), infinite where u is not feasible."""
        return self.penalty * self.dual_norm(u) if self.feasible(u) else np.inf

    def dual_norm(self, u: ControlField) -> float:
        """The measured sum of group norms, growth_quantum * sum_i |u_i|."""
        return self.growth_quantum * float(self.group_norms(u).sum())

    def g_along(self, u: ControlField, du: np.ndarray) -> Callable[[float], float]:
        """s -> g(u + s du), summed as g_eval sums; by convexity u + s du is
        feasible for s in [0, 1], so the set is not rechecked."""
        penalty, quantum = self.penalty, self.growth_quantum
        norms_along = self.group_norms_along(u, du)

        def g_val(s: float) -> float:
            return penalty * (quantum * float(norms_along(s).sum()))

        return g_val

    def growth_distance(self, p: ControlField) -> np.ndarray:
        """Per group, | |p_i| - penalty |, the distance to the threshold."""
        return np.abs(self.group_norms(p) - self.penalty)

    @cached_property
    def lipschitz_estimate(self) -> float:
        """Gradient Lipschitz bound c**2, c = response_constant()."""
        c = self.response_constant()
        return c * c

    def composite(self) -> CompositeProblem:
        return CompositeProblem(
            smooth_eval=self.f_and_grad,
            nonsmooth_eval=self.g_eval,
            lmo=self.lmo,
            dual_norm=self.dual_norm,
            line_objective=self.line_objective,
            step=self.step,
        )
