"""The quadratic tracking term shared by the bundled control instances.

Both instances minimize  f(u) + g(u)  with the same smooth part

    f(u) = 0.5 * |S u - target|**2 = 0.5 * w * dot(r, r),   r = S u - target,

for a linear control-to-state map S and the grid's one quadrature weight
w.  Its gradient is the adjoint state p = S* (S u - target), and along a
segment u + s (v - u) it is the exact quadratic f0 + s f1 + s**2 f2 / 2,
with f1 = w dot(r, dy) and f2 = w dot(dy, dy), so one more solve for
dy = S (v - u) prices every backtracking probe without further PDE work.
f0 is f(u) by the same expression, from the same residual, so phi(0) is
f(u) + g(u) bit for bit wherever g_along(u, du)(0) is g_eval(u).
The accepted point's state is then S u + s dy, so the next gradient needs
only the adjoint solve: two PDE solves per iteration.  One memo record
holds u, S u and the last segment priced from u.

TrackingProblem implements f, its gradient, the segment objective and the
solver bundle once.  An instance class mixes it in and supplies:

    target                      the tracked state, a ControlField
    grid                        with zero_field()
    solve_state(values)         S applied to nodal values
    solve_adjoint(values)       S* applied to nodal values
    g_eval, lmo, dual_norm      the nonsmooth term, its oracle and dual norm
    g_along(u, du)              callable s -> g(u + s du) for s in [0, 1]

and, for the run diagnostics, lipschitz_estimate, growth_quantum,
growth_distance(p) and structure(u, p).  growth_distance(p) is the array of
distances to the penalty threshold, one entry of measure growth_quantum per
node or time slice; gcg.diagnostics counts the near-threshold sets from it.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from gcg.core import CompositeProblem, ControlField


class TrackingProblem:
    """f(u) = 0.5 |S u - target|**2 with one memo record of the state S u.

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

    def composite(self) -> CompositeProblem:
        return CompositeProblem(
            smooth_eval=self.f_and_grad,
            nonsmooth_eval=self.g_eval,
            lmo=self.lmo,
            dual_norm=self.dual_norm,
            line_objective=self.line_objective,
            step=self.step,
        )
