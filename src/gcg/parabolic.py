"""Heat equation tracking with a directional sparsity penalty in time.

Minimizes  f(u) + g(u)  over space-time controls with

    f(u) = 0.5 * |S u - target|_Q**2,    S = implicit Euler heat solve,
    g(u) = reg_alpha * int_I |u(t)|_2 dt + indicator of {|u(t)|_2 <= M},

where |.|_2 is the spatial norm with weight h**dim and |.|_Q the space-time
one with weight tau h**dim.
The gradient of f is the adjoint state p = S* (S u - target).  The LMO acts
slice by slice: v(t) = -M p(t)/|p(t)| when |p(t)| >= reg_alpha, else 0, so
minimizers concentrate on time slices where the adjoint is loud and satisfy
|u(t)| in {0, M} off the transition set.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from gcg.core import ControlField
from gcg.pde import (
    Grid,
    HeatOperator,
    SpaceTimeGrid,
    heat_c_constant,
    slice_dots,
    slice_sq_norms,
)
from gcg.tracking import TrackingProblem

# Full-size float64 arrays that a run keeps live at its peak, measured with
# tracemalloc and pinned by tests/test_cli.py: parabolic-ex at 32 x 32 x 500
# and parabolic-ex-1d at 128 x 4000 peak at 10.1 and 10.2 of them with
# --track-errors and 9.2 without.  The control dump's buffers, at most about
# 1.8 MB for its chunk of 2**13 values, are left out.
RUN_ARRAYS = 11


@dataclass(eq=False)
class ParabolicProblem(TrackingProblem):
    """One heat tracking instance on a space-time grid.

    The penalty's groups are the time slices, of length tau each, and its
    feasible set is the slice ball.  group_norms, group_norms_along and the
    report's structure share the squared slice norms of each field through
    _sq_norms, so one iteration takes those norms of u and of v once each.
    """

    grid: SpaceTimeGrid
    conductivity: float
    reg_alpha: float
    ball_radius: float
    target: ControlField

    def __post_init__(self):
        if self.reg_alpha < 0.0:
            raise ValueError("penalty weight must be nonnegative")
        if self.ball_radius <= 0.0:
            raise ValueError("ball radius must be positive")
        if self.target.size != self.grid.n_nodes:
            raise ValueError("target must live on the space-time grid")

    @cached_property
    def heat(self) -> HeatOperator:
        return HeatOperator(self.grid, self.conductivity)

    def solve_state(self, values: np.ndarray) -> np.ndarray:
        return self.heat.forward(self.grid.as_slices(values)).ravel()

    def solve_adjoint(self, values: np.ndarray) -> np.ndarray:
        return self.heat.adjoint(self.grid.as_slices(values)).ravel()

    # ((weak reference to a field, its squared slice norms), ...), newest first
    _sq_norm_memo = ()

    def _sq_norms(self, u: ControlField) -> np.ndarray:
        """slice_sq_norms of u, kept for the last two fields seen (u and v of
        one iteration), keyed by identity; it holds its fields weakly."""
        for ref, value in self._sq_norm_memo:
            if ref() is u:
                return value
        value = slice_sq_norms(self.grid, u.values)
        self._sq_norm_memo = ((weakref.ref(u), value),) + self._sq_norm_memo[:1]
        return value

    @property
    def penalty(self) -> float:
        return self.reg_alpha

    @property
    def growth_quantum(self) -> float:
        """Length of one time step: the smallest nonzero growth measure."""
        return self.grid.tau

    def group_norms(self, u: ControlField) -> np.ndarray:
        """The slice l2 norms of u, the square root of the memo's squared norms."""
        return np.sqrt(self._sq_norms(u))

    def group_norms_along(self, u: ControlField, du: np.ndarray) -> Callable:
        """s -> slice norms of u + s du, sqrt(a0 + 2 s a1 + s**2 a2): a0 from
        the memo, a1 and a2 the slice_dots (u, du) and (du, du)."""
        grid = self.grid
        a0 = self._sq_norms(u)
        a1 = slice_dots(grid, u.values, du)
        a2 = slice_dots(grid, du, du)

        def norms(s: float) -> np.ndarray:
            return np.sqrt(np.maximum(a0 + 2.0 * s * a1 + s * s * a2, 0.0))

        return norms

    def feasible(self, u: ControlField) -> bool:
        """Whether every slice norm is within 1e-12 max(1, M) of the ball."""
        tol = 1e-12 * max(1.0, self.ball_radius)
        return not np.any(self.group_norms(u) > self.ball_radius + tol)

    def lmo(self, p: ControlField) -> ControlField:
        """Slicewise minimizer of (p(t), v) + reg_alpha |v| over the ball.

        Slices with |p(t)| >= reg_alpha get the antipodal boundary point
        -M p(t)/|p(t)|; quieter slices get 0.  A zero slice with
        reg_alpha = 0 also maps to 0.  p's norms stay out of the memo, which
        keeps the last u and v.
        """
        norms = np.sqrt(slice_dots(self.grid, p.values, p.values))
        slices = self.grid.as_slices(p.values)
        active = (norms >= self.reg_alpha) & (norms > 0.0)
        scale = np.where(active, -self.ball_radius / np.where(norms > 0, norms, 1.0), 0.0)
        return p.with_values((slices * scale[:, None]).ravel())

    def response_constant(self) -> float:
        """c, the space-time l2 bound of the slice-impulse response."""
        return heat_c_constant(self.grid, self.conductivity)

    def structure(self, u: ControlField, p: ControlField) -> dict[str, float]:
        """Slice sparsity and the largest slice norms of a control / adjoint pair.

        time_sparsity_fraction: fraction of time slices where |u(t)| lies
        within 1e-6 * max(1, M) of {0, M}.
        """
        norms = self.group_norms(u)
        m = self.ball_radius
        atol = 1e-6 * max(1.0, m)
        on_vertex = np.minimum(norms, np.abs(norms - m)) <= atol
        return {
            "time_sparsity_fraction": float(np.count_nonzero(on_vertex)) / norms.size,
            "control_norm_max": float(np.max(norms)),
            "adjoint_norm_max": float(np.max(self.group_norms(p))),
        }

# the spatial dimension of each bundled instance
_SPACE_DIMS = {"parabolic-ex": 2, "parabolic-ex-1d": 1}


def example_grid(name: str, nx: int, nt: int) -> SpaceTimeGrid:
    """The space-time grid of a bundled instance; it holds no arrays."""
    if name not in _SPACE_DIMS:
        raise ValueError(f"unknown parabolic example {name!r}")
    return SpaceTimeGrid(Grid(nx, _SPACE_DIMS[name]), nt, horizon=1.0)


def make_example(name: str, nx: int, nt: int) -> ParabolicProblem:
    """Build a bundled heat tracking instance.

    parabolic-ex: unit square, horizon 1, conductivity 0.7, target
    sin(2 pi x1) sin(2 pi x2) sin(pi t) exp(2 x1)/6, reg_alpha = 0.0035,
    ball radius 0.8.  parabolic-ex-1d: same recipe reduced to the unit
    interval (a convenience variant, not a published configuration).
    """
    grid = example_grid(name, nx, nt)
    if grid.space.dim == 2:
        x1, x2 = grid.space.coords()
        spatial = np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2) * np.exp(2 * x1) / 6.0
    else:
        (x,) = grid.space.coords()
        spatial = np.sin(2 * np.pi * x) * np.exp(2 * x) / 6.0
    t = grid.times()
    target = np.outer(np.sin(np.pi * t), spatial)
    return ParabolicProblem(
        grid=grid,
        conductivity=0.7,
        reg_alpha=0.0035,
        ball_radius=0.8,
        target=grid.field(target),
    )


# the bundled instances, name -> description
EXAMPLES = {
    "parabolic-ex": "heat tracking on the unit square with temporal sparsity",
    "parabolic-ex-1d": "one-dimensional reduction of parabolic-ex for quick runs",
}

# the sizes example_grid and make_example take after the name, with defaults
SIZES = {"n": 32, "nt": 100}
