"""Core conditional gradient iteration for composite objectives.

The solver minimizes j(u) = f(u) + g(u) over a discrete control space.  f is
smooth with gradient represented as a field paired against directions through
quadrature weights; g is convex, possibly infinite outside its feasible set,
and comes with a linear minimization oracle (LMO)

    lmo(grad) = argmin_v  <grad, v> + g(v).

Progress is measured by the duality gap

    gap(u) = <grad(u), u - v> + g(u) - g(v),   v = lmo(grad(u)),

which is nonnegative and dominates the objective residual j(u) - min j.
Steps are chosen by backtracking: the smallest n with

    alpha * gamma**n * gap  <=  j(u) - j(u + gamma**n (v - u)).

For convex f and g the margin c(s) = j(u) - j(u + s (v - u)) - alpha s gap
is concave in s, with c(0) = 0 and slope at least (1 - alpha) gap > 0 at
0+.  So the steps that pass form an interval (0, s*], and whether the test
passes at gamma**n is monotone in n.  armijo_step therefore finds the
minimal n by galloping over the exponent and bisecting the bracket, in
O(log n) probes rather than n + 1.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np


class LineSearchError(RuntimeError):
    """Backtracking stopped without sufficient decrease.

    exponent is the n where the search stopped, the first n it did not
    test: where the decrease target underflows, or max_backtracks + 1 when
    a budget ran out first.
    """

    def __init__(self, message: str, exponent: int):
        super().__init__(message)
        self.exponent = exponent


class OracleError(RuntimeError):
    """An oracle returned something inconsistent with its contract."""


def _check_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError("field values must be finite")


@dataclass(frozen=True)
class ControlField:
    """Discrete field: nodal values plus positive quadrature weights.

    ``mass[i]`` is the weight of node i in every integral-like sum, so the
    duality pairing of two fields is sum(mass * a * b).  ``meta`` carries an
    opaque grid descriptor used by grid-aware operations (time slicing,
    file headers); plain vector tests can leave it as None.
    """

    values: np.ndarray
    mass: np.ndarray
    meta: Any = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mass = np.asarray(self.mass, dtype=float)
        if values.ndim != 1 or mass.ndim != 1:
            raise ValueError("field values and mass must be one-dimensional")
        if values.shape != mass.shape or values.size == 0:
            raise ValueError("field values and mass must share a positive length")
        _check_finite(values)
        if not ((mass > 0.0).all() and np.isfinite(mass).all()):
            raise ValueError("mass weights must be positive and finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mass", mass)

    @property
    def size(self) -> int:
        return self.values.size

    def with_values(self, values: np.ndarray) -> "ControlField":
        """Field on the same nodes; only the new values are checked.

        The mass array is shared with self, which validated it already.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != self.mass.shape:
            raise ValueError("field values must be one-dimensional and match the mass")
        _check_finite(values)
        field = object.__new__(ControlField)
        object.__setattr__(field, "values", values)
        object.__setattr__(field, "mass", self.mass)
        object.__setattr__(field, "meta", self.meta)
        return field

    def blend(self, other: "ControlField", step: float) -> "ControlField":
        """Point u + step * (other - u) on the segment towards ``other``."""
        return self.with_values(self.values + step * (other.values - self.values))

    def diff(self, other: "ControlField") -> "ControlField":
        return self.with_values(self.values - other.values)


def pairing(a: ControlField, b: ControlField) -> float:
    """Mass-weighted duality pairing sum_i mass_i a_i b_i."""
    if a.size != b.size:
        raise ValueError("fields must have equal length")
    return float(np.dot(a.mass * a.values, b.values))


@dataclass(frozen=True)
class CompositeProblem:
    """Callable bundle describing one composite objective f + g.

    smooth_eval(u)   -> (f(u), grad field)
    nonsmooth_eval(u)-> g(u), math.inf when u is infeasible
    lmo(grad)        -> minimizer of <grad, v> + g(v); always feasible
    dual_norm(u)     -> the norm pairing with the gradient estimate bounds

    line_objective is an optional fast evaluator: given (u, v) it returns a
    callable s -> j(u + s (v - u)) for s in [0, 1].  Problems whose smooth
    part is quadratic use it to turn each backtracking probe into O(n)
    arithmetic instead of a PDE solve; it must agree with direct evaluation
    of f + g up to roundoff.
    """

    smooth_eval: Callable[[ControlField], tuple[float, ControlField]]
    nonsmooth_eval: Callable[[ControlField], float]
    lmo: Callable[[ControlField], ControlField]
    dual_norm: Callable[[ControlField], float]
    line_objective: Optional[
        Callable[[ControlField, ControlField], Callable[[float], float]]
    ] = None


@dataclass(frozen=True)
class ArmijoParams:
    """Backtracking parameters: sufficient-decrease fraction and mesh ratio.

    max_backtracks caps the exponent n of a trial step gamma**n.  With the
    default None only the underflow of the decrease target ends a search.
    """

    alpha: float = 0.5
    gamma: float = 0.99
    max_backtracks: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError("alpha must lie in (0, 1/2]")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.max_backtracks is not None and self.max_backtracks < 1:
            raise ValueError("max_backtracks must be at least 1")


@dataclass(frozen=True)
class SolverConfig:
    """Termination and instrumentation settings for gcg_solve."""

    gap_tol: float = 1e-10
    max_iter: int = 1000
    armijo: ArmijoParams = field(default_factory=ArmijoParams)
    record_errors_against: Optional[ControlField] = None
    callback: Optional[Callable[["IterateRecord", ControlField, ControlField], None]] = None

    def __post_init__(self):
        if not (math.isfinite(self.gap_tol) and self.gap_tol >= 0.0):
            raise ValueError("gap_tol must be finite and nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class IterateRecord:
    """One history row: objective, gap, and the step taken from this iterate.

    Terminal rows (gap below tolerance, iteration cap, or failed search) have
    step 0.0 since no step was taken; a failed search records in backtracks
    the exponent where it stopped (LineSearchError.exponent), the other
    terminal rows 0.  err_u / err_v are dual-norm distances
    to a reference control and stay None unless error recording is on.
    """

    k: int
    j_value: float
    gap: float
    step: float
    backtracks: int
    err_u: Optional[float] = None
    err_v: Optional[float] = None


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER_REACHED = "max_iter_reached"
    LINE_SEARCH_FAILED = "line_search_failed"


@dataclass(frozen=True)
class SolveResult:
    """Final iterate and the gradient of f there, plus the full iteration history.

    mstar is the largest dual norm of any iterate or oracle point seen during
    the run; eps_fp is the floating point slack 1e-12 * (|j(u0)| + 1) used in
    the run's nonnegativity clamps.
    """

    final_iterate: ControlField
    final_gradient: ControlField
    history: tuple[IterateRecord, ...]
    status: SolveStatus
    mstar: float
    eps_fp: float

    @property
    def iterations(self) -> int:
        return len(self.history) - 1


def dual_gap(
    u: ControlField,
    grad: ControlField,
    g_u: float,
    v: ControlField,
    g_v: float,
    slack: float = 0.0,
) -> float:
    """Duality gap <grad, u - v> + g(u) - g(v) for v from the LMO.

    Mathematically nonnegative.  Values in [-slack, 0) are rounded up to 0;
    anything below -slack means the oracle pair (grad, v) is inconsistent and
    raises OracleError.
    """
    if not (math.isfinite(g_u) and math.isfinite(g_v)):
        raise ValueError("dual_gap requires finite nonsmooth values")
    raw = float(np.dot(grad.mass * grad.values, u.values - v.values)) + (g_u - g_v)
    if not math.isfinite(raw):
        raise ValueError("dual_gap produced a non-finite value")
    if raw < -slack:
        raise OracleError(
            f"duality gap {raw:.3e} is below the admissible slack {-slack:.3e}; "
            "the gradient or the oracle point violates its contract"
        )
    return max(raw, 0.0)


def _segment_objective(
    problem: CompositeProblem, u: ControlField, v: ControlField
) -> Callable[[float], float]:
    if problem.line_objective is not None:
        return problem.line_objective(u, v)

    def phi(s: float) -> float:
        w = u.blend(v, s)
        f_val, _ = problem.smooth_eval(w)
        return f_val + problem.nonsmooth_eval(w)

    return phi


def armijo_step(
    u: ControlField,
    v: ControlField,
    gap: float,
    problem: CompositeProblem,
    params: ArmijoParams,
    j_u: Optional[float] = None,
) -> tuple[float, int, float]:
    """Smallest n with alpha * gamma**n * gap <= j(u) - j(u + gamma**n (v-u)).

    Returns (step, n, j_new) with step = gamma**n and j_new the objective
    there.  Requires gap > 0.

    An upward scan from n = 0 would stop at the first n where the test
    passes, where the decrease target alpha * gamma**n * gap underflows to
    0.0, or where n exceeds max_backtracks if one is set.  For convex f and
    g each of the three is monotone in n (see the module docstring), so the
    search gallops over n = 0, 2, 6, 14, ... until one of them holds and
    then bisects the bracket down to the first n where one holds: the scan's
    n, or LineSearchError where the scan raises.  A full step costs one
    probe.

    Rounding breaks the monotonicity once the decrease j(u) - j(u + s (v-u))
    falls below the rounding of j(u), about 8 eps |j(u)|: there the test can
    fail and pass again.  So before the gallop jumps past that level it
    probes the last n whose gamma**n * gap lies above it.  An extra probe
    leaves the result on a monotone sequence unchanged, and wherever the
    scan's n lies above that level and the test is monotone down to it, the
    search returns the scan's n.  Below it a gallop probe can still pass
    over a band of passing exponents.  Either way the test holds at the
    returned step, and whenever n > 0 it fails at step / gamma.
    """
    if not math.isfinite(gap) or gap <= 0.0:
        raise ValueError("armijo_step requires a positive finite gap")
    phi = _segment_objective(problem, u, v)
    j0 = phi(0.0) if j_u is None else j_u
    alpha, gamma = params.alpha, params.gamma
    budget = params.max_backtracks
    limit = math.inf if budget is None else budget + 1

    def stops_at(n: int) -> tuple[bool, Optional[float]]:
        """Whether the scan stops at n, and j there when the test passes."""
        if n >= limit:
            return True, None
        s = gamma**n
        target = alpha * s * gap
        if target == 0.0:
            # the decrease target underflowed, so the test would accept any
            # non-increase, including a step too small to move the iterate
            # at all; treat that like an exhausted search
            return True, None
        j_s = phi(s)
        passed = target <= j0 - j_s
        return passed, j_s if passed else None

    # the last n with gamma**n * gap above the rounding of j(u)
    ratio = 8.0 * sys.float_info.epsilon * abs(j0) / gap
    edge = -1
    if 0.0 < ratio < 1.0:
        edge = math.ceil(math.log(ratio) / math.log(gamma)) - 1

    lo, hi = -1, 0  # the scan goes on at lo and stops at hi
    stop, j_new = stops_at(hi)
    while not stop:
        lo, hi = hi, min(2 * hi + 2, limit)
        if lo < edge < hi:
            hi = edge
        stop, j_new = stops_at(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        stop, j_mid = stops_at(mid)
        if stop:
            hi, j_new = mid, j_mid
        else:
            lo = mid
    if j_new is None:
        raise LineSearchError(
            f"no sufficient decrease before the search stopped at n = {hi}; "
            "the gap is at rounding level or an oracle is inconsistent",
            hi,
        )
    return gamma**hi, hi, j_new


def gcg_solve(
    problem: CompositeProblem, u0: ControlField, config: SolverConfig
) -> SolveResult:
    """Run the conditional gradient iteration from u0.

    Each pass evaluates the gradient, calls the LMO, computes the gap of the
    current iterate, and only then decides: stop when the gap is within
    gap_tol (CONVERGED) or the iteration budget is spent (MAX_ITER_REACHED),
    otherwise backtrack and step.  The history records every iterate
    including the final gap evaluation, so identical inputs reproduce
    identical histories bit for bit.
    """
    g_u = problem.nonsmooth_eval(u0)
    if not math.isfinite(g_u):
        raise ValueError("starting control is infeasible for the nonsmooth term")
    f_u, grad = problem.smooth_eval(u0)
    eps_fp = 1e-12 * (abs(f_u + g_u) + 1.0)
    ref = config.record_errors_against

    u = u0
    mstar = 0.0
    history: list[IterateRecord] = []
    k = 0
    while True:
        j_u = f_u + g_u
        v = problem.lmo(grad)
        g_v = problem.nonsmooth_eval(v)
        if not math.isfinite(g_v):
            raise OracleError("lmo returned an infeasible point")
        gap = dual_gap(u, grad, g_u, v, g_v, slack=eps_fp)
        mstar = max(mstar, problem.dual_norm(u), problem.dual_norm(v))
        err_u = err_v = None
        if ref is not None:
            err_u = problem.dual_norm(u.diff(ref))
            err_v = problem.dual_norm(v.diff(ref))

        if gap <= config.gap_tol:
            record = IterateRecord(k, j_u, gap, 0.0, 0, err_u, err_v)
            status = SolveStatus.CONVERGED
        elif k >= config.max_iter:
            record = IterateRecord(k, j_u, gap, 0.0, 0, err_u, err_v)
            status = SolveStatus.MAX_ITER_REACHED
        else:
            try:
                step, n_back, _ = armijo_step(
                    u, v, gap, problem, config.armijo, j_u=j_u
                )
            except LineSearchError as exc:
                record = IterateRecord(k, j_u, gap, 0.0, exc.exponent, err_u, err_v)
                status = SolveStatus.LINE_SEARCH_FAILED
            else:
                record = IterateRecord(k, j_u, gap, step, n_back, err_u, err_v)
                status = None
        history.append(record)
        if config.callback is not None:
            config.callback(record, u, v)
        if status is not None:
            return SolveResult(u, grad, tuple(history), status, mstar, eps_fp)

        u = u.blend(v, record.step)
        f_u, grad = problem.smooth_eval(u)
        g_u = problem.nonsmooth_eval(u)
        k += 1
