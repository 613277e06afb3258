"""Core conditional gradient iteration for composite objectives.

The solver minimizes j(u) = f(u) + g(u) over a discrete control space.  f is
smooth with gradient represented as a field paired against directions
through the field's one quadrature weight, <a, b> = weight * dot(a, b); g
is convex, possibly infinite outside its feasible set, and comes with a
linear minimization oracle (LMO)

    lmo(grad) = argmin_v  <grad, v> + g(v).

Progress is measured by the duality gap

    gap(u) = <grad(u), u - v> + g(u) - g(v),   v = lmo(grad(u)),

which is nonnegative and dominates the objective residual j(u) - min j.
Steps are chosen by backtracking: the smallest n with

    alpha * gamma**n * gap  <=  j(u) - j(u + gamma**n (v - u)).

armijo_step takes the segment as the scalar phi(s) = j(u + s (v - u))
alone, which gcg_solve builds before each search.  For convex f and g the
margin c(s) = j(u) - j(u + s (v - u)) - alpha s gap is concave in s, with
c(0) = 0 and slope at least (1 - alpha) gap > 0 at 0+.  So the steps that
pass form an interval (0, s*], and whether the test passes at gamma**n is
monotone in n.  armijo_step therefore finds the minimal n by bracketing
it and bisecting the bracket, in O(log n) probes rather than n + 1.

Where f is quadratic, f(u + s (v - u)) = f(u) + s f1 + s**2 c / 2 with
c = |S (v - u)|**2 for the tracking term 0.5 |S u - z|**2, and convexity
of g gives

    j(u + s (v - u)) <= j(u) - s gap + s**2 c / 2,

so the test passes at every s <= 2 (1 - alpha) gap / c.  phi(1) = j(v)
gives c = 2 (j(v) - j(u) + gap), and the search starts at the first
gamma**n below that floor, where the test passes, and walks down.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class LineSearchError(RuntimeError):
    """Backtracking stopped without sufficient decrease.

    exponent is the n where the search stopped: the first n whose decrease
    target underflows to 0.0, which the search does not test.
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
    """Discrete field: nodal values plus one positive quadrature weight.

    ``weight`` is the weight of every node in each integral-like sum, a
    Python float, so the duality pairing of two fields is
    weight * dot(a, b).  Both bundled grids use uniform midpoint weights:
    h**dim in space and tau * h**dim in space-time.  A field holds no
    grid: what needs one (time slicing, file headers) takes it from the
    problem.
    """

    values: np.ndarray
    weight: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("field values must be one-dimensional and nonempty")
        _check_finite(values)
        if not isinstance(self.weight, numbers.Real):  # an array is refused
            raise ValueError("the weight must be one real number")
        weight = float(self.weight)  # a Python float, whose repr is plain
        if not (weight > 0.0 and math.isfinite(weight)):
            raise ValueError("the weight must be positive and finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weight", weight)

    @property
    def size(self) -> int:
        return self.values.size

    def with_values(self, values: np.ndarray) -> "ControlField":
        """Field on the same nodes; only the new values are checked.

        The weight is shared with self, which validated it already.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != self.values.shape:
            raise ValueError("field values must be one-dimensional and match the nodes")
        _check_finite(values)
        field = object.__new__(ControlField)
        object.__setattr__(field, "values", values)
        object.__setattr__(field, "weight", self.weight)
        return field

    def blend(self, other: "ControlField", step: float) -> "ControlField":
        """Point u + step * (other - u) on the segment towards ``other``."""
        return self.with_values(self.values + step * (other.values - self.values))

    def diff(self, other: "ControlField") -> "ControlField":
        return self.with_values(self.values - other.values)


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

    step is an optional constructor of the next iterate: step(u, v, s)
    returns the point u + s (v - u), with the values of u.blend(v, s).  A
    problem may use it to carry what its line search learned about that
    point, such as its state, into the next smooth_eval.
    """

    smooth_eval: Callable[[ControlField], tuple[float, ControlField]]
    nonsmooth_eval: Callable[[ControlField], float]
    lmo: Callable[[ControlField], ControlField]
    dual_norm: Callable[[ControlField], float]
    line_objective: Optional[
        Callable[[ControlField, ControlField], Callable[[float], float]]
    ] = None
    step: Optional[
        Callable[[ControlField, ControlField, float], ControlField]
    ] = None


@dataclass(frozen=True)
class SolverConfig:
    """Termination, step rule and instrumentation settings for gcg_solve.

    alpha is the sufficient-decrease fraction and gamma the mesh ratio of
    the backtracking test.  callback(record, u, v) sees each history row as
    it is recorded, with the iterate u and oracle point v of that row; a
    caller that wants more per-row figures, such as errors against a
    reference, takes them there.
    """

    gap_tol: float = 1e-10
    max_iter: int = 1000
    alpha: float = 0.5
    gamma: float = 0.99
    callback: Optional[Callable[["IterateRecord", ControlField, ControlField], None]] = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError("alpha must lie in (0, 1/2]")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
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
    terminal rows 0.
    """

    k: int
    j_value: float
    gap: float
    step: float
    backtracks: int


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER_REACHED = "max_iter_reached"
    LINE_SEARCH_FAILED = "line_search_failed"


@dataclass(frozen=True)
class SolveResult:
    """Final iterate and the gradient of f there, plus the full iteration history.

    mstar is the largest dual norm of any iterate or oracle point seen during
    the run; eps_fp is the floating point slack 1e-12 * (|j(u0)| + 1) used in
    the run's nonnegativity clamps; config is the SolverConfig the run used,
    so its step rule travels with its history.
    """

    final_iterate: ControlField
    final_gradient: ControlField
    history: tuple[IterateRecord, ...]
    status: SolveStatus
    mstar: float
    eps_fp: float
    config: SolverConfig

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

    The pairing is grad.weight * dot(grad, u - v).

    Mathematically nonnegative.  Values in [-slack, 0) are rounded up to 0;
    anything below -slack means the oracle pair (grad, v) is inconsistent and
    raises OracleError.
    """
    if not (math.isfinite(g_u) and math.isfinite(g_v)):
        raise ValueError("dual_gap requires finite nonsmooth values")
    raw = grad.weight * float(np.dot(grad.values, u.values - v.values)) + (g_u - g_v)
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
    phi: Callable[[float], float], j_u: float, gap: float, config: SolverConfig
) -> tuple[float, int]:
    """Smallest n with alpha * gamma**n * gap <= phi(0) - phi(gamma**n).

    phi is s -> j(u + s (v - u)) along one segment and j_u = phi(0), which
    the caller already has; alpha and gamma are config's.  Returns
    (step, n) with step = gamma**n.  Requires gap > 0.

    An upward scan from n = 0 would stop at the first n where the test
    passes or where the decrease target alpha * gamma**n * gap underflows
    to 0.0.  For convex f and g both are monotone in n (see the module
    docstring), so the search brackets the first n where one holds and
    bisects the bracket down to it: the scan's n, or LineSearchError where
    the scan raises.  A full step costs one probe.

    The probe at n = 0 prices phi(1) = j(v).  When the test fails there,
    c = 2 (phi(1) - j(u) + gap) is the curvature of a quadratic f along the
    segment, |S (v - u)|**2 for the bundled instances, and the test passes
    at every s <= 2 (1 - alpha) gap / c (module docstring).  The search
    starts at the first n with gamma**n at most that floor, capped at the
    rounding level of the next paragraph.  Where the test passes there, it
    walks down over n - 1, n - 3, n - 7, ... to an n where the scan goes on
    and bisects; a start a few exponents too deep costs a few probes.  Where
    it fails, which only rounding, that cap or a non-quadratic f can cause,
    the start is dropped and the search gallops over n = 0, 2, 6, 14, ...
    instead.

    Rounding breaks the monotonicity once the decrease j(u) - j(u + s (v-u))
    falls below the rounding of j(u), about 8 eps |j(u)|: there the test can
    fail and pass again.  So the start lies above that level, and before
    the gallop jumps past it, it probes the last n whose gamma**n * gap lies
    above it.  An extra probe leaves the result on a monotone sequence
    unchanged, and wherever the scan's n lies above that level and the test
    is monotone down to it, the search returns the scan's n.  Below it a
    probe can still pass over a band of passing exponents.  Either way the
    test holds at the returned step, and whenever n > 0 it fails at
    step / gamma.
    """
    if not math.isfinite(gap) or gap <= 0.0:
        raise ValueError("armijo_step requires a positive finite gap")
    alpha, gamma = config.alpha, config.gamma

    def stops_at(n: int) -> tuple[bool, bool]:
        """Whether the scan stops at n, and whether the test passes there."""
        target = alpha * gamma**n * gap
        # an underflowed target would accept any non-increase, including a
        # step too small to move the iterate at all; so it stops the scan
        if target == 0.0:
            return True, False
        passed = target <= j_u - phi(gamma**n)
        return passed, passed

    # the last n with gamma**n * gap above the rounding of j(u)
    ratio = 8.0 * sys.float_info.epsilon * abs(j_u) / gap
    edge = -1
    if 0.0 < ratio < 1.0:
        edge = math.ceil(math.log(ratio) / math.log(gamma)) - 1

    lo, hi = -1, 0  # the scan goes on at lo and stops at hi
    start = None
    if alpha * gap == 0.0:
        stop, passed = True, False
    else:
        j_v = phi(1.0)
        stop = passed = alpha * gap <= j_u - j_v
        # the start stays above the rounding of j(u), which is 0 for j(u) = 0
        top = math.inf if j_u == 0.0 else edge
        half_c = j_v - j_u + gap  # c / 2
        # 2 (1 - alpha) gap / c, or 0.0 where phi(1) gives no curvature
        floor = (1.0 - alpha) * gap / half_c if half_c > 0.0 else 0.0
        if not stop and top >= 1 and floor > 0.0:
            n_floor = math.ceil(math.log(floor) / math.log(gamma))
            start = min(max(n_floor, 1), top)
    if start is not None and stops_at(start)[1]:
        # walk down to an n where the scan goes on; n = 0 is one
        lo, hi, passed, drop = 0, start, True, 1
        while hi - drop > 0:
            stop, passed_at = stops_at(hi - drop)
            if not stop:
                lo = hi - drop
                break
            hi, passed, drop = hi - drop, passed_at, 2 * drop
    else:
        while not stop:
            lo, hi = hi, 2 * hi + 2
            if lo < edge < hi:
                hi = edge
            stop, passed = stops_at(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        stop, passed_mid = stops_at(mid)
        if stop:
            hi, passed = mid, passed_mid
        else:
            lo = mid
    if not passed:
        raise LineSearchError(
            f"no sufficient decrease before the search stopped at n = {hi}; "
            "the gap is at rounding level or an oracle is inconsistent",
            hi,
        )
    return gamma**hi, hi


def gcg_solve(
    problem: CompositeProblem, u0: ControlField, config: SolverConfig
) -> SolveResult:
    """Run the conditional gradient iteration from u0.

    Each pass evaluates the gradient, calls the LMO, computes the gap of the
    current iterate, and only then decides: stop when the gap is within
    gap_tol (CONVERGED) or the iteration budget is spent (MAX_ITER_REACHED),
    otherwise backtrack along phi(s) = j(u + s (v - u)) and step.  Every
    next iterate comes from problem.step, or from u.blend(v, s) when the
    problem gives none.

    A problem's step may hand smooth_eval a state carried along the search
    segments instead of a fresh solve.  So before a pass at such an iterate
    ends the run, smooth_eval is evaluated once more at a new ControlField
    with the same values, and the pass is redone from there: the LMO, the
    gap, the decision and, for a failed search, the search.  The final row,
    final_gradient and the gap certificate thus always come from a fresh
    evaluation.  The history records every iterate including the final gap
    evaluation, so identical inputs reproduce identical histories bit for
    bit.
    """
    g_u = problem.nonsmooth_eval(u0)
    if not math.isfinite(g_u):
        raise ValueError("starting control is infeasible for the nonsmooth term")
    f_u, grad = problem.smooth_eval(u0)
    eps_fp = 1e-12 * (abs(f_u + g_u) + 1.0)
    advance = ControlField.blend if problem.step is None else problem.step

    u = u0
    fresh = True  # whether f_u and grad were evaluated afresh at u
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

        step, n_back = 0.0, 0
        if gap <= config.gap_tol:
            status = SolveStatus.CONVERGED
        elif k >= config.max_iter:
            status = SolveStatus.MAX_ITER_REACHED
        else:
            try:
                phi = _segment_objective(problem, u, v)
                step, n_back = armijo_step(phi, j_u, gap, config)
                status = None
            except LineSearchError as exc:
                n_back = exc.exponent
                status = SolveStatus.LINE_SEARCH_FAILED
        if status is not None and not fresh:
            # a new field with the same values, which no memo of a carried
            # state can match
            u = u.with_values(u.values)
            f_u, grad = problem.smooth_eval(u)
            fresh = True
            continue

        mstar = max(mstar, problem.dual_norm(u), problem.dual_norm(v))
        record = IterateRecord(k, j_u, gap, step, n_back)
        history.append(record)
        if config.callback is not None:
            config.callback(record, u, v)
        if status is not None:
            return SolveResult(u, grad, tuple(history), status, mstar, eps_fp, config)

        u = advance(u, v, step)
        fresh = problem.step is None
        f_u, grad = problem.smooth_eval(u)
        g_u = problem.nonsmooth_eval(u)
        k += 1
