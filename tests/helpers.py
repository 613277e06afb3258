"""What the tests need and no `gcg run` calls.

The duality pairing of two fields, the slice l2 norms of a space-time
field, a random feasible control of either bundled instance, and the
paper's scalar rate recursions: the constants of the improved sublinear
bound and the extremal sequences of the two recursions behind the
convergence proofs, which criterion 10 and test_diagnostics check those
bounds on.  No module of the package imports
this one; test_census checks that.
"""

from __future__ import annotations

import math

import numpy as np

from gcg.core import ControlField
from gcg.diagnostics import _require_positive
from gcg.elliptic import EllipticProblem
from gcg.pde import slice_dots, slice_sq_norms


def pairing(a: ControlField, b: ControlField) -> float:
    """Weighted duality pairing weight * sum_i a_i b_i."""
    if a.size != b.size:
        raise ValueError("fields must have equal length")
    return a.weight * float(np.dot(a.values, b.values))


def slice_l2_norms(u: ControlField) -> np.ndarray:
    """Spatial l2 norm of every time slice of a space-time field."""
    return np.sqrt(slice_sq_norms(u))


def sample_feasible(prob, rng: np.random.Generator) -> ControlField:
    """Random feasible control of a bundled instance.

    Elliptic: uniform in the box [lower, upper].  Parabolic: per-slice norm
    uniform in [0, ball radius].
    """
    if isinstance(prob, EllipticProblem):
        vals = rng.uniform(prob.lower.values, prob.upper.values)
        return prob.lower.with_values(vals)
    grid = prob.grid
    slices = rng.standard_normal((grid.nt, grid.space.n_nodes))
    norms = np.sqrt(slice_dots(grid, slices, slices))
    radii = prob.ball_radius * rng.uniform(0.0, 1.0, grid.nt)
    scale = np.where(norms > 0, radii / np.where(norms > 0, norms, 1.0), 0.0)
    return grid.field(slices * scale[:, None])


def sublinear_constants(
    delta: float, exponent_beta: float, C: float, rK: float
) -> tuple[float, float]:
    """Constants (n, M) of the improved sublinear bound M / (k + n)^(1/beta).

    n = (2 - (1/delta)^beta) / ((1/delta)^beta - 1)
    M = max{ rK * n^(1/beta),
             1 / (delta * ((beta - (1-beta)(2^beta - 1)) * C)^(1/beta)) }

    ``rK`` is the residual at the first iterate where it drops to 1 or
    below.  n is positive exactly when (1/delta)^beta < 2; a negative n
    is returned as computed so the caller can detect the regime.
    """
    if not 0.5 <= delta < 1.0:
        raise ValueError(f"delta must lie in [1/2, 1), got {delta!r}")
    if not 0.0 < exponent_beta < 1.0:
        raise ValueError(f"exponent_beta must lie in (0, 1), got {exponent_beta!r}")
    _require_positive(C=C)
    if rK < 0.0 or not math.isfinite(rK):
        raise ValueError(f"rK must be nonnegative, got {rK!r}")
    beta = exponent_beta
    growth = (1.0 / delta) ** beta
    n = (2.0 - growth) / (growth - 1.0)
    base = (beta - (1.0 - beta) * (2.0**beta - 1.0)) * C
    if base <= 0.0:
        raise ValueError(
            f"recursion constant base is nonpositive ({base!r}); "
            "the bound constants are not real for these parameters"
        )
    m_left = rK * n ** (1.0 / beta) if n > 0.0 else float("-inf")
    m_right = 1.0 / (delta * base ** (1.0 / beta))
    return n, max(m_left, m_right)


def recursion_oracle_44(q, steps: int) -> np.ndarray:
    """Extremal sequence of the recursion h_{k+1} = h_k - q h_k^2, h_0 = 1.

    The generated sequence is the worst case among all sequences with
    h_{k+1} <= (1 - q h_k) h_k and serves as a test harness for the decay
    bound h_k <= 1 / (1 + q k).  q may be an array of rates; h then has
    shape (steps + 1, *q.shape), one sequence per rate, each with the same
    floats as a scalar call.
    """
    q = np.asarray(q, dtype=float)[()]  # a float64 scalar when q is one
    if not np.all((q > 0.0) & (q <= 1.0)):
        raise ValueError(f"q must lie in (0, 1], got {q!r}")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    h = np.empty((steps + 1, *q.shape))
    h[0] = 1.0
    for k in range(steps):
        h[k + 1] = h[k] - q * h[k] * h[k]
    return h


def recursion_oracle_48(
    delta: float,
    C: float,
    exponent_beta: float,
    steps: int,
    h0: float = 1.0,
) -> tuple[np.ndarray, int | None]:
    """Extremal sequence of h_{k+1} = max{delta, 1 - C h_k^beta} h_k with its bound check.

    Iterates the recursion from ``h0`` and checks h_k <= M / (k + n)^(1/beta)
    with (n, M) from :func:`sublinear_constants` at rK = h0.  Returns the
    sequence and the first index violating the bound (``None`` if it holds
    throughout).

    The bound is guaranteed in the slow-start regime C * h0^beta < 1 - delta,
    where the max is attained by the delta branch at the start.  Outside that
    regime the stated constants can fail by a small margin at early indices,
    so callers probing the bound should draw parameters from the slow-start
    region.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if h0 < 0.0 or not math.isfinite(h0):
        raise ValueError(f"h0 must be nonnegative, got {h0!r}")
    # scalar Python floats: a numpy array power can round differently
    delta, C, beta = float(delta), float(C), float(exponent_beta)
    n, M = sublinear_constants(delta, beta, C, h0)
    h_k = float(h0)
    h = [h_k]
    for _ in range(steps):
        shrink = 1.0 - C * h_k**beta
        h_k = (shrink if shrink > delta else delta) * h_k
        h.append(h_k)
    inv_beta = 1.0 / beta
    violation = None
    for k, h_k in enumerate(h):
        shifted = k + n
        if shifted <= 0.0 or h_k > M / shifted**inv_beta:
            violation = k
            break
    return np.array(h), violation
