"""Convergence-theory constants and post-hoc rate verification.

The solver in :mod:`gcg.core` produces a history of objective values and
gap certificates.  This module turns that history into checkable claims:
a sublinear decay envelope that every run must respect, and least-squares
fits for the observed decay rate and the growth exponent of the adjoint
level sets.  :func:`run_report` makes them all for one run, reading the
instance only through its diagnostics surface, and returns the entries of
its ``diagnostics.txt``.  The scalar recursions behind the convergence
proofs, with the constants of their improved sublinear bound, are here too,
as extremal sequences that test those bounds.
"""

from __future__ import annotations

import math

import numpy as np

# what `gcg run` or the acceptance criteria call
__all__ = [
    "recursion_oracle_44",
    "recursion_oracle_48",
    "run_report",
    "sublinear_constants",
]

# level-set widths of the growth-exponent fit: 2**-20, ..., 2**-3
_GROWTH_EPSILONS = [2.0**-e for e in range(20, 2, -1)]


def _require_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def envelope_q(r0: float, alpha: float, gamma: float, L: float, mstar: float) -> float:
    """Decay constant of the sublinear envelope r0 / (1 + q k).

    q = alpha * min{ (1-alpha) * gamma * r0 / (2 L mstar^2), 1 }.

    ``r0`` is the initial objective residual, ``L`` the curvature bound of
    the smooth part along the iterate segments, and ``mstar`` a bound on
    the dual norms of all iterates and oracle directions.  The min clamps
    at 1, so q <= alpha <= 1/2 always.
    """
    _require_positive(r0=r0, alpha=alpha, gamma=gamma, L=L, mstar=mstar)
    if alpha > 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2], got {alpha!r}")
    if gamma >= 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma!r}")
    return float(alpha * min((1.0 - alpha) * gamma * r0 / (2.0 * L * mstar * mstar), 1.0))


def residuals_from_history(history, j_ref: float) -> np.ndarray:
    """Objective residuals j(u^k) - j_ref for each record of a solve history."""
    return np.array([record.j_value for record in history], dtype=float) - j_ref


def check_envelope(
    residuals, q: float, eps_fp: float = 0.0
) -> tuple[bool, int | None]:
    """Verify r_k <= r_0 / (1 + q k) + eps_fp for every k.

    Returns ``(True, None)`` when the envelope holds, otherwise
    ``(False, k)`` with the first violating index.  The k-th entry of
    ``residuals`` is read as the residual of iterate k.
    """
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        return True, None
    _require_positive(q=q)
    k = np.arange(r.size)
    bound = r[0] / (1.0 + q * k) + eps_fp
    bad = np.nonzero(r > bound)[0]
    if bad.size:
        return False, int(bad[0])
    return True, None


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


def recursion_oracle_44(q: float, steps: int) -> np.ndarray:
    """Extremal sequence of the recursion h_{k+1} = h_k - q h_k^2, h_0 = 1.

    The generated sequence is the worst case among all sequences with
    h_{k+1} <= (1 - q h_k) h_k and serves as a test harness for the decay
    bound h_k <= 1 / (1 + q k).
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q!r}")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    h = np.empty(steps + 1)
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
    beta = exponent_beta
    n, M = sublinear_constants(delta, beta, C, h0)
    h = np.empty(steps + 1)
    h[0] = h0
    for k in range(steps):
        h[k + 1] = max(delta, 1.0 - C * h[k] ** beta) * h[k]
    violation = None
    for k in range(steps + 1):
        shifted = k + n
        if shifted <= 0.0:
            violation = k
            break
        if h[k] > M / shifted ** (1.0 / beta):
            violation = k
            break
    return h, violation


def rate_fit_window(
    residuals,
    eps_fp: float = 0.0,
    tail_decades: float = 2.0,
    burn_in: float = 0.2,
) -> np.ndarray:
    """Indices of the residual history suitable for an asymptotic rate fit.

    Three cuts are applied in order.  Records at or below ``10 * eps_fp``
    carry no signal and are dropped.  Records within ``tail_decades``
    decades of the smallest positive residual are dropped because the
    reference value, taken from the end of the tightest run, contaminates
    them.  Finally the first ``burn_in`` fraction of the remaining records
    is dropped as transient: a solve started far from the solution spends
    its first iterations in a regime whose decay says nothing about the
    asymptotic rate.
    """
    if not 0.0 <= burn_in < 1.0:
        raise ValueError(f"burn_in must lie in [0, 1), got {burn_in!r}")
    r = np.asarray(residuals, dtype=float)
    positive = r > 0.0
    if not positive.any():
        return np.empty(0, dtype=int)
    floor = r[positive].min() * 10.0**tail_decades
    keep = np.nonzero((r > 10.0 * eps_fp) & (r >= floor))[0]
    drop = int(np.floor(burn_in * keep.size))
    return keep[drop:]


def fit_rate(residuals, eps_fp: float = 0.0) -> tuple[float, float]:
    """Least-squares geometric decay rate of a residual sequence.

    Fits log r_k = k log(lambda) + const over the records with
    r_k > 10 * eps_fp and returns ``(lambda_hat, r_squared)``.  The array
    position is taken as the iteration number.  Residual histories are
    nonincreasing, so the windows produced by :func:`rate_fit_window` are
    contiguous and ``residuals[window]`` preserves the iteration spacing;
    the fitted rate is then per iteration as expected.
    """
    r = np.asarray(residuals, dtype=float)
    usable = np.nonzero(r > 10.0 * eps_fp)[0]
    if usable.size < 5:
        raise ValueError(
            f"rate fit needs at least 5 usable records, got {usable.size}"
        )
    k = usable.astype(float)
    y = np.log(r[usable])
    slope, intercept = np.polyfit(k, y, 1)
    pred = slope * k + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(np.exp(slope)), r_squared


def select_growth_bins(
    epsilons, measures, quantum: float
) -> tuple[np.ndarray, np.ndarray]:
    """Filter level-set measure samples down to the scaling regime.

    A bin is kept when its measure contains at least 4 mesh quanta (below
    that the count is dominated by discretization) and stays under half
    the largest sampled measure (above that the level set saturates
    toward the whole domain and the power law is trivially satisfied).
    """
    _require_positive(quantum=quantum)
    eps = np.asarray(epsilons, dtype=float)
    meas = np.asarray(measures, dtype=float)
    if eps.shape != meas.shape:
        raise ValueError("epsilons and measures must have matching shapes")
    if meas.size == 0:
        return eps, meas
    keep = (meas >= 4.0 * quantum) & (meas < 0.5 * meas.max())
    return eps[keep], meas[keep]


def fit_kappa(epsilons, measures) -> float | None:
    """Least-squares log-log slope of level-set measures against epsilon.

    Estimates kappa in meas{ level set at eps } ~ C eps^kappa.  Returns
    ``None`` when every measure is zero (the growth assumption holds
    vacuously).  Requires at least 4 nonzero samples otherwise.
    """
    eps = np.asarray(epsilons, dtype=float)
    meas = np.asarray(measures, dtype=float)
    if eps.shape != meas.shape:
        raise ValueError("epsilons and measures must have matching shapes")
    nonzero = meas > 0.0
    if not nonzero.any():
        return None
    if nonzero.sum() < 4:
        raise ValueError(
            f"kappa fit needs at least 4 nonzero measures, got {int(nonzero.sum())}"
        )
    x = np.log(eps[nonzero])
    y = np.log(meas[nonzero])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def run_report(prob, result, alpha: float, gamma: float) -> dict[str, object]:
    """Every check of one finished solve, as the ordered entries of diagnostics.txt.

    ``result`` is the SolveResult of ``prob`` under backtracking parameters
    ``alpha`` and ``gamma``.  A check that cannot be made reads
    ``"n/a (reason)"`` and drops the entries that follow from it.
    ``envelope_violation`` is None when the envelope holds, and ``kappa_hat``
    reads ``"vacuous"`` only when every sampled level-set measure is zero.
    """
    history = result.history
    report: dict[str, object] = {
        "status": result.status.value,
        "iterations": result.iterations,
        "j_final": history[-1].j_value,
        "gap_final": history[-1].gap,
        "eps_fp": result.eps_fp,
        "mstar": result.mstar,
        "L_est": prob.lipschitz_estimate,
    }

    residuals = residuals_from_history(history, history[-1].j_value)
    r0 = float(residuals[0])
    if r0 > 0.0:
        q_env = envelope_q(r0, alpha, gamma, prob.lipschitz_estimate, result.mstar)
        ok, violation = check_envelope(residuals, q_env, result.eps_fp)
        report.update(q_env=q_env, envelope_ok=ok, envelope_violation=violation)
    else:
        # every accepted step lowers j, so r_0 = 0 only when none was taken
        report["q_env"] = "n/a (no step taken)"

    try:
        window = rate_fit_window(residuals, result.eps_fp)
        lam, r_squared = fit_rate(residuals[window], result.eps_fp)
        report.update(
            rate_lambda=lam, rate_r_squared=r_squared, rate_fit_points=window.size
        )
    except ValueError as exc:
        report["rate_lambda"] = f"n/a ({exc})"

    u, p = result.final_iterate, result.final_gradient
    measures = [prob.growth_measure(p, eps) for eps in _GROWTH_EPSILONS]
    eps_kept, meas_kept = select_growth_bins(
        _GROWTH_EPSILONS, measures, prob.growth_quantum
    )
    try:
        kappa = fit_kappa(eps_kept, meas_kept) if any(measures) else "vacuous"
    except ValueError as exc:
        report["kappa_hat"] = f"n/a ({exc})"
    else:
        if kappa is None:  # no bin was kept, yet the measures are not all zero
            nonzero = sum(m > 0.0 for m in measures)
            kappa = f"n/a (no bin kept of {nonzero} nonzero measures)"
        report.update(kappa_hat=kappa, kappa_fit_bins=eps_kept.size)

    report.update(prob.structure(u, p))
    return report
