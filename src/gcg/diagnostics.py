"""Convergence-theory constants and post-hoc rate verification.

The solver in :mod:`gcg.core` produces a history of objective values and
gap certificates.  This module turns that history into checkable claims:
a sublinear decay envelope that every run must respect, and least-squares
fits for the observed decay rate and the growth exponent of the adjoint
level sets, which :func:`growth_measures` counts for every instance alike
from the instance's ``growth_distance``.  :func:`run_report` makes them all
for one run, reading the instance only through its diagnostics surface,
and returns the entries of its ``diagnostics.txt``.  No run needs the
scalar recursions behind the convergence proofs, so they live with the
tests that check the paper's bounds on them (criterion 10).
"""

from __future__ import annotations

import math

import numpy as np

# what `gcg run` calls; criterion 8a also counts with growth_measures
__all__ = ["growth_measures", "run_report"]

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


RATE_FIT_TAIL_DECADES = 2.0
RATE_FIT_BURN_IN = 0.2


def rate_fit_window(residuals, eps_fp: float = 0.0) -> np.ndarray:
    """Indices of the residual history suitable for an asymptotic rate fit.

    Three cuts are applied in order.  Records at or below ``10 * eps_fp``
    carry no signal and are dropped.  Records within RATE_FIT_TAIL_DECADES
    decades of the smallest positive residual are dropped because the
    reference value, taken from the end of the tightest run, contaminates
    them.  Finally the first RATE_FIT_BURN_IN fraction of the remaining
    records is dropped as transient: a solve started far from the solution
    spends its first iterations in a regime whose decay says nothing about
    the asymptotic rate.
    """
    r = np.asarray(residuals, dtype=float)
    positive = r > 0.0
    if not positive.any():
        return np.empty(0, dtype=int)
    floor = r[positive].min() * 10.0**RATE_FIT_TAIL_DECADES
    keep = np.nonzero((r > 10.0 * eps_fp) & (r >= floor))[0]
    drop = int(np.floor(RATE_FIT_BURN_IN * keep.size))
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


def growth_measures(distance, quantum: float, epsilons) -> list[float]:
    """Measures of the near-threshold sets { distance <= eps }, one per eps.

    ``distance`` is an instance's growth_distance(p), one entry of measure
    ``quantum`` per node or time slice, so each measure is quantum times
    the count of entries within eps.
    """
    for eps in epsilons:
        _require_positive(eps=eps)
    return [float(quantum * np.count_nonzero(distance <= eps)) for eps in epsilons]


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


def run_report(prob, result) -> dict[str, object]:
    """Every check of one finished solve, as the ordered entries of diagnostics.txt.

    ``result`` is the SolveResult of ``prob``; the envelope reads alpha and
    gamma from the config it ran with.  A check that cannot be made reads
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
        alpha, gamma = result.config.alpha, result.config.gamma
        q_env = envelope_q(r0, alpha, gamma, prob.lipschitz_estimate, result.mstar)
        if q_env > 0.0:
            ok, violation = check_envelope(residuals, q_env, result.eps_fp)
            report.update(q_env=q_env, envelope_ok=ok, envelope_violation=violation)
        else:
            # gamma r0 small enough, or L mstar**2 large enough, to round q to 0
            report["q_env"] = "n/a (q rounds to 0.0)"
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
    measures = growth_measures(
        prob.growth_distance(p), prob.growth_quantum, _GROWTH_EPSILONS
    )
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
