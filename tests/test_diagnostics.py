"""Tests for envelope constants, rate fits, and the scalar recursions."""

import dataclasses
import math

import numpy as np
import pytest

from gcg import elliptic, parabolic
from gcg.core import IterateRecord, SolverConfig, gcg_solve
from gcg.diagnostics import (
    _GROWTH_EPSILONS,
    RATE_FIT_BURN_IN,
    RATE_FIT_TAIL_DECADES,
    check_envelope,
    envelope_q,
    fit_kappa,
    fit_rate,
    growth_measures,
    rate_fit_window,
    residuals_from_history,
    run_report,
    select_growth_bins,
)
from helpers import (
    recursion_oracle_44,
    recursion_oracle_48,
    slice_l2_norms,
    sublinear_constants,
)


def test_envelope_q_hand_value():
    # 0.5 * min(0.5 * 0.5 * 1 / 2, 1) = 0.0625
    halving = SolverConfig(alpha=0.5, gamma=0.5)
    assert envelope_q(1.0, halving, 1.0, 1.0) == pytest.approx(0.0625)


def test_envelope_q_clamps_at_alpha():
    assert envelope_q(1e6, SolverConfig(alpha=0.5, gamma=0.5), 1.0, 1.0) == 0.5
    assert envelope_q(1e6, SolverConfig(alpha=0.3, gamma=0.9), 1.0, 1.0) == (
        pytest.approx(0.3)
    )


def test_envelope_q_linear_in_r0_below_clamp():
    halving = SolverConfig(alpha=0.5, gamma=0.5)
    q1 = envelope_q(0.01, halving, 1.0, 1.0)
    q2 = envelope_q(0.02, halving, 1.0, 1.0)
    assert q2 == pytest.approx(2.0 * q1, rel=1e-14)


def test_envelope_q_validation():
    # alpha and gamma are SolverConfig's to check; r0, L and mstar are checked here
    halving = SolverConfig(alpha=0.5, gamma=0.5)
    with pytest.raises(ValueError):
        envelope_q(-1.0, halving, 1.0, 1.0)
    with pytest.raises(ValueError):
        envelope_q(1.0, halving, 0.0, 1.0)
    with pytest.raises(ValueError):
        envelope_q(1.0, halving, 1.0, math.inf)


def test_check_envelope_accepts_exact_curve():
    q = 0.07
    k = np.arange(40)
    r = 2.0 / (1.0 + q * k)
    ok, bad = check_envelope(r, q)
    assert ok and bad is None


def test_check_envelope_flags_first_violation():
    q = 0.07
    k = np.arange(40)
    r = 2.0 / (1.0 + q * k)
    r[7] *= 1.01
    r[20] *= 1.01
    ok, bad = check_envelope(r, q)
    assert not ok and bad == 7
    # a small fp cushion forgives rounding-level bumps
    r2 = 2.0 / (1.0 + q * k)
    r2[7] += 1e-13
    ok2, bad2 = check_envelope(r2, q, eps_fp=1e-12)
    assert ok2 and bad2 is None


def test_check_envelope_empty_history():
    assert check_envelope([], 0.5) == (True, None)


def test_residuals_from_history():
    hist = [
        IterateRecord(k=0, j_value=3.0, gap=1.0, step=1.0, backtracks=0),
        IterateRecord(k=1, j_value=2.5, gap=0.5, step=0.5, backtracks=1),
    ]
    np.testing.assert_allclose(residuals_from_history(hist, 2.0), [1.0, 0.5])


def test_sublinear_constants_hand_values():
    n, m = sublinear_constants(0.5, 0.5, 0.1, 1.0)
    # n = (2 - sqrt(2)) / (sqrt(2) - 1) = sqrt(2)
    assert n == pytest.approx(math.sqrt(2.0), rel=1e-12)
    base = (0.5 - 0.5 * (math.sqrt(2.0) - 1.0)) * 0.1
    assert m == pytest.approx(1.0 / (0.5 * base**2), rel=1e-12)
    # rK * n^(1/beta) = 2 is dominated by the second branch here
    assert m > 2.0


def test_sublinear_constants_n_positive_on_valid_domain():
    # (1/delta)^beta <= 2^beta < 2 whenever delta >= 1/2 and beta < 1, so
    # the shift n stays positive throughout the admissible box
    for delta in (0.5, 0.6, 0.75, 0.9, 0.99):
        for beta in (0.05, 0.3, 0.5, 0.7, 0.95):
            n, m = sublinear_constants(delta, beta, 0.2, 1.0)
            assert n > 0.0
            assert m >= 1.0 * n ** (1.0 / beta) - 1e-12


def test_sublinear_constants_validation():
    with pytest.raises(ValueError):
        sublinear_constants(0.4, 0.5, 0.1, 1.0)
    with pytest.raises(ValueError):
        sublinear_constants(1.0, 0.5, 0.1, 1.0)
    with pytest.raises(ValueError):
        sublinear_constants(0.5, 1.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        sublinear_constants(0.5, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        sublinear_constants(0.5, 0.5, 0.1, -1.0)


def test_recursion_44_hand_sequence():
    h = recursion_oracle_44(0.5, 3)
    np.testing.assert_allclose(h, [1.0, 0.5, 0.375, 0.3046875], rtol=1e-15)


def test_recursion_44_respects_decay_bound():
    rng = np.random.default_rng(83)
    steps = 200
    k = np.arange(steps + 1)
    for trial in range(2000):
        q = float(rng.uniform(1e-3, 1.0))
        h = recursion_oracle_44(q, steps)
        bound = 1.0 / (1.0 + q * k)
        assert np.all(h <= bound + 1e-14)


def test_recursion_44_validation():
    with pytest.raises(ValueError):
        recursion_oracle_44(0.0, 5)
    with pytest.raises(ValueError):
        recursion_oracle_44(1.5, 5)
    with pytest.raises(ValueError):
        recursion_oracle_44(0.5, -1)


def test_recursion_48_example_holds():
    h, violation = recursion_oracle_48(0.5, 0.1, 0.5, 500)
    assert violation is None
    assert h[0] == 1.0
    assert np.all(np.diff(h) <= 0.0)
    assert np.all(h > 0.0)


def test_recursion_48_zero_start():
    h, violation = recursion_oracle_48(0.5, 0.1, 0.5, 20, h0=0.0)
    assert violation is None
    assert np.all(h == 0.0)


def test_recursion_48_slow_start_suite():
    # in the slow-start region C * h0^beta < 1 - delta the stated constants
    # bound the extremal sequence at every index
    rng = np.random.default_rng(89)
    for trial in range(1000):
        delta = float(rng.uniform(0.5, 0.95))
        beta = float(rng.uniform(0.05, 0.95))
        c_max = (1.0 - delta) * 0.99
        c = float(rng.uniform(0.01 * c_max, c_max))
        h, violation = recursion_oracle_48(delta, c, beta, 300)
        assert violation is None, (delta, c, beta, violation)


def test_recursion_48_validation():
    with pytest.raises(ValueError):
        recursion_oracle_48(0.5, 0.1, 0.5, -1)
    with pytest.raises(ValueError):
        recursion_oracle_48(0.5, 0.1, 0.5, 5, h0=-1.0)


def test_rate_fit_window_hand_case():
    assert (RATE_FIT_TAIL_DECADES, RATE_FIT_BURN_IN) == (2.0, 0.2)
    r = [10.0**-i for i in range(13)]
    # tail floor: two decades above the smallest positive entry keeps
    # indices 0..10; eps floor removes nothing extra; burn-in drops
    # floor(0.2 * 11) = 2
    window = rate_fit_window(r, eps_fp=1e-13)
    np.testing.assert_array_equal(window, np.arange(2, 11))
    # without the tail cut's two records, burn-in drops floor(0.2 * 9) = 1
    np.testing.assert_array_equal(rate_fit_window(r[:11], eps_fp=1e-13), np.arange(1, 9))


def test_rate_fit_window_skips_zero_and_noise_records():
    r = [1.0, 0.1, 5e-13, 0.0]
    window = rate_fit_window(r, eps_fp=1e-12)
    # 5e-13 < 10*eps and 0.0 is not positive; 0.1 is within two decades of
    # the smallest positive record 5e-13? no: floor = 5e-11, both survive,
    # and burn-in drops floor(0.2 * 2) = 0 of them
    np.testing.assert_array_equal(window, [0, 1])
    assert rate_fit_window([0.0, 0.0]).size == 0


def test_fit_rate_recovers_geometric_decay():
    r = 3.0 * 0.8 ** np.arange(60)
    lam, r2 = fit_rate(r)
    assert lam == pytest.approx(0.8, rel=1e-10)
    assert r2 >= 1.0 - 1e-12


def test_fit_rate_flags_sublinear_decay():
    r = 1.0 / (1.0 + np.arange(100))
    lam, r2 = fit_rate(r)
    assert lam < 1.0
    assert r2 < 0.99


def test_fit_rate_requires_enough_signal():
    with pytest.raises(ValueError):
        fit_rate([1.0, 0.5, 0.25, 0.125])
    with pytest.raises(ValueError):
        fit_rate(np.full(10, 1e-14), eps_fp=1e-13)


def test_select_growth_bins_hand_case():
    eps = np.array([1.0, 2.0, 3.0, 4.0])
    meas = np.array([0.1, 0.5, 2.0, 5.0])
    kept_eps, kept_meas = select_growth_bins(eps, meas, quantum=0.05)
    np.testing.assert_array_equal(kept_eps, [2.0, 3.0])
    np.testing.assert_array_equal(kept_meas, [0.5, 2.0])
    with pytest.raises(ValueError):
        select_growth_bins(eps, meas[:2], 0.05)
    with pytest.raises(ValueError):
        select_growth_bins(eps, meas, 0.0)
    e, m = select_growth_bins([], [], 1.0)
    assert e.size == 0 and m.size == 0


def test_fit_kappa_recovers_power_law():
    eps = 2.0 ** -np.arange(3, 12, dtype=float)
    meas = 3.0 * eps**1.7
    assert fit_kappa(eps, meas) == pytest.approx(1.7, rel=1e-10)


def test_fit_kappa_vacuous_and_undersampled():
    eps = np.array([0.5, 0.25, 0.125, 0.0625])
    assert fit_kappa(eps, np.zeros(4)) is None
    with pytest.raises(ValueError):
        fit_kappa(eps, np.array([0.0, 0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        fit_kappa(eps, np.array([1.0, 1.0]))


def test_run_report_kappa_is_vacuous_only_when_every_measure_is_zero():
    prob = elliptic.make_example("stadler-ex1", 4)
    result = gcg_solve(prob.composite(), prob.zero_control(), SolverConfig(max_iter=40))
    assert run_report(prob, result)["kappa_hat"] != "vacuous"
    prob.growth_distance = lambda p: np.full(p.size, math.inf)
    report = run_report(prob, result)
    assert report["kappa_hat"] == "vacuous" and report["kappa_fit_bins"] == 0


def test_run_report_reads_n_a_where_q_rounds_to_zero():
    # an L mstar**2 that overflows to inf rounds q to 0.0, where the envelope
    # check cannot be made: q_env reads n/a and its two entries are dropped
    prob = elliptic.make_example("stadler-ex1", 4)
    result = gcg_solve(prob.composite(), prob.zero_control(), SolverConfig(max_iter=40))
    report = run_report(prob, result)
    assert report["q_env"] > 0.0 and report["envelope_ok"] is True
    report = run_report(prob, dataclasses.replace(result, mstar=1e200))
    assert report["q_env"] == "n/a (q rounds to 0.0)"
    assert "envelope_ok" not in report and "envelope_violation" not in report


def test_run_report_prices_the_envelope_with_the_step_rule_of_its_solve():
    # the report reads alpha and gamma from the config the solve ran with,
    # so a non-default rule reaches q_env, and the default rule gives another q
    prob = elliptic.make_example("stadler-ex1", 4)
    config = SolverConfig(max_iter=40, alpha=0.3, gamma=0.9)
    result = gcg_solve(prob.composite(), prob.zero_control(), config)
    assert result.config is config
    r0 = result.history[0].j_value - result.history[-1].j_value
    L_est, mstar = prob.lipschitz_estimate, result.mstar
    q_env = run_report(prob, result)["q_env"]
    assert q_env == envelope_q(r0, SolverConfig(alpha=0.3, gamma=0.9), L_est, mstar)
    default = run_report(prob, dataclasses.replace(result, config=SolverConfig()))
    assert default["q_env"] == envelope_q(r0, SolverConfig(), L_est, mstar) != q_env


@pytest.mark.parametrize(
    "build, band",
    [
        (
            lambda: elliptic.make_example("stadler-ex1", 16),
            lambda prob, p: np.abs(np.abs(p.values) - prob.reg_beta),
        ),
        (
            lambda: parabolic.make_example("parabolic-ex-1d", 16, 200),
            lambda prob, p: np.abs(slice_l2_norms(prob.grid, p) - prob.reg_alpha),
        ),
    ],
    ids=["elliptic", "parabolic"],
)
def test_growth_measures_match_the_band_formula(build, band):
    # the shared count from growth_distance is each instance's own band
    # formula, quantum * count_nonzero(band <= eps), float for float, at
    # every eps of the growth fit and at criterion 8a's delta
    prob = build()
    result = gcg_solve(prob.composite(), prob.zero_control(), SolverConfig(max_iter=60))
    p, gap = result.final_gradient, result.history[-1].gap
    delta = math.sqrt(prob.lipschitz_estimate) * math.sqrt(2.0 * gap)
    epsilons = [*_GROWTH_EPSILONS, delta]
    distance = band(prob, p)
    expected = [
        float(prob.growth_quantum * np.count_nonzero(distance <= eps))
        for eps in epsilons
    ]
    got = growth_measures(prob.growth_distance(p), prob.growth_quantum, epsilons)
    assert got == expected
    assert len(set(got)) > 2  # the counts move across the epsilons
