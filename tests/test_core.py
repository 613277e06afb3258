"""Solver-level tests: gap arithmetic, backtracking, and loop invariants."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gcg.core import (
    CompositeProblem,
    ControlField,
    LineSearchError,
    OracleError,
    SolverConfig,
    SolveStatus,
    armijo_step,
    dual_gap,
    gcg_solve,
)

from helpers import pairing


def scalar_problem(target, lower=-1.0, upper=1.0):
    """f(u) = (u - target)^2 / 2 on [lower, upper] with unit mass, g = indicator."""

    def smooth(u):
        r = u.values[0] - target
        return 0.5 * r * r, u.with_values(np.array([r]))

    def nonsmooth(u):
        x = u.values[0]
        return 0.0 if lower - 1e-12 <= x <= upper + 1e-12 else math.inf

    def lmo(p):
        return p.with_values(np.array([lower if p.values[0] > 0.0 else upper]))

    def dual_norm(u):
        return abs(u.values[0])

    return CompositeProblem(smooth, nonsmooth, lmo, dual_norm)


def field(*values):
    return ControlField(np.asarray(values, dtype=float), 1.0)


def boxed_l1_problem(rng, n):
    """Random diagonal quadratic with node-weighted l1 and box feasibility.

    The random per-node weights m in [0.5, 2] live in the objective and the
    penalty, f(u) = 0.5 sum m (u - target)**2 and g(u) = beta sum m |u|,
    and the fields carry weight 1.0, so the gradient is the field
    m (u - target): the curvature and the penalty weight differ from node
    to node.
    """
    mass = rng.uniform(0.5, 2.0, n)
    target = rng.normal(size=n)
    beta = rng.uniform(0.05, 0.5)
    lower = -rng.uniform(0.5, 2.0, n)
    upper = rng.uniform(0.5, 2.0, n)

    def smooth(u):
        r = u.values - target
        return 0.5 * float(np.dot(mass * r, r)), u.with_values(mass * r)

    def nonsmooth(u):
        x = u.values
        if np.any(x < lower - 1e-12) or np.any(x > upper + 1e-12):
            return math.inf
        return beta * float(np.dot(mass, np.abs(x)))

    def lmo(p):
        # per node, p v + beta m |v| = m (v p / m + beta |v|)
        pv = p.values / mass
        v = np.where(pv > beta, lower, np.where(pv < -beta, upper, 0.0))
        return p.with_values(v)

    def dual_norm(u):
        return float(np.dot(mass, np.abs(u.values)))

    zero = ControlField(np.zeros(n), 1.0)
    return CompositeProblem(smooth, nonsmooth, lmo, dual_norm), zero


def test_pairing_is_mass_weighted():
    # the field's one weight times the plain dot product
    a = ControlField(np.array([1.0, 2.0]), 0.25)
    b = ControlField(np.array([3.0, -1.0]), 0.25)
    assert pairing(a, b) == 0.25 * (3.0 - 2.0)


def test_derived_fields_share_mass_and_check_values():
    u = ControlField(np.array([1.0, -2.0, 0.25]), 0.5, meta="grid")
    v = ControlField(np.array([0.0, 4.0, -1.0]), 0.5)
    for w, expected in (
        (u.with_values([3.0, 2.0, 1.0]), [3.0, 2.0, 1.0]),
        (u.blend(v, 0.25), u.values + 0.25 * (v.values - u.values)),
        (u.diff(v), u.values - v.values),
    ):
        assert w.weight is u.weight and w.meta == "grid"
        assert w.values.dtype == float
        np.testing.assert_array_equal(w.values, expected)
    for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]], [1.0, np.nan, 0.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError):
            u.with_values(np.array(bad))
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        u.blend(v, 1e308)  # overflows to inf
    # public construction still checks the weight: one positive finite number
    for bad_weight in (0.0, -0.5, np.nan, np.inf, np.array(0.5), np.full(3, 0.5), "0.5"):
        with pytest.raises(ValueError):
            ControlField(np.zeros(3), bad_weight)
    # a numpy scalar is taken as the Python float it holds
    weight = ControlField(np.zeros(3), np.float64(0.5)).weight
    assert type(weight) is float and repr(weight) == "0.5"


def test_dual_gap_identity_case():
    u = field(0.3)
    grad = field(1.7)
    assert dual_gap(u, grad, 2.5, u, 2.5) == 0.0


def test_dual_gap_hand_value():
    # f(u) = (u-1)^2/2 on [-1, 1] at u = -1: grad -2, oracle point +1, gap 4
    u = field(-1.0)
    grad = field(-2.0)
    v = field(1.0)
    assert dual_gap(u, grad, 0.0, v, 0.0) == 4.0


def test_dual_gap_clamps_rounding_noise():
    u = field(0.0)
    grad = field(0.0)
    assert dual_gap(u, grad, -1e-13, u, 0.0, slack=1e-12) == 0.0


def test_dual_gap_rejects_broken_oracle():
    u = field(0.0)
    grad = field(0.0)
    with pytest.raises(OracleError):
        dual_gap(u, grad, -1e-6, u, 0.0, slack=1e-12)


def test_dual_gap_rejects_nonfinite():
    u = field(0.0)
    grad = field(0.0)
    with pytest.raises(ValueError):
        dual_gap(u, grad, math.inf, u, 0.0)


def test_armijo_full_step():
    # condition 2s <= 4s - 2s^2 holds for every s <= 1, so n = 0
    prob = scalar_problem(1.0)
    phi = segment_phi(prob, field(-1.0), field(1.0))
    step, n = armijo_step(phi, 2.0, 4.0, SolverConfig(alpha=0.5, gamma=0.5))
    assert (step, n) == (1.0, 0)
    assert phi(step) == 0.0


def test_armijo_one_backtrack():
    # f(u) = u^2/2 at u=1 towards v=-1: condition s <= 2s - 2s^2 iff s <= 1/2
    phi = segment_phi(scalar_problem(0.0), field(1.0), field(-1.0))
    step, n = armijo_step(phi, 0.5, 2.0, SolverConfig(alpha=0.5, gamma=0.5))
    assert (step, n) == (0.5, 1)


def segment_phi(problem, u, v):
    """j(u + s (v - u)) by direct evaluation of f + g."""

    def phi(s):
        w = u.blend(v, s)
        f_val, _ = problem.smooth_eval(w)
        return f_val + problem.nonsmooth_eval(w)

    return phi


def counting(phi, probes):
    """The same phi, with every evaluation appended to probes."""

    def counted(s):
        probes.append(s)
        return phi(s)

    return counted


def scan_tests(phi, j_u, gap, params):
    """The test at n = 0, 1, 2, ... as (step, j, passed), until the scan stops
    for a reason other than a pass: where the target underflows."""
    for n in itertools.count():
        s = params.gamma**n
        target = params.alpha * s * gap
        if target == 0.0:
            return
        j_s = phi(s)
        yield s, j_s, target <= j_u - j_s


def scan_armijo_step(phi, j_u, gap, params):
    """Reference: the linear scan over n = 0, 1, 2, ... that armijo_step replaced."""
    n = -1
    for n, (s, _, passed) in enumerate(scan_tests(phi, j_u, gap, params)):
        if passed:
            return s, n
    raise LineSearchError("reference scan exhausted", n + 1)


def search_outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except LineSearchError:
        return LineSearchError


def assert_matches_scan(phi, j_u, gap, params):
    got = search_outcome(armijo_step, phi, j_u, gap, params)
    want = search_outcome(scan_armijo_step, phi, j_u, gap, params)
    assert got == want
    return got


def assert_keeps_contract(phi, j_u, gap, params):
    """armijo_step's outcome against direct tests: the test passes at a
    returned n and fails at n - 1; a raise stops at the first n whose target
    underflows, and the test fails at n - 1."""
    alpha, gamma = params.alpha, params.gamma

    def passes(n):
        target = alpha * gamma**n * gap
        return target != 0.0 and target <= j_u - phi(gamma**n)

    try:
        step, n = armijo_step(phi, j_u, gap, params)
    except LineSearchError as exc:
        n = exc.exponent
        assert alpha * gamma**n * gap == 0.0
        assert n == 0 or (alpha * gamma ** (n - 1) * gap != 0.0 and not passes(n - 1))
    else:
        assert step == gamma**n and passes(n)
        assert n == 0 or not passes(n - 1)


def test_armijo_gamma_099_takes_69_trials():
    probes = []
    phi = counting(segment_phi(scalar_problem(0.0), field(1.0), field(-1.0)), probes)
    step, n = armijo_step(phi, 0.5, 2.0, SolverConfig(alpha=0.5, gamma=0.99))
    assert n == 69 == math.ceil(math.log(0.5) / math.log(0.99))
    assert step == 0.99**69
    # a scan from n = 0 would make 70 probes; the curvature c = 4 of this
    # segment puts the start at n = 69, so phi(1), phi(0.99**69) and
    # phi(0.99**68) decide the search
    assert probes == [1.0, 0.99**69, 0.99**68]


def test_search_on_a_bare_callable():
    # the search needs phi alone: the segment above as a plain function of
    # s, with no field and no problem, gives the same step and probes
    probes = []
    phi = counting(lambda s: 0.5 * (1.0 - 2.0 * s) ** 2, probes)
    config = SolverConfig(alpha=0.5, gamma=0.99)
    assert armijo_step(phi, 0.5, 2.0, config) == (0.99**69, 69)
    assert probes == [1.0, 0.99**69, 0.99**68]


def test_start_that_fails_by_rounding_falls_back_to_the_gallop():
    # f = u^2/2 from u = 1 towards v = -1 with gap 2 and alpha = 0.1: the
    # test passes for s <= 2 (1 - alpha) gap / c = 0.9 (1 - alpha rounded),
    # c = 4.  1 - alpha rounds up onto 0.9 = gamma, so the start is n = 1,
    # while the exact floor 2 (1 - 0.1) lies just below gamma: the test
    # fails at the start and passes first at n = 2
    alpha, gamma = 0.1, 0.9
    assert (1.0 - alpha) == gamma and Fraction(1) - Fraction(alpha) < Fraction(gamma)
    probes = []
    phi = segment_phi(scalar_problem(0.0), field(1.0), field(-1.0))
    params = SolverConfig(alpha=alpha, gamma=gamma)
    j_u = 0.5
    assert not alpha * gamma * 2.0 <= j_u - phi(gamma)
    got = armijo_step(counting(phi, probes), j_u, 2.0, params)
    assert got == scan_armijo_step(phi, j_u, 2.0, params) == (gamma**2, 2)
    # phi(1), the failed start, then the gallop from n = 0: n = 2, then 1
    assert probes == [1.0, gamma, gamma**2, gamma]


def test_start_that_overshoots_walks_down_by_doubling():
    # f = cosh(w - 1/2) - 1 from u = 0 towards v = 5: c = 2 (phi(1) - j(u)
    # + gap) is twice f's Bregman gap over the whole segment, far above
    # its curvature near u, so the start n = 356 lies 124 exponents past
    # the scan's n = 232; the walk down reaches it in doubling steps
    def smooth(w):
        r = w.values - 0.5
        return float(np.sum(np.cosh(r) - 1.0)), w.with_values(np.sinh(r))

    u, v = field(0.0), field(5.0)

    def phi(s):
        return smooth(u.blend(v, s))[0]

    j_u, grad = smooth(u)
    gap = pairing(grad, u.diff(v))
    params = SolverConfig(alpha=0.5, gamma=0.99)
    probes = []
    got = armijo_step(counting(phi, probes), j_u, gap, params)
    assert got == scan_armijo_step(phi, j_u, gap, params) == (0.99**232, 232)
    exponents = [round(math.log(s) / math.log(0.99)) for s in probes]
    # phi(1), the start, the walk 355, 353, 349, ..., 229 that passes the
    # scan's n, and a bisection of (229, 233)
    assert exponents[:9] == [0, 356, 355, 353, 349, 341, 325, 293, 229]
    assert len(probes) == 15


@pytest.mark.parametrize("j_v", [math.inf, math.nan, 1e300])
def test_start_without_a_usable_curvature_gallops(j_v):
    # phi(1) infinite or NaN gives no curvature, and phi(1) = 1e300 against
    # gap = 1e-300 puts the floor 2 (1 - alpha) gap / c below the smallest
    # double: each search gallops from n = 0 and returns the scan's outcome
    def phi(s):
        return j_v if s == 1.0 else -0.5 * s * 1e-300

    params = SolverConfig(alpha=0.5, gamma=0.5)
    assert search_outcome(armijo_step, phi, 0.0, 1e-300, params) == (
        search_outcome(scan_armijo_step, phi, 0.0, 1e-300, params)
    )


def test_armijo_requires_positive_gap():
    phi = segment_phi(scalar_problem(0.0), field(1.0), field(-1.0))
    with pytest.raises(ValueError):
        armijo_step(phi, 0.5, 0.0, SolverConfig())


def test_armijo_step_underflow_raises():
    # u == v means no descent is possible, so an overstated gap must be
    # detected: the search goes on until 0.5**n hits 0.0 near n = 1075.  A
    # zero trial step satisfies the sufficient-decrease test trivially, so
    # the search must refuse it rather than freeze the iterate and report
    # success.
    probes = []
    u = field(0.5)
    phi = counting(segment_phi(scalar_problem(0.0), u, u), probes)
    with pytest.raises(LineSearchError) as raised:
        armijo_step(phi, 0.125, 1.0, SolverConfig(alpha=0.5, gamma=0.5))
    assert raised.value.exponent == 1074
    # the target 0.5 * 0.5**n first underflows at n = 1074; a scan probes
    # every n below that
    assert 0.5 * 0.5**1074 == 0.0 < 0.5 * 0.5**1073
    assert len(probes) <= 2 * math.ceil(math.log2(1075)) + 1


def test_gamma_near_one_reaches_short_steps():
    # a gamma near 1 still reaches the step 1/2 this segment needs, at n
    # near 6.9e6, far past any fixed budget of a few thousand
    gamma = 0.9999999
    phi = segment_phi(scalar_problem(0.0), field(1.0), field(-1.0))
    step, n = armijo_step(phi, 0.5, 2.0, SolverConfig(alpha=0.5, gamma=gamma))
    assert step == gamma**n and 6_000_000 < n < 8_000_000
    assert 0.5 * step * 2.0 <= phi(0.0) - phi(step)
    assert 0.5 * gamma ** (n - 1) * 2.0 > phi(0.0) - phi(gamma ** (n - 1))


def test_failed_search_records_where_it_stopped():
    # a gradient of the wrong sign overstates the gap, so no step descends
    # and the search stops where the decrease target first underflows
    prob = scalar_problem(0.0)

    def wrong_sign(u):
        f, grad = prob.smooth_eval(u)
        return f, grad.with_values(-grad.values)

    wrong = dataclasses.replace(prob, smooth_eval=wrong_sign)
    config = SolverConfig(alpha=0.5, gamma=0.5)
    result = gcg_solve(wrong, field(0.5), config)
    assert result.status is SolveStatus.LINE_SEARCH_FAILED
    (record,) = result.history
    n = record.backtracks
    assert record.gap == 0.25 and record.step == 0.0
    assert 0.5 * 0.5**n * record.gap == 0.0 < 0.5 * 0.5 ** (n - 1) * record.gap


def test_armijo_matches_scan_on_edge_cases():
    full = segment_phi(scalar_problem(1.0), field(-1.0), field(1.0))
    halving = SolverConfig(alpha=0.5, gamma=0.5)
    assert assert_matches_scan(full, full(0.0), 4.0, halving) == (1.0, 0)
    # f = u^2/2 from u = 1 towards v = -7 with gap 8: the test reads
    # 4s <= 8s - 32s^2, which holds with equality at s = 1/8 = 0.5**3
    wide = segment_phi(scalar_problem(0.0, lower=-8.0), field(1.0), field(-7.0))
    tie = assert_matches_scan(wide, wide(0.0), 8.0, halving)
    assert tie == (0.125, 3)
    assert 0.5 * 0.125 * 8.0 == 0.5 - wide(0.125)  # j(u) = 0.5
    # f = |w|^2 / 2 from u = e_4 towards v = -e_4 with gap 2: the test passes
    # at n = 1, and at n = 2 the decrease 2e-20 rounds to 0 against j(u) = 0.5.
    # A gallop from n = 0 straight to n = 2 would pass over n = 1 and raise
    e4 = field(0.0, 0.0, 0.0, 1.0)

    def quad(s):
        w = e4.blend(e4.with_values(-e4.values), s).values
        return 0.5 * float(w @ w)

    params = SolverConfig(alpha=0.5, gamma=1e-10)
    rounded = assert_matches_scan(quad, quad(0.0), 2.0, params)
    assert rounded[:2] == (1e-10, 1)
    # where phi(1) gives no curvature the search gallops from n = 0, and it
    # probes n = 1, the last exponent above the rounding of j(u), before n = 2

    def no_curvature(s):
        return math.nan if s == 1.0 else quad(s)

    assert assert_matches_scan(no_curvature, quad(0.0), 2.0, params) == (1e-10, 1)
    # with gamma = eps the scan's n = 1 lies at the rounding of j(u) itself:
    # the decrease is 2 eps against j(u) = 0.5, and the test still passes.
    # But n = 0 is the last exponent above that level, so the gallop goes
    # from n = 0 to n = 2, passes over n = 1 and raises where the target
    # underflows, as the armijo_step docstring allows below that level
    eps = float(np.finfo(float).eps)
    phi = segment_phi(scalar_problem(0.0), field(1.0), field(-1.0))
    params = SolverConfig(alpha=0.5, gamma=eps)
    assert scan_armijo_step(phi, phi(0.0), 2.0, params) == (eps, 1)
    assert phi(eps) == 0.5 - 2.0 * eps
    with pytest.raises(LineSearchError) as raised:
        armijo_step(phi, phi(0.0), 2.0, params)
    assert raised.value.exponent == 21 and eps**21 == 0.0 < eps**20
    assert_keeps_contract(phi, phi(0.0), 2.0, params)
    # u == v: no decrease at any step, so the target underflows and both raise
    same = segment_phi(scalar_problem(0.0), field(0.5), field(0.5))
    assert assert_matches_scan(same, same(0.0), 1.0, halving) is LineSearchError


@st.composite
def convex_segment(draw):
    """phi along a segment of positive gap, and the gap, for a smooth convex
    term plus a node-weighted |.| term.  The node weights m live in both
    terms, and the fields carry weight 1.0.  The smooth term is a quadratic,
    where the search starts at the step its curvature guarantees, or
    sum m k (cosh(w - t) - 1), where that start is only a guess that can
    overshoot or fail."""
    n = draw(st.integers(1, 4))
    coords = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    mass = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    curv = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    target = np.array(draw(coords))
    beta = draw(st.floats(0.0, 1.0))

    if draw(st.booleans()):

        def smooth(w):
            r = w.values - target
            value = 0.5 * float(np.dot(mass * curv, r * r))
            return value, w.with_values(mass * curv * r)

    else:

        def smooth(w):
            r = w.values - target
            value = float(np.dot(mass * curv, np.cosh(r) - 1.0))
            return value, w.with_values(mass * curv * np.sinh(r))

    def nonsmooth(w):
        return beta * float(np.dot(mass, np.abs(w.values)))

    u = ControlField(np.array(draw(coords)), 1.0)
    v = ControlField(np.array(draw(coords)), 1.0)
    _, grad = smooth(u)
    gap = pairing(grad, u.diff(v)) + nonsmooth(u) - nonsmooth(v)

    def phi(s):
        w = u.blend(v, s)
        return smooth(w)[0] + nonsmooth(w)

    return phi, gap


SCAN_CAP = 3000  # the reference scan lists the test at n <= SCAN_CAP only


@settings(max_examples=200, deadline=None)
@given(
    segment=convex_segment(),
    alpha=st.floats(0.0, 0.5, exclude_min=True),
    gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_armijo_matches_linear_scan(segment, alpha, gamma):
    phi, gap = segment
    assume(math.isfinite(gap) and gap > 0.0)
    j_u = phi(0.0)
    params = SolverConfig(alpha=alpha, gamma=gamma)
    tests = list(itertools.islice(scan_tests(phi, j_u, gap, params), SCAN_CAP + 1))
    passes = [passed for _, _, passed in tests]
    first = passes.index(True) if True in passes else len(passes)
    # the scan's n, where it passes or its target underflows, is within the cap
    within_cap = first < len(tests) or len(tests) <= SCAN_CAP
    if within_cap and all(passes[first:]):
        # the computed test is monotone in n, as it is in exact arithmetic
        assert search_outcome(armijo_step, phi, j_u, gap, params) == (
            search_outcome(scan_armijo_step, phi, j_u, gap, params)
        )
    else:
        # past the first pass the decrease fell below rounding and the test
        # failed again, so the search may bracket a later switch; or the
        # scan's n lies past the cap.  Either way the search keeps the
        # backtracking contract
        assert_keeps_contract(phi, j_u, gap, params)


def test_solver_config_validates_the_step_rule():
    with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1/2\]$"):
        SolverConfig(alpha=0.6)
    with pytest.raises(ValueError, match=r"^gamma must lie in \(0, 1\)$"):
        SolverConfig(gamma=1.0)


def test_solver_config_validation():
    for gap_tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SolverConfig(gap_tol=gap_tol)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


def test_one_step_convergence():
    prob = scalar_problem(1.0)
    result = gcg_solve(
        prob, field(-1.0), SolverConfig(alpha=0.5, gamma=0.5)
    )
    assert result.status is SolveStatus.CONVERGED
    assert len(result.history) == 2
    first, last = result.history
    assert (first.j_value, first.gap, first.step) == (2.0, 4.0, 1.0)
    assert (last.j_value, last.gap, last.step) == (0.0, 0.0, 0.0)
    assert result.final_iterate.values[0] == 1.0
    assert result.iterations == 1


def test_start_at_optimum_returns_immediately():
    prob = scalar_problem(0.0)
    result = gcg_solve(prob, field(0.0), SolverConfig())
    assert result.status is SolveStatus.CONVERGED
    assert len(result.history) == 1
    assert result.history[0].step == 0.0


def test_infeasible_start_raises():
    prob = scalar_problem(0.0)
    with pytest.raises(ValueError):
        gcg_solve(prob, field(3.0), SolverConfig())


def test_eps_fp_matches_initial_objective():
    prob = scalar_problem(1.0)
    result = gcg_solve(prob, field(-1.0), SolverConfig())
    assert result.eps_fp == 1e-12 * (2.0 + 1.0)


def test_history_keeps_terminal_record_at_iteration_cap():
    rng = np.random.default_rng(3)
    prob, zero = boxed_l1_problem(rng, 6)
    result = gcg_solve(prob, zero, SolverConfig(gap_tol=0.0, max_iter=3))
    assert result.status is SolveStatus.MAX_ITER_REACHED
    assert len(result.history) == 4
    assert result.history[-1].step == 0.0


def test_monotone_descent_and_gap_domination():
    """j decreases strictly and the gap certificate dominates the residual."""
    rng = np.random.default_rng(11)
    fast = dict(alpha=0.5, gamma=0.7)
    for trial in range(8):
        prob, zero = boxed_l1_problem(rng, int(rng.integers(2, 9)))
        tight = gcg_solve(
            prob, zero, SolverConfig(gap_tol=1e-8, max_iter=1200, **fast)
        )
        result = gcg_solve(
            prob, zero, SolverConfig(gap_tol=1e-6, max_iter=800, **fast)
        )
        j_ref = tight.history[-1].j_value
        eps = result.eps_fp
        hist = result.history
        for a, b in zip(hist, hist[1:]):
            assert b.j_value < a.j_value
        for rec in hist:
            assert rec.gap >= (rec.j_value - j_ref) - eps


def test_descent_recursion_bound():
    """Each step removes at least the alpha * s fraction of the residual."""
    rng = np.random.default_rng(29)
    alpha = 0.5
    fast = dict(alpha=alpha, gamma=0.7)
    for trial in range(8):
        prob, zero = boxed_l1_problem(rng, int(rng.integers(2, 9)))
        tight = gcg_solve(
            prob, zero, SolverConfig(gap_tol=1e-8, max_iter=1200, **fast)
        )
        result = gcg_solve(
            prob, zero, SolverConfig(gap_tol=1e-6, max_iter=800, **fast)
        )
        j_ref = tight.history[-1].j_value
        eps = result.eps_fp
        hist = result.history
        for a, b in zip(hist, hist[1:]):
            r_now = a.j_value - j_ref
            r_next = b.j_value - j_ref
            assert r_next <= (1.0 - alpha * a.step) * r_now + eps


def test_armijo_minimality_along_runs():
    """The recorded step satisfies the descent condition; step/gamma fails it."""
    rng = np.random.default_rng(47)
    gamma = 0.7
    alpha = 0.5
    seen_backtrack = False
    for trial in range(10):
        prob, zero = boxed_l1_problem(rng, int(rng.integers(2, 9)))
        probes = []
        config = SolverConfig(
            gap_tol=1e-10,
            max_iter=500,
            alpha=alpha,
            gamma=gamma,
            callback=lambda rec, u, v: probes.append((rec, u, v)),
        )
        gcg_solve(prob, zero, config)
        for rec, u, v in probes:
            if rec.step == 0.0:
                continue
            phi = segment_phi(prob, u, v)
            assert alpha * rec.step * rec.gap <= rec.j_value - phi(rec.step)
            if rec.step < 1.0:
                seen_backtrack = True
                s_up = rec.step / gamma
                assert alpha * s_up * rec.gap > rec.j_value - phi(s_up)
    assert seen_backtrack


def test_bitwise_determinism():
    rng = np.random.default_rng(101)
    prob, zero = boxed_l1_problem(rng, 7)
    fast = dict(alpha=0.5, gamma=0.7)
    a = gcg_solve(prob, zero, SolverConfig(gap_tol=1e-12, max_iter=1000, **fast))
    b = gcg_solve(prob, zero, SolverConfig(gap_tol=1e-12, max_iter=1000, **fast))
    assert len(a.history) == len(b.history)
    for ra, rb in zip(a.history, b.history):
        assert ra == rb
    assert np.array_equal(a.final_iterate.values, b.final_iterate.values)
    assert a.mstar == b.mstar


def test_mstar_covers_iterates_and_oracle_points():
    rng = np.random.default_rng(59)
    prob, zero = boxed_l1_problem(rng, 5)
    norms = []
    config = SolverConfig(
        gap_tol=1e-12,
        max_iter=500,
        alpha=0.5,
        gamma=0.7,
        callback=lambda rec, u, v: norms.extend(
            [prob.dual_norm(u), prob.dual_norm(v)]
        ),
    )
    result = gcg_solve(prob, zero, config)
    assert result.mstar == max(norms)


def test_error_recording_against_reference():
    # errors against a reference, taken by the callback
    rng = np.random.default_rng(83)
    prob, zero = boxed_l1_problem(rng, 5)
    fast = dict(alpha=0.5, gamma=0.7)
    tight = gcg_solve(
        prob, zero, SolverConfig(gap_tol=1e-13, max_iter=2000, **fast)
    )
    ref = tight.final_iterate
    errors = {}

    def record_errors(rec, u, v):
        errors[rec.k] = (prob.dual_norm(u.diff(ref)), prob.dual_norm(v.diff(ref)))

    config = SolverConfig(gap_tol=1e-10, max_iter=500, **fast)
    result = gcg_solve(prob, zero, dataclasses.replace(config, callback=record_errors))
    # one entry per row, and the callback leaves the run as it is
    assert sorted(errors) == [rec.k for rec in result.history]
    assert result.history == gcg_solve(prob, zero, config).history
    errs = [errors[rec.k][0] for rec in result.history]
    assert all(e >= 0.0 for e in errs)
    assert errs[0] == prob.dual_norm(zero.diff(ref))
    assert errs[-1] <= errs[0]


def test_control_field_validation():
    with pytest.raises(ValueError):
        ControlField(np.array([[1.0]]), 1.0)
    with pytest.raises(ValueError):
        ControlField(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        ControlField(np.array([np.nan]), 1.0)
    with pytest.raises(ValueError):
        ControlField(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ControlField(np.array([]), 1.0)


def test_blend_endpoints():
    u = field(1.0, -2.0)
    v = field(3.0, 4.0)
    assert np.array_equal(u.blend(v, 0.0).values, u.values)
    assert np.array_equal(u.blend(v, 1.0).values, v.values)
    assert np.array_equal(u.blend(v, 0.5).values, np.array([2.0, 1.0]))
