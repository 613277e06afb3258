"""Tests for the shared tracking term: the one-slot state memo."""

import numpy as np
import pytest

from gcg import elliptic, parabolic

BUILDERS = {
    "elliptic": lambda: elliptic.make_example("stadler-ex1", 12),
    "parabolic": lambda: parabolic.make_example("parabolic-ex", 8, 10),
}
STEPS = (0.0, 0.17, 0.5, 0.99**7, 1.0)


def count_state_solves(prob) -> list:
    """Record every application of S on prob; S* is not counted."""
    calls = []
    solve = prob.solve_state

    def counted(values):
        calls.append(values.size)
        return solve(values)

    prob.solve_state = counted
    return calls


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_memo_parity_with_a_fresh_instance(kind):
    prob, fresh = BUILDERS[kind](), BUILDERS[kind]()
    rng = np.random.default_rng(89)
    u, w = prob.sample_feasible(rng), prob.sample_feasible(rng)
    _, grad = prob.f_and_grad(u)
    v = prob.lmo(grad)
    expected = [fresh.line_objective(u, v)(s) for s in STEPS]
    calls = count_state_solves(prob)

    # right after the gradient at u, only S (v - u) is solved
    phi = prob.line_objective(u, v)
    assert len(calls) == 1
    assert [phi(s) for s in STEPS] == expected

    # the gradient at the same u reuses the state too
    f_val, grad_again = prob.f_and_grad(u)
    assert len(calls) == 1
    f_fresh, grad_fresh = BUILDERS[kind]().f_and_grad(u)
    assert f_val == f_fresh
    assert np.array_equal(grad_again.values, grad_fresh.values)

    # after the gradient at another field, the state at u is solved again
    prob.f_and_grad(w)
    calls.clear()
    phi = prob.line_objective(u, v)
    assert len(calls) == 2
    assert [phi(s) for s in STEPS] == expected
