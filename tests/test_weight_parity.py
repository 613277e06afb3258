"""Parity of the weight-times-dot sums with the per-node weight arrays they replace.

Every weighted sum of the bundled instances is the grid's one weight w times
a plain dot product or sum.  Each is checked on both instances, the heat
problem at the 32 x 32 x 500 shape of the heat-2d benchmark, against

- the array formula it replaced, np.dot(np.full(n, w), x * y), or
  (x * y) @ np.full(n_space, h**dim) per time slice, and
- a reference w * math.fsum(x_i * y_i), which rounds only the products.

Both must lie within bound(n) * S of the reference, with S = w * sum_i |x_i y_i|
the sum of absolute terms.  bound(n) = (n + 2) eps covers the rounding of n
products, of a sum of n terms in any order, and of the product with w, so
it holds for BLAS, pairwise and einsum sums alike.
"""

import inspect
import math

import numpy as np
import pytest

from gcg import elliptic, parabolic
from gcg.core import dual_gap
from gcg.pde import slice_sq_norms

from helpers import sample_feasible

EPS = np.finfo(float).eps


def bound(n: int) -> float:
    return (n + 2) * EPS


def old_dot(w: float, x: np.ndarray, y: np.ndarray) -> float:
    """The replaced formula: a per-node weight array against x * y."""
    return float(np.dot(np.full(x.size, w), x * y))


def old_slice_dots(w: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The replaced slice formula: x * y of every slice against h**dim per node."""
    return (x * y) @ np.full(x.shape[1], w)


def reference(w: float, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """w * fsum(x_i y_i) and the sum of absolute terms w * sum |x_i y_i|."""
    terms = (x * y).tolist()
    return w * math.fsum(terms), w * math.fsum(map(abs, terms))


def assert_parity(new: float, old: float, ref: float, scale: float, n: int) -> None:
    assert abs(new - ref) <= bound(n) * scale
    assert abs(old - ref) <= bound(n) * scale


def nonlocals(fn) -> dict:
    """The variables a closure reads from the function that built it."""
    return inspect.getclosurevars(fn).nonlocals


def build_segment(prob):
    """prob, a random feasible u, f(u) and its gradient, the residual at u,
    v = lmo(gradient), phi on [u, v] and dy = S (v - u)."""
    u = sample_feasible(prob, np.random.default_rng(7))
    f_u, grad = prob.f_and_grad(u)
    resid = prob._memo[1] - prob.target.values
    v = prob.lmo(grad)
    phi = prob.line_objective(u, v)
    dy = prob._memo[2][2]
    return prob, u, f_u, grad, resid, v, phi, dy


@pytest.fixture(scope="module")
def ex1_segment():
    return build_segment(elliptic.make_example("stadler-ex1", 64))


@pytest.fixture(scope="module")
def heat_segment():
    return build_segment(parabolic.make_example("parabolic-ex", 32, 500))


@pytest.fixture(params=["ex1", "heat"])
def segment(request):
    return request.getfixturevalue(f"{request.param}_segment")


def test_tracking_terms(segment):
    # f = 0.5 w dot(r, r), f1 = w dot(r, dy), f2 = w dot(dy, dy)
    prob, u, f_u, _, resid, _, phi, dy = segment
    w, n = u.weight, u.size
    terms = nonlocals(phi)
    assert terms["f0"] == f_u
    for new, x, y, half in (
        (f_u, resid, resid, 0.5),
        (terms["f1"], resid, dy, 1.0),
        (terms["f2"], dy, dy, 1.0),
    ):
        ref, scale = reference(half * w, x, y)
        assert_parity(new, half * old_dot(w, x, y), ref, scale, n)
        assert new == half * w * float(np.dot(x, y))


def test_dual_gap(segment):
    prob, u, _, grad, _, v, _, _ = segment
    g_u, g_v = prob.g_eval(u), prob.g_eval(v)
    du = u.values - v.values
    new = dual_gap(u, grad, g_u, v, g_v)
    old = old_dot(grad.weight, grad.values, du) + (g_u - g_v)
    ref, scale = reference(grad.weight, grad.values, du)
    assert new > 0.0
    assert_parity(new, old, ref + (g_u - g_v), scale + abs(g_u) + abs(g_v), u.size)


def test_elliptic_l1_and_probe(ex1_segment):
    prob, u, _, _, _, v, phi, _ = ex1_segment
    w, n, ones = u.weight, u.size, np.ones(u.size)
    for x in (u.values, v.values):
        ref, scale = reference(w, np.abs(x), ones)
        old = old_dot(w, np.abs(x), ones)
        assert_parity(prob.dual_norm(u.with_values(x)), old, ref, scale, n)
    g_val = nonlocals(phi)["g_along"]
    du = v.values - u.values
    beta = prob.reg_beta
    for s in (0.0, 0.3, 0.99**7, 1.0):
        x = np.abs(u.values + s * du)
        ref, scale = reference(beta * w, x, ones)
        assert_parity(g_val(s), beta * old_dot(w, x, ones), ref, scale, n)
    # the probe at s = 0 gives the floats of g_eval, so phi(0) = j(u)
    rng = np.random.default_rng(11)
    for _ in range(32):
        x = sample_feasible(prob, rng)
        assert prob.g_along(x, du)(0.0) == prob.g_eval(x)


def test_parabolic_slice_norms_and_g_along(heat_segment):
    prob, u, _, _, _, v, phi, _ = heat_segment
    grid = prob.grid
    w, ns = grid.space.weight, grid.space.n_nodes
    u_sl = grid.as_slices(u.values)
    d_sl = grid.as_slices(v.values - u.values)
    quad = nonlocals(nonlocals(nonlocals(phi)["g_along"])["norms_along"])
    for x, y, new in (
        (u_sl, u_sl, slice_sq_norms(grid, u.values)),
        (u_sl, u_sl, quad["a0"]),
        (u_sl, d_sl, quad["a1"]),
        (d_sl, d_sl, quad["a2"]),
    ):
        old = old_slice_dots(w, x, y)
        assert new.shape == old.shape == (grid.nt,)
        for m in range(grid.nt):
            ref, scale = reference(w, x[m], y[m])
            assert_parity(new[m], old[m], ref, scale, ns)
