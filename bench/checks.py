"""Checks of `gcg run` outputs, computed without the `gcg` package.

The elliptic instances are recomputed with a DST-I inverse of the Dirichlet
5-point Laplacian and the nodewise threshold oracle; the parabolic instance
with implicit Euler sweeps, also diagonalised by DST-I, and the slicewise
ball oracle.  Each check returns a list of failure messages; an empty list
means the outputs passed.  Tolerances are fixed here, relative to the size
of the terms summed, and never to a stored copy of earlier output.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy import fft

# Floating-point slack for comparing two computations of the same sum:
# a relative 1e-12 of the summed magnitudes, far above rounding at these
# sizes (about 1e-15) and far below any real change in the control.
MATCH_RTOL = 1e-12
# The Lipschitz estimate is a maximum over columns of a closed form; the
# column scan in the program agrees with it to about 1e-14.
LIPSCHITZ_RTOL = 1e-9


# --- reading the outputs ---------------------------------------------------


def read_history(path) -> dict[str, np.ndarray]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    cols = {}
    for i, name in enumerate(header[:5]):
        cols[name] = np.array([float(r[i]) for r in rows])
    return cols


def read_control(path) -> tuple[list[str], np.ndarray]:
    lines = Path(path).read_text().splitlines()
    return lines[0].split(), np.array([float(x) for x in lines[1:] if x])


def read_diagnostics(path) -> dict[str, str]:
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


# --- DST-I diagonalisation of the Dirichlet stencil -------------------------


def _stencil_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues 4 sin(k pi / (2 (n+1)))**2 of tridiag(-1, 2, -1), k = 1..n."""
    k = np.arange(1, n + 1)
    return 4.0 * np.sin(k * np.pi / (2.0 * (n + 1))) ** 2


def laplacian_eigenvalues(n: int) -> np.ndarray:
    """(n, n) eigenvalues of the 2D 5-point stencil / h**2, in DST-I order."""
    h = 1.0 / (n + 1)
    mu = _stencil_eigenvalues(n)
    return (mu[:, None] + mu[None, :]) / h**2


def dst2(x: np.ndarray) -> np.ndarray:
    """Orthonormal 2D DST-I over the last two axes; it is its own inverse."""
    return fft.dstn(x, type=1, norm="ortho", axes=(-2, -1))


def inverse_laplacian(rhs: np.ndarray) -> np.ndarray:
    """Solve the Dirichlet 5-point system for (..., n, n) right-hand sides."""
    lam = laplacian_eigenvalues(rhs.shape[-1])
    return dst2(dst2(rhs) / lam)


def lipschitz_closed_form(n: int) -> float:
    """max_j [(S o S) Lambda**-2 (S o S)^T]_j / h**2 for the 2D stencil.

    That is max_j |K**-1 e_j|**2_mass / mass_j**2, the square of the scan
    constant c, with S the orthonormal DST-I matrix applied per axis.
    """
    h = 1.0 / (n + 1)
    s = fft.dst(np.eye(n), type=1, norm="ortho", axis=0)
    s2 = s * s
    inv_sq = laplacian_eigenvalues(n) ** -2.0
    col = s2 @ inv_sq @ s2.T
    return float(col.max()) / h**2


# --- the instances, restated from their definitions --------------------------


def _coords(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(x1, x2) on an (n, n) array; row index follows x2, column index x1."""
    axis = np.arange(1, n + 1) / (n + 1)
    x2, x1 = np.meshgrid(axis, axis, indexing="ij")
    return x1, x2


def elliptic_data(problem: str, n: int) -> dict[str, np.ndarray | float]:
    """Bounds, target (with any source folded in) and weight of an instance."""
    x1, x2 = _coords(n)
    if problem == "stadler-ex1":
        lower = np.full((n, n), -30.0)
        upper = np.full((n, n), 30.0)
        target = np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2) * np.exp(2 * x1) / 6.0
        beta = 1e-3
    elif problem == "stadler-ex3":
        lower = np.full((n, n), -10.0)
        upper = np.where(x1 <= 0.25, 0.0, -5.0 + 20.0 * x1)
        y_d = np.sin(4 * np.pi * x1) * np.cos(8 * np.pi * x2) * np.exp(2 * x1)
        source = 10.0 * np.cos(8 * np.pi * x1) * np.sin(8 * np.pi * x2)
        target = y_d - inverse_laplacian(source)
        beta = 2e-3
    else:
        raise ValueError(f"no elliptic recomputation for {problem!r}")
    return {"lower": lower, "upper": upper, "target": target, "beta": beta}


def elliptic_j_gap(problem: str, u: np.ndarray) -> tuple[float, float, float, float]:
    """(j, gap, j scale, gap scale) of the control u, an (n, n) array."""
    n = u.shape[0]
    d = elliptic_data(problem, n)
    mass = 1.0 / (n + 1) ** 2
    beta = d["beta"]
    resid = inverse_laplacian(u) - d["target"]
    p = inverse_laplacian(resid)
    v = np.where(p >= beta, d["lower"], np.where(p <= -beta, d["upper"], 0.0))
    f = 0.5 * mass * float(np.sum(resid**2))
    g_u = beta * mass * float(np.sum(np.abs(u)))
    g_v = beta * mass * float(np.sum(np.abs(v)))
    gap = mass * float(np.sum(p * (u - v))) + g_u - g_v
    gap_scale = mass * float(np.sum(np.abs(p * (u - v)))) + g_u + g_v
    return f + g_u, gap, f + g_u, gap_scale


HEAT = {"conductivity": 0.7, "reg_alpha": 0.0035, "ball_radius": 0.8, "horizon": 1.0}


def heat_target(n: int, nt: int) -> np.ndarray:
    x1, x2 = _coords(n)
    t = HEAT["horizon"] * np.arange(1, nt + 1) / nt
    spatial = np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2) * np.exp(2 * x1) / 6.0
    return np.sin(np.pi * t)[:, None, None] * spatial[None, :, :]


def _euler_sweep(rhs: np.ndarray, tau: float, backward: bool) -> np.ndarray:
    """(I + tau a A) x_m = x_{m-1} + tau rhs_m from a zero start, per mode."""
    n = rhs.shape[-1]
    decay = 1.0 + tau * HEAT["conductivity"] * laplacian_eigenvalues(n)
    modes = dst2(rhs)
    out = np.empty_like(modes)
    state = np.zeros(modes.shape[1:])
    order = range(modes.shape[0] - 1, -1, -1) if backward else range(modes.shape[0])
    for m in order:
        state = (state + tau * modes[m]) / decay
        out[m] = state
    return dst2(out)


def parabolic_j_gap(u: np.ndarray) -> tuple[float, float, float, float]:
    """(j, gap, j scale, gap scale) of the control u, an (nt, n, n) array."""
    nt, n = u.shape[0], u.shape[-1]
    tau = HEAT["horizon"] / nt
    h2 = 1.0 / (n + 1) ** 2
    alpha, radius = HEAT["reg_alpha"], HEAT["ball_radius"]
    resid = _euler_sweep(u, tau, backward=False) - heat_target(n, nt)
    p = _euler_sweep(resid, tau, backward=True)
    p_norms = np.sqrt(h2 * np.sum(p**2, axis=(1, 2)))
    active = (p_norms >= alpha) & (p_norms > 0.0)
    scale = np.where(active, -radius / np.where(p_norms > 0, p_norms, 1.0), 0.0)
    v = p * scale[:, None, None]
    u_norms = np.sqrt(h2 * np.sum(u**2, axis=(1, 2)))
    v_norms = np.sqrt(h2 * np.sum(v**2, axis=(1, 2)))
    f = 0.5 * tau * h2 * float(np.sum(resid**2))
    g_u = alpha * tau * float(u_norms.sum())
    g_v = alpha * tau * float(v_norms.sum())
    gap = tau * h2 * float(np.sum(p * (u - v))) + g_u - g_v
    gap_scale = tau * h2 * float(np.sum(np.abs(p * (u - v)))) + g_u + g_v
    return f + g_u, gap, f + g_u, gap_scale


# --- the checks --------------------------------------------------------------


def check_history(history: dict[str, np.ndarray], tol: float) -> list[str]:
    """Monotone descent, gap domination and the gap tolerance at the end."""
    fails = []
    j, gap = history["j"], history["gap"]
    ascents = np.flatnonzero(j[1:] > j[:-1])
    if ascents.size:
        fails.append(f"history: j rises at k={int(ascents[0]) + 1}")
    # gap_k >= j_k - j* >= j_k - j_final; slack for the rounding in j itself
    slack = 1e-12 * (abs(j[0]) + 1.0)
    below = np.flatnonzero(gap < (j - j[-1]) - slack)
    if below.size:
        fails.append(f"history: gap below j_k - j_final at k={int(below[0])}")
    if not gap[-1] <= tol:
        fails.append(f"history: final gap {gap[-1]!r} above tolerance {tol!r}")
    return fails


def _check_recomputed(label, j, gap, j_scale, gap_scale, diag, tol) -> list[str]:
    fails = []
    if not gap <= tol:
        fails.append(f"{label}: recomputed gap {gap!r} above tolerance {tol!r}")
    j_diag, gap_diag = float(diag["j_final"]), float(diag["gap_final"])
    if abs(j - j_diag) > MATCH_RTOL * j_scale:
        fails.append(f"{label}: recomputed j {j!r} differs from j_final {j_diag!r}")
    if abs(gap - gap_diag) > MATCH_RTOL * gap_scale:
        fails.append(f"{label}: recomputed gap {gap!r} differs from gap_final {gap_diag!r}")
    return fails


def check_elliptic(problem: str, out_dir, tol: float) -> list[str]:
    out_dir = Path(out_dir)
    diag = read_diagnostics(out_dir / "diagnostics.txt")
    history = read_history(out_dir / "history.csv")
    header, values = read_control(out_dir / "control.txt")
    n = int(header[0])
    u = values.reshape(n, n)
    d = elliptic_data(problem, n)

    fails = check_history(history, tol)
    if diag.get("status") != "converged":
        fails.append(f"elliptic: status {diag.get('status')!r}, not converged")
    if float(history["j"][-1]) != float(diag["j_final"]):
        fails.append("elliptic: history.csv and diagnostics.txt disagree on j_final")
    slack = 1e-12 * max(1.0, float(np.abs(d["lower"]).max()), float(np.abs(d["upper"]).max()))
    if np.any(u < d["lower"] - slack) or np.any(u > d["upper"] + slack):
        fails.append("elliptic: control leaves the box")
    fails += _check_recomputed("elliptic", *elliptic_j_gap(problem, u), diag, tol)

    l_ref = lipschitz_closed_form(n)
    l_est = float(diag["L_est"])
    if abs(l_est - l_ref) > LIPSCHITZ_RTOL * l_ref:
        fails.append(f"elliptic: L_est {l_est!r} differs from closed form {l_ref!r}")
    return fails


def check_parabolic(out_dir, tol: float) -> list[str]:
    out_dir = Path(out_dir)
    diag = read_diagnostics(out_dir / "diagnostics.txt")
    history = read_history(out_dir / "history.csv")
    header, values = read_control(out_dir / "control.txt")
    n, nt = int(header[0]), int(header[2])
    u = values.reshape(nt, n, n)

    fails = check_history(history, tol)
    if diag.get("status") != "converged":
        fails.append(f"parabolic: status {diag.get('status')!r}, not converged")
    if float(history["j"][-1]) != float(diag["j_final"]):
        fails.append("parabolic: history.csv and diagnostics.txt disagree on j_final")
    radius = HEAT["ball_radius"]
    norms = np.sqrt(np.sum(u**2, axis=(1, 2)) / (n + 1) ** 2)
    if np.any(norms > radius + 1e-12 * max(1.0, radius)):
        fails.append("parabolic: a control slice leaves the ball")
    fails += _check_recomputed("parabolic", *parabolic_j_gap(u), diag, tol)
    return fails
