"""The benchmark's checks accept correct `gcg run` outputs and reject wrong ones.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py

Each wrong answer is a copy of a correct output with one defect: a control
moved off the solution, an L_est off by 1e-6 relative, or a history with one
ascent.  Small instances keep the solves to a few seconds.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-8


def solve(out_dir: Path, *args: str) -> Path:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    subprocess.run(
        [sys.executable, "-m", "gcg", "run", *args, "--tol", str(TOL), "--out-dir", str(out_dir)],
        check=True,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    return out_dir


@pytest.fixture(scope="module")
def elliptic_out(tmp_path_factory):
    return solve(tmp_path_factory.mktemp("ex3"), "--problem", "stadler-ex3", "--n", "16")


@pytest.fixture(scope="module")
def parabolic_out(tmp_path_factory):
    return solve(
        tmp_path_factory.mktemp("heat"), "--problem", "parabolic-ex", "--n", "12", "--nt", "40"
    )


def altered(src: Path, dst: Path, name: str, edit) -> Path:
    shutil.copytree(src, dst)
    path = dst / name
    path.write_text(edit(path.read_text()))
    return dst


def move_control(text: str, node: int, factor: float) -> str:
    lines = text.splitlines()
    value = float(lines[1 + node])
    lines[1 + node] = repr(value * factor if value else 0.5)
    return "\n".join(lines) + "\n"


def test_correct_outputs_pass(elliptic_out, parabolic_out):
    assert checks.check_elliptic("stadler-ex3", elliptic_out, TOL) == []
    assert checks.check_parabolic(parabolic_out, TOL) == []


def test_moved_elliptic_control_fails(elliptic_out, tmp_path):
    node = 16 * 8 + 8
    out = altered(elliptic_out, tmp_path / "o", "control.txt", lambda t: move_control(t, node, 0.9))
    fails = checks.check_elliptic("stadler-ex3", out, TOL)
    assert any("recomputed" in msg for msg in fails), fails


def test_moved_parabolic_control_fails(parabolic_out, tmp_path):
    node = 20 * 144 + 70
    out = altered(parabolic_out, tmp_path / "o", "control.txt", lambda t: move_control(t, node, 0.9))
    fails = checks.check_parabolic(out, TOL)
    assert any("recomputed" in msg for msg in fails), fails


def test_lipschitz_estimate_off_by_1e6_relative_fails(elliptic_out, tmp_path):
    def edit(text):
        lines = text.splitlines()
        for i, line in enumerate(lines):
            key, _, value = line.partition(" = ")
            if key == "L_est":
                lines[i] = f"L_est = {float(value) * (1.0 + 1e-6)!r}"
        return "\n".join(lines) + "\n"

    out = altered(elliptic_out, tmp_path / "o", "diagnostics.txt", edit)
    fails = checks.check_elliptic("stadler-ex3", out, TOL)
    assert any("L_est" in msg for msg in fails), fails


def test_history_with_one_ascent_fails(elliptic_out, tmp_path):
    def edit(text):
        lines = text.splitlines()
        prev, row = lines[3].split(","), lines[4].split(",")
        row[1] = repr(float(prev[1]) * (1.0 + 1e-9))
        lines[4] = ",".join(row)
        return "\n".join(lines) + "\n"

    out = altered(elliptic_out, tmp_path / "o", "history.csv", edit)
    fails = checks.check_elliptic("stadler-ex3", out, TOL)
    assert any("j rises at k=3" in msg for msg in fails), fails
