"""Smoke tests of the command-line scripts in scripts/: each runs in its own
process from a scratch working directory, exits 0 and prints its table."""

import os
import subprocess
import sys
from pathlib import Path

import wellspectra

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    src = str(Path(wellspectra.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_refinement_study(tmp_path):
    lines = run_script("refinement_study.py", "--coarse", "9", "--fine", "11", cwd=tmp_path)
    assert lines[0].split() == [
        "point", "lhs_c", "lhs_f", "rhs_c", "rhs_f", "margin_c", "margin_f", "safe"
    ]
    points = [line.split()[0] for line in lines[1:]]
    assert points == [
        "count(lam=0.9)", "count(lam=1.8)", "trace(t=0.5)", "trace(t=2)",
        "boundary(gamma=1)", "boundary(gamma=4)",
    ]
    assert all(line.split()[-1] == "yes" for line in lines[1:])


def test_weyl_ratio(tmp_path):
    lines = run_script("weyl_ratio.py", cwd=tmp_path)
    assert lines[0].split() == ["mu", "N(mu)", "C_n", "|Q|", "mu^(n/2)", "ratio"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["10", "100", "1000", "10000"]
    ratios = [float(row[-1]) for row in rows]
    assert ratios == sorted(ratios) and ratios[-1] < 1.0


def test_run_benchmark(tmp_path):
    lines = run_script("run_benchmark.py", cwd=tmp_path)
    assert lines == [
        "ball_well_3d.cfg: 18 rows -> out/ball3d_counts.csv [ok]",
        "gaussian_well_2d.cfg: 24 rows -> out/gauss2d_counts.csv [ok]",
        "empty_level_1d.cfg: 1 rows -> out/empty1d_counts.csv [ok]",
    ]
    for prefix in ("ball3d", "gauss2d", "empty1d"):
        assert (tmp_path / "out" / f"{prefix}_counts.csv").is_file()
        assert (tmp_path / "out" / f"{prefix}_bounds.json").is_file()
