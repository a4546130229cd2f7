"""Smoke tests of the command-line scripts in scripts/: each runs in its own
process from a scratch working directory, exits 0 and prints its table."""

import json
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


def _check_ladder(tmp_path, rung_name, eigs, kernels):
    """Run the ladder on ``rung_name`` (three levels) with this tree on both
    sides and two repeats, and check each run's layer counts: ``eigs``
    pencil_eigs calls and ``kernels`` c_P computations."""
    src = str(Path(wellspectra.__file__).resolve().parents[1])
    lines = run_script(
        "shift_order_ladder.py", "--before", src, "--rungs", rung_name, "--repeats", "2",
        cwd=tmp_path,
    )
    assert lines[0].split() == [
        "rung", "tree", "scenario_s", "split_s", "factors", "mmd", "rss_mb", "digest"
    ]
    assert [line.split()[:2] for line in lines[1:]] == [
        [rung_name, "before"], [rung_name, "after"]
    ]
    rung = json.loads((tmp_path / "BENCH_shift_order.json").read_text())["rungs"][rung_name]
    assert rung["digest_equal"] and rung["reports_equal"]
    levels = 3
    for side in ("before", "after"):
        run = rung[side]
        assert run["violations"] == 0
        assert run["layers"]["splitting_counts"]["calls"] >= 6 * levels
        assert run["layers"]["classification"]["calls"] == levels
        assert run["layers"]["assembly"]["calls"] == levels
        assert run["layers"]["poisson_constant"]["calls"] == kernels
        assert run["layers"]["pencil_eigs"]["calls"] == eigs
        assert run["mmd_orderings"] == 2 * levels + 1
        assert run["import_s"] > 0
        for spread, key in [(run, "import_s"), (run, "scenario_s"), (run, "peak_rss_mb")] + [
            (layer, "s") for layer in run["layers"].values()
        ]:
            assert spread[f"{key}_min"] <= spread[key] <= spread[f"{key}_max"]


def test_shift_order_ladder(tmp_path):
    """At 9^3 both runs read the same counts and reports; the three levels
    (one plateau of the ball) compute the pinned spectrum, b and c_P once
    (two pencil_eigs calls: the pinned one and the one in b), each level
    classifies, assembles, orders its pinned block and its full pencil once,
    plus one box operator for the scenario, and every median (the import
    time among them) lies between its recorded minimum and maximum."""
    _check_ladder(tmp_path, "ball3d-9", eigs=2, kernels=1)


def test_shift_order_ladder_gauss3d(tmp_path):
    """The same on the 9^3 Gaussian well, whose levels share no plateau:
    each level is a run of one with its own pinned spectrum, b and c_P."""
    _check_ladder(tmp_path, "gauss3d-9", eigs=6, kernels=3)
