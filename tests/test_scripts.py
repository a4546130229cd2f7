"""Smoke tests of the command-line scripts in scripts/: each runs in its own
process from a scratch working directory, exits 0 and prints its table."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wellspectra

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


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


def _check_ladder(tmp_path, rung_name, eigs, kernels, route, sectors):
    """Run the ladder on ``rung_name`` (three levels) with this tree on both
    sides and two repeats, and check each run's layer counts: ``eigs``
    pencil_eigs calls, ``kernels`` c_P computations (one per run of
    levels), and the box ``route``, which orders the box by minimum degree
    on the sparse route only.  Only a run's first level sweeps its six
    points, and each 3D sweep point forms S(lam) from the pinned
    eigenpairs, inside its splitting count.  ``sectors`` is the order of
    the well's group and the orders of the first level's interior and
    boundary sectors, which each run records; it exits 0 with no error.
    Each side records the lines of the tree's *.py files."""
    src = str(Path(wellspectra.__file__).resolve().parents[1])
    src_lines = sum(len(path.read_text().splitlines()) for path in Path(src).rglob("*.py"))
    lines = run_script(
        "shift_order_ladder.py", "--before", src, "--rungs", rung_name, "--repeats", "2",
        cwd=tmp_path,
    )
    assert lines[0].split() == [
        "rung", "tree", "scenario_s", "split_s", "box_s", "factors", "mmd", "rss_mb",
        "route", "digest",
    ]
    assert [line.split()[:2] for line in lines[1:]] == [
        [rung_name, "before"], [rung_name, "after"]
    ]
    rung = json.loads((tmp_path / "BENCH_shift_order.json").read_text())["rungs"][rung_name]
    assert rung["digest_equal"] and rung["reports_equal"]
    levels, runs = 3, kernels
    for side in ("before", "after"):
        run = rung[side]
        assert run["src_lines"] == src_lines
        assert run["violations"] == 0 and run["exit_code"] == 0 and run["error"] is None
        group_order, interior, boundary = sectors
        assert run["group_order"] == group_order and len(interior) == group_order
        assert (run["interior_sectors"], run["boundary_sectors"]) == (interior, boundary)
        assert run["layers"]["splitting_counts"]["calls"] == 6 * runs
        pinned, split = run["layers"]["pinned_schur_form"], run["layers"]["splitting_counts"]
        assert pinned["calls"] == split["calls"] and pinned["s"] <= split["s"]
        assert run["layers"]["classification"]["calls"] == levels
        assert run["layers"]["assembly"]["calls"] == levels
        assert run["layers"]["poisson_constant"]["calls"] == kernels
        assert run["layers"]["pencil_eigs"]["calls"] == eigs
        assert run["box_route"] == route
        assert run["layers"]["box"]["calls"] >= 1
        assert run["mmd_orderings"] == levels + runs + (route == "sparse")
        assert run["import_s"] > 0
        for spread, key in [(run, "import_s"), (run, "scenario_s"), (run, "peak_rss_mb")] + [
            (layer, "s") for layer in run["layers"].values()
        ]:
            assert spread[f"{key}_min"] <= spread[key] <= spread[f"{key}_max"]


def test_shift_order_ladder(tmp_path):
    """At 9^3 both runs read the same counts and reports; the three levels
    (one plateau of the ball) compute the pinned spectrum, b and c_P once
    (nine pencil_eigs calls: one per sector of the mirror-exact ball's group
    Z_2^3, whose sectors split |I| = 27 and |B| = 54, and the one in b),
    and the sweep once, at the first level's six points; each level classifies,
    assembles and orders its full pencil once, the first level alone
    orders its pinned block (later levels factor none), the compact
    ball's box operator takes the Birman-Schwinger route and
    orders nothing, and every median (the import time among them) lies
    between its recorded minimum and maximum."""
    _check_ladder(
        tmp_path, "ball3d-9", eigs=8 + 1, kernels=1, route="birman-schwinger",
        sectors=(8, [8, 4, 4, 2, 4, 2, 2, 1], [12, 8, 8, 5, 8, 5, 5, 3]),
    )


def test_shift_order_ladder_gauss3d(tmp_path):
    """The same on the 9^3 Gaussian well, whose levels share no plateau:
    each level is a run of one with its own pinned spectrum (in the 8
    sectors of the mirror-exact well's group), b and c_P, and the Gaussian
    fills the box, whose operator takes the sparse route and is ordered
    once for the scenario."""
    _check_ladder(
        tmp_path, "gauss3d-9", eigs=3 * (8 + 1), kernels=3, route="sparse",
        sectors=(8, [17, 9, 9, 4, 9, 4, 4, 1], [15, 10, 10, 6, 10, 6, 6, 3]),
    )


def test_shift_order_ladder_offgauss3d(tmp_path):
    """The same on the 13^3 Gaussian centred off every mirror plane and
    every diagonal: its group is {id}, so each level's pinned spectrum is
    one sector, of |I| = 187 with |B| = 157 at the first level, solved with
    one pencil_eigs call beside b's."""
    _check_ladder(
        tmp_path, "offgauss3d-13", eigs=3 * (1 + 1), kernels=3, route="sparse",
        sectors=(1, [187], [157]),
    )


def test_shift_order_ladder_records_the_sectors_of_the_ball_at_25(tmp_path):
    """At 25^3 the ball's coordinates are not mirror-exact, and its group is
    the transposition x <-> y alone: the ladder records order 2, with
    |I| = 907 split into 494 + 413 and |B| = 426 into 223 + 203."""
    src = str(Path(wellspectra.__file__).resolve().parents[1])
    run_script(
        "shift_order_ladder.py", "--before", src, "--rungs", "ball3d-25", "--repeats", "1",
        cwd=tmp_path,
    )
    rung = json.loads((tmp_path / "BENCH_shift_order.json").read_text())["rungs"]["ball3d-25"]
    assert rung["digest_equal"] and rung["reports_equal"]
    for side in ("before", "after"):
        run = rung[side]
        assert (run["group_order"], run["interior_sectors"], run["boundary_sectors"]) == (
            2, [494, 413], [223, 203]
        )
        assert run["layers"]["pencil_eigs"]["calls"] == 2 + 1


def test_shift_order_ladder_box_rung(tmp_path):
    """A box3d rung counts the box alone.  Forced onto the sparse route, the
    9^3 ball's box gives the counts the route rule's Birman-Schwinger route
    gives, and the rung is recorded under its forced route, appended to the
    rungs already in the file."""
    src = str(Path(wellspectra.__file__).resolve().parents[1])
    out = tmp_path / "BENCH_shift_order.json"
    out.write_text(json.dumps({"rungs": {"earlier": {}}}))
    lines = run_script(
        "shift_order_ladder.py", "--before", src, "--rungs", "box3d-9-1.0", "--repeats", "1",
        "--route", "sparse", "--append", cwd=tmp_path,
    )
    assert [line.split()[0] for line in lines[1:]] == ["box3d-9-1.0@sparse"] * 2
    rungs = json.loads(out.read_text())["rungs"]
    assert list(rungs) == ["earlier", "box3d-9-1.0@sparse"]
    rung = rungs["box3d-9-1.0@sparse"]
    assert rung["before"]["box_route"] == "birman-schwinger"
    assert rung["after"]["box_route"] == "sparse"
    assert rung["digest_equal"] and rung["after"]["digest"].startswith("[")
    assert rung["after"]["exit_code"] == 0 and rung["after"]["group_order"] is None
    assert rung["after"]["mmd_orderings"] == 1 and rung["before"]["mmd_orderings"] == 0


def test_shift_order_ladder_band_rung(tmp_path):
    """A band3d rung counts the box of a band-limited landscape alone: at
    9^3 its six levels each hold bound states, so the box factors every
    level.  The route rule sends its well (|W| = 138 of 343 nodes) to the
    Birman-Schwinger route; forced onto the sparse route, the box orders
    once, factors every level as well, and reads the same counts."""
    src = str(Path(wellspectra.__file__).resolve().parents[1])
    lines = run_script(
        "shift_order_ladder.py", "--before", src, "--rungs", "band3d-9", "--repeats", "1",
        "--route", "sparse", cwd=tmp_path,
    )
    assert [line.split()[0] for line in lines[1:]] == ["band3d-9@sparse"] * 2
    rungs = json.loads((tmp_path / "BENCH_shift_order.json").read_text())["rungs"]
    rung = rungs["band3d-9@sparse"]
    assert rung["digest_equal"] and rung["reports_equal"]
    counts = json.loads(rung["after"]["digest"])
    assert len(counts) == 6 and min(counts) >= 1 and counts == sorted(counts)
    for side, route, orderings in (("before", "birman-schwinger", 0), ("after", "sparse", 1)):
        run = rung[side]
        assert run["box_route"] == route and run["mmd_orderings"] == orderings
        assert sum(run["factorizations"].values()) == 6
        assert run["layers"]["box"]["calls"] >= 1 and run["violations"] is None


@pytest.mark.parametrize(
    "rung_name, counts",
    [
        ("spread3d-9", [2, 2, 2]),
        ("lattice3d-15-0.3", [175, 169, 117]),
        ("lattice3d-13-0.3", [147, 135, 104]),
    ],
)
def test_shift_order_ladder_spread_and_lattice_rungs(tmp_path, rung_name, counts):
    """A spread3d rung counts the box of two small balls in opposite
    corners alone (at 9^3 each ball is one node), and a lattice3d rung that
    of 64 balls that span the box (at 15^3 with radius 0.3, 408 nodes).
    Each box takes the Birman-Schwinger route by the rule, and forced onto
    the sparse route it reads the same counts at the three levels.  At
    13^3 (h = 1/3) each lattice ball is a 2x2x2 cube whose shifted
    diagonal cancels at e = -6, so SuperLU's pivots there lie within the
    rank tolerance; the dense fallback reads the counts all the same."""
    src = str(Path(wellspectra.__file__).resolve().parents[1])
    run_script(
        "shift_order_ladder.py", "--before", src, "--rungs", rung_name, "--repeats", "1",
        "--route", "sparse", cwd=tmp_path,
    )
    rungs = json.loads((tmp_path / "BENCH_shift_order.json").read_text())["rungs"]
    rung = rungs[f"{rung_name}@sparse"]
    assert rung["digest_equal"] and json.loads(rung["after"]["digest"]) == counts
    for side, route in (("before", "birman-schwinger"), ("after", "sparse")):
        run = rung[side]
        assert run["box_route"] == route and sum(run["factorizations"].values()) == 3
        assert run["violations"] is None


def _assigned(path, name):
    """The literal value assigned to the module-level ``name`` in ``path``,
    read without importing the file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_traced_layers_name_callables_of_the_package():
    """Every layer that the benchmark traces (``TRACED``, "module.function")
    and that the ladder times (``LAYERS``, module and function or
    "Class.method") is a callable of wellspectra, a method looked up on its
    class, so that deleting or renaming one breaks this test and not a
    later measurement."""
    traced = _assigned(ROOT / "perfbench" / "worker.py", "TRACED")
    layers = _assigned(SCRIPTS / "shift_order_ladder.py", "LAYERS")
    names = [tuple(name.split(".", 1)) for name in traced] + list(layers.values())
    assert len(names) >= 20
    for module_name, attr in names:
        owner = importlib.import_module(f"wellspectra.{module_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"wellspectra.{module_name} has no {attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"wellspectra.{module_name}.{attr} is not callable"
