#!/usr/bin/env python3
"""Per-layer ladder of one or two program trees, written as JSON.

    python3 scripts/shift_order_ladder.py [--before OLD/src] [--after src] \
        [--rungs levels-2d,ball3d-17,ball3d-25,ball3d-33] [--seed 7] \
        [--repeats 5] [--route rule] [--out BENCH_shift_order.json] [--append]

A rung is one scenario config built from perfbench/workloads.py:
``levels-2d`` (the 2D three-well landscape with 32 levels), ``ball3d-R``
(the 3D ball well at R^3, whose three levels share one plateau) or
``gauss3d-R`` (the ball3d-R config edited to a Gaussian well of width 0.8
at levels -4, -7 and -10, on which no two levels share a plateau) or
``offgauss3d-R`` (gauss3d-R with its centre moved to (0.3, 0.1, -0.2), off
every mirror plane and every diagonal, so that its group is {id}).  Four
kinds of rung run the box layer alone, counted by one ``BoxOperator`` at
the config's levels: ``box3d-R-RADIUS``, the ball3d-R well with its radius
set to RADIUS, at its three levels; ``spread3d-R``, the ball3d-R config with
two balls of radius 0.3 and depth 60 centred at (-1.5)^3 and (1.5)^3 in
place of its ball, a compact well whose bounding box is nearly the whole
box; ``lattice3d-R-RADIUS``, the ball3d-R config with 64 balls of radius
RADIUS and depth 60, centred on the lattice {-1.35, -0.45, 0.45, 1.35}^3,
in place of its ball, a well that occupies most coordinates of every axis;
and ``band3d-R``, a band-limited random landscape at R^3 (seeded by
--seed, cutoff 3, amplitude 300) at six levels from -150 to -20.  With
seed 7, V < 0 on about 40 % of the box, so the box takes the sparse route,
and at 25^3 it holds up to 98 bound states.
Each (tree, rung) run is a fresh process that imports wellspectra from the
tree, wraps ten layers at their import sites, the 3D sweep point's
``PinnedSpectrum.schur_form`` and the box operator's construction and
public methods (``count_below``, and in an older tree the method that
counts the levels; outermost calls only), and runs the scenario, or the
box, once.  The trees alternate, before first.  Per layer it records
calls and inclusive wall time; ``poisson_matrix`` and
``pinned_schur_form`` also run inside ``splitting_counts``, and
``pencil_eigs`` inside ``estimate_b``.
Per run it records:

* the wall time of the worker's ``from wellspectra import ...`` (numpy is
  loaded by then);
* the scenario wall time, and its exit code as the command line would
  give it: 0, 1 on a violation, or 2 when the program raised one of its own
  errors (``SizeCap`` among them), named in ``error`` (the digest and the
  reports are then None);
* the symmetry group the first pinned spectrum was solved in:
  ``group_order``, and the orders of its sectors of the interior and of
  the boundary (``interior_sectors``, ``boundary_sectors``); order 1, with
  one sector each of |I| and |B|, for G = {id} and for a spectrum passed
  no sectors (1D and 2D levels, and every level of a tree without
  sectors), and None on a box-only rung;
* the factorizations by path (``Factorization.path``);
* the route the box operator took (``BoxOperator.route``; "sparse" for a
  tree that has only that route);
* the SuperLU minimum-degree (MMD_AT_PLUS_A) orderings;
* peak RSS (the process's ru_maxrss);
* the CPU clock ticks (utime + stime, from /proc) that the threads started
  by ``import numpy``, numpy's OpenBLAS pool, spent during the scenario
  (``numpy_pool_ticks``; ``numpy_pool_threads`` of them, 0 without /proc);
* the digest of the integer CSV columns (perfbench's ``rows_digest``);
* a SHA-256 of the CSV and JSON report bytes; on a box-only rung the box
  counts stand in for the digest and the reports.

Beside each tree's runs it records ``src_lines``, the lines of the ``*.py``
files under the tree.

``--route birman-schwinger`` or ``--route sparse`` forces that box route
in a tree that has the route rule (``schrodinger.compact_well``), and the
rung is then recorded as ``RUNG@ROUTE``.  ``--append`` adds the rungs to
the rungs already in ``--out``.

With ``--repeats N`` (5 by default) every time, the peak RSS and the pool
ticks are the median of N runs, with their minimum and maximum beside them
(``s_min``, ``s_max`` per layer; ``scenario_s_min``, ``peak_rss_mb_max``
and so on per run; ``import_s`` likewise); counts and digests come from the
last run.
"""

import argparse
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

_TASKS = "/proc/self/task"
_before_numpy = set(os.listdir(_TASKS)) if os.path.isdir(_TASKS) else None
import numpy  # noqa: E402,F401  (its OpenBLAS thread pool starts here)

#: the threads that ``import numpy`` started: numpy's OpenBLAS pool
NUMPY_POOL = [] if _before_numpy is None else sorted(set(os.listdir(_TASKS)) - _before_numpy)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import scipy  # noqa: E402
from workloads import ball3d_config, levels2d_config, rows_digest  # noqa: E402

#: layer label -> (wellspectra module, function)
LAYERS = {
    "classification": ("assemble", "classify_nodes"),
    "assembly": ("assemble", "assemble_pencil"),
    "pencil_eigs": ("eigcount", "pencil_eigs"),
    "poisson_matrix": ("a2r", "poisson_matrix"),
    "splitting_counts": ("a2r", "splitting_counts"),
    "reduction_check": ("schrodinger", "reduction_check"),
    "poisson_constant": ("a2r", "estimate_poisson_constant"),
    "two_infinity_norm": ("eigcount", "two_infinity_norm"),
    "boundary_measures": ("a2r", "boundary_measures"),
    "estimate_b": ("bounds", "estimate_b"),
    "pinned_schur_form": ("a2r", "PinnedSpectrum.schur_form"),
}
DEFAULT_RUNGS = "levels-2d,ball3d-17,ball3d-25,ball3d-33"


#: ball3d -> gauss3d: a 3D well on which no two levels share a plateau
GAUSS3D_EDITS = {
    "family = ball_well": "family = gaussian_well",
    "radius = 1.0": "width = 0.8",
    "values = -0.5, -2.0, -6.0": "values = -4.0, -7.0, -10.0",
    "prefix = ball3d": "prefix = gauss3d",
}

#: ball3d -> offgauss3d: gauss3d centred off every mirror plane and diagonal
OFFGAUSS3D_EDITS = {
    **GAUSS3D_EDITS,
    "center = 0, 0, 0": "center = 0.3, 0.1, -0.2",
    "prefix = ball3d": "prefix = offgauss3d",
}

#: ball3d -> band3d: a landscape whose box holds many bound states
BAND3D_EDITS = {
    "family = ball_well\ncenter = 0, 0, 0\nradius = 1.0\ndepth = 12.0":
        "family = band_limited_random\nseed = {seed}\ncutoff = 3\namplitude = 300.0",
    "values = -0.5, -2.0, -6.0": "values = -150.0, -100.0, -60.0, -40.0, -30.0, -20.0",
    "prefix = ball3d": "prefix = band3d",
}

#: ball3d -> spread3d: a compact well whose bounding box is nearly the box,
#: two radius-0.3 balls in opposite corners (braces doubled for str.format)
SPREAD3D_EDITS = {
    "family = ball_well\ncenter = 0, 0, 0\nradius = 1.0\ndepth = 12.0":
        'family = multi_well\nwells = [{{"name": "ball_well", "center": [-1.5, -1.5, -1.5], '
        '"radius": 0.3, "depth": 60.0}}, {{"name": "ball_well", "center": [1.5, 1.5, 1.5], '
        '"radius": 0.3, "depth": 60.0}}]',
    "prefix = ball3d": "prefix = spread3d",
}

#: ball3d -> lattice3d: the centres of its balls on each axis
LATTICE3D_CENTRES = (-1.35, -0.45, 0.45, 1.35)

#: rungs that count the box operator alone
BOX_RUNGS = ("box3d", "band3d", "spread3d", "lattice3d")


def rung_config(rung: str, seed: int) -> str:
    if rung == "levels-2d":
        return levels2d_config(seed)
    kind, _, resolution = rung.partition("-")
    resolution, _, radius = resolution.partition("-")
    if (
        kind not in ("ball3d", "gauss3d", "offgauss3d", "box3d", "band3d", "spread3d",
                     "lattice3d")
        or not resolution.isdigit()
        or bool(radius) != (kind in ("box3d", "lattice3d"))
    ):
        raise SystemExit(
            f"unknown rung {rung!r}: use levels-2d, ball3d-R, gauss3d-R, offgauss3d-R, "
            "box3d-R-RADIUS, band3d-R, spread3d-R or lattice3d-R-RADIUS"
        )
    text = ball3d_config(seed, resolution=int(resolution))
    if kind == "box3d":
        return text.replace("radius = 1.0", f"radius = {float(radius)!r}")
    if kind == "lattice3d":
        wells = [
            {"name": "ball_well", "center": list(centre), "radius": float(radius), "depth": 60.0}
            for centre in itertools.product(LATTICE3D_CENTRES, repeat=3)
        ]
        return text.replace("prefix = ball3d", "prefix = lattice3d").replace(
            "family = ball_well\ncenter = 0, 0, 0\nradius = 1.0\ndepth = 12.0",
            f"family = multi_well\nwells = {json.dumps(wells)}",
        )
    edits = {
        "gauss3d": GAUSS3D_EDITS, "offgauss3d": OFFGAUSS3D_EDITS, "band3d": BAND3D_EDITS,
        "spread3d": SPREAD3D_EDITS,
    }
    for old, new in edits.get(kind, {}).items():
        if old not in text:
            raise SystemExit(f"ball3d config has no {old!r} to edit into {kind}")
        text = text.replace(old, new.format(seed=seed))
    return text


def _timed(fn, total, active):
    """``fn``, adding the calls and wall time of its outermost calls to
    ``total``; a call made while ``active`` (one list per total, shared by
    its wrappers) is not empty runs inside another and is not counted."""

    def wrapper(*args, **kwargs):
        if active:
            return fn(*args, **kwargs)
        active.append(True)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            active.pop()
            total["calls"] += 1
            total["s"] += time.perf_counter() - start

    return wrapper


def numpy_pool_ticks() -> int:
    """CPU clock ticks (utime + stime) that numpy's pool threads have used."""
    total = 0
    for tid in NUMPY_POOL:
        with open(f"{_TASKS}/{tid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total


def _box_counts(schrodinger, scenario, config: Path) -> list:
    """The box operator's outcome at each level of ``config``: a count, or
    "on-spectrum"."""
    from wellspectra.errors import OnEigenvalue
    from wellspectra.model import build_potential

    cfg = scenario.load_config(config)
    box = schrodinger.BoxOperator(build_potential(cfg.family, cfg.grid), cfg.levels)
    outcomes = []
    for e in cfg.levels:
        try:
            outcomes.append(box.count_below(e))
        except OnEigenvalue:
            outcomes.append("on-spectrum")
    return outcomes


def measure(tree: str, rung: str, seed: int, route: str = "rule") -> dict:
    """One scenario run of ``rung`` (or one box count, on a box rung) with
    wellspectra imported from ``tree``, its box route forced to ``route``
    unless that is "rule"."""
    sys.path.insert(0, tree)
    start = time.perf_counter()
    from wellspectra import a2r, eigcount, scenario, schrodinger
    from wellspectra.errors import WellSpectraError

    imported = time.perf_counter() - start
    if route != "rule":
        if not hasattr(schrodinger, "compact_well"):
            raise SystemExit(f"{tree} has no box route rule to force")
        schrodinger.compact_well = lambda *args: route == "birman-schwinger"
    totals = {label: {"calls": 0, "s": 0.0} for label in [*LAYERS, "box"]}
    active = {label: [] for label in totals}
    for label, (module_name, attr) in LAYERS.items():
        module = importlib.import_module(f"wellspectra.{module_name}")
        owner, _, attr = attr.rpartition(".")
        if owner:  # a method: wrapped on its class
            cls = getattr(module, owner)
            setattr(cls, attr, _timed(getattr(cls, attr), totals[label], active[label]))
            continue
        original = getattr(module, attr)
        wrapper = _timed(original, totals[label], active[label])
        for name, module in list(sys.modules.items()):
            if name.startswith("wellspectra") and getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)

    boxes = []
    box_class = schrodinger.BoxOperator
    real_box = box_class.__init__

    def box_init(self, *args, **kwargs):
        real_box(self, *args, **kwargs)
        boxes.append(self)

    box_class.__init__ = _timed(box_init, totals["box"], active["box"])
    for attr, fn in list(vars(box_class).items()):  # an older tree counts after construction
        if callable(fn) and not attr.startswith("_"):
            setattr(box_class, attr, _timed(fn, totals["box"], active["box"]))

    paths = Counter()
    orderings = Counter()
    real_init, real_splu = eigcount.Factorization.__init__, eigcount.splu

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        paths[self.path] += 1

    def counting_splu(A, *args, **kwargs):
        orderings[kwargs.get("permc_spec")] += 1
        return real_splu(A, *args, **kwargs)

    eigcount.Factorization.__init__ = counting_init
    eigcount.splu = counting_splu

    sectors = {"group_order": None, "interior_sectors": None, "boundary_sectors": None}
    real_spectrum = a2r.PinnedSpectrum.__init__

    def spectrum_init(self, p, *args, **kwargs):
        real_spectrum(self, p, *args, **kwargs)
        if sectors["group_order"] is None:
            found = kwargs.get("sectors")
            sectors["group_order"] = 1 if found is None else found.group_order
            sectors["interior_sectors"] = (
                [p.n_interior] if found is None else list(found.interior_orders)
            )
            sectors["boundary_sectors"] = (
                [p.n_boundary] if found is None else list(found.boundary_orders)
            )

    a2r.PinnedSpectrum.__init__ = spectrum_init
    digest = reports = violations = error = None
    exit_code = 0
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "rung.cfg"
        config.write_text(rung_config(rung, seed))
        ticks = numpy_pool_ticks()
        start = time.perf_counter()
        try:
            if rung.partition("-")[0] in BOX_RUNGS:
                counts = _box_counts(schrodinger, scenario, config)
                wall = time.perf_counter() - start
                digest = json.dumps(counts, separators=(",", ":"))
                reports = digest.encode()
            else:
                result = scenario.run_scenario(config, out_dir=tmp)
                wall = time.perf_counter() - start
                digest = rows_digest(result.csv_path.read_text())
                reports = result.csv_path.read_bytes() + result.json_path.read_bytes()
                violations = len(result.violations)
                exit_code = result.exit_code
        except WellSpectraError as exc:  # the command line's exit code 2
            wall = time.perf_counter() - start
            error, exit_code = f"{type(exc).__name__}: {exc}", 2
        ticks = numpy_pool_ticks() - ticks
    return {
        "import_s": imported,
        "scenario_s": wall,
        "exit_code": exit_code,
        "error": error,
        **sectors,
        "layers": totals,
        "box_route": getattr(boxes[0], "route", "sparse") if boxes else None,
        "factorizations": dict(sorted(paths.items())),
        "mmd_orderings": orderings["MMD_AT_PLUS_A"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy_pool_threads": len(NUMPY_POOL),
        "numpy_pool_ticks": ticks,
        "digest": digest,
        "reports_sha256": None if reports is None else hashlib.sha256(reports).hexdigest(),
        "violations": violations,
    }


def src_lines(tree: str) -> int:
    """The lines of the ``*.py`` files under ``tree``."""
    return sum(len(path.read_text().splitlines()) for path in Path(tree).rglob("*.py"))


def run_worker(tree: str, rung: str, seed: int, route: str) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--worker", tree, rung, "--seed", str(seed),
         "--route", route],
        capture_output=True,
        text=True,
        check=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    return json.loads(done.stdout.splitlines()[-1])


def _spread(into: dict, key: str, values: list) -> None:
    """Write the median of ``values`` at ``key``, and their minimum and
    maximum at ``key_min`` and ``key_max``."""
    into[key] = statistics.median(values)
    into[f"{key}_min"], into[f"{key}_max"] = min(values), max(values)


def median_run(runs: list) -> dict:
    """The last run, with every time, the peak RSS and the pool ticks
    replaced by the median over ``runs``, and their minimum and maximum
    beside it."""
    out = json.loads(json.dumps(runs[-1]))
    for key in ("import_s", "scenario_s", "peak_rss_mb", "numpy_pool_ticks"):
        _spread(out, key, [r[key] for r in runs])
    for label in out["layers"]:
        _spread(out["layers"][label], "s", [r["layers"][label]["s"] for r in runs])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", help="src directory of the tree to compare against")
    ap.add_argument("--after", default=str(ROOT / "src"), help="src directory to measure")
    ap.add_argument("--rungs", default=DEFAULT_RUNGS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--route", default="rule", choices=["rule", "birman-schwinger", "sparse"],
                    help="box route of the --after tree (the --before tree keeps its own)")
    ap.add_argument("--out", default="BENCH_shift_order.json")
    ap.add_argument("--append", action="store_true", help="add the rungs to those in --out")
    ap.add_argument("--worker", nargs=2, metavar=("TREE", "RUNG"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(*args.worker, args.seed, args.route)))
        return 0

    trees = {"before": args.before, "after": args.after}
    trees = {side: str(Path(tree).resolve()) for side, tree in trees.items() if tree}
    routes = {"before": "rule", "after": args.route}
    out = Path(args.out)
    rungs = json.loads(out.read_text())["rungs"] if args.append and out.exists() else {}
    lines = {side: src_lines(tree) for side, tree in trees.items()}
    measured = []
    for rung in args.rungs.split(","):
        key = rung if args.route == "rule" else f"{rung}@{args.route}"
        measured.append(key)
        runs = {side: [] for side in trees}
        for _ in range(args.repeats):
            for side, tree in trees.items():
                runs[side].append(run_worker(tree, rung, args.seed, routes[side]))
        rungs[key] = {side: {**median_run(r), "src_lines": lines[side]} for side, r in runs.items()}
        if len(trees) == 2:
            before, after = rungs[key]["before"], rungs[key]["after"]
            rungs[key]["digest_equal"] = before["digest"] == after["digest"]
            rungs[key]["reports_equal"] = before["reports_sha256"] == after["reports_sha256"]

    doc = {
        "what": "import time, per-layer wall time (inclusive), box route, factorizations "
        "by path, minimum-degree orderings, peak RSS, numpy's BLAS pool ticks and integer "
        "digest of one scenario run (or box count) per tree and rung",
        "seed": args.seed,
        "repeats": args.repeats,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "scipy": scipy.__version__,
        },
        "rungs": rungs,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")

    width = max(len(key) for key in ["rung", *measured]) + 2
    print(f"{'rung':<{width}}{'tree':<8}{'scenario_s':>11}{'split_s':>9}{'box_s':>8}"
          f"{'factors':>9}{'mmd':>6}{'rss_mb':>8}  route  digest")
    for key in measured:
        for side in trees:
            r = rungs[key][side]
            print(f"{key:<{width}}{side:<8}{r['scenario_s']:>11.3f}"
                  f"{r['layers']['splitting_counts']['s']:>9.3f}"
                  f"{r['layers']['box']['s']:>8.3f}"
                  f"{sum(r['factorizations'].values()):>9}{r['mmd_orderings']:>6}"
                  f"{r['peak_rss_mb']:>8.1f}  {r['box_route']}  "
                  f"{r['digest'][:12] if r['digest'] else 'exit %d' % r['exit_code']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
