#!/usr/bin/env python3
"""Per-layer ladder of one or two program trees, written as JSON.

    python3 scripts/shift_order_ladder.py [--before OLD/src] [--after src] \
        [--rungs levels-2d,ball3d-17,ball3d-25,ball3d-33] [--seed 7] \
        [--repeats 5] [--route rule] [--out BENCH_shift_order.json] [--append]

A rung is one scenario config built from perfbench/workloads.py:
``levels-2d`` (the 2D three-well landscape with 32 levels), ``ball3d-R``
(the 3D ball well at R^3, whose three levels share one plateau) or
``gauss3d-R`` (the ball3d-R config edited to a Gaussian well of width 0.8
at levels -4, -7 and -10, on which no two levels share a plateau).  A rung
``box3d-R-RADIUS`` runs the box layer alone: the ball3d-R well with its
radius set to RADIUS, counted by one ``BoxOperator`` at its three levels.
Each (tree, rung) run is a fresh process that imports wellspectra from the
tree, wraps ten layers at their import sites and the box operator's
``certify`` and ``count_below`` (outermost calls only), and runs the
scenario, or the box, once.  The trees alternate, before first.  Per layer
it records calls and inclusive wall time; ``poisson_matrix`` also runs
inside ``splitting_counts``, and ``pencil_eigs`` inside ``estimate_b``.
Per run it records:

* the wall time of the worker's ``from wellspectra import ...`` (numpy is
  loaded by then);
* the scenario wall time;
* the factorizations by path (``Factorization.path``);
* the route the box operator took (``BoxOperator.route``; "sparse" for a
  tree that has only that route);
* the SuperLU minimum-degree (MMD_AT_PLUS_A) orderings;
* peak RSS (the process's ru_maxrss);
* the CPU clock ticks (utime + stime, from /proc) that the threads started
  by ``import numpy``, numpy's OpenBLAS pool, spent during the scenario
  (``numpy_pool_ticks``; ``numpy_pool_threads`` of them, 0 without /proc);
* the digest of the integer CSV columns (perfbench's ``rows_digest``);
* a SHA-256 of the CSV and JSON report bytes; on a box3d rung the box
  counts stand in for the digest and the reports.

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
}
DEFAULT_RUNGS = "levels-2d,ball3d-17,ball3d-25,ball3d-33"


#: ball3d -> gauss3d: a 3D well on which no two levels share a plateau
GAUSS3D_EDITS = {
    "family = ball_well": "family = gaussian_well",
    "radius = 1.0": "width = 0.8",
    "values = -0.5, -2.0, -6.0": "values = -4.0, -7.0, -10.0",
    "prefix = ball3d": "prefix = gauss3d",
}


def rung_config(rung: str, seed: int) -> str:
    if rung == "levels-2d":
        return levels2d_config(seed)
    kind, _, resolution = rung.partition("-")
    resolution, _, radius = resolution.partition("-")
    if (
        kind not in ("ball3d", "gauss3d", "box3d")
        or not resolution.isdigit()
        or bool(radius) != (kind == "box3d")
    ):
        raise SystemExit(
            f"unknown rung {rung!r}: use levels-2d, ball3d-R, gauss3d-R or box3d-R-RADIUS"
        )
    text = ball3d_config(seed, resolution=int(resolution))
    if kind == "box3d":
        return text.replace("radius = 1.0", f"radius = {float(radius)!r}")
    if kind == "gauss3d":
        for old, new in GAUSS3D_EDITS.items():
            if old not in text:
                raise SystemExit(f"ball3d config has no {old!r} to edit into gauss3d")
            text = text.replace(old, new)
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
    from wellspectra.model import build_potential

    cfg = scenario.load_config(config)
    box = schrodinger.BoxOperator(build_potential(cfg.family, cfg.grid), cfg.levels)
    outcomes = []
    for e in cfg.levels:
        try:
            outcomes.append(box.count_below(e))
        except schrodinger.OnEigenvalue:
            outcomes.append("on-spectrum")
    return outcomes


def measure(tree: str, rung: str, seed: int, route: str = "rule") -> dict:
    """One scenario run of ``rung`` (or one box count, on a box3d rung) with
    wellspectra imported from ``tree``, its box route forced to ``route``
    unless that is "rule"."""
    sys.path.insert(0, tree)
    start = time.perf_counter()
    from wellspectra import eigcount, scenario, schrodinger

    imported = time.perf_counter() - start
    if route != "rule":
        if not hasattr(schrodinger, "compact_well"):
            raise SystemExit(f"{tree} has no box route rule to force")
        schrodinger.compact_well = lambda *args: route == "birman-schwinger"
    totals = {label: {"calls": 0, "s": 0.0} for label in [*LAYERS, "box"]}
    active = {label: [] for label in totals}
    for label, (module_name, attr) in LAYERS.items():
        original = getattr(importlib.import_module(f"wellspectra.{module_name}"), attr)
        wrapper = _timed(original, totals[label], active[label])
        for name, module in list(sys.modules.items()):
            if name.startswith("wellspectra") and getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)

    routes = []
    box_class = schrodinger.BoxOperator
    real_certify = box_class.certify

    def certify(self):
        real_certify(self)
        routes.append(getattr(self, "route", "sparse"))

    box_class.certify = _timed(certify, totals["box"], active["box"])
    box_class.count_below = _timed(box_class.count_below, totals["box"], active["box"])

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
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "rung.cfg"
        config.write_text(rung_config(rung, seed))
        ticks = numpy_pool_ticks()
        start = time.perf_counter()
        if rung.startswith("box3d"):
            counts = _box_counts(schrodinger, scenario, config)
            wall = time.perf_counter() - start
            digest = json.dumps(counts, separators=(",", ":"))
            reports = digest.encode()
            violations = None
        else:
            result = scenario.run_scenario(config, out_dir=tmp)
            wall = time.perf_counter() - start
            digest = rows_digest(result.csv_path.read_text())
            reports = result.csv_path.read_bytes() + result.json_path.read_bytes()
            violations = len(result.violations)
        ticks = numpy_pool_ticks() - ticks
    return {
        "import_s": imported,
        "scenario_s": wall,
        "layers": totals,
        "box_route": routes[0],
        "factorizations": dict(sorted(paths.items())),
        "mmd_orderings": orderings["MMD_AT_PLUS_A"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy_pool_threads": len(NUMPY_POOL),
        "numpy_pool_ticks": ticks,
        "digest": digest,
        "reports_sha256": hashlib.sha256(reports).hexdigest(),
        "violations": violations,
    }


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
    measured = []
    for rung in args.rungs.split(","):
        key = rung if args.route == "rule" else f"{rung}@{args.route}"
        measured.append(key)
        runs = {side: [] for side in trees}
        for _ in range(args.repeats):
            for side, tree in trees.items():
                runs[side].append(run_worker(tree, rung, args.seed, routes[side]))
        rungs[key] = {side: median_run(r) for side, r in runs.items()}
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
                  f"{r['peak_rss_mb']:>8.1f}  {r['box_route']}  {r['digest'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
