#!/usr/bin/env python3
"""Per-layer ladder of one or two program trees, written as JSON.

    python3 scripts/shift_order_ladder.py [--before OLD/src] [--after src] \
        [--rungs levels-2d,ball3d-17,ball3d-25,ball3d-33] [--seed 7] \
        [--repeats 5] [--out BENCH_shift_order.json]

A rung is one scenario config built from perfbench/workloads.py:
``levels-2d`` (the 2D three-well landscape with 32 levels), ``ball3d-R``
(the 3D ball well at R^3, whose three levels share one plateau) or
``gauss3d-R`` (the ball3d-R config edited to a Gaussian well of width 0.8
at levels -4, -7 and -10, on which no two levels share a plateau).  Each
(tree, rung) run is a fresh process that imports wellspectra from the tree,
wraps seven layers at their import sites and runs the scenario once.  The
trees alternate, before first.  Per layer it records calls and inclusive
wall time; ``poisson_matrix`` also runs inside ``splitting_counts``.  Per
run it records:

* the wall time of the worker's ``from wellspectra import ...`` (numpy is
  loaded by then);
* the scenario wall time;
* the factorizations by path (``Factorization.path``);
* the SuperLU minimum-degree (MMD_AT_PLUS_A) orderings;
* peak RSS (the process's ru_maxrss);
* the digest of the integer CSV columns (perfbench's ``rows_digest``);
* a SHA-256 of the CSV and JSON report bytes.

With ``--repeats N`` (5 by default) every time and the peak RSS are the
median of N runs, with their minimum and maximum beside them (``s_min``,
``s_max`` per layer; ``scenario_s_min``, ``peak_rss_mb_max`` and so on per
run; ``import_s`` likewise); counts and digests come from the last run.
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
    if kind not in ("ball3d", "gauss3d") or not resolution.isdigit():
        raise SystemExit(f"unknown rung {rung!r}: use levels-2d, ball3d-R or gauss3d-R")
    text = ball3d_config(seed, resolution=int(resolution))
    if kind == "gauss3d":
        for old, new in GAUSS3D_EDITS.items():
            if old not in text:
                raise SystemExit(f"ball3d config has no {old!r} to edit into gauss3d")
            text = text.replace(old, new)
    return text


def _timed(fn, total):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            total["calls"] += 1
            total["s"] += time.perf_counter() - start

    return wrapper


def measure(tree: str, rung: str, seed: int) -> dict:
    """One scenario run of ``rung`` with wellspectra imported from ``tree``."""
    sys.path.insert(0, tree)
    start = time.perf_counter()
    from wellspectra import eigcount, scenario

    imported = time.perf_counter() - start
    totals = {label: {"calls": 0, "s": 0.0} for label in LAYERS}
    for label, (module_name, attr) in LAYERS.items():
        original = getattr(importlib.import_module(f"wellspectra.{module_name}"), attr)
        wrapper = _timed(original, totals[label])
        for name, module in list(sys.modules.items()):
            if name.startswith("wellspectra") and getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)

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
        start = time.perf_counter()
        result = scenario.run_scenario(config, out_dir=tmp)
        wall = time.perf_counter() - start
        csv_text = result.csv_path.read_text()
        reports = result.csv_path.read_bytes() + result.json_path.read_bytes()
    return {
        "import_s": imported,
        "scenario_s": wall,
        "layers": totals,
        "factorizations": dict(sorted(paths.items())),
        "mmd_orderings": orderings["MMD_AT_PLUS_A"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": rows_digest(csv_text),
        "reports_sha256": hashlib.sha256(reports).hexdigest(),
        "violations": len(result.violations),
    }


def run_worker(tree: str, rung: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--worker", tree, rung, "--seed", str(seed)],
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
    """The last run, with every time and the peak RSS replaced by the
    median over ``runs``, and their minimum and maximum beside it."""
    out = json.loads(json.dumps(runs[-1]))
    for key in ("import_s", "scenario_s", "peak_rss_mb"):
        _spread(out, key, [r[key] for r in runs])
    for label in LAYERS:
        _spread(out["layers"][label], "s", [r["layers"][label]["s"] for r in runs])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", help="src directory of the tree to compare against")
    ap.add_argument("--after", default=str(ROOT / "src"), help="src directory to measure")
    ap.add_argument("--rungs", default=DEFAULT_RUNGS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default="BENCH_shift_order.json")
    ap.add_argument("--worker", nargs=2, metavar=("TREE", "RUNG"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(*args.worker, args.seed)))
        return 0

    trees = {"before": args.before, "after": args.after}
    trees = {side: str(Path(tree).resolve()) for side, tree in trees.items() if tree}
    rungs = {}
    for rung in args.rungs.split(","):
        runs = {side: [] for side in trees}
        for _ in range(args.repeats):
            for side, tree in trees.items():
                runs[side].append(run_worker(tree, rung, args.seed))
        rungs[rung] = {side: median_run(r) for side, r in runs.items()}
        if len(trees) == 2:
            before, after = rungs[rung]["before"], rungs[rung]["after"]
            rungs[rung]["digest_equal"] = before["digest"] == after["digest"]
            rungs[rung]["reports_equal"] = before["reports_sha256"] == after["reports_sha256"]

    doc = {
        "what": "import time, per-layer wall time (inclusive), factorizations by path, "
        "minimum-degree orderings, peak RSS and integer digest of one scenario run per "
        "tree and rung",
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
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")

    print(f"{'rung':<11}{'tree':<8}{'scenario_s':>11}{'split_s':>9}{'factors':>9}"
          f"{'mmd':>6}{'rss_mb':>8}  digest")
    for rung, sides in rungs.items():
        for side in trees:
            r = sides[side]
            print(f"{rung:<11}{side:<8}{r['scenario_s']:>11.3f}"
                  f"{r['layers']['splitting_counts']['s']:>9.3f}"
                  f"{sum(r['factorizations'].values()):>9}{r['mmd_orderings']:>6}"
                  f"{r['peak_rss_mb']:>8.1f}  {r['digest'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
