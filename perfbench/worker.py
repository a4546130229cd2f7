"""Workload process of the benchmark.

Sets up one workload, runs it in a closed loop with one client for the
given number of seconds, and prints one JSON document: operation times,
outputs to check, an environment stamp and, with ``--trace 1``, per-layer
numbers.  ``run.py`` starts it with ``src`` on ``PYTHONPATH`` and judges the
document; ``--t0`` is the CLOCK_MONOTONIC reading taken just before this
process was started, so set-up time includes interpreter start and imports.

    python3 perfbench/worker.py --workload count-3d --seed 1 --seconds 10 \
        --trace 0 --work WORKDIR --t0 T [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

import wellspectra
from wellspectra import assemble, eigcount, model, scenario

from tracer import Tracer
from workloads import (
    COUNT_FAMILY,
    COUNT_LAMBDA_RANGE,
    COUNT_LEVEL,
    WORKLOADS,
    ball3d_config,
    count_grid,
    count_request,
    counts_digest,
    levels2d_config,
    oracle_count,
    oracle_eigenvalues,
    rows_digest,
    shift_stream,
)

#: functions timed by the traced run, as "module.function" in wellspectra
TRACED = (
    "scenario.run_scenario",
    "scenario.load_config",
    "scenario.write_csv",
    "model.build_potential",
    "assemble.classify_nodes",
    "assemble.assemble_pencil",
    "eigcount.inertia",
    "eigcount.count_below",
    "eigcount.pencil_eigs",
    "eigcount.heat_trace",
    "eigcount.two_infinity_norm",
    "a2r.poisson_matrix",
    "a2r.schur_form",
    "a2r.boundary_measures",
    "a2r.splitting_counts",
    "a2r.a_lambda_norm",
    "a2r.estimate_poisson_constant",
    "bounds.estimate_b",
    "schrodinger.reduction_check",
)

#: count-3d closed loop: at least this many requests per run, however slow
MIN_REQUESTS = 100
#: count-3d: requests per unit in the traced run (the seed's first ones)
TRACE_BLOCK = 50

#: sparse inputs above this order count as the SuperLU path of ``inertia``
#: (its switch-over order when this benchmark was defined)
DENSE_SWITCH = 800


# -- per-layer counters taken from call inputs --------------------------------


def _observe_inertia(tracer: Tracer, args, kwargs) -> None:
    A = args[0] if args else kwargs["A"]
    order = A.shape[0]
    if sp.issparse(A):
        path = "sparse" if order > DENSE_SWITCH else "dense"
        B = A.tocsr(copy=True)
        B.sum_duplicates()
        parts = (b"s", str(B.shape).encode(), B.indptr, B.indices, B.data)
    else:
        path = "dense"
        B = np.ascontiguousarray(A, dtype=float)
        parts = (b"d", str(B.shape).encode(), B)
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part)
    tracer.add(f"eigcount.inertia.{path}_calls")
    tracer.add("eigcount.inertia.order_sum", order)
    tracer.maximum("eigcount.inertia.max_order", order)
    if tracer.seen_before(h.digest()):
        tracer.add("eigcount.inertia.repeats")


def _observe_pencil_eigs(tracer: Tracer, args, kwargs) -> None:
    K = args[0] if args else kwargs["K"]
    tracer.maximum("eigcount.pencil_eigs.max_order", K.shape[0])


def _observe_poisson(tracer: Tracer, args, kwargs) -> None:
    p = args[0] if args else kwargs["p"]
    tracer.add("a2r.poisson_matrix.rhs_cols", p.n_boundary)


OBSERVERS = {
    "eigcount.inertia": _observe_inertia,
    "eigcount.pencil_eigs": _observe_pencil_eigs,
    "a2r.poisson_matrix": _observe_poisson,
}


def layer_metrics(tracer: Tracer, root: str, rows: int, levels: int, report_bytes: int) -> dict:
    """Per-layer numbers of one traced unit whose outermost span is ``root``."""
    summary = tracer.summary()
    counts = tracer.counts
    out = {}
    for qual in TRACED:
        entry = summary.get(qual, {"calls": 0, "self_s": 0.0})
        out[f"{qual}.calls"] = entry["calls"]
        out[f"{qual}.self_s"] = entry["self_s"]
    for key in (
        "eigcount.inertia.dense_calls",
        "eigcount.inertia.sparse_calls",
        "eigcount.inertia.order_sum",
        "eigcount.inertia.max_order",
        "eigcount.pencil_eigs.max_order",
        "a2r.poisson_matrix.rhs_cols",
    ):
        out[key] = counts.get(key, 0)
    inertia_calls = out["eigcount.inertia.calls"]
    out["eigcount.inertia.per_row"] = inertia_calls / rows if rows else 0.0
    out["a2r.poisson_matrix.per_level"] = out["a2r.poisson_matrix.calls"] / levels if levels else 0.0
    out["eigcount.inertia.repeat_frac"] = (
        counts.get("eigcount.inertia.repeats", 0) / inertia_calls if inertia_calls else 0.0
    )
    for qual in ("a2r.splitting_counts", "eigcount.count_below"):
        out[f"{qual}.on_eigenvalue"] = counts.get(f"{qual}.raised.OnEigenvalue", 0)
    wall = summary[root]["total_s"]
    out["scenario.parallelism"] = sum(e["self_s"] for e in summary.values()) / wall
    out["report_bytes"] = report_bytes
    return out


# -- environment stamp ----------------------------------------------------------


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS bundled with numpy and scipy."""
    import ctypes

    found = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib_path in sorted(libdir.glob("*openblas*")):
            lib = ctypes.CDLL(str(lib_path))
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[lib_path.name] = fn()
                    break
    return found


def environment() -> dict:
    # the scenario thread-pool width; a program without the pool runs one
    workers = getattr(scenario, "_workers", None)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workers": workers() if workers is not None else 1,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# -- workloads --------------------------------------------------------------------


class ScenarioRun:
    """One scenario config, run with ``run_scenario`` as a user would."""

    root = "scenario.run_scenario"

    def __init__(self, config_text: str, work: Path):
        self.config = work / "scenario.cfg"
        self.config.write_text(config_text)
        self.out = work / "out"
        cfg = scenario.load_config(self.config)
        model.build_potential(cfg.family, cfg.grid)
        self.levels = len(cfg.levels)

    def unit(self, tracer: Tracer | None = None) -> dict:
        """One ``run_scenario`` call; when traced, its own span is the root."""
        start = time.perf_counter()
        try:
            result = scenario.run_scenario(self.config, out_dir=self.out)
        except Exception as exc:  # a failed operation is counted, not fatal
            return {"wall": time.perf_counter() - start, "attempted": 1, "failed": 1,
                    "errors": [f"{type(exc).__name__}: {exc}"]}
        wall = time.perf_counter() - start
        csv_bytes = Path(result.csv_path).read_bytes()
        json_bytes = Path(result.json_path).read_bytes()
        errors = [f"run_scenario exit code {result.exit_code}"] if result.exit_code else []
        return {
            "wall": wall,
            "attempted": 1,
            "failed": int(bool(errors or result.violations)),
            "errors": errors + [f"violation: {v}" for v in result.violations],
            "digest": rows_digest(csv_bytes.decode()),
            "report_sha": hashlib.sha256(csv_bytes + b"\0" + json_bytes).hexdigest(),
            "report_bytes": len(csv_bytes) + len(json_bytes),
            "rows": len(result.rows),
            "sizes": [[doc.get("n_interior", 0), doc.get("n_boundary", 0)]
                      for doc in result.document["scenarios"]],
        }

    def loop(self, seconds: float) -> dict:
        units = []
        start = time.perf_counter()
        while not units or time.perf_counter() - start < seconds:
            units.append(self.unit())
        return {"loop_s": time.perf_counter() - start, "units": units,
                "op_s": [u["wall"] for u in units]}


class CountRun:
    """Closed loop of ``count_below`` requests on one fixed pinned pencil."""

    root = "bench.unit"

    def __init__(self, seed: int, resolution: int = 33):
        V = model.build_potential(COUNT_FAMILY, count_grid(resolution))
        dec = assemble.classify_nodes(V, COUNT_LEVEL)
        pencil = assemble.assemble_pencil(dec, V, COUNT_LEVEL)
        self.K = pencil.K_II
        self.m = np.array(pencil.M_interior)
        self.seed = seed
        self.levels = 1
        count_request(eigcount.count_below, self.K, self.m, 1.0)

    def _run(self, keep_going) -> dict:
        """Requests from the seed's shift stream while ``keep_going(done,
        elapsed)`` holds; the results are (shift used, count or None)."""
        walls, results, errors = [], [], []
        start = time.perf_counter()
        for lam in shift_stream(self.seed):
            if not keep_going(len(walls), time.perf_counter() - start):
                break
            t = time.perf_counter()
            try:
                used, count = count_request(eigcount.count_below, self.K, self.m, lam)
            except Exception as exc:  # a failed request is counted, not fatal
                used, count = lam, None
                errors.append(f"{type(exc).__name__}: {exc}")
            walls.append(time.perf_counter() - t)
            results.append((used, count))
        unit = {"wall": time.perf_counter() - start, "attempted": len(walls),
                "failed": len(errors), "errors": errors, "rows": len(walls),
                "report_bytes": 0, "results": results,
                "digest": counts_digest(results[:TRACE_BLOCK])}
        return unit, walls

    def loop(self, seconds: float) -> dict:
        unit, walls = self._run(lambda n, elapsed: n < MIN_REQUESTS or elapsed < seconds)
        return {"loop_s": unit["wall"], "units": [unit], "op_s": walls}

    def unit(self, tracer: Tracer | None = None) -> dict:
        """The seed's first TRACE_BLOCK requests (one unit of the traced run)."""
        if tracer is None:
            return self._run(lambda n, _: n < TRACE_BLOCK)[0]
        with tracer.span(self.root):
            return self._run(lambda n, _: n < TRACE_BLOCK)[0]

    def check(self, units) -> dict:
        """Every count of ``units`` against the eigensolver oracle; the
        per-request results are dropped from the units afterwards."""
        eigenvalues = oracle_eigenvalues(self.K, self.m, above=COUNT_LAMBDA_RANGE[1])
        checked = [r for unit in units for r in unit.pop("results") if r[1] is not None]
        mismatches = [[lam, count, oracle_count(eigenvalues, lam)]
                      for lam, count in checked if count != oracle_count(eigenvalues, lam)]
        return {"pencil_order": self.K.shape[0], "oracle_checked": len(checked),
                "oracle_mismatches": mismatches}


def traced_loop(run, seconds: float) -> dict:
    """Alternate untraced and traced units until ``seconds`` have passed and
    each kind ran at least once.  Per-layer numbers: call counts and other
    counters from the first traced unit, self times as medians over all."""
    tracer = Tracer(TRACED, OBSERVERS)
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not (plain and traced) or time.perf_counter() - start < seconds:
        if len(plain) > len(traced):
            tracer.reset()
            with tracer:
                unit = run.unit(tracer)
            traced.append(unit)
            layers.append(layer_metrics(tracer, run.root, unit.get("rows", 0), run.levels,
                                        unit.get("report_bytes", 0)))
        else:
            plain.append(run.unit())
    merged = dict(layers[0])
    for key in merged:
        if key.endswith("self_s"):
            merged[key] = statistics.median(layer[key] for layer in layers)
    merged["trace.overhead_s"] = (statistics.median(u["wall"] for u in traced)
                                  - statistics.median(u["wall"] for u in plain))
    return {"loop_s": time.perf_counter() - start, "units": plain + traced,
            "op_s": [u["wall"] for u in plain], "layers": merged}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if args.workload == "ball3d-25":
        run = ScenarioRun(ball3d_config(args.seed), args.work)
    elif args.workload == "levels-2d":
        run = ScenarioRun(levels2d_config(args.seed), args.work)
    else:
        run = CountRun(args.seed)
    doc = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0,
           "program": str(Path(wellspectra.__file__).resolve().parent)}
    if not args.setup_only:
        doc.update(traced_loop(run, args.seconds) if args.trace else run.loop(args.seconds))
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if isinstance(run, CountRun):
            doc.update(run.check(doc["units"]))
        doc["env"] = environment()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
