#!/usr/bin/env python3
"""Benchmark of wellspectra: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ball3d-25|levels-2d|count-3d \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``./src``.
The workload runs in its own process (``worker.py``), a closed loop with
one client, under the default thread settings (``WELLSPECTRA_WORKERS`` and
the BLAS thread variables are removed from its environment).  Set-up is
repeated in SETUP_PROBES extra processes and reported as a median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  The line before
it is an environment and size stamp.  Outputs are checked against stored
digests (``references.json``), the program's own must-hold identities and,
on count-3d, an eigensolver oracle; any mismatch makes the exit code 1.
Scratch files go to ``.perfbench_work/`` in the checkout and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

#: extra set-up-only processes per untraced run, half of them before and
#: half after the measuring process, so that set-up is sampled across the
#: whole run; setup_s is the median over these and the measuring process
SETUP_PROBES = 8
#: the whole command must finish within this many seconds
DEADLINE_S = 170.0
#: environment variables that would override the program's thread defaults
THREAD_VARS = ("WELLSPECTRA_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")

#: end-to-end metrics and units.  count-3d is runnable but not a gated
#: workload (NOTES.md says why), so it reports its own request metrics.
END_TO_END_UNITS = {"scenario_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
COUNT_UNITS = {"counts_per_s": "1/s", "count_p50_ms": "ms", "count_p90_ms": "ms",
               "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark could not run (as opposed to: it ran and found a mismatch)."""


def run_worker(args, work: Path, root: Path, deadline: float, setup_only: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the workload process started")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(workload: str, seed: int, doc: dict, root: Path, references: dict) -> list[str]:
    """Every reason the outputs are wrong; empty when they are right."""
    problems = []
    program = Path(doc["program"])
    if program != (root / "src" / "wellspectra").resolve():
        problems.append(f"imported the program from {program}, not from this checkout")
    units = doc["units"]
    for unit in units:
        problems.extend(unit["errors"][:5])
    for key in ("digest", "report_sha"):
        if len({u[key] for u in units if key in u}) > 1:
            problems.append(f"{key} differs between operations of one run")
    reference = references[workload]
    expected = reference["digests"].get(str(seed))
    digest = units[0].get("digest")
    if expected is not None and digest != expected:
        problems.append(f"output digest {digest} differs from the reference {expected}")
    if workload == "count-3d":
        if doc["pencil_order"] != reference["pencil_order"]:
            problems.append(f"pencil order {doc['pencil_order']} differs from the "
                            f"reference {reference['pencil_order']}")
        if doc["oracle_mismatches"]:
            problems.append(f"counts disagree with the oracle: {doc['oracle_mismatches'][:5]}")
        if doc["oracle_checked"] < 1:
            problems.append("no count was checked against the oracle")
    return problems


def end_to_end(workload: str, doc: dict, setups: list[float]) -> dict:
    """Metric name -> value: medians of the operation times of the run."""
    ops = doc["op_s"]
    common = {"peak_rss_mb": doc["peak_rss_mb"], "setup_s": statistics.median(setups)}
    if workload != "count-3d":
        return {"scenario_s": statistics.median(ops), **common}
    return {
        "counts_per_s": len(ops) / doc["loop_s"],
        "count_p50_ms": 1000.0 * statistics.median(ops),
        "count_p90_ms": 1000.0 * statistics.quantiles(ops, n=10)[-1],
        **common,
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("per_row"):
        return "1/row"
    if name.endswith("per_level"):
        return "1/level"
    if name.endswith(("_frac", "parallelism")):
        return "ratio"
    if name == "report_bytes":
        return "bytes"
    return "count"


def stamp(args, doc: dict, setups: list[float], has_reference: bool) -> dict:
    """Machine, thread settings and problem sizes behind the numbers."""
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": doc["env"],
        "timed_operations": len(doc["op_s"]),
        "setup_samples": len(setups),
        "reference_digest": has_reference,
    }
    sizes = doc["units"][0].get("sizes")
    if sizes is not None:
        out["levels_interior_boundary"] = sizes
    if "pencil_order" in doc:
        out["pencil_order"] = doc["pencil_order"]
        out["oracle_checked"] = doc["oracle_checked"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + DEADLINE_S
    # a terminated benchmark still stops its workload process and cleans up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd().resolve()
    if not (root / "src" / "wellspectra" / "__init__.py").is_file():
        print(f"error: no wellspectra sources under {root / 'src'}", file=sys.stderr)
        return 2
    references = json.loads((HERE / "references.json").read_text())
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setups = [run_worker(args, work, root, deadline, setup_only=True)["setup_s"]
                  for _ in range(probes // 2)]
        doc = run_worker(args, work, root, deadline, setup_only=False)
        setups += [run_worker(args, work, root, deadline, setup_only=True)["setup_s"]
                   for _ in range(probes - probes // 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is using it
            pass
    setups.append(doc["setup_s"])

    problems = judge(args.workload, args.seed, doc, root, references)
    for problem in problems:
        print(f"mismatch: {problem}", file=sys.stderr)
    attempted = sum(u["attempted"] for u in doc["units"])
    failed = sum(u["failed"] for u in doc["units"])
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in doc["layers"].items()}
        metrics["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    else:
        units = COUNT_UNITS if args.workload == "count-3d" else END_TO_END_UNITS
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in end_to_end(args.workload, doc, setups).items()}
    has_reference = str(args.seed) in references[args.workload]["digests"]
    print(json.dumps({"stamp": stamp(args, doc, setups, has_reference)}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
