#!/usr/bin/env python3
"""Regenerate ``references.json``: the output digest of each workload for
the committed seeds, from the program in ``./src``.

    python3 perfbench/make_references.py --seeds 0-31

Run it from the root of a checkout, only when a change is meant to alter
the integer outputs, and say so in the change.  A seed whose run breaks a
must-hold identity or disagrees with the count oracle is refused.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]

from workloads import WORKLOADS, ball3d_config, levels2d_config  # noqa: E402
from worker import CountRun, ScenarioRun  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, required=True, help="inclusive range, e.g. 0-31")
    args = ap.parse_args(argv)

    refs = {name: {"digests": {}} for name in WORKLOADS}
    scratch = Path.cwd() / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for seed in args.seeds:
            for name, text in (("ball3d-25", ball3d_config(seed)),
                               ("levels-2d", levels2d_config(seed))):
                unit = ScenarioRun(text, work).unit()
                if unit["failed"]:
                    raise SystemExit(f"{name} seed {seed} failed: {unit}")
                refs[name]["digests"][str(seed)] = unit["digest"]
            run = CountRun(seed)
            unit = run.unit()
            checked = run.check([unit])
            if unit["failed"] or checked["oracle_mismatches"]:
                raise SystemExit(f"count-3d seed {seed} disagrees with the oracle")
            refs["count-3d"]["digests"][str(seed)] = unit["digest"]
            refs["count-3d"]["pencil_order"] = checked["pencil_order"]
            print(f"seed {seed} done", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        scratch.rmdir()
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
