"""Tests of the benchmark itself (not of wellspectra).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Small grids keep every test to a few seconds.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import wellspectra  # noqa: E402
from tracer import Span, Tracer  # noqa: E402
from worker import OBSERVERS, TRACED, CountRun, ScenarioRun, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    ball3d_config,
    levels2d_config,
    rows_digest,
    shift_stream,
)

SMOKE_SEED = 3


def _module_attrs():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "wellspectra" or name.startswith("wellspectra.")
    }


def test_tracer_restores_every_wrapped_attribute():
    before = _module_attrs()
    tracer = Tracer(TRACED, OBSERVERS)
    with tracer:
        assert wellspectra.a2r.inertia is not before["wellspectra.a2r"]["inertia"]
        assert wellspectra.scenario.inertia is wellspectra.eigcount.inertia
        wrapped = sum(
            1
            for name, attrs in before.items()
            for attr, value in attrs.items()
            if vars(sys.modules[name])[attr] is not value
        )
        assert wrapped >= len(TRACED)
    after = _module_attrs()
    assert before.keys() == after.keys()
    for name in before:
        for attr, value in before[name].items():
            assert after[name][attr] is value, f"{name}.{attr} was not restored"


def test_self_time_subtracts_overlapping_children():
    tracer = Tracer([])
    tracer.spans = [
        Span("root", 0.0, 10.0, 1, None),
        Span("a", 1.0, 5.0, 2, 0),
        Span("b", 3.0, 7.0, 3, 0),  # overlaps "a" on another thread
        Span("c", 2.0, 3.0, 2, 1),
    ]
    assert tracer.self_times() == [4.0, 3.0, 4.0, 1.0]


def test_pool_thread_spans_are_parented_to_the_enclosing_span():
    tracer = Tracer([])

    def pool_task():
        with tracer.span("inner"):
            pass

    tracer.install()
    try:
        with tracer.span("outer"):
            worker = threading.Thread(target=pool_task)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1].parent == 0


@pytest.mark.parametrize(
    "config",
    [ball3d_config(SMOKE_SEED, resolution=11), levels2d_config(SMOKE_SEED, resolution=21, levels=4)],
    ids=["ball3d", "levels2d"],
)
def test_scenario_smoke_seed_traced_equals_untraced(config, tmp_path):
    run = ScenarioRun(config, tmp_path)
    plain = run.unit()
    assert plain["failed"] == 0 and plain["errors"] == []
    tracer = Tracer(TRACED, OBSERVERS)
    with tracer:
        traced = run.unit(tracer)
    assert traced["digest"] == plain["digest"]
    assert traced["report_sha"] == plain["report_sha"]
    assert traced["report_bytes"] == plain["report_bytes"]
    layers = layer_metrics(tracer, run.root, traced["rows"], run.levels, traced["report_bytes"])
    assert layers["scenario.run_scenario.calls"] == 1
    assert layers["eigcount.inertia.calls"] == (
        layers["eigcount.inertia.dense_calls"] + layers["eigcount.inertia.sparse_calls"]
    )
    assert layers["a2r.poisson_matrix.calls"] > 0


def test_count_smoke_seed_matches_oracle_traced_or_not():
    run = CountRun(SMOKE_SEED, resolution=21)
    plain = run.unit()
    tracer = Tracer(TRACED, OBSERVERS)
    with tracer:
        traced = run.unit(tracer)
    assert plain["failed"] == traced["failed"] == 0
    assert traced["digest"] == plain["digest"]
    checked = run.check([plain, traced])
    assert checked["oracle_checked"] == plain["attempted"] + traced["attempted"]
    assert checked["oracle_mismatches"] == []
    layers = layer_metrics(tracer, run.root, traced["rows"], run.levels, 0)
    assert layers["eigcount.count_below.calls"] == traced["attempted"]


def test_inputs_depend_only_on_the_seed():
    assert levels2d_config(5) == levels2d_config(5) != levels2d_config(6)
    first = shift_stream(9)
    again = shift_stream(9)
    assert [next(first) for _ in range(5)] == [next(again) for _ in range(5)]


def test_digest_ignores_floats_but_not_counts():
    header = "scenario_id,e,N_full,N_dir,N_a2r_nonpos,N_a2r_gamma,identity_holds," \
             "verdict_counting,verdict_thm54,verdict_thm59,verdict_trace\n"
    row = "s-L00,{e},3,{n},1,0,true,holds,holds,n/a,holds\n"
    base = rows_digest(header + row.format(e="-0.5", n=2))
    assert rows_digest(header + row.format(e="-0.5000000000001", n=2)) == base
    assert rows_digest(header + row.format(e="-0.5", n=1)) != base


def test_refuses_to_run_without_program_sources(tmp_path):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "count-3d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert time.monotonic() - start < 60


def test_judge_flags_every_kind_of_mismatch():
    from run import judge

    root = Path(wellspectra.__file__).resolve().parents[2]
    unit = {"errors": [], "digest": "d1", "report_sha": "r1"}
    doc = {"program": str(root / "src" / "wellspectra"), "units": [unit, dict(unit)]}
    references = {"levels-2d": {"digests": {"0": "d1", "1": "other"}}}
    assert judge("levels-2d", 0, doc, root, references) == []
    assert judge("levels-2d", 2, doc, root, references) == []
    assert "reference" in judge("levels-2d", 1, doc, root, references)[0]
    doc["units"][1] = dict(unit, report_sha="r2")
    assert "report_sha differs" in judge("levels-2d", 0, doc, root, references)[0]
    doc["units"][1] = dict(unit, errors=["violation: identity failed"])
    assert judge("levels-2d", 0, doc, root, references) == ["violation: identity failed"]
