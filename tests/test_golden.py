"""Golden reports of the bundled configs: the cross-platform float contract.

Integer columns, flags, verdicts and every string must match the stored
reports exactly; floats must match to a relative 1e-10 (the package's
RESIDUAL_TOL).  Bytes are not compared: they drift by about 1e-12 between
BLAS builds and between factorization paths.
"""

import csv
import json
from pathlib import Path

import pytest

from wellspectra.scenario import run_scenario

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

#: relative float tolerance of the contract
RTOL = 1e-10

#: CSV columns holding floats; every other column is compared as text
FLOAT_COLUMNS = {
    "e",
    "lambda",
    "gamma",
    "a_lambda_norm",
    "bound_thm54",
    "bound_thm59",
    "heat_trace_t",
    "trace_bound",
    "t",
}

CONFIGS = {
    "ball3d": "ball_well_3d.cfg",
    "gauss2d": "gaussian_well_2d.cfg",
    "empty1d": "empty_level_1d.cfg",
}


def assert_same_json(got, want, where="$"):
    if isinstance(want, float) and isinstance(got, float):
        assert got == pytest.approx(want, rel=RTOL, abs=0.0), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_json(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("prefix", sorted(CONFIGS))
def test_reports_match_golden(prefix, tmp_path):
    result = run_scenario(ROOT / "configs" / CONFIGS[prefix], out_dir=tmp_path)
    assert result.exit_code == 0

    got_rows = list(csv.DictReader(result.csv_path.open()))
    want_rows = list(csv.DictReader((GOLDEN / f"{prefix}_counts.csv").open()))
    assert len(got_rows) == len(want_rows)
    for i, (got, want) in enumerate(zip(got_rows, want_rows)):
        assert got.keys() == want.keys()
        for col, value in want.items():
            where = f"{prefix} row {i} {col}"
            if col in FLOAT_COLUMNS and value:
                assert float(got[col]) == pytest.approx(float(value), rel=RTOL, abs=0.0), where
            else:
                assert got[col] == value, where

    want_doc = json.loads((GOLDEN / f"{prefix}_bounds.json").read_text())
    assert_same_json(json.loads(result.json_path.read_text()), want_doc, prefix)
