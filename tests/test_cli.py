import json
import textwrap
import pytest

from wellspectra import cli, eigcount, model
from wellspectra.scenario import CSV_COLUMNS

from test_scenario import SMALL_2D, SMALL_3D


@pytest.fixture()
def cfg2d(tmp_path):
    path = tmp_path / "small2d.cfg"
    path.write_text(textwrap.dedent(SMALL_2D))
    return path


@pytest.fixture()
def cfg3d(tmp_path):
    path = tmp_path / "small3d.cfg"
    path.write_text(textwrap.dedent(SMALL_3D))
    return path


def test_run_subcommand(cfg2d, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", str(cfg2d), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert (out / "small2d_counts.csv").exists()
    assert (out / "small2d_bounds.json").exists()
    assert "all must-hold identities satisfied" in captured.out


def test_assemble_subcommand_and_save(cfg2d, tmp_path, capsys):
    save = tmp_path / "pencil.json"
    code = cli.main(
        ["assemble", str(cfg2d), "--level", "-0.8", "--save", str(save)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "|I| =" in captured.out and "|B| =" in captured.out
    pencil = model.loads(save.read_text())
    assert isinstance(pencil, model.AssembledPencil)
    assert pencil.level == -0.8


def test_assemble_empty_level(cfg2d, capsys):
    code = cli.main(["assemble", str(cfg2d), "--level", "-10"])
    captured = capsys.readouterr()
    assert code == 0
    assert "empty sublevel" in captured.out


def test_count_bundled_example(capsys):
    # the bundled pencil is diag(1,2,3) against the identity mass
    assert cli.main(["count", "--lambda", "2.5"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    # a shift on the spectrum gets nudged upward, not silently absorbed
    assert cli.main(["count", "--lambda", "2.0"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_count_raw_pencil_file(tmp_path, capsys):
    doc = {"kind": "raw_pencil", "K": [[4.0, 1.0], [1.0, 4.0]], "M": [1.0, 1.0]}
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["count", "--lambda", "4.5", "--pencil", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_count_saved_assembled_pencil(cfg2d, tmp_path, capsys):
    save = tmp_path / "pencil.json"
    cli.main(["assemble", str(cfg2d), "--level", "-0.8", "--save", str(save)])
    capsys.readouterr()
    assert cli.main(["count", "--lambda", "1.0", "--pencil", str(save)]) == 0
    out = capsys.readouterr().out.strip()
    assert out.isdigit() and int(out) >= 1  # the zero mode always counts


def test_count_rejects_wrong_kind(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"kind": "grid", "box": [[0, 1]], "resolution": [5]}))
    assert cli.main(["count", "--lambda", "1.0", "--pencil", str(path)]) == 2


def test_splitting_subcommand(cfg2d, capsys):
    code = cli.main(
        ["splitting", str(cfg2d), "--level", "-0.8", "--lambda-grid", "6"]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "lambda,N_full,N_dir,N_a2r_nonpos,identity_holds"
    assert len(lines) == 7
    for line in lines[1:]:
        assert line.endswith(",true")


def test_splitting_subcommand_rejects_a_reversed_shift_range(cfg2d, capsys):
    args = ["splitting", str(cfg2d), "--level", "-0.8", "--lambda-min", "2", "--lambda-max", "1"]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad shift range [2.0, 1.0]" in captured.err


def test_bounds_subcommand_needs_3d(cfg2d, capsys):
    assert cli.main(["bounds", str(cfg2d), "--level", "-0.8"]) == 2
    assert "dimension >= 3" in capsys.readouterr().err


def test_bounds_subcommand_3d(cfg3d, capsys):
    code = cli.main(["bounds", str(cfg3d), "--level", "-0.5"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    names = {rep["name"] for rep in doc["reports"]}
    assert {"pinned-count-bound", "heat-trace-bound", "operator-reduction"} <= names
    assert all(
        rep["verdict"] in ("holds", "not-applicable") for rep in doc["reports"]
    )


def test_oracle_box_count(capsys):
    assert cli.main(["oracle", "box-count", "--mu", "100"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_report_subcommand(cfg2d, tmp_path, capsys):
    out = tmp_path / "out"
    cli.main(["run", str(cfg2d), "--out", str(out)])
    capsys.readouterr()
    code = cli.main(
        [
            "report",
            str(out / "small2d_counts.csv"),
            str(out / "small2d_bounds.json"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "rows: 6" in captured.out
    assert "splitting identity: 6/6 hold" in captured.out
    assert "counting inequality: all hold" in captured.out


def test_report_flags_violations(tmp_path, capsys):
    from wellspectra.scenario import write_csv

    row = {col: None for col in CSV_COLUMNS}
    row.update(scenario_id="x", e=-1.0, identity_holds=False, verdict_counting="violated")
    csv_path = tmp_path / "bad.csv"
    write_csv(csv_path, [row])
    json_path = tmp_path / "bad.json"
    json_path.write_text(json.dumps({"scenarios": [], "violations": ["synthetic"]}))
    code = cli.main(["report", str(csv_path), str(json_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "VIOLATION: synthetic" in captured.err


def test_bad_config_exits_2(tmp_path, monkeypatch, capsys):
    missing = tmp_path / "nope.cfg"
    assert cli.main(["run", str(missing)]) == 2
    assert "config error" in capsys.readouterr().err
    # a file configparser refuses, and a time grid outside t > 0, exit 2
    # before anything is factored
    factored = []
    monkeypatch.setattr(eigcount.Factorization, "__init__", lambda *args: factored.append(args))
    for k, sweeps in enumerate(["t_min = 0.1\n    t_min = 0.2", "t_min = 0"]):
        path = tmp_path / f"bad{k}.cfg"
        text = SMALL_3D.replace("points = 2", f"points = 2\n    {sweeps}")
        path.write_text(textwrap.dedent(text))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
    assert factored == []

