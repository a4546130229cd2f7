import csv
import json
import textwrap
from pathlib import Path

import pytest

from wellspectra import a2r, cli, eigcount, model, scenario, schrodinger
from wellspectra.scenario import CSV_COLUMNS, load_config

from test_scenario import CONFIG_DIR, SMALL_2D, SMALL_3D


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
    pencil = model.AssembledPencil.from_dict(json.loads(save.read_text()))
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


def _raw(K, M):
    return json.dumps({"kind": "raw_pencil", "K": K, "M": M})


#: pencil files that are not a pencil (None: no file at all)
BAD_PENCILS = {
    "not-json": "K = diag(1, 2)\n",
    "missing": None,
    "short-mass": _raw([[2.0, 0.0], [0.0, 3.0]], [1.0]),
    "non-square": _raw([[2.0, 0.0, 1.0], [0.0, 3.0, 1.0]], [1.0, 1.0]),
    "matrix-mass": _raw([[2.0, 0.0], [0.0, 3.0]], [[1.0, 0.0], [0.0, 1.0]]),
    "asymmetric": _raw([[2.0, 5.0], [0.0, 3.0]], [1.0, 1.0]),
    "nan-stiffness": _raw([[1.0, float("nan")], [float("nan"), 1.0]], [1.0, 1.0]),
    "infinite-mass": _raw([[2.0, 0.0], [0.0, 3.0]], [1.0, float("inf")]),
}


@pytest.mark.parametrize("name", BAD_PENCILS)
def test_count_rejects_a_bad_pencil_file(tmp_path, monkeypatch, capsys, name):
    """A pencil file that cannot be read, parsed or shaped into a pencil is
    a configuration error: exit 2, no traceback, nothing factored."""
    path = tmp_path / f"{name}.json"
    if BAD_PENCILS[name] is not None:
        path.write_text(BAD_PENCILS[name])
    factored = []
    monkeypatch.setattr(eigcount.Factorization, "__init__", lambda *args: factored.append(args))
    assert cli.main(["count", "--lambda", "1.0", "--pencil", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert "Traceback" not in captured.err
    assert factored == []


def test_count_refuses_a_shift_whose_pencil_overflows(tmp_path, monkeypatch, capsys):
    """A finite --lambda for which K - lambda*M overflows (K = I, M = [4, 4],
    lambda = 1e308) exits 2 with a config error before any factorization; a
    large shift that stays finite is counted."""
    path = tmp_path / "big.json"
    path.write_text(_raw([[1.0, 0.0], [0.0, 1.0]], [4.0, 4.0]))
    factored = []
    real_init = eigcount.Factorization.__init__

    def recording(self, *args, **kwargs):
        factored.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(eigcount.Factorization, "__init__", recording)
    assert cli.main(["count", "--lambda", "1e308", "--pencil", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert "Traceback" not in captured.err
    assert factored == []
    assert cli.main(["count", "--lambda", "1e300", "--pencil", str(path)]) == 0
    assert capsys.readouterr().out == "2\n"


@pytest.mark.parametrize("command", ["assemble", "splitting", "bounds"])
def test_a_positive_level_is_a_config_error(cfg2d, monkeypatch, capsys, command):
    """A positive --level exits 2 with a config error before the config is
    even read, not 1 (a failed identity) with a traceback."""
    loaded = []
    monkeypatch.setattr(cli, "load_config", lambda *args: loaded.append(args))
    assert cli.main([command, str(cfg2d), "--level", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert "Traceback" not in captured.err
    assert loaded == []


#: command lines whose arguments are out of range or whose files are not
#: scenario reports; "{cfg}" is a 2D config and "{tmp}" a scratch directory
BAD_ARGUMENTS = {
    "count-nan-lambda": ["count", "--lambda", "nan"],
    "count-infinite-lambda": ["count", "--lambda", "inf"],
    "splitting-negative-grid": ["splitting", "{cfg}", "--level", "-0.8", "--lambda-grid", "-2"],
    "splitting-empty-grid": ["splitting", "{cfg}", "--level", "-0.8", "--lambda-grid", "0"],
    "splitting-infinite-shift": ["splitting", "{cfg}", "--level", "-0.8", "--lambda-max", "inf"],
    "oracle-negative-mu": ["oracle", "box-count", "--mu", "-1"],
    "oracle-nan-mu": ["oracle", "box-count", "--mu", "nan"],
    "oracle-dimension-4": ["oracle", "box-count", "--mu", "10", "--n", "4"],
    "oracle-zero-side": ["oracle", "box-count", "--mu", "10", "--side", "0"],
    "report-missing-files": ["report", "{tmp}/none.csv", "{tmp}/none.json"],
    "report-foreign-csv": ["report", "{tmp}/foreign.csv", "{tmp}/doc.json"],
    "report-foreign-json": ["report", "{tmp}/counts.csv", "{tmp}/foreign.json"],
}


@pytest.mark.parametrize("name", BAD_ARGUMENTS)
def test_a_bad_argument_is_a_config_error(cfg2d, tmp_path, monkeypatch, capsys, name):
    """An argument outside its subcommand's domain, or a report file that is
    missing or not a scenario CSV, exits 2 with a config error before any
    work, not 1 (a failed identity) with a traceback."""
    (tmp_path / "foreign.csv").write_text("a,b\n1,2\n")
    (tmp_path / "counts.csv").write_text(",".join(CSV_COLUMNS) + "\n")
    (tmp_path / "doc.json").write_text(json.dumps({"scenarios": [], "violations": []}))
    (tmp_path / "foreign.json").write_text(json.dumps({"scenarios": [{"reports": [{}]}]}))
    argv = [arg.format(cfg=cfg2d, tmp=tmp_path) for arg in BAD_ARGUMENTS[name]]
    loaded = []
    monkeypatch.setattr(cli, "load_config", lambda *args: loaded.append(args))
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert "Traceback" not in captured.err
    assert loaded == []


#: SMALL_3D's [potential] block, and one buildable block for each family
BALL_3D_POTENTIAL = "family = ball_well\n    center = 0, 0, 0\n    radius = 1.0\n    depth = 12.0"
POTENTIALS = {
    "ball_well": {"center": "0, 0, 0", "radius": "1", "depth": "1"},
    "gaussian_well": {"center": "0, 0, 0", "width": "1", "depth": "1"},
    "band_limited_random": {"seed": "1", "cutoff": "2", "amplitude": "1"},
    "multi_well": {
        "wells": '[{"name": "ball_well", "center": [0, 0, 0], "radius": 1, "depth": 1}]'
    },
}


def _potential_config(tmp_path, family, params):
    """SMALL_3D with this family and these parameters in [potential]."""
    assert BALL_3D_POTENTIAL in SMALL_3D
    lines = [f"family = {family}", *(f"{k} = {v}" for k, v in params.items())]
    path = tmp_path / f"{family}.cfg"
    path.write_text(textwrap.dedent(SMALL_3D.replace(BALL_3D_POTENTIAL, "\n    ".join(lines))))
    return path


_PART = '{"name": "ball_well", "center": [0.0, 0.0, 0.0], "depth": 12.0}'
#: blocks that cannot be built on SMALL_3D's 9^3 grid: a family, the key
#: that breaks it and its value, and what the error names (by default the
#: family and the key; a multi_well part's error names the part's family)
UNBUILDABLE = {
    "ball-negative-depth": ("ball_well", "depth", "-3"),
    "ball-infinite-depth": ("ball_well", "depth", "inf"),
    "ball-nan-radius": ("ball_well", "radius", "nan"),
    "ball-2d-center": ("ball_well", "center", "0, 0"),
    "ball-nan-center": ("ball_well", "center", "0, nan, 0"),
    "gaussian-zero-width": ("gaussian_well", "width", "0"),
    "gaussian-infinite-width": ("gaussian_well", "width", "inf"),
    "band-zero-cutoff": ("band_limited_random", "cutoff", "0"),
    "band-negative-seed": ("band_limited_random", "seed", "-1"),
    "band-infinite-amplitude": ("band_limited_random", "amplitude", "inf"),
    "multi-no-wells": ("multi_well", "wells", "[]"),
    "multi-not-a-list": ("multi_well", "wells", _PART),
    "multi-not-families": ("multi_well", "wells", '[{"name": "volcano"}]'),
    "multi-part-without-radius": (
        "multi_well", "wells", f"[{_PART}]", "ball_well: missing parameter 'radius'"
    ),
}


@pytest.mark.parametrize("command", ["run", "assemble", "splitting", "bounds"])
@pytest.mark.parametrize("case", UNBUILDABLE)
def test_a_potential_that_cannot_be_built_is_a_config_error(
    tmp_path, monkeypatch, capsys, command, case
):
    """A missing family parameter, or one that breaks its rule, exits 2 with a
    config error naming the family and the parameter on every subcommand
    that builds a potential, before any node is sampled; not 1 (a failed
    identity) with a traceback."""
    family, key, value, *named = UNBUILDABLE[case]
    named = named[0] if named else f"{family}: {key}"
    path = _potential_config(tmp_path, family, {**POTENTIALS[family], key: value})
    sampled = []
    monkeypatch.setattr(model, "_sample", lambda *args: sampled.append(args))
    where = ["--out", str(tmp_path)] if command == "run" else ["--level", "-0.5"]
    assert cli.main([command, str(path), *where]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert "Traceback" not in captured.err
    assert f"potential family {named}" in captured.err
    assert sampled == []


@pytest.mark.parametrize("command", ["run", "assemble", "splitting", "bounds"])
def test_a_potential_that_samples_to_a_non_finite_value_is_a_config_error(
    tmp_path, capsys, command
):
    """Two coincident wells of depth 1e308 each pass every parameter rule,
    but their sum overflows to -inf: every subcommand that builds the
    potential exits 2 with a config error naming the family; not 1 (a failed
    identity) with a traceback."""
    part = {"name": "ball_well", "center": [0, 0, 0], "radius": 1, "depth": 1e308}
    path = _potential_config(tmp_path, "multi_well", {"wells": json.dumps([part, part])})
    where = ["--out", str(tmp_path / "out")] if command == "run" else ["--level", "-0.5"]
    assert cli.main([command, str(path), *where]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert "Traceback" not in captured.err
    assert "potential family multi_well" in captured.err
    assert not (tmp_path / "out").exists()


def test_a_misspelt_key_exits_2(tmp_path, capsys):
    """A misspelt [sweeps] key exits 2 naming it; it does not run on the
    default shift grid."""
    path = tmp_path / "typo.cfg"
    text = SMALL_2D.replace("points = 3", "points = 3\n    lamda_max = 2.0")
    path.write_text(textwrap.dedent(text))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert "lamda_max" in captured.err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("family", POTENTIALS)
def test_each_unbroken_potential_block_builds(tmp_path, family):
    """The blocks UNBUILDABLE breaks one key of build as they are."""
    cfg = load_config(_potential_config(tmp_path, family, POTENTIALS[family]))
    assert model.build_potential(cfg.family, cfg.grid).values.min() < 0


BALL_2D = """\
    [grid]
    dimension = 2
    box = -2:2, -2:2
    resolution = 9, 9

    [potential]
    family = ball_well
    center = 0, 0
    radius = 1.2
    depth = 10.0

    [levels]
    values = -1.0
    """


def test_count_reads_a_previously_saved_pencil(tmp_path, capsys):
    """``golden/ball2d_pencil.json`` was written by ``assemble --save`` on
    BALL_2D at level -1 before the generic serializers were retired: it
    still loads and counts as it did then (the counts are those recorded
    with it), and saving today writes the same bytes."""
    stored = Path(__file__).resolve().parent / "golden" / "ball2d_pencil.json"
    recorded = {0.05: 1, 0.3: 3, 0.6: 4, 1.0: 6, 1.5: 11, 2.0: 15, 3.0: 20}
    for lam, count in recorded.items():
        assert cli.main(["count", "--lambda", str(lam), "--pencil", str(stored)]) == 0
        assert capsys.readouterr().out == f"{count}\n"
    cfg = tmp_path / "ball2d.cfg"
    cfg.write_text(textwrap.dedent(BALL_2D))
    save = tmp_path / "pencil.json"
    assert cli.main(["assemble", str(cfg), "--level", "-1.0", "--save", str(save)]) == 0
    assert save.read_bytes() == stored.read_bytes()


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
    """Below 3D the bound suite refuses like every other exit-2 error."""
    assert cli.main(["bounds", str(cfg2d), "--level", "-0.8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error:")
    assert "dimension >= 3" in captured.err


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
    # a file configparser refuses, a time grid outside 0 < t < inf, a
    # positive level, p = 0 and a reversed shift range exit 2 before anything
    # is factored
    factored = []
    monkeypatch.setattr(eigcount.Factorization, "__init__", lambda *args: factored.append(args))
    texts = [
        SMALL_3D.replace("points = 2", f"points = 2\n    {sweeps}")
        for sweeps in (
            "t_min = 0.1\n    t_min = 0.2",
            "t_min = 0",
            "t_max = inf",
            "lambda_min = 5\n    lambda_max = 1",
            "lambda_max = inf",
        )
    ]
    texts += [
        SMALL_3D.replace("values = -0.5", "values = -0.5, 0.25"),
        SMALL_3D.replace("p = 3.0", "p = 0"),
    ]
    for k, text in enumerate(texts):
        path = tmp_path / f"bad{k}.cfg"
        path.write_text(textwrap.dedent(text))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
    assert factored == []



# -- must-hold checks, each forced to fail ------------------------------------


def _violations(err: str) -> list:
    """The VIOLATION lines of a command's stderr, without their prefix."""
    prefix = "VIOLATION: "
    return [line[len(prefix):] for line in err.splitlines() if line.startswith(prefix)]


def test_a_failed_counting_inequality_exits_1(tmp_path, monkeypatch, capsys):
    """With every boundary count N_a2r_gamma forced to 0, N_full <= N_dir +
    N_a2r_gamma fails wherever N_full > N_dir: those rows read violated, the
    JSON lists them, and ``run`` prints each and exits 1, without a
    traceback."""
    monkeypatch.setattr(scenario, "count_below", lambda *args: 0)
    out = tmp_path / "out"
    assert cli.main(["run", str(CONFIG_DIR / "gaussian_well_2d.cfg"), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    with (out / "gauss2d_counts.csv").open() as f:
        rows = list(csv.DictReader(f))
    violated = [r for r in rows if r["verdict_counting"] == "violated"]
    assert violated == [r for r in rows if int(r["N_full"]) > int(r["N_dir"])]
    assert {r["N_a2r_gamma"] for r in rows} == {"0"}
    assert {r["identity_holds"] for r in rows} == {"true"}
    doc = json.loads((out / "gauss2d_bounds.json").read_text())
    assert doc["violations"] == [
        f"{r['scenario_id']}: counting inequality failed at lambda={r['lambda']}" for r in violated
    ]
    assert doc["violations"][0] == (
        "gauss2d-L00: counting inequality failed at lambda=3.5925755141226063"
    )
    assert _violations(captured.err) == doc["violations"]
    assert "Traceback" not in captured.err and "all must-hold" not in captured.out


def test_a_failed_operator_reduction_exits_1(tmp_path, monkeypatch, capsys):
    """With the box operator's count forced to 10^6, the operator reduction
    fails at every level: its report reads violated, the JSON lists each
    level, and ``run`` prints each and exits 1, without a traceback; the
    counting columns still hold."""
    monkeypatch.setattr(schrodinger.BoxOperator, "count_below", lambda self, e: 10**6)
    out = tmp_path / "out"
    assert cli.main(["run", str(CONFIG_DIR / "ball_well_3d.cfg"), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    doc = json.loads((out / "ball3d_bounds.json").read_text())
    assert doc["violations"] == [
        f"ball3d-L{k:02d}: operator reduction inequality failed at e={e!r}"
        for k, e in enumerate((-0.5, -2.0, -6.0))
    ]
    reductions = [
        rep for level in doc["scenarios"] for rep in level["reports"]
        if rep["name"] == "operator-reduction"
    ]
    assert [(rep["lhs"], rep["verdict"]) for rep in reductions] == [(10**6, "violated")] * 3
    with (out / "ball3d_counts.csv").open() as f:
        assert {r["verdict_counting"] for r in csv.DictReader(f)} == {"holds"}
    assert _violations(captured.err) == doc["violations"]
    assert "Traceback" not in captured.err


def test_a_failed_splitting_identity_exits_1(monkeypatch, capsys):
    """With N_a2r_nonpos moved by one, the identity N_full = N_dir +
    N_a2r_nonpos fails at every shift: ``splitting`` prints false on each
    row, then the count of failures, and exits 1, without a traceback."""
    real = a2r.splitting_counts

    def broken(*args, **kwargs):
        n_full, n_dir, n_bnd, _ = real(*args, **kwargs)
        return n_full, n_dir, n_bnd + 1, False

    monkeypatch.setattr(a2r, "splitting_counts", broken)
    argv = ["splitting", str(CONFIG_DIR / "gaussian_well_2d.cfg"), "--level", "-1.0"]
    assert cli.main([*argv, "--lambda-grid", "3"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 4 and all(line.endswith(",false") for line in lines[1:])
    assert _violations(captured.err) == ["identity failed on 3 shifts"]
    assert "Traceback" not in captured.err


def test_a_solver_error_that_is_not_a_config_error_exits_2(tmp_path, monkeypatch, capsys):
    """A dense eigensolver capped at order 50 refuses the 17^3 ball's order
    51 sector: ``run`` prints the error and exits 2, without a traceback,
    and writes no report."""
    monkeypatch.setattr(eigcount, "DENSE_CAP", 50)
    out = tmp_path / "out"
    assert cli.main(["run", str(CONFIG_DIR / "ball_well_3d.cfg"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: dense eigensolver capped at order 50, got 51"]
    assert not any(out.glob("*"))


# -- output paths that cannot be written ----------------------------------------


@pytest.mark.parametrize("where", ["--out", "directory"])
def test_an_output_directory_that_cannot_be_made_exits_2_before_counting(
    tmp_path, monkeypatch, capsys, where
):
    """An output directory that is an existing file, given by --out or by
    [output] directory, exits 2 with a config error naming it, without a
    traceback and before anything is factored."""
    taken = tmp_path / "taken"
    taken.write_text("")
    config = CONFIG_DIR / "empty_level_1d.cfg"
    argv = ["run", str(config), "--out", str(taken)]
    if where == "directory":
        config = tmp_path / "empty.cfg"
        text = (CONFIG_DIR / "empty_level_1d.cfg").read_text()
        config.write_text(text.replace("directory = out", f"directory = {taken}"))
        argv = ["run", str(config)]
    factored = []
    monkeypatch.setattr(eigcount.Factorization, "__init__", lambda *args: factored.append(args))
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and str(taken) in captured.err
    assert "Traceback" not in captured.err
    assert factored == []


@pytest.mark.parametrize("report", ["empty1d_counts.csv", "empty1d_bounds.json"])
def test_a_report_path_that_is_a_directory_exits_2_before_any_level(
    tmp_path, monkeypatch, capsys, report
):
    """A CSV or JSON report path that is an existing directory exits 2 with
    a config error naming it, without a traceback and before any level is
    classified."""
    out = tmp_path / "out"
    (out / report).mkdir(parents=True)
    classified = []
    monkeypatch.setattr(scenario, "classify_nodes", lambda *args: classified.append(args))
    assert cli.main(["run", str(CONFIG_DIR / "empty_level_1d.cfg"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and str(out / report) in captured.err
    assert "Traceback" not in captured.err
    assert classified == []


def test_a_report_that_cannot_be_written_exits_2(tmp_path, monkeypatch, capsys):
    """An OSError from the final report writes is a config error naming the
    path, not a traceback."""
    out = tmp_path / "out"

    def full(self, *args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(scenario.Path, "write_text", full)
    assert cli.main(["run", str(CONFIG_DIR / "empty_level_1d.cfg"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert str(out / "empty1d_counts.csv") in captured.err
    assert "Traceback" not in captured.err


def test_a_pencil_that_cannot_be_saved_exits_2(cfg2d, tmp_path, capsys):
    """``assemble --save`` under a path that is a file exits 2 with a config
    error naming the path, without a traceback."""
    taken = tmp_path / "taken"
    taken.write_text("")
    save = taken / "p.json"
    assert cli.main(["assemble", str(cfg2d), "--level", "-0.8", "--save", str(save)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and str(save) in captured.err
    assert "Traceback" not in captured.err
