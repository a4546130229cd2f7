import gc
import tracemalloc
import json
import os
import subprocess
import sys
import textwrap
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from wellspectra import a2r, bounds, eigcount, scenario, schrodinger
from wellspectra.assemble import assemble_pencil, classify_nodes
from wellspectra.errors import ConfigError, OnEigenvalue
from wellspectra.model import HOLDS, NOT_APPLICABLE, Inertia, SpectralSummary, build_potential
from wellspectra.scenario import (
    CSV_COLUMNS,
    _fmt,
    _LevelRun,
    _nudged,
    load_config,
    run_scenario,
    write_csv,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _write(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


SMALL_2D = """\
    [grid]
    dimension = 2
    box = -2:2, -2:2
    resolution = 17, 17

    [potential]
    family = gaussian_well
    center = 0, 0
    width = 0.6
    depth = 4.0

    [levels]
    values = -1.5, -0.8

    [sweeps]
    points = 3

    [output]
    prefix = small2d

    [seed]
    value = 5
    """

SMALL_3D = """\
    [grid]
    dimension = 3
    box = -2:2, -2:2, -2:2
    resolution = 9, 9, 9

    [potential]
    family = ball_well
    center = 0, 0, 0
    radius = 1.0
    depth = 12.0

    [levels]
    values = -0.5

    [sweeps]
    points = 2

    [constants]
    p = 3.0
    L_n = 0.1156
    b_samples = 40
    cp_samples = 100

    [output]
    prefix = small3d

    [seed]
    value = 7
    """


def test_load_bundled_benchmark_config():
    cfg = load_config(CONFIG_DIR / "ball_well_3d.cfg")
    assert cfg.grid.dimension == 3
    assert cfg.grid.resolution == (17, 17, 17)
    assert cfg.family["name"] == "ball_well"
    assert cfg.levels == [-0.5, -2.0, -6.0]
    assert cfg.constants.p == 3.0
    assert cfg.prefix == "ball3d"
    assert cfg.seed == 7


def test_load_config_ignores_retired_constants_keys(tmp_path):
    """c_P and cp_samples are no longer read; a config that sets them loads
    as before."""
    text = SMALL_3D.replace("cp_samples = 100", "cp_samples = 100\n    c_P = 12.5")
    cfg = load_config(_write(tmp_path, text))
    assert cfg.constants.b_samples == 40 and cfg.constants.L_n == 0.1156
    assert not hasattr(cfg.constants, "c_P")
    assert not hasattr(cfg.constants, "cp_samples")


def test_load_config_level_range(tmp_path):
    path = _write(
        tmp_path,
        SMALL_2D.replace("values = -1.5, -0.8", "count = 4\n    min = -2\n    max = -0.5"),
    )
    cfg = load_config(path)
    assert cfg.levels == pytest.approx(list(np.linspace(-2, -0.5, 4)))


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")
    bad = _write(tmp_path, "[grid]\ndimension = 2\n", name="bad.cfg")
    with pytest.raises(ConfigError):
        load_config(bad)
    mismatch = _write(
        tmp_path, SMALL_2D.replace("dimension = 2", "dimension = 3"), name="dim.cfg"
    )
    with pytest.raises(ConfigError):
        load_config(mismatch)
    bad_family = _write(
        tmp_path,
        SMALL_2D.replace("family = gaussian_well", "family = volcano"),
        name="fam.cfg",
    )
    with pytest.raises(ConfigError):
        load_config(bad_family)
    bad_omega = _write(
        tmp_path,
        SMALL_2D + "\n[constants]\nomega_convention = diameter\n",
        name="omega.cfg",
    )
    with pytest.raises(ConfigError):
        load_config(bad_omega)
    bad_points = _write(
        tmp_path, SMALL_2D.replace("points = 3", "points = 0"), name="pts.cfg"
    )
    with pytest.raises(ConfigError):
        load_config(bad_points)
    # configparser's own errors: a repeated option, no section header, a
    # line that is not a key/value pair
    malformed = [
        SMALL_2D.replace("points = 3", "points = 3\n    t_min = 0.1\n    t_min = 0.2"),
        "garbage line\n",
        SMALL_2D.replace("dimension = 2", "dimension = 2\n    not a pair"),
    ]
    # a time grid that does not lie in 0 < t < inf
    malformed += [
        SMALL_2D.replace("points = 3", f"points = 3\n    {key} = {value}")
        for key, value in (
            ("t_min", "0"), ("t_min", "-1"), ("t_max", "0"), ("t_max", "-5"),
            ("t_max", "inf"), ("t_min", "inf"), ("t_min", "nan"),
        )
    ]
    # a positive level, given or spanned
    malformed += [
        SMALL_2D.replace("values = -1.5, -0.8", levels)
        for levels in ("values = -1.5, 0.25", "count = 3\n    min = -1\n    max = 0.5")
    ]
    # an exponent that is not finite and > 0
    malformed += [SMALL_2D + f"\n[constants]\np = {p}\n" for p in ("0", "-1", "nan", "inf")]
    # a constant that is not finite (L_n also not > 0), or no b sample
    malformed += [
        SMALL_2D + f"\n[constants]\n{key} = {value}\n"
        for key, value in (
            ("L_n", "-1"), ("L_n", "0"), ("L_n", "nan"), ("L_n", "inf"),
            ("b", "nan"), ("b", "inf"), ("b", "-inf"),
            ("b_samples", "0"), ("b_samples", "-5"),
        )
    ]
    # a shift range with a given end <= 0, or given ends out of order
    malformed += [
        SMALL_2D.replace("points = 3", f"points = 3\n    {ends}")
        for ends in (
            "lambda_min = 5\n    lambda_max = 1",
            "lambda_min = 0",
            "lambda_min = -2",
            "lambda_max = -1",
            "lambda_min = -2\n    lambda_max = 1",
        )
    ]
    for k, text in enumerate(malformed):
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, text, name=f"malformed{k}.cfg"))
    # a level of 0 and a one-point shift range stay allowed; a single given
    # end may still cross a default end, which lambda_grid checks per level
    for k, text in enumerate(
        [
            SMALL_2D.replace("values = -1.5, -0.8", "values = -1.5, 0"),
            SMALL_2D.replace("points = 3", "points = 3\n    lambda_min = 2\n    lambda_max = 2"),
            SMALL_2D.replace("points = 3", "points = 3\n    lambda_min = 1e6"),
        ]
    ):
        load_config(_write(tmp_path, text, name=f"allowed{k}.cfg"))
    descending = _write(
        tmp_path, SMALL_2D.replace("points = 3", "points = 3\n    t_min = 5\n    t_max = 0.1")
    )
    sweep = load_config(descending).sweep  # a descending time grid stays allowed
    assert (sweep.t_min, sweep.t_max) == (5.0, 0.1)


def test_fmt_is_deterministic_text():
    assert _fmt(None) == ""
    assert _fmt(True) == "true"
    assert _fmt(False) == "false"
    assert _fmt(3) == "3"
    assert _fmt(np.int64(4)) == "4"
    assert _fmt(0.1) == "0.1"
    assert _fmt(np.float64(1.0 / 3.0)) == repr(1.0 / 3.0)
    assert _fmt("x") == "x"


def test_nudged_protocol():
    calls = []

    def flaky(x):
        calls.append(x)
        if len(calls) < 3:
            raise OnEigenvalue("try again")
        return "done"

    x, out = _nudged(flaky, 2.0, "lambda")
    assert out == "done"
    assert x == pytest.approx(2.0 * (1 + 1e-9) ** 2)
    assert calls[0] == 2.0

    def always(x):
        raise OnEigenvalue("stuck")

    with pytest.raises(OnEigenvalue):
        _nudged(always, 1.0, "lambda")
    # zero has no multiplicative neighborhood; the protocol steps to 1e-9
    calls.clear()

    def zero_probe(x):
        calls.append(x)
        if len(calls) == 1:
            raise OnEigenvalue("zero")
        return None

    _nudged(zero_probe, 0.0, "gamma")
    assert calls == [0.0, 1e-9]


def test_run_scenario_2d(tmp_path):
    path = _write(tmp_path, SMALL_2D)
    result = run_scenario(path, out_dir=tmp_path / "out")
    assert result.exit_code == 0
    assert result.violations == []
    assert len(result.rows) == 2 * 3  # levels x sweep points
    text = result.csv_path.read_text()
    header = text.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    for row in result.rows:
        assert row["identity_holds"] is True
        assert row["verdict_counting"] == HOLDS
        # no closed-form bounds in dimension 2
        assert row["bound_thm54"] is None
        assert row["verdict_thm54"] == NOT_APPLICABLE
        assert row["N_full"] == row["N_dir"] + row["N_a2r_nonpos"]
    doc = json.loads(result.json_path.read_text())
    assert doc["schema_version"] == 1
    assert doc["violations"] == []
    names = {rep["name"] for sc in doc["scenarios"] for rep in sc["reports"]}
    assert "operator-reduction" in names
    assert "poisson-kernel-constant" in names


def test_run_scenario_3d_bounds(tmp_path):
    path = _write(tmp_path, SMALL_3D)
    result = run_scenario(path, out_dir=tmp_path / "out")
    assert result.exit_code == 0
    for row in result.rows:
        assert row["verdict_thm54"] == HOLDS
        assert row["verdict_thm59"] == HOLDS
        assert row["verdict_trace"] == HOLDS
        assert row["bound_thm54"] >= row["N_dir"]
        assert row["trace_bound"] >= row["heat_trace_t"]
    doc = json.loads(result.json_path.read_text())
    (sc,) = doc["scenarios"]
    assert sc["constants"]["n"] == 3
    assert "EMPIRICAL" in sc["constants"]["b_provenance"]
    names = [rep["name"] for rep in sc["reports"]]
    assert "semigroup-2inf-bound" in names
    (kernel,) = [rep for rep in sc["reports"] if rep["name"] == "poisson-kernel-constant"]
    pairs = sc["n_interior"] * sc["n_boundary"]  # one component: P0 > 0 everywhere
    assert kernel["notes"] == (
        f"c_P exact: maximum over all {pairs} interior/boundary pairs with P0 > 0"
    )
    assert "operator-count-bound" in names  # L_n was supplied
    for rep in sc["reports"]:
        assert rep["verdict"] in ("holds", "not-applicable"), rep


def test_run_scenario_empty_level(tmp_path):
    result = run_scenario(CONFIG_DIR / "empty_level_1d.cfg", out_dir=tmp_path / "out")
    assert result.exit_code == 0
    (row,) = result.rows
    assert row["N_full"] == 0 and row["N_dir"] == 0
    assert row["lambda"] is None
    assert row["verdict_counting"] == NOT_APPLICABLE
    doc = json.loads(result.json_path.read_text())
    (sc,) = doc["scenarios"]
    assert sc["empty"] is True
    (rep,) = sc["reports"]
    assert rep["name"] == "operator-reduction"
    assert rep["lhs"] == 0 and rep["verdict"] == "holds"


def test_run_scenario_gives_identical_bytes_twice(tmp_path):
    path = _write(tmp_path, SMALL_2D)
    outputs = []
    for run in ("a", "b"):
        result = run_scenario(path, out_dir=tmp_path / f"out_{run}")
        outputs.append(
            (result.csv_path.read_bytes(), result.json_path.read_bytes())
        )
    assert outputs[0] == outputs[1]


def test_write_csv_preserves_column_order(tmp_path):
    row = {col: None for col in CSV_COLUMNS}
    row.update(scenario_id="x", e=-1.0, N_full=2, identity_holds=False)
    path = tmp_path / "t.csv"
    write_csv(path, [row])
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "x" and cells[1] == "-1.0"
    assert cells[CSV_COLUMNS.index("N_full")] == "2"
    assert cells[CSV_COLUMNS.index("identity_holds")] == "false"


def _record_factorizations(monkeypatch):
    """Record each factored matrix, densely and in its own (unpermuted)
    order, and count SuperLU's minimum-degree orderings by matrix order."""
    factored = []
    orderings = Counter()
    real_init = eigcount.Factorization.__init__
    real_splu = eigcount.splu

    def recording_init(self, A, perm=None, **kwargs):
        dense = A.toarray() if sp.issparse(A) else np.array(A)
        if perm is not None:  # a shift-family factor of X, given as X[perm][:, perm]
            inverse = np.argsort(perm)
            dense = dense[np.ix_(inverse, inverse)]
        factored.append(dense)
        real_init(self, A, perm, **kwargs)

    def recording_splu(A, *args, permc_spec=None, **kwargs):
        if permc_spec == "MMD_AT_PLUS_A":
            orderings[A.shape[0]] += 1
        return real_splu(A, *args, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(eigcount.Factorization, "__init__", recording_init)
    monkeypatch.setattr(eigcount, "splu", recording_splu)
    return factored, orderings


def test_level_factors_each_shift_once(tmp_path, monkeypatch):
    """One level of a small 3D ball: each sweep shift factors
    (K - lam*M)_II exactly once, P0 and the Gram check (one
    two_infinity_norm call) run once, the pencil is classified and
    assembled once, K_II is factored once (for P0), no factorization
    outlives the call that used it although the level keeps its pencil,
    shift families and box operator, S(lam) is still formed (from the
    level's pinned spectrum) and factored on its own, and each of the pinned
    block and the full pencil is ordered by minimum degree once; the box
    operator of the compact ball takes the Birman-Schwinger route, which
    orders nothing."""
    cfg = load_config(_write(tmp_path, SMALL_3D.replace("points = 2", "points = 4")))
    V = build_potential(cfg.family, cfg.grid)

    factored, orderings = _record_factorizations(monkeypatch)
    made = []
    recording_init = eigcount.Factorization.__init__

    def referenced_init(self, A, perm=None, **kwargs):
        made.append(weakref.ref(self))
        recording_init(self, A, perm, **kwargs)

    monkeypatch.setattr(eigcount.Factorization, "__init__", referenced_init)
    calls = Counter()

    def count_calls(module, name, key=lambda *args: ()):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[(name, *key(*args))] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    count_calls(a2r, "poisson_matrix", key=lambda p, lam, *rest: (float(lam),))
    count_calls(a2r, "two_infinity_norm")
    for module in (scenario, schrodinger):
        count_calls(module, "classify_nodes")
        count_calls(module, "assemble_pencil")

    level = _LevelRun(cfg, V, 0, cfg.levels[0]).run()
    monkeypatch.undo()

    assert len(level.rows) == 4 and level.violations == []
    assert calls[("poisson_matrix", 0.0)] == 1
    assert calls[("two_infinity_norm",)] == 1  # the one w-orthonormality check
    assert calls[("classify_nodes",)] == 1
    assert calls[("assemble_pencil",)] == 1
    p = level.pencil

    def times_factored(B):
        return sum(A.shape == B.shape and np.array_equal(A, B) for A in factored)

    assert times_factored(p.K_II.toarray()) == 1  # the P0 factor, which checks K_II
    gc.collect()
    assert made and all(ref() is None for ref in made)
    for row in level.rows:
        lam = row["lambda"]
        assert times_factored((p.K_II - lam * sp.diags(p.M_interior)).toarray()) == 1
        assert times_factored(level.spectrum.schur_form(lam)) == 1
        assert times_factored((p.K - lam * sp.diags(p.M)).toarray()) == 1
    assert orderings == {p.n_interior: 1, p.order: 1}
    assert level.box.route == "birman-schwinger"


def test_each_level_is_released_before_the_next_starts(tmp_path, monkeypatch):
    """run_scenario lets go of a level (its pencil, shift families and W)
    before the next level classifies its nodes, so two levels never share
    the peak."""
    pencils = []
    alive = []
    real_classify, real_assemble = scenario.classify_nodes, scenario.assemble_pencil

    def classify(*args, **kwargs):
        alive.append([ref() is not None for ref in pencils])
        return real_classify(*args, **kwargs)

    def assemble(*args, **kwargs):
        pencil = real_assemble(*args, **kwargs)
        pencils.append(weakref.ref(pencil))
        return pencil

    monkeypatch.setattr(scenario, "classify_nodes", classify)
    monkeypatch.setattr(scenario, "assemble_pencil", assemble)
    text = SMALL_3D.replace("values = -0.5", "values = -0.5, -2.0, -6.0")
    result = run_scenario(_write(tmp_path, text), out_dir=tmp_path / "out")
    assert result.exit_code == 0
    assert alive == [[], [False], [False, False]]


def test_2d_level_computes_no_eigenvectors(tmp_path, monkeypatch):
    cfg = load_config(_write(tmp_path, SMALL_2D))
    V = build_potential(cfg.family, cfg.grid)
    asked = []
    real = scenario.pencil_eigs

    def recording(K, M, want_vectors=False):
        asked.append(want_vectors)
        return real(K, M, want_vectors=want_vectors)

    monkeypatch.setattr(scenario, "pencil_eigs", recording)
    level = _LevelRun(cfg, V, 0, cfg.levels[0]).run()
    assert asked == [False]
    assert level.spectrum.two_infinity is None and level.violations == []
    assert level.spectrum.schur_form(level.rows[0]["lambda"]) is None  # the Poisson route


def _box_shape(cfg):
    return (int(np.prod([r - 2 for r in cfg.grid.resolution])),) * 2


def test_scenario_factors_the_box_operator_once(tmp_path, monkeypatch):
    """Both levels of the scenario read their box counts off one
    factorization, made inside the first reduction check."""
    path = _write(tmp_path, SMALL_2D)
    cfg = load_config(path)
    factored, orderings = _record_factorizations(monkeypatch)
    result = run_scenario(path, out_dir=tmp_path / "out")
    assert result.exit_code == 0
    assert [A.shape for A in factored].count(_box_shape(cfg)) == 1
    assert orderings[_box_shape(cfg)[0]] == 1
    reps = [
        rep
        for sc in result.document["scenarios"]
        for rep in sc["reports"]
        if rep["name"] == "operator-reduction"
    ]
    assert len(reps) == len(cfg.levels) and all(r["verdict"] == HOLDS for r in reps)


def test_level_on_the_box_spectrum_is_skipped_not_nudged(tmp_path, monkeypatch):
    """A box operator singular at e stays singular whatever lambda is: the
    report is skipped after one count attempt, with a note naming it."""
    cfg = load_config(_write(tmp_path, SMALL_2D))
    V = build_potential(cfg.family, cfg.grid)
    attempts = []

    class Singular(eigcount.ShiftFamily):
        def factor(self, lam):
            factor = super().factor(lam)
            attempts.append((factor.order, factor.order))
            inert = factor.inertia
            factor.inertia = Inertia(inert.n_minus, 1, inert.n_plus - 1)
            return factor

    monkeypatch.setattr(schrodinger, "ShiftFamily", Singular)
    level = _LevelRun(cfg, V, 0, cfg.levels[0]).run()
    assert attempts == [_box_shape(cfg)]
    (rep,) = [r for r in level.reports if r.name == "operator-reduction"]
    assert rep.verdict == NOT_APPLICABLE and rep.lhs is None
    assert rep.notes == "skipped: shift lies on the box operator spectrum (n_zero=1)"
    assert level.violations == []


def test_3d_level_makes_one_multi_column_pinned_solve(tmp_path, monkeypatch):
    """A 3D level solves the pinned block for a block of right-hand sides
    once, for P0; every sweep point reads S(lam) off the level's eigenpairs."""
    cfg = load_config(_write(tmp_path, SMALL_3D.replace("points = 2", "points = 4")))
    V = build_potential(cfg.family, cfg.grid)
    block_solves = []
    real_solve = eigcount.Factorization.solve

    def recording_solve(self, rhs):
        if np.ndim(rhs) == 2:
            block_solves.append((self.order, np.shape(rhs)[1]))
        return real_solve(self, rhs)

    monkeypatch.setattr(eigcount.Factorization, "solve", recording_solve)
    level = _LevelRun(cfg, V, 0, cfg.levels[0]).run()
    p = level.pencil
    assert len(level.rows) == 4 and level.violations == []
    assert level.spectrum.schur_form(level.rows[0]["lambda"]) is not None
    assert block_solves == [(p.n_interior, p.n_boundary)]


def test_3d_level_frees_its_eigenvectors_once_the_spectrum_is_built(tmp_path, monkeypatch):
    """The |I|^2 pinned eigenvector array is gone by the first sweep point:
    the level's PinnedSpectrum keeps the eigenvalues, the 2->infinity norms
    and W = K_BI X, and nothing keeps X."""
    cfg = load_config(_write(tmp_path, SMALL_3D))
    V = build_potential(cfg.family, cfg.grid)
    vectors = []
    alive_at_sweep = []
    real_eigs, real_split = scenario.pencil_eigs, a2r.splitting_counts

    def eigs(*args, **kwargs):
        s = real_eigs(*args, **kwargs)
        vectors.append(weakref.ref(s.eigenvectors))
        return s

    def split(*args, **kwargs):
        gc.collect()
        alive_at_sweep.append(vectors[0]() is not None)
        return real_split(*args, **kwargs)

    monkeypatch.setattr(scenario, "pencil_eigs", eigs)
    monkeypatch.setattr(a2r, "splitting_counts", split)
    level = _LevelRun(cfg, V, 0, cfg.levels[0]).run()
    assert len(vectors) == 1 and level.violations == []
    assert alive_at_sweep and not any(alive_at_sweep)
    assert level.spectrum.two_infinity is not None


def test_run_scenario_certifies_the_box_before_the_first_level(tmp_path, monkeypatch):
    """The box operator is factored and certified before any level computes
    its pinned spectrum, so its factor never sits on top of one."""
    events = []
    real_certify = schrodinger.BoxOperator._certify
    real_eigs = scenario.pencil_eigs

    def certify(self):
        events.append("box")
        return real_certify(self)

    def eigs(*args, **kwargs):
        events.append("pencil_eigs")
        return real_eigs(*args, **kwargs)

    monkeypatch.setattr(schrodinger.BoxOperator, "_certify", certify)
    monkeypatch.setattr(scenario, "pencil_eigs", eigs)
    result = run_scenario(_write(tmp_path, SMALL_3D), out_dir=tmp_path / "out")
    assert result.exit_code == 0
    assert events == ["box", "pencil_eigs"]


def test_a_failed_box_certificate_is_reported_by_the_first_level_that_counts(
    tmp_path, monkeypatch
):
    """An exception raised while certifying the box before the levels run is
    kept and raised by the first box count, whose report is skipped with its
    message; the next level counts its own shift, as it would had the
    certificate been made inside the first count."""

    def failing(*args, **kwargs):
        raise RuntimeError("Lanczos broke down")

    monkeypatch.setattr(schrodinger, "_bound_states", failing)
    result = run_scenario(_write(tmp_path, SMALL_2D), out_dir=tmp_path / "out")
    notes = [
        (rep["verdict"], rep["notes"])
        for sc in result.document["scenarios"]
        for rep in sc["reports"]
        if rep["name"] == "operator-reduction"
    ]
    assert notes == [(NOT_APPLICABLE, "skipped: Lanczos broke down"), (HOLDS, "")]


# -- levels on one plateau of V -------------------------------------------

BALL_PLATEAU_3D = SMALL_3D.replace("resolution = 9, 9, 9", "resolution = 13, 13, 13").replace(
    "values = -0.5", "values = -0.5, -2.0, -6.0"
)

BALL_PLATEAU_2D = """\
    [grid]
    dimension = 2
    box = -2:2, -2:2
    resolution = 31, 31

    [potential]
    family = ball_well
    center = 0, 0
    radius = 1.0
    depth = 12.0

    [levels]
    values = -0.5, -2.0, -6.0

    [sweeps]
    points = 3

    [output]
    prefix = ball2d

    [seed]
    value = 5
    """

# two concentric steps: V = -12 for r < 0.8, -4 for 0.8 < r < 1.5, else 0;
# levels in (-12, -4] carve the inner plateau, levels above -4 the outer set
NESTED_STEPS_3D = SMALL_3D.replace("resolution = 9, 9, 9", "resolution = 13, 13, 13").replace(
    """family = ball_well
    center = 0, 0, 0
    radius = 1.0
    depth = 12.0""",
    """family = multi_well
    wells = [{"name": "ball_well", "center": [0, 0, 0], "radius": 1.5, "depth": 4.0},
        {"name": "ball_well", "center": [0, 0, 0], "radius": 0.8, "depth": 8.0}]""",
).replace("values = -0.5", "values = -5.0, -6.0, -1.0, -7.0, -8.0")


def _assert_close(a, b, where=""):
    """Equal structure; ints, strings, flags and None equal; floats to rtol 1e-10."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_close(a[key], b[key], f"{where}/{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float) and not isinstance(b, bool):
        assert b == pytest.approx(a, rel=1e-10, abs=0.0), where
    else:
        assert type(a) is type(b) and a == b, where


def _assert_levels_run_alone_alike(cfg, result):
    """Every level of ``result`` reads, row for row and report for report,
    what a standalone _LevelRun of it reads: integer columns equal, floats
    to rtol 1e-10."""
    V = build_potential(cfg.family, cfg.grid)
    for index, e in enumerate(cfg.levels):
        alone = _LevelRun(cfg, V, index, e).run()
        rows = [r for r in result.rows if r["scenario_id"] == alone.scenario_id]
        doc = result.document["scenarios"][index]
        for row, lone in zip(rows, alone.rows, strict=True):
            for col in ("N_full", "N_dir", "N_a2r_nonpos", "N_a2r_gamma", "identity_holds"):
                assert row[col] == lone[col], (alone.scenario_id, col)
        _assert_close(alone.rows, rows, alone.scenario_id)
        _assert_close([rep.to_dict() for rep in alone.reports], doc["reports"], alone.scenario_id)
        _assert_close({k: doc[k] for k in alone.meta}, alone.meta, alone.scenario_id)


def _count_pinned_work(monkeypatch):
    """Record the masses of every pinned pencil_eigs call of the runner, the
    shifts of every Poisson matrix and the shape of every multi-column
    solve."""
    eigs, poisson, block_solves = [], [], []
    real_eigs, real_poisson = scenario.pencil_eigs, a2r.poisson_matrix
    real_solve = eigcount.Factorization.solve

    def recording_eigs(K, M, want_vectors=False):
        eigs.append(np.array(M))
        return real_eigs(K, M, want_vectors=want_vectors)

    def recording_poisson(p, lam, *args, **kwargs):
        poisson.append(float(lam))
        return real_poisson(p, lam, *args, **kwargs)

    def recording_solve(self, rhs):
        if np.ndim(rhs) == 2:
            block_solves.append((self.order, np.shape(rhs)[1]))
        return real_solve(self, rhs)

    monkeypatch.setattr(scenario, "pencil_eigs", recording_eigs)
    monkeypatch.setattr(a2r, "poisson_matrix", recording_poisson)
    monkeypatch.setattr(eigcount.Factorization, "solve", recording_solve)
    return eigs, poisson, block_solves


def _first_masses(cfg, indices):
    """The interior masses of the pencils of the levels ``indices``."""
    V = build_potential(cfg.family, cfg.grid)
    return [
        assemble_pencil(classify_nodes(V, cfg.levels[i]), V, cfg.levels[i]).M_interior
        for i in indices
    ]


def test_plateau_runs_need_one_set_and_one_value_of_v(tmp_path):
    """A level joins the previous level's run only when both carve one set
    on which V is constant: every level of the ball, no two levels of a
    Gaussian well, and across the nested steps only the inner plateau."""
    def runs(text):
        cfg = load_config(_write(tmp_path, text))
        return scenario._plateau_runs(build_potential(cfg.family, cfg.grid), cfg.levels)

    assert runs(BALL_PLATEAU_3D) == [[0, 1, 2]]
    gaussian = BALL_PLATEAU_3D.replace("ball_well", "gaussian_well").replace(
        "radius = 1.0", "width = 0.6"
    )
    assert runs(gaussian) == [[0], [1], [2]]
    assert runs(NESTED_STEPS_3D) == [[0, 1], [2], [3, 4]]
    # an empty level is on no plateau, and one below it starts a new run
    assert runs(BALL_PLATEAU_3D.replace("-2.0", "-13.0")) == [[0], [1], [2]]


def test_3d_ball_plateau_makes_one_pinned_eigendecomposition_and_one_pinned_solve(
    tmp_path, monkeypatch
):
    """The three levels of a 13^3 ball carve one set at one value of V: one
    pinned eigendecomposition, with the first level's masses, and one
    multi-column pinned solve (P0) serve all three, and each level reads
    what it would read alone."""
    path = _write(tmp_path, BALL_PLATEAU_3D)
    cfg = load_config(path)
    eigs, poisson, block_solves = _count_pinned_work(monkeypatch)
    result = run_scenario(path, out_dir=tmp_path / "out")
    monkeypatch.undo()
    assert result.exit_code == 0
    ni, nb = (result.document["scenarios"][0][k] for k in ("n_interior", "n_boundary"))
    (first,) = _first_masses(cfg, [0])
    assert len(eigs) == 1 and np.array_equal(eigs[0], first)
    assert poisson == [0.0]
    assert block_solves == [(ni, nb)]
    _assert_levels_run_alone_alike(cfg, result)


def test_2d_ball_plateau_shares_its_values_only_spectrum(tmp_path, monkeypatch):
    """On a 31^2 ball the one shared pinned spectrum comes by the
    values-only band route; every sweep point still solves for its own
    Poisson matrix, and each level reads what it would read alone."""
    path = _write(tmp_path, BALL_PLATEAU_2D)
    cfg = load_config(path)
    eigs, poisson, _ = _count_pinned_work(monkeypatch)
    result = run_scenario(path, out_dir=tmp_path / "out")
    monkeypatch.undo()
    assert result.exit_code == 0
    assert len(eigs) == 1 and np.array_equal(eigs[0], _first_masses(cfg, [0])[0])
    assert poisson.count(0.0) == 1
    assert len(poisson) == 1 + len(result.rows)
    _assert_levels_run_alone_alike(cfg, result)


def test_gaussian_levels_each_make_their_own_eigendecomposition(tmp_path, monkeypatch):
    """No two levels of a Gaussian well share a set at one value of V: each
    computes its pinned spectrum with its own masses, and its own P0."""
    text = BALL_PLATEAU_3D.replace("ball_well", "gaussian_well").replace(
        "radius = 1.0", "width = 0.6"
    )
    eigs, poisson, block_solves = _count_pinned_work(monkeypatch)
    result = run_scenario(_write(tmp_path, text), out_dir=tmp_path / "out")
    monkeypatch.undo()
    assert result.exit_code == 0
    assert len(eigs) == 3 and not any(np.all(m == 1.0) for m in eigs)
    assert poisson == [0.0] * 3 and len(block_solves) == 3


def test_plateaus_share_nothing_across_a_level_on_another_set(tmp_path, monkeypatch):
    """Levels -5, -6 and -7, -8 carve the inner step; -1 between them
    carves the outer set.  Each run computes its own sublevel problem with
    the masses of its first level (-5, -1 and -7), and every level reads
    what it would read alone."""
    path = _write(tmp_path, NESTED_STEPS_3D)
    cfg = load_config(path)
    eigs, poisson, block_solves = _count_pinned_work(monkeypatch)
    result = run_scenario(path, out_dir=tmp_path / "out")
    monkeypatch.undo()
    assert result.exit_code == 0
    first = _first_masses(cfg, [0, 2, 3])
    assert len(eigs) == 3 and all(np.array_equal(m, f) for m, f in zip(eigs, first))
    assert poisson == [0.0] * 3 and len(block_solves) == 3
    _assert_levels_run_alone_alike(cfg, result)


def test_plateau_eigenvectors_are_gone_by_the_last_levels_first_sweep_point(
    tmp_path, monkeypatch
):
    """The run keeps its first level's eigenvectors X for its later levels
    and lets go of them once its last level has built its spectrum."""
    vectors = []
    alive_at_sweep = []
    levels_started = []
    real_eigs, real_split, real_run = scenario.pencil_eigs, a2r.splitting_counts, _LevelRun.run

    def eigs(*args, **kwargs):
        s = real_eigs(*args, **kwargs)
        vectors.append(weakref.ref(s.eigenvectors))
        return s

    def split(*args, **kwargs):
        alive_at_sweep.append((len(levels_started), vectors[0]() is not None))
        return real_split(*args, **kwargs)

    def run(self):
        levels_started.append(self.e)
        return real_run(self)

    monkeypatch.setattr(scenario, "pencil_eigs", eigs)
    monkeypatch.setattr(a2r, "splitting_counts", split)
    monkeypatch.setattr(_LevelRun, "run", run)
    result = run_scenario(_write(tmp_path, BALL_PLATEAU_3D), out_dir=tmp_path / "out")
    assert result.exit_code == 0 and len(vectors) == 1
    alive = {level: {flag for lv, flag in alive_at_sweep if lv == level} for level in (1, 2, 3)}
    assert alive == {1: {True}, 2: {True}, 3: {False}}


def test_a_plateau_estimates_b_once(tmp_path, monkeypatch):
    """The three levels of a 13^3 ball report one b, estimated once; the
    three levels of a Gaussian well, runs of one, estimate it each."""
    calls = []
    real = bounds.estimate_b

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds, "estimate_b", recording)
    gaussian = BALL_PLATEAU_3D.replace("ball_well", "gaussian_well").replace(
        "radius = 1.0", "width = 0.6"
    )
    estimates, bs = {}, {}
    for name, text in [("ball", BALL_PLATEAU_3D), ("gauss", gaussian)]:
        calls.clear()
        result = run_scenario(_write(tmp_path, text), out_dir=tmp_path / name)
        assert result.exit_code == 0
        estimates[name] = len(calls)
        bs[name] = [doc["constants"]["b"] for doc in result.document["scenarios"]]
    assert estimates == {"ball": 1, "gauss": 3}
    assert len(bs["ball"]) == 3 and bs["ball"][0] is not None and len(set(bs["ball"])) == 1
    assert len(bs["gauss"]) == 3 and None not in bs["gauss"]


@pytest.mark.parametrize("text", [BALL_PLATEAU_3D, BALL_PLATEAU_2D], ids=["3d", "2d"])
def test_a_plateaus_first_level_is_the_level_run_alone(tmp_path, text):
    """The first level of a plateau computes its sublevel problem exactly as
    a standalone _LevelRun does: equal rows and reports, float for float."""
    path = _write(tmp_path, text)
    cfg = load_config(path)
    result = run_scenario(path, out_dir=tmp_path / "out")
    alone = _LevelRun(cfg, build_potential(cfg.family, cfg.grid), 0, cfg.levels[0]).run()
    rows = [r for r in result.rows if r["scenario_id"] == alone.scenario_id]
    assert rows == alone.rows
    assert result.document["scenarios"][0]["reports"] == [rep.to_dict() for rep in alone.reports]


def test_a_later_plateau_level_reads_the_runs_eigenvectors_without_a_copy(tmp_path):
    """A later level of the 13^3 ball's plateau builds its PinnedSpectrum off
    the run's first eigenvectors X_1 and sqrt(r): beyond the W and K_BB it
    keeps, it allocates less than half an |I|^2 array at its peak, and its
    2->infinity norms and W equal, bit for bit, those of a PinnedSpectrum
    of the copy X_1 sqrt(r) with mu_1 r."""
    cfg = load_config(_write(tmp_path, BALL_PLATEAU_3D))
    V = build_potential(cfg.family, cfg.grid)
    pencils = [assemble_pencil(classify_nodes(V, e), V, e) for e in cfg.levels]
    t = np.geomspace(cfg.sweep.t_min, cfg.sweep.t_max, cfg.sweep.points)
    run = scenario._Run(len(pencils))
    run.pinned_spectrum(pencils[0], True, t)
    first = run.spectrum
    n = first.eigenvectors.shape[0]
    for p in pencils[1:]:
        tracemalloc.start()
        try:
            spectrum = run.pinned_spectrum(p, True, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = spectrum._W.nbytes + spectrum._K_BB.nbytes
        assert peak - kept < 0.5 * n * n * 8
        r = float(pencils[0].M_interior[0] / p.M_interior[0])
        copy = SpectralSummary(
            eigenvalues=first.eigenvalues * r, eigenvectors=first.eigenvectors * np.sqrt(r)
        )
        reference = a2r.PinnedSpectrum(p, copy, t)
        assert np.array_equal(spectrum.summary.eigenvalues, reference.summary.eigenvalues)
        assert np.array_equal(spectrum.two_infinity, reference.two_infinity)
        assert np.array_equal(spectrum._W, reference._W)
    assert run.spectrum is None


def test_a_run_checks_its_eigenvectors_once(tmp_path, monkeypatch):
    """The Gram check of the pinned eigenvectors runs once per run: once for
    the three levels of a 13^3 ball's plateau, once per level of a Gaussian
    well, whose levels are runs of one."""
    checks = []
    real = a2r.two_infinity_norm

    def recording(*args, **kwargs):
        checks.append(kwargs.get("check", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(a2r, "two_infinity_norm", recording)
    gaussian = BALL_PLATEAU_3D.replace("ball_well", "gaussian_well").replace(
        "radius = 1.0", "width = 0.6"
    )
    made = {}
    for name, text in [("ball", BALL_PLATEAU_3D), ("gauss", gaussian)]:
        checks.clear()
        assert run_scenario(_write(tmp_path, text), out_dir=tmp_path / name).exit_code == 0
        made[name] = list(checks)
    assert made == {"ball": [True, False, False], "gauss": [True, True, True]}


#: run in a fresh interpreter: the CPU ticks (utime + stime) that the
#: threads started by ``import numpy`` (numpy's OpenBLAS pool) spend while
#: the scenario argv[1] runs, or "no-pool" when the import started none
_NUMPY_POOL_TICKS = """
import os, sys

def tasks():
    return set(os.listdir("/proc/self/task"))

before = tasks()
import numpy
pool = sorted(tasks() - before)

def ticks():
    total = 0
    for tid in pool:
        with open(f"/proc/self/task/{tid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total

if not pool:
    print("no-pool")
    sys.exit(0)
from wellspectra.scenario import run_scenario
start = ticks()
run_scenario(sys.argv[1], out_dir=sys.argv[2])
print(ticks() - start)
"""


def test_a_3d_scenario_never_wakes_numpys_blas_threads(tmp_path):
    """Every dense product of a scenario runs in SciPy's BLAS, so the
    thread pool of numpy's own OpenBLAS stays asleep: on the ball at 21^3,
    the smallest grid where numpy's products woke it, its threads spend no
    CPU tick while the scenario runs.  Skipped where there is no /proc or
    numpy starts no pool (one CPU, or OPENBLAS_NUM_THREADS=1)."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to read thread times from")
    config = (CONFIG_DIR / "ball_well_3d.cfg").read_text()
    assert "resolution = 17, 17, 17" in config
    path = tmp_path / "ball21.cfg"
    path.write_text(config.replace("resolution = 17, 17, 17", "resolution = 21, 21, 21"))
    src = str(Path(scenario.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_POOL_TICKS, str(path), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    ticks = done.stdout.split()[-1]
    if ticks == "no-pool":
        pytest.skip("import numpy started no BLAS thread")
    assert int(ticks) == 0
