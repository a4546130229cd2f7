import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from wellspectra import model
from wellspectra.errors import UnknownFamily
from wellspectra.model import (
    BoundReport,
    GridSpec,
    PotentialField,
    SpectralSummary,
    build_potential,
)


def test_grid_basichape():
    g = GridSpec(box=((0.0, 1.0), (0.0, 1.0)), resolution=(5, 5))
    assert g.dimension == 2
    assert g.num_nodes == 25
    assert g.spacing == pytest.approx(0.25)
    assert g.node_coords([0])[0] == pytest.approx([0.0, 0.0])
    assert g.node_coords([24])[0] == pytest.approx([1.0, 1.0])


@pytest.mark.parametrize("resolution", [(7,), (5, 8), (4, 6, 5)])
def test_node_coords_match_the_meshgrid(resolution):
    g = GridSpec(box=tuple((-1.0, 2.0 * r - 3.0) for r in resolution), resolution=resolution)
    mesh = np.meshgrid(*g.axes(), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    idx = np.random.default_rng(len(resolution)).integers(0, g.num_nodes, size=25)
    assert np.array_equal(g.node_coords(idx), pts[idx])
    assert np.array_equal(g.node_coords(), pts)
    assert g.node_coords([]).shape == (0, len(resolution))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 64, 130])
def test_squared_distances_match_cdist_bit_for_bit(dim, rows):
    """The square root of the helper's output is SciPy's Euclidean cdist,
    bit for bit, for one row, a full 64-row block and a ragged last block."""
    rng = np.random.default_rng(100 * dim + rows)
    a = rng.normal(scale=3.0, size=(rows, dim))
    b = rng.uniform(-5.0, 5.0, size=(97, dim))
    out = np.full((rows, 97), np.nan)
    assert GridSpec.squared_distances(a, b, out) is out
    assert np.array_equal(np.sqrt(out), cdist(a, b))


def test_package_import_leaves_out_scipy_spatial():
    """Importing the package and its CLI, in a fresh interpreter, loads none
    of scipy.spatial and what it pulls in."""
    code = (
        "import sys, wellspectra, wellspectra.cli; "
        "print(sorted(m for m in ('scipy.spatial', 'scipy.special', 'scipy.constants') "
        "if m in sys.modules))"
    )
    src = str(Path(model.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        GridSpec(box=((0, 1),) * 4, resolution=(5,) * 4)
    with pytest.raises(ValueError):
        GridSpec(box=((0, 1),), resolution=(2,))
    with pytest.raises(ValueError):
        GridSpec(box=((1, 0),), resolution=(5,))
    # anisotropic spacing
    with pytest.raises(ValueError):
        GridSpec(box=((0, 1), (0, 2)), resolution=(5, 5))
    # node cap
    with pytest.raises(ValueError):
        GridSpec(box=((0, 1), (0, 1)), resolution=(500, 500), node_cap=1000)


@given(
    res=st.integers(min_value=3, max_value=40),
    half=st.floats(min_value=0.1, max_value=50.0),
    dim=st.integers(min_value=1, max_value=3),
)
def test_grid_spacing_uniform(res, half, dim):
    g = GridSpec(box=((-half, half),) * dim, resolution=(res,) * dim)
    axes = g.axes()
    for ax in axes:
        assert np.allclose(np.diff(ax), g.spacing)
    assert g.num_nodes == res**dim


def test_ball_well_values():
    g = GridSpec(box=((-2.0, 2.0),) * 3, resolution=(9,) * 3)
    V = build_potential(
        {"name": "ball_well", "center": [0, 0, 0], "radius": 1.0, "depth": 1.0}, g
    )
    pts = g.node_coords()
    inside = np.linalg.norm(pts, axis=1) < 1.0
    assert np.all(V.values.ravel()[inside] == -1.0)
    assert np.all(V.values.ravel()[~inside] == 0.0)


def test_gaussian_well_peak():
    g = GridSpec(box=((-2.0, 2.0),) * 2, resolution=(21,) * 2)
    V = build_potential(
        {"name": "gaussian_well", "center": [0, 0], "width": 0.5, "depth": 2.0}, g
    )
    assert V.values.min() == pytest.approx(-2.0)
    # center node is at a grid point
    assert V.values[10, 10] == pytest.approx(-2.0)


def test_multi_well_superposition():
    g = GridSpec(box=((-2.0, 2.0),), resolution=(41,))
    sub = [
        {"name": "gaussian_well", "center": [-1.0], "width": 0.3, "depth": 1.0},
        {"name": "gaussian_well", "center": [1.0], "width": 0.3, "depth": 2.0},
    ]
    V = build_potential({"name": "multi_well", "wells": sub}, g)
    parts = [build_potential(s, g) for s in sub]
    assert np.allclose(V.values, parts[0].values + parts[1].values)


def test_band_limited_random_deterministic_and_pinned():
    g = GridSpec(box=((-1.0, 1.0),) * 2, resolution=(17,) * 2)
    fam = {"name": "band_limited_random", "seed": 7, "cutoff": 3, "amplitude": 2.0}
    V1 = build_potential(fam, g)
    V2 = build_potential(fam, g)
    assert np.array_equal(V1.values, V2.values)
    assert np.all(V1.values <= 0)
    # envelope pins the box edge to zero (up to sin(pi) rounding)
    edge = np.concatenate([V1.values[0, :], V1.values[-1, :], V1.values[:, 0], V1.values[:, -1]])
    assert np.max(np.abs(edge)) < 1e-30
    other = build_potential({**fam, "seed": 8}, g)
    assert not np.array_equal(V1.values, other.values)


def test_unknown_family():
    g = GridSpec(box=((0.0, 1.0),), resolution=(5,))
    with pytest.raises(UnknownFamily):
        build_potential({"name": "mexican_hat"}, g)


def test_well_overflow_warns():
    g = GridSpec(box=((-1.0, 1.0),) * 2, resolution=(9,) * 2)
    with pytest.warns(UserWarning):
        build_potential(
            {"name": "ball_well", "center": [0, 0], "radius": 1.5, "depth": 1.0}, g
        )


def test_norm_quadrature_converges_for_ball():
    # |(V - 0)_-| integrates to depth * ball volume, first-order in h
    exact = 1.0 * 4.0 * np.pi / 3.0
    errs = []
    for res in (21, 41, 81):
        g = GridSpec(box=((-2.0, 2.0),) * 3, resolution=(res,) * 3, node_cap=600_000)
        V = build_potential(
            {"name": "ball_well", "center": [0, 0, 0], "radius": 1.0, "depth": 1.0}, g
        )
        errs.append(abs(V.norm(0.0, 1.0) - exact))
    assert errs[2] < errs[0]
    assert errs[2] < 0.05 * exact


def test_norm_zero_iff_above_level():
    g = GridSpec(box=((0.0, 1.0),), resolution=(11,))
    V = PotentialField(grid=g, values=np.zeros(11))
    assert V.norm(-1.0, 1.0) == 0.0
    assert V.norm(0.5, 1.0) > 0.0


def test_potential_rejects_nonfinite():
    g = GridSpec(box=((0.0, 1.0),), resolution=(3,))
    with pytest.raises(ValueError):
        PotentialField(grid=g, values=np.array([0.0, np.nan, 0.0]))


def test_serialization_roundtrips(disk2d):
    """The pencil document, with its grid and decomposition nested, survives
    a trip through JSON text."""
    _, pencil = disk2d
    doc = pencil.to_dict()
    assert (doc["kind"], doc["grid"]["kind"], doc["dec"]["kind"]) == (
        "assembled_pencil",
        "grid",
        "decomposition",
    )
    back = model.AssembledPencil.from_dict(json.loads(json.dumps(doc)))
    assert back.grid == pencil.grid
    assert np.array_equal(back.K.toarray(), pencil.K.toarray())
    assert np.array_equal(back.M, pencil.M)
    assert np.array_equal(back.sigma, pencil.sigma)
    for key in ("interior", "boundary", "edges"):
        assert np.array_equal(getattr(back.dec, key), getattr(pencil.dec, key))
    assert [c.tolist() for c in back.dec.components] == [
        c.tolist() for c in pencil.dec.components
    ]
    assert (back.level, back.dec.diameter) == (pencil.level, pencil.dec.diameter)
    assert back.to_dict() == doc


def test_spectral_summary_validates():
    with pytest.raises(ValueError):
        SpectralSummary(eigenvalues=np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        SpectralSummary(
            eigenvalues=np.array([1.0]), eigenvectors=np.zeros((3, 2))
        )


@given(lhs=st.integers(min_value=0, max_value=50), rhs=st.floats(0, 100))
def test_bound_report_integer_verdict(lhs, rhs):
    rep = BoundReport(name="x", constants={}, point={}, rhs=rhs, lhs=lhs)
    assert rep.verdict == ("holds" if lhs <= rhs else "violated")


def test_bound_report_real_tolerance_and_na():
    near = 1.0 + 1e-12
    assert BoundReport("x", {}, {}, rhs=1.0, lhs=near).verdict == "holds"
    assert BoundReport("x", {}, {}, rhs=1.0, lhs=1.1).verdict == "violated"
    assert BoundReport("x", {}, {}, rhs=np.inf, lhs=1.0).verdict == "not-applicable"
    assert BoundReport("x", {}, {}, rhs=None, lhs=None).verdict == "not-applicable"
