import numpy as np
import pytest

from scipy.spatial.distance import cdist

from wellspectra.assemble import assemble_pencil, classify_nodes
from wellspectra.eigcount import pencil_eigs
from wellspectra.errors import DetachedComponent, EmptySublevel
from wellspectra.model import GridSpec, PotentialField, build_potential

from conftest import make_pencil


def test_path3_hand_values(path3):
    V, p = path3
    # h = 1, n = 1: stiffness is the plain graph Laplacian of the 3-path
    assert np.array_equal(p.nodes, [1, 0, 2])
    expected_K = np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.array_equal(p.K.toarray(), expected_K)
    # interior mass (V - e)_- h^n = (-0.5 - (-1)) * 1
    assert np.array_equal(p.M, [0.5, 0.0, 0.0])
    # each endpoint sees one interface face of measure h^0 = 1
    assert np.array_equal(p.sigma, [1.0, 1.0])
    assert p.dec.diameter == pytest.approx(2.0)


def _brute_classify(V, e):
    """Triple-loop reference for node classification on small grids."""
    grid = V.grid
    shape = grid.shape
    vals = V.values
    inside = {}
    for idx in np.ndindex(*shape):
        inside[idx] = vals[idx] < e
    interior, boundary, edges = set(), set(), set()
    lin = np.arange(grid.num_nodes).reshape(shape)
    for idx in np.ndindex(*shape):
        if inside[idx]:
            interior.add(int(lin[idx]))
        for ax in range(grid.dimension):
            nb = list(idx)
            nb[ax] += 1
            nb = tuple(nb)
            if nb[ax] >= shape[ax]:
                continue
            if inside[idx] or inside[nb]:
                edges.add((int(lin[idx]), int(lin[nb])))
            if inside[idx] != inside[nb]:
                boundary.add(int(lin[nb] if inside[idx] else lin[idx]))
    return interior, boundary, edges


@pytest.mark.parametrize("dim,res", [(1, 31), (2, 13), (3, 7)])
def test_classification_matches_brute_force(dim, res):
    grid = GridSpec(box=((-2.0, 2.0),) * dim, resolution=(res,) * dim)
    V = build_potential(
        {"name": "gaussian_well", "center": [0.0] * dim, "width": 0.6, "depth": 4.0},
        grid,
    )
    e = -0.9
    dec = classify_nodes(V, e)
    interior, boundary, edges = _brute_classify(V, e)
    assert set(dec.interior.tolist()) == interior
    assert set(dec.boundary.tolist()) == boundary
    assert set(map(tuple, dec.edges.tolist())) == edges


def test_plus_shaped_interior_hand_counts():
    # 5x5 grid with h = 1; radius picks out the five nodes of a plus
    grid = GridSpec(box=((-2.0, 2.0),) * 2, resolution=(5,) * 2)
    V = build_potential(
        {"name": "ball_well", "center": [0.0, 0.0], "radius": 1.2, "depth": 1.0}, grid
    )
    dec = classify_nodes(V, -0.5)
    assert dec.num_interior == 5
    assert dec.num_boundary == 8
    assert len(dec.components) == 1
    # 20 half-edges from the plus, 8 internal, so 12 interface faces
    p = assemble_pencil(dec, V, -0.5)
    assert p.sigma.sum() == pytest.approx(12.0)
    assert sorted(p.sigma.tolist()) == [1, 1, 1, 1, 2, 2, 2, 2]
    # farthest boundary pair is (-2, 0) .. (2, 0)
    assert dec.diameter == pytest.approx(4.0)


def test_stiffness_invariants(disk2d, ball3d):
    for _, p in (disk2d, ball3d):
        K = p.K
        # symmetric M-matrix with zero row sums
        assert abs(K - K.T).max() == 0.0
        assert np.allclose(K @ np.ones(p.order), 0.0, atol=1e-12)
        off = K - sp_diag(K)
        assert off.max() <= 0.0
        # no boundary-boundary coupling
        bb = p.K_BB - sp_diag(p.K_BB)
        assert bb.nnz == 0
        # scaling: every off-diagonal entry is exactly -h^(n-2)
        c = p.grid.spacing ** (p.grid.dimension - 2)
        assert np.allclose(off.data[off.data != 0], -c)


def sp_diag(A):
    import scipy.sparse as sp

    return sp.diags(A.diagonal(), shape=A.shape)


def test_mass_and_sigma_values(ball3d):
    V, p = ball3d
    h = p.grid.spacing
    n = p.grid.dimension
    expect = (p.level - V.values.ravel()[p.dec.interior]) * h**n
    assert np.allclose(p.M_interior, expect)
    assert np.all(p.M_interior > 0)
    assert np.all(p.M[p.n_interior :] == 0.0)
    # sigma counts interface faces: total must equal number of I-B edges
    flat = np.zeros(p.grid.num_nodes, dtype=bool)
    flat[p.dec.interior] = True
    crossing = flat[p.dec.edges[:, 0]] != flat[p.dec.edges[:, 1]]
    assert p.sigma.sum() == pytest.approx(crossing.sum() * h ** (n - 1))
    assert np.all(p.sigma > 0)


def test_edges_are_ordered_and_unique(disk2d):
    _, p = disk2d
    e = p.dec.edges
    assert np.all(e[:, 0] < e[:, 1])
    assert len({tuple(r) for r in e.tolist()}) == e.shape[0]


def test_empty_sublevel():
    grid = GridSpec(box=((0.0, 1.0),), resolution=(9,))
    V = PotentialField(grid=grid, values=np.zeros(9))
    with pytest.raises(EmptySublevel):
        classify_nodes(V, -1.0)


def test_detached_component():
    grid = GridSpec(box=((0.0, 1.0),), resolution=(9,))
    V = PotentialField(grid=grid, values=np.full(9, -1.0))
    with pytest.raises(DetachedComponent):
        classify_nodes(V, -0.5)


def test_positive_level_needs_flag():
    grid = GridSpec(box=((0.0, 1.0),), resolution=(9,))
    V = PotentialField(grid=grid, values=np.linspace(-1, 1, 9))
    with pytest.raises(ValueError, match="nonpositive"):
        classify_nodes(V, 0.5)


def test_two_components_counted():
    grid = GridSpec(box=((-2.0, 2.0),), resolution=(41,))
    wells = [
        {"name": "gaussian_well", "center": [-1.0], "width": 0.2, "depth": 4.0},
        {"name": "gaussian_well", "center": [1.0], "width": 0.2, "depth": 4.0},
    ]
    V = build_potential({"name": "multi_well", "wells": wells}, grid)
    dec = classify_nodes(V, -2.0)
    assert len(dec.components) == 2
    assert sum(c.size for c in dec.components) == dec.num_interior


def test_level_mismatch_rejected(path3):
    V, p = path3
    with pytest.raises(ValueError):
        assemble_pencil(p.dec, V, -0.25)


@pytest.mark.parametrize("dim,res", [(1, 12), (2, 9), (3, 6)])
def test_diameter_matches_brute_force(dim, res):
    """The diameter scans B and the interior nodes on the box faces only, and
    equals, bit for bit, the largest distance between any two nodes of
    I union B, on random sublevel sets that often touch the box faces."""
    rng = np.random.default_rng(dim)
    grid = GridSpec(box=((-1.0, 1.0),) * dim, resolution=(res,) * dim)
    face = np.zeros(grid.shape, dtype=bool)
    for ax in range(dim):
        ends = [slice(None)] * dim
        ends[ax] = [0, -1]
        face[tuple(ends)] = True
    checked = touching = 0
    for _ in range(40):
        V = PotentialField(grid=grid, values=rng.uniform(-1.0, 1.0, size=grid.shape))
        try:
            dec = classify_nodes(V, float(rng.uniform(-0.9, 0.0)))
        except (EmptySublevel, DetachedComponent):
            continue
        pts = grid.node_coords(np.concatenate([dec.interior, dec.boundary]))
        assert dec.diameter == cdist(pts, pts).max()
        checked += 1
        touching += bool(face.ravel()[dec.interior].any())
    assert checked >= 30 and touching >= 10


def test_diameter_of_a_region_touching_the_box_reaches_its_interior_end():
    """An interior run from the box edge has a single boundary node, so the
    diameter comes from the interior node on the face."""
    grid = GridSpec(box=((0.0, 1.0),), resolution=(11,))
    values = np.where(np.arange(11) < 4, -2.0, 1.0)
    dec = classify_nodes(PotentialField(grid=grid, values=values), -1.0)
    assert dec.boundary.size == 1
    assert dec.diameter == pytest.approx(0.4)


def test_eigenvalues_stable_under_refinement():
    """First pencil eigenvalues move by only a few percent when the grid
    for the same smooth well is refined."""
    family = {"name": "gaussian_well", "center": [0.0, 0.0], "width": 0.6, "depth": 4.0}
    eigs = {}
    for res in (33, 49):
        _, p = make_pencil(2, res, family, -0.8)
        s = pencil_eigs(p.K, p.M)
        # the constant vector is always a zero mode of the stiffness
        assert abs(s.eigenvalues[0]) < 1e-9
        eigs[res] = s.eigenvalues[1:6]
    rel = np.abs(eigs[49] - eigs[33]) / eigs[33]
    assert np.all(rel < 0.05)
