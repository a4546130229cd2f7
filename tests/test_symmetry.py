"""The exact symmetry group of a sampled well, and the pinned spectrum and
boundary counts solved in its sectors against the node basis."""

from pathlib import Path

import numpy as np
import pytest

from conftest import make_pencil
from wellspectra import eigcount, scenario, symmetry
from wellspectra.a2r import PinnedSpectrum, splitting_counts
from wellspectra.assemble import assemble_pencil, classify_nodes
from wellspectra.eigcount import count_below, pencil_eigs
from wellspectra.errors import OnEigenvalue, SizeCap
from wellspectra.model import GridSpec, PotentialField, build_potential
from wellspectra.scenario import (
    ConstantsSpec, ScenarioConfig, SweepSpec, _LevelRun, lambda_grid, load_config, run_scenario,
)
from wellspectra.symmetry import Group, Sectors, symmetry_group

ROOT = Path(__file__).resolve().parents[1]
BALL = {"name": "ball_well", "center": [0.0, 0.0, 0.0], "radius": 1.0, "depth": 12.0}
MIRRORS = ("flip x", "flip y", "flip z")


def _grid(resolution):
    return GridSpec(box=((-2.0, 2.0),) * 3, resolution=(resolution,) * 3)


def dumbbell(resolution=17):
    """Two Gaussian wells at (0.9, 0, 0.3) and (0, 0.9, 0.3), summed in an
    order that x <-> y keeps bit for bit; no reflection fixes them.  At
    e = -1 their set {V < e} is one dumbbell, whose eigenvalues come in
    tunnel-split pairs, one member even and one odd under x <-> y."""
    grid = _grid(resolution)
    x, y, z = np.meshgrid(*grid.axes(), indexing="ij")
    a = (x - 0.9) ** 2 + y**2 + (z - 0.3) ** 2
    b = x**2 + (y - 0.9) ** 2 + (z - 0.3) ** 2
    return PotentialField(grid, -10.0 * (np.exp(-a / 0.25) + np.exp(-b / 0.25)))


def ellipsoid(resolution=13):
    """A Gaussian well with semi-axes 0.8, 0.82 and 0.84 on mirror-exact
    coordinates: Z_2^3, with near-degenerate clusters (the p-like triple
    splits by 1-3 %) and no transposition."""
    grid = _grid(resolution)
    c = (np.arange(resolution) - (resolution - 1) / 2) * grid.spacing
    x, y, z = np.meshgrid(c, c, c, indexing="ij")
    r2 = (x / 0.8) ** 2 + (y / 0.82) ** 2 + (z / 0.84) ** 2
    return PotentialField(grid, -10.0 * np.exp(-r2))


def _moved(V, node):
    """``V`` with the value at grid index ``node`` moved by one ulp."""
    values = np.array(V.values)
    values[node] = np.nextafter(values[node], np.inf)
    return PotentialField(V.grid, values)


# -- detection -----------------------------------------------------------------


@pytest.mark.parametrize(
    "resolution, generators",
    [(9, MIRRORS), (13, ("swap x,y",)), (17, MIRRORS), (25, ("swap x,y",))],
)
def test_the_ball_group_is_read_off_its_sampled_values(resolution, generators):
    """Where the ball's coordinates are mirror-exact (9^3, 17^3) every
    reflection fixes V and G = Z_2^3; the transpositions, which fix V too,
    commute with none of them and are left out.  Elsewhere (13^3, 25^3) no
    reflection fixes V, and of the transpositions x <-> y is kept first and
    the others do not commute with it."""
    G = symmetry_group(build_potential(BALL, _grid(resolution)))
    assert G.generators == generators and G.order == 2 ** len(generators)
    identity = np.arange(resolution**3)
    assert np.array_equal(G.elements[0], identity)
    for g in G.elements:
        assert np.array_equal(g[g], identity)  # an involution
        for h in G.elements:
            assert np.array_equal(g[h], h[g])  # that commutes


@pytest.mark.parametrize(
    "V, node",
    [
        (build_potential(BALL, _grid(9)), (1, 2, 3)),
        (build_potential(BALL, _grid(13)), (5, 6, 7)),
        (dumbbell(), (9, 10, 11)),
        (ellipsoid(), (2, 4, 5)),
    ],
    ids=["ball9", "ball13", "dumbbell", "ellipsoid"],
)
def test_a_one_ulp_change_at_one_node_leaves_the_identity_alone(V, node):
    """Every candidate moves the node, so a one-ulp change there fixes no
    candidate: G = {id}, and the scenario solves one sector."""
    assert symmetry_group(V).order > 1
    G = symmetry_group(_moved(V, node))
    assert G.order == 1 and G.generators == ()


def test_the_offcentre_gaussian_config_has_no_symmetry():
    """The bundled Gaussian centred at (0.3, 0.1, -0.2), off every mirror
    plane and every diagonal, has G = {id}: its golden covers the one
    sector of the trivial group."""
    cfg = load_config(ROOT / "configs" / "gaussian_offcentre_3d.cfg")
    G = symmetry_group(build_potential(cfg.family, cfg.grid))
    assert G.order == 1 and G.generators == ()
    assert np.array_equal(G.elements[0], np.arange(cfg.grid.num_nodes))


def test_a_one_ulp_change_keeps_the_candidates_that_fix_its_node():
    """On the 13^3 ball a change at (5, 6, 6) breaks x <-> y and x <-> z,
    which move the node, and keeps y <-> z, which fixes it."""
    G = symmetry_group(_moved(build_potential(BALL, _grid(13)), (5, 6, 6)))
    assert G.generators == ("swap y,z",)


def test_unequal_resolutions_are_never_transposed():
    """Only axes of equal resolution are transposition candidates: on a
    9 x 9 x 7 grid a well off the mirrors, symmetric in x and y, gets
    x <-> y alone, and a 9 x 7 x 5 grid none at all."""
    assert [name for name, _ in symmetry._candidates((9, 7, 5))] == list(MIRRORS)
    assert [name for name, _ in symmetry._candidates((9, 9, 7))] == [*MIRRORS, "swap x,y"]
    grid = GridSpec(box=((-2.0, 2.0), (-2.0, 2.0), (-1.5, 1.5)), resolution=(9, 9, 7))
    family = {"name": "ball_well", "center": [0.5, 0.5, 0.25], "radius": 1.0, "depth": 5.0}
    assert symmetry_group(build_potential(family, grid)).generators == ("swap x,y",)
    grid = GridSpec(box=((-2.0, 2.0), (-1.5, 1.5), (-1.0, 1.0)), resolution=(9, 7, 5))
    family = {"name": "ball_well", "center": [0.5, 0.5, 0.25], "radius": 0.7, "depth": 5.0}
    assert symmetry_group(build_potential(family, grid)).order == 1


def test_the_orbit_bases_are_signed_orbit_indicators():
    """Each sector basis has one +-1 per row on the nodes its character does
    not kill; the sectors' orders sum to |I| and |B|; stacked, the bases are
    square and orthogonal (P_chi' P_psi = 0 for chi != psi, and P_chi' P_chi
    = diag of the orbit sizes), and K_II has no cross-sector block."""
    V, p = make_pencil(3, 9, BALL, -0.5)
    sectors = Sectors(p, symmetry_group(V))
    assert sectors.group_order == 8
    assert sum(sectors.interior_orders) == p.n_interior
    assert sum(sectors.boundary_orders) == p.n_boundary
    for bases in (sectors.interior, sectors.boundary):
        P = np.hstack([B.toarray() for B in bases])
        assert P.shape[0] == P.shape[1]
        assert set(np.unique(P)) <= {-1.0, 0.0, 1.0}
        assert np.all(np.count_nonzero(P, axis=1) <= len(bases))
        gram = P.T @ P
        assert np.array_equal(gram, np.diag(np.diag(gram))) and np.all(np.diag(gram) > 0)
    K = p.K_II.toarray()
    P = np.hstack([B.toarray() for B in sectors.interior])
    blocks = P.T @ K @ P
    edges = np.cumsum((0,) + sectors.interior_orders)
    for a, b in zip(edges[:-1], edges[1:]):
        blocks[a:b, a:b] = 0.0
    assert not blocks.any()


def test_the_trivial_group_is_one_sector_of_identity_bases():
    """Under G = {id} there is one sector: its P and Q are identity
    matrices, its masses are M_II bit for bit and its orbits number the
    interior nodes in order."""
    _, p = make_pencil(3, 9, BALL, -0.5)
    sectors = Sectors(p, Group.trivial(p.grid.num_nodes))
    assert sectors.group_order == 1
    assert (sectors.interior_orders, sectors.boundary_orders) == (
        (p.n_interior,), (p.n_boundary,)
    )
    (P,), (Q,), (orbits,) = sectors.interior, sectors.boundary, sectors.orbits
    assert np.array_equal(P.toarray(), np.eye(p.n_interior))
    assert np.array_equal(Q.toarray(), np.eye(p.n_boundary))
    (mass,) = sectors.masses(p)
    assert np.array_equal(mass.view(np.uint64), p.M_interior.view(np.uint64))
    assert np.array_equal(orbits, np.arange(p.n_interior))


def test_a_pinned_spectrum_defaults_to_the_trivial_sectors():
    """A PinnedSpectrum built with no ``sectors`` and one built with the
    sectors of G = {id} give bit-equal 2->infinity norms and S(lam) blocks,
    and the norms are those of the node-basis ``two_infinity_norm``."""
    _, p = make_pencil(3, 9, BALL, -0.5)
    t = np.geomspace(0.05, 5.0, 6)
    s = pencil_eigs(p.K_II, p.M_interior, want_vectors=True)
    default = PinnedSpectrum(p, [s], t)
    trivial = PinnedSpectrum(p, [s], t, sectors=Sectors(p, Group.trivial(p.grid.num_nodes)))
    assert np.array_equal(default.two_infinity, trivial.two_infinity)
    assert np.array_equal(default.two_infinity, eigcount.two_infinity_norm(s, p.M_interior, t))
    mu = s.eigenvalues
    for lam in (0.5 * mu[0], 0.5 * (mu[0] + mu[1]), 0.5 * (mu[-2] + mu[-1])):
        (a,), (b,) = default.schur_form(lam), trivial.schur_form(lam)
        assert a.flags.f_contiguous and np.array_equal(a, b)
        assert splitting_counts(p, lam, default) == splitting_counts(p, lam)


# -- counts and spectra in sectors against the node basis ------------------------


def _clusters(mu, rtol):
    """The index ranges of runs of consecutive eigenvalues within ``rtol``."""
    breaks = np.flatnonzero(np.diff(mu) > rtol * mu[1:]) + 1
    return np.split(np.arange(mu.size), breaks)


def _spectra(p, group, t):
    """The sectors of ``p`` under ``group`` and the PinnedSpectrum in them,
    beside the node-basis PinnedSpectrum."""
    sectors = Sectors(p, group)
    parts = [pencil_eigs(K, m, want_vectors=True) for K, m in sectors.pencils(p)]
    node = PinnedSpectrum(p, [pencil_eigs(p.K_II, p.M_interior, want_vectors=True)], t)
    return sectors, PinnedSpectrum(p, parts, t, sectors=sectors), node


@pytest.mark.parametrize(
    "V, e, orders, within",
    [
        (build_potential(BALL, _grid(17)), -0.5, 8, 1e-10),
        (ellipsoid(), -2.0, 8, 0.04),
        (build_potential(BALL, _grid(13)), -0.5, 2, 1e-10),
        (dumbbell(), -1.0, 2, 0.02),
    ],
    ids=["ball17-Z2^3", "ellipsoid-Z2^3", "ball13-swap", "dumbbell-swap"],
)
def test_sector_counts_equal_the_node_basis_counts(V, e, orders, within):
    """The sectors of a reflection group (Z_2^3) and of a transposition
    alone: their eigenvalues, sorted, are the node basis's to 1e-12, and
    the 2->infinity norms to 1e-11.  At the default shift grid, between
    consecutive clusters of the first 30 eigenvalues and 1e-6 relative
    outside each cluster, and inside each cluster that is resolved (the
    ellipsoid's split triples, the dumbbell's tunnel-split pairs, whose
    members lie in different sectors), the splitting counts from the
    sectors equal those from the node-basis eigenpairs and from the
    Poisson matrix, the identity holds, and the pinned count is the number
    of sector eigenvalues below the shift."""
    group = symmetry_group(V)
    assert group.order == orders
    p = assemble_pencil(classify_nodes(V, e), V, e)
    t = np.geomspace(0.05, 5.0, 6)
    sectors, sector, node = _spectra(p, group, t)
    mu = node.summary.eigenvalues
    assert sector.summary.eigenvalues.shape == mu.shape
    assert np.allclose(sector.summary.eigenvalues, mu, rtol=1e-12, atol=0.0)
    # exp(-2 t mu_1) amplifies mu_1's rounding by 2 t mu_1, some 30 at t = 5
    assert np.allclose(sector.two_infinity, node.two_infinity, rtol=1e-11, atol=0.0)

    clusters = [c for c in _clusters(mu, within) if c[0] < 30]
    shifts = list(lambda_grid(mu, None, None, 6))
    for run, after in zip(clusters, clusters[1:]):
        shifts.append(0.5 * (mu[run[-1]] + mu[after[0]]))
        shifts += [mu[run[0]] * (1 - 1e-6), mu[run[-1]] * (1 + 1e-6)]
    inside = [0.5 * (mu[k] + mu[k + 1]) for run in clusters for k in run[:-1]]
    if within > 1e-10:
        assert len(inside) >= 4
        shifts += inside
    for lam in shifts:
        counts = splitting_counts(p, lam, sector)
        assert counts[3], lam
        assert counts == splitting_counts(p, lam, node) == splitting_counts(p, lam), lam
        assert counts[1] == np.searchsorted(sector.summary.eigenvalues, lam)
        assert counts[1] == count_below(p.K_II, p.M_interior, lam)
    with pytest.raises(OnEigenvalue):  # a shift on a sector's eigenvalue
        splitting_counts(p, float(sector._mu[1][0]), sector)


def test_a_sector_with_no_interior_node_counts_its_boundary_block():
    """On the 9^3 ball a shift between the pinned eigenvalues reads every
    sector's S block, and a sector without interior nodes contributes
    Q' K_BB Q, positive definite: its count is 0."""
    V, p = make_pencil(3, 9, BALL, -0.5)
    sectors, sector, node = _spectra(p, symmetry_group(V), 1.0)
    mu = node.summary.eigenvalues
    lam = 0.5 * (mu[0] + mu[1])
    blocks = sector.schur_form(lam)
    assert len(blocks) == sum(q > 0 for q in sectors.boundary_orders)
    assert splitting_counts(p, lam, sector) == splitting_counts(p, lam)


# -- the scenario ------------------------------------------------------------------


def _config(resolution, points=6, b=None):
    return ScenarioConfig(
        grid=_grid(resolution),
        family=dict(BALL),
        levels=[-0.5],
        sweep=SweepSpec(points=points),
        constants=ConstantsSpec(p=3.0, b=b),
        seed=7,
    )


def test_a_symmetric_level_matches_its_node_basis_run(monkeypatch):
    """The 13^3 ball's level, solved in the sectors of <x<->y>, reports the
    node basis's integer columns and flags, and its floats to rtol 1e-10;
    the node-basis run takes the ball's group as {id}."""
    cfg = _config(13)
    V = build_potential(cfg.family, cfg.grid)
    sectored = _LevelRun(cfg, V, 0, -0.5).run()
    monkeypatch.setattr(
        scenario, "symmetry_group", lambda V: Group.trivial(cfg.grid.num_nodes)
    )
    node = _LevelRun(cfg, V, 0, -0.5).run()
    assert (len(sectored.spectrum._mu), len(node.spectrum._mu)) == (2, 1)
    assert sectored.violations == node.violations == []
    for a, b in zip(sectored.rows, node.rows, strict=True):
        for key, value in a.items():
            if isinstance(value, float) and not isinstance(value, bool):
                assert value == pytest.approx(b[key], rel=1e-10, abs=0.0), key
            else:
                assert value == b[key], key


TINY_BALL = """\
[grid]
dimension = 3
box = -2:2, -2:2, -2:2
resolution = 9, 9, 9

[potential]
family = ball_well
center = 0, 0, 0
radius = 0.1
depth = 12.0

[levels]
values = -0.5, -2.0

[sweeps]
points = 3

[output]
prefix = tiny3d
"""

#: the CSV columns that are integers, flags or verdicts
EXACT_COLUMNS = (
    "scenario_id", "N_full", "N_dir", "N_a2r_nonpos", "identity_holds", "N_a2r_gamma",
    "verdict_counting", "verdict_thm54", "verdict_thm59", "verdict_trace",
)


def test_a_sector_with_no_boundary_node_has_no_schur_block(tmp_path, monkeypatch):
    """The 9^3 ball of radius 0.1 has one interior node, the centre, and
    G = Z_2^3.  Its interior sector orders are (1, 0, 0, 0, 0, 0, 0, 0) and
    its boundary orders (3, 1, 1, 0, 1, 0, 0, 0): each of the plateau's 3
    sweep points forms S(lambda) blocks for the 4 sectors with boundary
    nodes only, and solves order-0 sector pencils.  Its integer columns,
    flags and verdicts equal those of the run that takes G as {id}."""
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_BALL)
    shapes = []
    real = PinnedSpectrum.schur_form

    def schur_form(self, lam):
        blocks = real(self, lam)
        shapes.append(([W.shape for W in self._W], len(blocks)))
        return blocks

    monkeypatch.setattr(PinnedSpectrum, "schur_form", schur_form)
    sectored = run_scenario(path, out_dir=tmp_path / "sectored")
    sector_shapes = list(zip((3, 1, 1, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0)))
    assert shapes == [(sector_shapes, 4)] * 3
    monkeypatch.setattr(
        scenario, "symmetry_group", lambda V: Group.trivial(V.grid.num_nodes)
    )
    node = run_scenario(path, out_dir=tmp_path / "node")
    assert shapes[3:] == [([(6, 1)], 1)] * 3
    assert sectored.exit_code == node.exit_code == 0 and len(sectored.rows) == 6
    for a, b in zip(sectored.rows, node.rows, strict=True):
        assert [a[col] for col in EXACT_COLUMNS] == [b[col] for col in EXACT_COLUMNS]


def test_the_dense_cap_applies_to_each_sector(monkeypatch):
    """pencil_eigs checks DENSE_CAP against the order it is given, so a
    level whose |I| is over the cap runs when its largest sector is under
    it: the 13^3 ball, |I| = 105 in sectors of 62 and 43, under a cap of 80
    (b supplied, so that b's boundary pencil, of order |B| = 118, is not
    solved).  Its twin, V moved by one ulp at a node that every candidate
    moves, has G = {id} and stops at SizeCap."""
    monkeypatch.setattr(eigcount, "DENSE_CAP", 80)
    cfg = _config(13, points=2, b=0.5)
    V = build_potential(cfg.family, cfg.grid)
    level = _LevelRun(cfg, V, 0, -0.5).run()
    assert level.pencil.n_interior == 105 and level.violations == []
    assert len(level.rows) == 2
    twin = _moved(V, (5, 6, 7))
    assert symmetry_group(twin).order == 1
    with pytest.raises(SizeCap):
        _LevelRun(cfg, twin, 0, -0.5).run()


def _corrupt(monkeypatch, how):
    real = Sectors.__init__

    def corrupted(self, pencil, group):
        real(self, pencil, group)
        if how == "flip a character":  # Q built with generator 0's character flipped
            self.boundary[0], self.boundary[1] = self.boundary[1], self.boundary[0]
        elif how == "drop a boundary orbit":
            self.boundary[0] = self.boundary[0][:, 1:]
        else:
            self.interior[0] = self.interior[0][:, 1:]
            self.orbits[0] = self.orbits[0][1:]

    monkeypatch.setattr(Sectors, "__init__", corrupted)


@pytest.mark.parametrize("how", ["flip a character", "drop a boundary orbit"])
def test_a_corrupted_sector_basis_fails_the_splitting_identity(monkeypatch, how):
    """N_full and N_dir keep their node-basis factors, so the splitting
    identity checks the sector reduction: a boundary basis built with one
    character flipped, or one that lost an orbit column, makes it fail on
    the 13^3 ball, and the level lists the violation."""
    _corrupt(monkeypatch, how)
    cfg = _config(13)
    level = _LevelRun(cfg, build_potential(cfg.family, cfg.grid), 0, -0.5).run()
    assert not all(row["identity_holds"] for row in level.rows)
    assert any("splitting identity failed" in v for v in level.violations)


def test_an_interior_basis_that_lost_an_orbit_is_refused(monkeypatch):
    """An interior basis one orbit short gives |I| - 1 eigenvalues, which
    the PinnedSpectrum refuses."""
    _corrupt(monkeypatch, "drop an interior orbit")
    cfg = _config(13)
    with pytest.raises(ValueError, match="all \\|I\\| eigenvalues"):
        _LevelRun(cfg, build_potential(cfg.family, cfg.grid), 0, -0.5).run()
