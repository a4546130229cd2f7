import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from conftest import make_pencil
from wellspectra.a2r import (
    RESIDUAL_TOL,
    PinnedEigenpairs,
    a_lambda_norm,
    boundary_measures,
    estimate_poisson_constant,
    harmonic_extension,
    poisson_matrix,
    radon_nikodym_report,
    schur_form,
    splitting_counts,
    verify_isomorphism,
)
from wellspectra.eigcount import Eigenbasis, count_below, inertia, pencil_eigs
from wellspectra.errors import OnEigenvalue, ResolventViolation, SingularDirichletBlock
from wellspectra.model import AssembledPencil, SpectralSummary
from wellspectra.scenario import lambda_grid


def dirichlet_eigs(p):
    return pencil_eigs(p.K_II.toarray(), p.M_interior).eigenvalues


# ----------------------------------------------------------- Poisson matrix


def test_poisson_path3(path3):
    _, p = path3
    P0 = poisson_matrix(p, 0.0)
    assert np.allclose(P0, [[0.5, 0.5]])


def test_poisson_rows_are_probabilities(disk2d):
    _, p = disk2d
    P0 = poisson_matrix(p, 0.0)
    assert P0.shape == (p.n_interior, p.n_boundary)
    assert np.all(P0 >= -1e-13)
    assert np.allclose(P0.sum(axis=1), 1.0, atol=1e-12)


def test_poisson_matches_random_walk(disk2d, rng):
    """Monte Carlo oracle: a row of P0 is the exit distribution of the
    uniform nearest-neighbor walk absorbed on the boundary nodes."""
    _, p = disk2d
    P0 = poisson_matrix(p, 0.0)

    # adjacency over local indices
    local = np.full(p.grid.num_nodes, -1, dtype=int)
    local[p.nodes] = np.arange(p.order)
    eu, ev = local[p.dec.edges[:, 0]], local[p.dec.edges[:, 1]]
    nbrs = [[] for _ in range(p.order)]
    for a, b in zip(eu, ev):
        nbrs[a].append(b)
        nbrs[b].append(a)
    ni = p.n_interior
    deg = np.array([len(nbrs[i]) for i in range(ni)])
    assert np.all(deg == 2 * p.grid.dimension)  # interior sees every neighbor
    nbr_arr = np.array([nbrs[i] for i in range(ni)])

    start = int(np.argmax(p.M_interior))  # a deep interior node
    walkers = np.full(40_000, start)
    exits = np.zeros(p.n_boundary)
    for _ in range(100_000):
        step = rng.integers(0, 2 * p.grid.dimension, size=walkers.size)
        walkers = nbr_arr[walkers, step]
        absorbed = walkers >= ni
        if absorbed.any():
            exits += np.bincount(walkers[absorbed] - ni, minlength=p.n_boundary)
            walkers = walkers[~absorbed]
        if walkers.size == 0:
            break
    assert walkers.size == 0
    phat = exits / exits.sum()
    assert np.abs(phat - P0[start]).max() < 0.015


def test_poisson_shift_increases_mass(disk2d):
    # for 0 < lam below the pinned spectrum, (K - lam M)^-1 >= K^-1 entrywise
    _, p = disk2d
    lam = 0.5 * dirichlet_eigs(p)[0]
    P = poisson_matrix(p, lam)
    P0 = poisson_matrix(p, 0.0)
    assert np.all(P - P0 >= -1e-12)


# ------------------------------------------------------ harmonic extension


def test_extension_of_constant_is_constant(disk2d):
    _, p = disk2d
    u = harmonic_extension(p, 0.0, np.ones(p.n_boundary))
    assert np.allclose(u, 1.0, atol=1e-11)


def test_extension_indicator_recovers_poisson_column(disk2d):
    _, p = disk2d
    P0 = poisson_matrix(p, 0.0)
    for b in (0, p.n_boundary // 2):
        phi = np.zeros(p.n_boundary)
        phi[b] = 1.0
        u = harmonic_extension(p, 0.0, phi)
        assert np.allclose(u[: p.n_interior], P0[:, b], atol=1e-12)
        assert np.array_equal(u[p.n_interior :], phi)


def test_extension_minimizes_shifted_energy(disk2d, rng):
    """Below the pinned spectrum the extension beats every competitor with
    the same trace."""
    _, p = disk2d
    lam = 0.6 * dirichlet_eigs(p)[0]
    A = (p.K - lam * sp.diags(p.M)).toarray()
    phi = rng.normal(size=p.n_boundary)
    u = harmonic_extension(p, lam, phi)
    base = u @ A @ u
    for _ in range(50):
        w = np.zeros(p.order)
        w[: p.n_interior] = rng.normal(size=p.n_interior)
        v = u + w
        assert v @ A @ v >= base - 1e-10 * abs(base)


def test_extension_validates_trace_length(path3):
    _, p = path3
    with pytest.raises(ValueError):
        harmonic_extension(p, 0.0, np.ones(3))


def test_extension_on_pinned_eigenvalue_rejected(disk2d):
    _, p = disk2d
    mu1 = dirichlet_eigs(p)[0]
    with pytest.raises(ResolventViolation):
        harmonic_extension(p, mu1, np.ones(p.n_boundary))


def test_pinned_solves_refuse_a_block_that_is_not_positive_definite():
    """A pencil built directly, not by assemble_pencil, whose K_II is not
    positive definite (10*I subtracted on the interior): every lam = 0
    pinned solve raises SingularDirichletBlock and returns no Poisson
    matrix."""
    ball = {"name": "ball_well", "center": [0.0, 0.0], "radius": 1.0, "depth": 12.0}
    _, p = make_pencil(2, 21, ball, -0.5)
    lowered = sp.diags(np.r_[np.full(p.n_interior, 10.0), np.zeros(p.n_boundary)])
    bad = AssembledPencil(grid=p.grid, dec=p.dec, K=(p.K - lowered).tocsr(), M=p.M, sigma=p.sigma)
    phi = np.ones(p.n_boundary)
    for solve in (
        lambda: poisson_matrix(bad, 0.0),
        lambda: boundary_measures(bad),
        lambda: harmonic_extension(bad, 0.0, phi),
    ):
        with pytest.raises(SingularDirichletBlock, match="not positive definite"):
            solve()


# -------------------------------------------------------------- Schur form


def test_schur_path3_hand_values(path3):
    _, p = path3
    S0 = schur_form(p, 0.0)
    assert np.allclose(S0, [[0.5, -0.5], [-0.5, 0.5]])


def test_schur_zero_shift_psd_constants_kernel(disk2d):
    _, p = disk2d
    S0 = schur_form(p, 0.0)
    inert = inertia(S0)
    assert inert.n_minus == 0
    # one zero mode per connected component (here: one)
    assert inert.n_zero == len(p.dec.components)
    assert np.allclose(S0 @ np.ones(p.n_boundary), 0.0, atol=1e-10)
    # M-matrix structure: nonpositive off the diagonal
    off = S0 - np.diag(np.diag(S0))
    assert off.max() <= 1e-12


def test_schur_energy_of_extension(disk2d, rng):
    _, p = disk2d
    lam = 0.4 * dirichlet_eigs(p)[0]
    S = schur_form(p, lam)
    A = (p.K - lam * sp.diags(p.M)).toarray()
    for _ in range(10):
        phi = rng.normal(size=p.n_boundary)
        u = harmonic_extension(p, lam, phi)
        assert phi @ S @ phi == pytest.approx(u @ A @ u, rel=1e-9, abs=1e-9)


def test_schur_shift_difference_identity(disk2d):
    """S(0) - S(lam) = lam * P_lam^T M_II P_0, exactly (resolvent algebra)."""
    _, p = disk2d
    for lam in (0.35, 1.1, 2.7):
        S0 = schur_form(p, 0.0)
        Sl = schur_form(p, lam)
        P0 = poisson_matrix(p, 0.0)
        Pl = poisson_matrix(p, lam)
        rhs = lam * Pl.T @ (p.M_interior[:, None] * P0)
        rhs = (rhs + rhs.T) / 2.0
        diff = S0 - Sl
        assert np.abs(diff - rhs).max() <= RESIDUAL_TOL * max(
            1.0, np.abs(diff).max()
        )


# ------------------------------------------------------- boundary measures


def test_boundary_measure_totals(disk2d, ball3d):
    for _, p in (disk2d, ball3d):
        bm = boundary_measures(p)
        hn = p.grid.spacing ** p.grid.dimension
        assert bm.mu.sum() == pytest.approx(p.M_interior.sum(), rel=1e-12)
        assert bm.nu.sum() == pytest.approx(p.n_interior * hn, rel=1e-12)
        assert np.all(bm.mu > 0) and np.all(bm.nu > 0)


def test_radon_nikodym_matches_direct(disk2d):
    _, p = disk2d
    bm = boundary_measures(p)
    lp, nu_inf, ratio_inf = radon_nikodym_report(bm, p.sigma, 3.0)
    direct = (np.sum((bm.mu / p.sigma) ** 3 * p.sigma)) ** (1 / 3)
    assert lp == pytest.approx(direct)
    assert nu_inf == pytest.approx(np.max(bm.dnu_dsigma))
    assert ratio_inf == pytest.approx(np.max(bm.nu / bm.mu))
    assert np.isfinite([lp, nu_inf, ratio_inf]).all()


def test_radon_nikodym_holder_chain(disk2d):
    # |f|_{L^2(sigma)} <= |f|_{L^3(sigma)} sigma(total)^(1/6)
    _, p = disk2d
    bm = boundary_measures(p)
    l2 = radon_nikodym_report(bm, p.sigma, 2.0)[0]
    l3 = radon_nikodym_report(bm, p.sigma, 3.0)[0]
    assert l2 <= l3 * p.sigma.sum() ** (1.0 / 6.0) * (1 + 1e-12)


# ---------------------------------------------------------- a_lambda_norm


def test_a_lambda_norm_brute_force(rng):
    for _ in range(200):
        mus = np.sort(rng.uniform(0.1, 30.0, size=20))
        s = SpectralSummary(eigenvalues=mus)
        lam = rng.uniform(-5.0, 35.0)
        if np.min(np.abs(mus - lam)) < 1e-6:
            continue
        brute = np.max(np.abs(lam * mus / (mus - lam)))
        assert a_lambda_norm(s, lam) == pytest.approx(brute, rel=1e-12)


@settings(deadline=None, max_examples=300)
@given(
    mus=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40),
    lam=st.one_of(st.floats(-1e3, 1e3), st.floats(-1e-2, 1e-2)),
    near=st.one_of(st.none(), st.tuples(st.integers(0, 39), st.floats(-1e-6, 1e-6))),
)
def test_a_lambda_norm_is_the_maximum_over_the_whole_spectrum(mus, lam, near):
    """The bracketing (lam > 0) or top (lam < 0) candidates give the same
    value as the brute-force maximum over every pinned eigenvalue, also for
    shifts just off an eigenvalue and clustered spectra."""
    mus = np.sort(np.array(mus))
    if near is not None:
        k, rel = near
        lam = float(mus[k % mus.size] * (1.0 + rel))
    assume(lam != 0.0)
    assume(np.min(np.abs(mus - lam)) > 1e-14 * max(abs(lam), mus[-1]))
    brute = np.max(np.abs(lam * mus / (mus - lam)))
    got = a_lambda_norm(SpectralSummary(eigenvalues=mus), lam)
    assert got == pytest.approx(brute, rel=1e-12)


def test_a_lambda_norm_edge_cases():
    s = SpectralSummary(eigenvalues=np.array([1.0, 2.0, 4.0]))
    assert a_lambda_norm(s, 0.0) == 0.0
    with pytest.raises(OnEigenvalue):
        a_lambda_norm(s, 2.0)
    with pytest.raises(ValueError):
        a_lambda_norm(SpectralSummary(eigenvalues=np.array([-1.0, 1.0])), 0.5)
    with pytest.raises(ValueError):
        a_lambda_norm(SpectralSummary(eigenvalues=np.empty(0)), 0.5)


# ----------------------------------------------- isomorphism and splitting


def test_isomorphism_residual_small(disk2d, rng):
    _, p = disk2d
    mus = dirichlet_eigs(p)
    for lam in (0.5 * mus[0], 0.5 * (mus[0] + mus[1]), 0.5 * (mus[3] + mus[4])):
        for _ in range(7):
            phi = rng.normal(size=p.n_boundary)
            assert verify_isomorphism(p, lam, phi) <= RESIDUAL_TOL


def test_isomorphism_rejects_zero_shift(path3):
    _, p = path3
    with pytest.raises(ValueError):
        verify_isomorphism(p, 0.0, np.ones(2))


def test_splitting_identity_against_dense_oracle(disk2d):
    _, p = disk2d
    full = pencil_eigs(p.K, p.M).eigenvalues
    mus = dirichlet_eigs(p)
    lo, hi = 0.25 * mus[0], mus[12]
    for lam in np.linspace(lo, hi, 25):
        if min(np.abs(full - lam).min(), np.abs(mus - lam).min()) < 1e-8:
            continue
        try:
            n_full, n_dir, n_bnd, ok = splitting_counts(p, lam)
        except OnEigenvalue:
            continue
        assert ok
        assert n_full == int((full < lam).sum())
        assert n_dir == int((mus < lam).sum())


#: seeded 3D pencils for the two routes to S(lam): (resolution, family, level)
SCHUR_CASES = [
    (9, {"name": "ball_well", "center": [0.0, 0.0, 0.0], "radius": 1.0, "depth": 12.0}, -0.5),
    (11, {"name": "gaussian_well", "center": [0.1, -0.2, 0.0], "width": 0.55, "depth": 8.0}, -1.5),
    (13, {"name": "band_limited_random", "seed": 5, "cutoff": 3, "amplitude": 8.0}, -1.0),
]

#: the routes may differ, relative to max|S|, by this much times the
#: condition number mu_max / min_k |mu_k - lam| of the shifted pinned pencil:
#: the eigenpairs carry a backward error of order eps * mu_max, and a sparse
#: pinned factor is admitted up to a backward error of 1e-10 (largest ratio
#: seen on these cases: 3.6e-13, the Poisson route near a degenerate cluster)
SCHUR_ROUTE_RTOL = 1e-11


@pytest.mark.parametrize("res, family, e", SCHUR_CASES)
def test_spectral_schur_form_matches_the_poisson_route(res, family, e):
    """S(lam) from the pinned eigenpairs against S(lam) from the Poisson
    matrix, at the default shift grid and at shifts 1e-6 relative from
    pinned eigenvalues: equal inertia, entries within the stated bound, and
    equal splitting counts."""
    _, p = make_pencil(3, res, family, e)
    s = pencil_eigs(p.K_II, p.M_interior, want_vectors=True)
    pinned = PinnedEigenpairs(p, Eigenbasis(s, p.M_interior))
    mus = s.eigenvalues
    shifts = list(lambda_grid(mus, None, None, 6))
    for k in (0, 1, 4, 9):
        shifts += [mus[k] * (1.0 - 1e-6), mus[k] * (1.0 + 1e-6)]
    for lam in shifts:
        poisson, spectral = schur_form(p, lam), pinned.schur_form(lam)
        assert np.array_equal(spectral, spectral.T)
        assert inertia(spectral) == inertia(poisson)
        cond = mus[-1] / np.abs(mus - lam).min()
        scale = np.abs(poisson).max()
        assert np.abs(spectral - poisson).max() <= SCHUR_ROUTE_RTOL * cond * scale
        assert splitting_counts(p, lam, pinned) == splitting_counts(p, lam)


def test_schur_cases_include_masses_that_span_decades():
    """The 13^3 band-limited case is the pencil on which the eigenpair route
    to S(lam) is least accurate (its error grows with eps * mu_max), so the
    route comparison above keeps covering it only while it stays this badly
    scaled: |I| = 240, |B| = 231, masses over four decades, mu_max > 2e5."""
    _, p = make_pencil(3, *SCHUR_CASES[2])
    assert (len(p.dec.interior), len(p.dec.boundary)) == (240, 231)
    assert p.M_interior.max() / p.M_interior.min() > 2e4
    assert pencil_eigs(p.K_II, p.M_interior).eigenvalues[-1] > 2e5


def test_spectral_schur_form_needs_the_whole_checked_basis(ball3d):
    _, p = ball3d
    s = pencil_eigs(p.K_II, p.M_interior, want_vectors=True)
    head = SpectralSummary(eigenvalues=s.eigenvalues[:5], eigenvectors=s.eigenvectors[:, :5])
    with pytest.raises(ValueError):
        PinnedEigenpairs(p, Eigenbasis(head, p.M_interior))
    pinned = PinnedEigenpairs(p, Eigenbasis(s, p.M_interior))
    with pytest.raises(OnEigenvalue):
        pinned.schur_form(float(s.eigenvalues[3]))


def test_splitting_below_spectrum_is_zero(disk2d):
    _, p = disk2d
    n_full, n_dir, n_bnd, ok = splitting_counts(p, -1.0)
    assert (n_full, n_dir, n_bnd, ok) == (0, 0, 0, True)


def test_boundary_count_monotone_below_pinned_spectrum(disk2d):
    _, p = disk2d
    mu1 = dirichlet_eigs(p)[0]
    prev = -1
    for lam in np.linspace(0.05 * mu1, 0.95 * mu1, 9):
        n_full, n_dir, n_bnd, ok = splitting_counts(p, lam)
        assert ok and n_dir == 0 and n_full == n_bnd
        assert n_bnd >= prev
        prev = n_bnd


# ----------------------------------------------------- a2r spectrum, gamma


def test_steklov_path3(path3):
    _, p = path3
    S0 = schur_form(p, 0.0)
    bm = boundary_measures(p)
    assert np.allclose(bm.mu, [0.25, 0.25])
    # interior mass m = 1/2: nonzero Steklov eigenvalue 2/m = 4
    assert np.allclose(pencil_eigs(S0, bm.mu).eigenvalues, [0.0, 4.0], atol=1e-12)
    assert count_below(S0, bm.mu, 2.0) == 1
    assert count_below(S0, bm.mu, -1.0) == 0
    assert count_below(S0, bm.mu, 5.0) == 2
    with pytest.raises(OnEigenvalue):
        count_below(S0, bm.mu, 4.0)


def test_counting_inequality_chain(disk2d):
    """N_full(lam) <= N_dir(lam) + boundary count at gamma = a_lambda_norm."""
    _, p = disk2d
    mus = dirichlet_eigs(p)
    spec = SpectralSummary(eigenvalues=mus)
    S0 = schur_form(p, 0.0)
    bm = boundary_measures(p)
    for lam in np.linspace(0.3 * mus[0], mus[9], 12):
        try:
            n_full, n_dir, _, ok = splitting_counts(p, lam)
            gamma = a_lambda_norm(spec, lam)
            n_gamma = count_below(S0, bm.mu, gamma * (1 + 1e-9))
        except OnEigenvalue:
            continue
        assert ok
        assert n_full <= n_dir + n_gamma


def test_form_lower_bound_random_vectors(disk2d, rng):
    """phi' S(lam) phi >= phi' S(0) phi - a_lambda * phi' diag(mu) phi."""
    _, p = disk2d
    mus = dirichlet_eigs(p)
    spec = SpectralSummary(eigenvalues=mus)
    S0 = schur_form(p, 0.0)
    bm = boundary_measures(p)
    for lam in (0.5 * mus[0], 0.5 * (mus[0] + mus[1])):
        S = schur_form(p, lam)
        a = a_lambda_norm(spec, lam)
        low = S0 - a * np.diag(bm.mu)
        for _ in range(100):
            phi = rng.normal(size=p.n_boundary)
            assert phi @ S @ phi >= phi @ low @ phi - 1e-9 * abs(phi @ S @ phi)


def test_contraction_quadratic_form(disk2d, rng):
    """Swept mass dominates the pulled-back interior mass (Jensen on the
    probability rows of P0)."""
    _, p = disk2d
    P0 = poisson_matrix(p, 0.0)
    bm = boundary_measures(p)
    G = P0.T @ (p.M_interior[:, None] * P0)
    gap = np.diag(bm.mu) - G
    assert inertia(gap).n_minus == 0
    for _ in range(100):
        phi = rng.normal(size=p.n_boundary)
        assert phi @ gap @ phi >= -1e-12 * (phi @ phi)


# ------------------------------------------------------ kernel constant c_P


def _brute_poisson_constant(p, P0):
    """Double loop over every interior/boundary pair with P0 > 0."""
    n = p.grid.dimension
    xi = p.grid.node_coords(p.dec.interior).tolist()
    yb = p.grid.node_coords(p.dec.boundary).tolist()
    c = 1.0
    for i, x in enumerate(xi):
        d = min(math.dist(x, y) for y in yb)
        for b, y in enumerate(yb):
            if P0[i, b] > 0:
                ratio = (P0[i, b] / p.sigma[b]) / (d / math.dist(x, y) ** n)
                c = max(c, ratio, 1.0 / ratio)
    return c


def _three_wells_2d():
    """A three-well 2D landscape (the benchmark's levels-2d geometry) at a
    level where the wells are separate components."""
    wells = [
        {"name": "gaussian_well", "center": list(c), "width": 0.3, "depth": d}
        for c, d in (((-0.75, -0.7), 4.0), ((0.75, -0.7), 3.0), ((0.0, 0.75), 2.5))
    ]
    return make_pencil(2, 33, {"name": "multi_well", "wells": wells}, -1.0)


@pytest.mark.parametrize("shape", ["disk2d", "ball3d"])
def test_poisson_constant_matches_brute_force(shape, disk2d):
    if shape == "disk2d":
        _, p = disk2d
    else:
        ball = {"name": "ball_well", "center": [0.0, 0.0, 0.0], "radius": 1.0, "depth": 12.0}
        _, p = make_pencil(3, 11, ball, -0.5)
    P0 = poisson_matrix(p, 0.0)
    assert np.all(P0 > 0)
    c = estimate_poisson_constant(p, P0=P0)
    assert c > 1.0
    assert c == pytest.approx(_brute_poisson_constant(p, P0), rel=1e-13)
    # scipy.spatial as the oracle, bit for bit: d(x), the row minimum of
    # c_P's distance array, is the k-d tree's nearest boundary distance, and
    # c_P is the value of the cdist/cKDTree formula
    xi = p.grid.node_coords(p.dec.interior)
    yb = p.grid.node_coords(p.dec.boundary)
    d = cKDTree(yb).query(xi)[0]
    dist = np.sqrt(p.grid.squared_distances(xi, yb, np.empty((len(xi), len(yb)))))
    assert np.array_equal(dist.min(axis=1), d)
    ratio = cdist(xi, yb) ** p.grid.dimension * P0 / d[:, None] / p.sigma
    assert c == max(ratio.max(), 1.0 / ratio.min())


def test_poisson_constant_skips_pairs_in_different_components():
    _, p = _three_wells_2d()
    assert len(p.dec.components) == 3
    P0 = poisson_matrix(p, 0.0)
    assert (P0 == 0).any()  # a walk never leaves its own component
    c = estimate_poisson_constant(p, P0=P0)
    assert np.isfinite(c)
    assert c == pytest.approx(_brute_poisson_constant(p, P0), rel=1e-13)


def test_poisson_constant_bounds_every_sample(disk2d):
    """The exhaustive constant is at least the one of any sampled subset of
    pairs, and no random draw enters it."""
    _, p = disk2d
    P0 = poisson_matrix(p, 0.0)
    exact = estimate_poisson_constant(p)
    xi = p.grid.node_coords(p.dec.interior)
    yb = p.grid.node_coords(p.dec.boundary)
    d = np.min(np.linalg.norm(xi[:, None, :] - yb[None, :, :], axis=2), axis=1)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, xi.shape[0], size=300)
        bb = rng.integers(0, yb.shape[0], size=300)
        gap = np.linalg.norm(xi[ii] - yb[bb], axis=1)
        ratio = (P0[ii, bb] / p.sigma[bb]) / (d[ii] / gap**2)
        assert max(1.0, ratio.max(), (1.0 / ratio).max()) <= exact * (1.0 + 1e-14)
        assert estimate_poisson_constant(p, P0=P0) == exact


def test_poisson_constant_rejects_1d(path3):
    _, p = path3
    with pytest.raises(ValueError):
        estimate_poisson_constant(p)
