import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wellspectra.a2r import (
    RESIDUAL_TOL,
    a2r_spectrum_and_count,
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
from wellspectra.eigcount import inertia, pencil_eigs
from wellspectra.errors import OnEigenvalue, ResolventViolation
from wellspectra.model import SpectralSummary


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
    summary, n_neg = a2r_spectrum_and_count(S0, bm, 2.0)
    # interior mass m = 1/2: nonzero Steklov eigenvalue 2/m = 4
    assert np.allclose(summary.eigenvalues, [0.0, 4.0], atol=1e-12)
    assert n_neg == 1
    assert a2r_spectrum_and_count(S0, bm, -1.0)[1] == 0
    assert a2r_spectrum_and_count(S0, bm, 5.0)[1] == 2
    with pytest.raises(OnEigenvalue):
        a2r_spectrum_and_count(S0, bm, 4.0)


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
            _, n_gamma = a2r_spectrum_and_count(S0, bm, gamma * (1 + 1e-9))
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


# -------------------------------------------------- empirical kernel ratio


def test_poisson_constant_estimate(disk2d):
    _, p = disk2d
    c1 = estimate_poisson_constant(p, 500, seed=3)
    c2 = estimate_poisson_constant(p, 500, seed=3)
    assert c1 == c2
    assert c1 >= 1.0 and np.isfinite(c1)
    other = estimate_poisson_constant(p, 500, seed=4)
    assert other >= 1.0


def test_poisson_constant_rejects_1d(path3):
    _, p = path3
    with pytest.raises(ValueError):
        estimate_poisson_constant(p, 10)
