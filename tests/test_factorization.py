"""The one symmetric factorization: its inertia against eigenvalue oracles
and its solves against the residual contract, on every path."""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import make_pencil
from wellspectra import eigcount
from wellspectra.a2r import RESIDUAL_TOL
from wellspectra.eigcount import Factorization, inertia, pencil_eigs
from wellspectra.model import Inertia


def eigvalsh_inertia(A) -> Inertia:
    """Oracle: eigenvalues classified against tau0 = 1e-12 * max|A_ij|."""
    A = A.toarray() if sp.issparse(A) else np.asarray(A)
    tau0 = 1e-12 * np.abs(A).max()
    w = np.linalg.eigvalsh(A)
    neg, pos = int((w < -tau0).sum()), int((w > tau0).sum())
    return Inertia(neg, w.size - neg - pos, pos)


def relative_residual(A, x, b) -> float:
    Ax = A @ x
    scale = max(float(np.linalg.norm(b)), float(np.linalg.norm(Ax)), 1e-300)
    return float(np.linalg.norm(Ax - b) / scale)


def random_symmetric(rng, n, spectrum):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (Q * spectrum) @ Q.T


# ------------------------------------------------------------- dense path


def test_dense_path_with_two_by_two_blocks(rng):
    """Zero-diagonal matrices force Bunch-Kaufman into 2x2 pivot blocks."""
    blocks_seen = 0
    for _ in range(40):
        n = int(rng.integers(2, 40))
        B = rng.normal(size=(n, n))
        A = B + B.T
        np.fill_diagonal(A, 0.0)
        F = Factorization(A)
        assert F.path == "dense" and F.backward_error is None
        assert F.inertia == eigvalsh_inertia(A)
        blocks_seen += int((F._ipiv < 0).sum()) // 2
        b = rng.normal(size=(n, 3))
        assert relative_residual(A, F.solve(b), b) <= RESIDUAL_TOL
    assert blocks_seen > 0


def test_dense_path_on_singular_inputs(rng):
    for _ in range(40):
        n = int(rng.integers(3, 50))
        spectrum = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.1, 10.0, size=n)
        spectrum[rng.random(n) < 0.3] = 0.0
        spectrum[0] = 0.0
        A = random_symmetric(rng, n, spectrum)
        A = (A + A.T) / 2.0
        F = Factorization(A)
        expect = eigvalsh_inertia(A)
        assert F.inertia == expect
        assert expect.n_zero == int((spectrum == 0.0).sum())
        with pytest.raises(np.linalg.LinAlgError):
            F.solve(np.ones(n))


def test_small_sparse_input_takes_sparse_path(rng):
    A = sp.random(300, 300, density=0.02, random_state=3)
    A = (A + A.T - 0.5 * sp.eye(300)).tocsr()
    F = Factorization(A)
    assert F.path == "sparse"
    assert F.backward_error <= eigcount.BACKWARD_ERROR_TOL
    assert F.inertia == eigvalsh_inertia(A)
    b = rng.normal(size=300)
    x = F.solve(b)
    assert x.shape == (300,)
    assert relative_residual(A, x, b) <= RESIDUAL_TOL


def test_zero_matrix_and_validation():
    F = Factorization(sp.csr_matrix((900, 900)))
    assert F.path == "zero"
    assert F.inertia == Inertia(0, 900, 0)
    with pytest.raises(np.linalg.LinAlgError):
        F.solve(np.ones(900))
    with pytest.raises(ValueError):
        Factorization(np.ones((2, 3)))
    with pytest.raises(ValueError):
        Factorization(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Factorization(np.eye(3)).solve(np.ones(4))


# ------------------------------------------------------------ sparse path

#: 3D pencils whose pinned and full shifted matrices have order above 800
SPARSE_CASES = [
    ({"name": "ball_well", "center": [0, 0, 0], "radius": 1.0, "depth": 12.0}, 25, -0.5),
    ({"name": "gaussian_well", "center": [0, 0, 0], "width": 0.6, "depth": 6.0}, 25, -1.0),
    ({"name": "band_limited_random", "seed": 5, "cutoff": 3, "amplitude": 8.0}, 21, -1.0),
]

#: 2D three-well pencils (the levels-2d benchmark landscape, unjittered)
#: whose pinned and full shifted matrices have order 150 to 754
THREE_WELLS = {
    "name": "multi_well",
    "wells": [
        {"name": "gaussian_well", "center": list(c), "width": 0.3, "depth": d}
        for c, d in zip(((-0.75, -0.7), (0.75, -0.7), (0.0, 0.75)), (4.0, 3.0, 2.5))
    ],
}
SPARSE_CASES_2D = [(THREE_WELLS, 57, e) for e in (-2.0, -1.0, -0.5)]

#: wall-clock budget of the whole sparse cross-check, shared by the 3D and
#: the 2D halves; each half records its time here
SPARSE_BUDGET_S = 30.0
_sparse_elapsed = []


def check_sparse_path(dim, cases, rng) -> int:
    """Pinned (K - lam*M)_II and full K - lam*M of each case's pencil at 12
    seeded shifts, against the counts of the dense pencil spectrum and the
    solve residual contract; returns the number of shifts checked."""
    start = time.perf_counter()
    checked = 0
    for family, res, e in cases:
        _, p = make_pencil(dim, res, family, e)
        pairs = [(p.K_II, p.M_interior), (p.K, p.M)]
        for K, m in pairs:
            mus = pencil_eigs(K, m).eigenvalues
            # from above the full pencil's zero modes (the constants on each
            # component of a 2D multi-well region) to mu_41
            lo = mus[max(1, int(np.sum(mus < 1e-8 * mus[40])))]
            lams = np.exp(rng.uniform(np.log(0.5 * lo), np.log(mus[40]), size=12))
            for lam in lams:
                if np.min(np.abs(mus - lam)) < 1e-6 * lam:
                    continue
                A = (K - lam * sp.diags(m)).tocsr()
                F = Factorization(A)
                assert F.path == "sparse"
                assert F.backward_error <= eigcount.BACKWARD_ERROR_TOL
                assert F.inertia.n_zero == 0
                assert F.inertia.n_minus == int((mus < lam).sum())
                b = rng.normal(size=A.shape[0])
                assert relative_residual(A, F.solve(b), b) <= RESIDUAL_TOL
                checked += 1
    _sparse_elapsed.append(time.perf_counter() - start)
    total = sum(_sparse_elapsed)
    assert total <= SPARSE_BUDGET_S, f"sparse cross-check took {total:.1f}s"
    return checked


@pytest.mark.filterwarnings("ignore:gaussian_well support reaches the box edge")
def test_sparse_path_on_indefinite_3d_pencils():
    assert check_sparse_path(3, SPARSE_CASES, np.random.default_rng(20)) >= 60


def test_sparse_path_on_indefinite_2d_pencils():
    """Sparse matrices of order 150 to 754, the sizes of most levels of a
    2D multi-well scenario, take the sparse path too."""
    assert check_sparse_path(2, SPARSE_CASES_2D, np.random.default_rng(21)) >= 60


def test_dense_fallback_when_pivots_leave_the_diagonal(monkeypatch, rng):
    """A sparse LU whose row and column permutations differ is refused and
    the dense path answers instead, for inertia and solves alike."""
    real_splu = eigcount.splu

    class OffDiagonal:
        def __init__(self, lu):
            self.lu = lu
            self.perm_c = lu.perm_c
            self.perm_r = lu.perm_r[::-1].copy()

    monkeypatch.setattr(eigcount, "splu", lambda *a, **k: OffDiagonal(real_splu(*a, **k)))
    n = 900
    A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], (-1, 0, 1))
    A = (A - 1.5 * sp.eye(n)).tocsr()
    F = Factorization(A)
    assert F.path == "dense-fallback"
    assert F.inertia == eigvalsh_inertia(A)
    b = rng.normal(size=(n, 2))
    assert relative_residual(A, F.solve(b), b) <= RESIDUAL_TOL


def test_unstable_unpivoted_factor_falls_back_to_dense(rng):
    """2x2 blocks [[d, 1], [1, d]] with tau0 < d << 1: eliminating a d pivot
    grows the other to about -1/d, the guard solve shows it, and Bunch-Kaufman
    answers instead."""
    delta = 1e-8
    A = sp.block_diag([np.array([[delta, 1.0], [1.0, delta]])] * 50, format="csr")
    assert eigcount.PIVOT_RTOL * abs(A).max() < delta
    F = Factorization(A)
    assert F.path == "dense-fallback"
    assert F.backward_error is None
    assert F.inertia == eigvalsh_inertia(A) == Inertia(50, 0, 50)
    b = rng.normal(size=100)
    assert relative_residual(A, F.solve(b), b) <= RESIDUAL_TOL


def test_singular_sparse_matrix_above_the_dense_cap_counts_its_kernel():
    """T - mu_1*I for the order-4500 Dirichlet tridiagonal T: a pivot lies
    within tau0, so the guard is skipped and the shift is reported as on
    the spectrum, not as a breakdown."""
    n = eigcount.DENSE_CAP + 500
    mu1 = 2.0 - 2.0 * np.cos(np.pi / (n + 1))
    A = sp.diags([-np.ones(n - 1), (2.0 - mu1) * np.ones(n), -np.ones(n - 1)], (-1, 0, 1))
    F = Factorization(A.tocsr())
    assert F.path == "sparse"
    assert F.backward_error is None
    assert F.inertia.n_zero > 0
    assert F.inertia.n_minus + F.inertia.n_zero == 1


def test_inertia_is_the_factorization_inertia(rng):
    B = rng.normal(size=(20, 20))
    A = B + B.T
    assert inertia(A) == Factorization(A).inertia == eigvalsh_inertia(A)
