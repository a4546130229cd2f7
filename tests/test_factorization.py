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
        assert F.path == "dense"
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


def test_small_sparse_input_takes_dense_path(rng):
    A = sp.random(300, 300, density=0.02, random_state=3)
    A = (A + A.T - 0.5 * sp.eye(300)).tocsr()
    F = Factorization(A)
    assert F.path == "dense"
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

#: wall-clock budget of the whole sparse cross-check
SPARSE_BUDGET_S = 30.0


@pytest.mark.filterwarnings("ignore:gaussian_well support reaches the box edge")
def test_sparse_path_on_indefinite_3d_pencils():
    """Pinned (K - lam*M)_II and full K - lam*M of 3D pencils, 12 seeded
    shifts each, against the counts of the dense pencil spectrum."""
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    checked = 0
    for family, res, e in SPARSE_CASES:
        _, p = make_pencil(3, res, family, e)
        pairs = [(p.K_II, p.M_interior), (p.K, p.M)]
        for K, m in pairs:
            mus = pencil_eigs(K, m).eigenvalues
            # from above the full pencil's zero mode (the constants) to mu_41
            lams = np.exp(rng.uniform(np.log(0.5 * mus[1]), np.log(mus[40]), size=12))
            for lam in lams:
                if np.min(np.abs(mus - lam)) < 1e-6 * lam:
                    continue
                A = (K - lam * sp.diags(m)).tocsr()
                F = Factorization(A)
                assert F.path == "sparse"
                assert A.shape[0] > 800
                assert F.inertia.n_zero == 0
                assert F.inertia.n_minus == int((mus < lam).sum())
                b = rng.normal(size=A.shape[0])
                assert relative_residual(A, F.solve(b), b) <= RESIDUAL_TOL
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 60
    assert elapsed <= SPARSE_BUDGET_S, f"sparse cross-check took {elapsed:.1f}s"


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


def test_inertia_is_the_factorization_inertia(rng):
    B = rng.normal(size=(20, 20))
    A = B + B.T
    assert inertia(A) == Factorization(A).inertia == eigvalsh_inertia(A)
