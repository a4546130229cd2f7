"""The one symmetric factorization: its inertia against eigenvalue oracles
and its solves against the residual contract, on every path."""

import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import make_pencil
from wellspectra import eigcount
from wellspectra.a2r import RESIDUAL_TOL
from wellspectra.eigcount import (
    Factorization,
    ShiftFamily,
    count_below,
    inertia,
    pencil_eigs,
    strict_count,
)
from wellspectra.errors import FactorizationBreakdown, OnEigenvalue, SingularDirichletBlock
from wellspectra.model import Inertia
from wellspectra.scenario import _nudged


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


def test_a_fortran_ordered_temporary_is_factored_in_place(rng):
    """With overwrite_a, a Fortran-ordered dense A is factored in its own
    storage, with the factor, inertia and solves of a factor of a copy, and
    with no order^2 temporary besides; a C-ordered A, or one without the
    flag, is left as it was."""
    n = 600
    A = random_symmetric(rng, n, np.r_[-np.ones(200), np.ones(400)] * rng.uniform(1, 5, n))
    reference = Factorization(A)
    target = np.asfortranarray(A)
    tracemalloc.start()
    try:
        F = Factorization(target, overwrite_a=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * n**2 * 8
    assert np.shares_memory(F._ldu, target) and not np.array_equal(target, A)
    assert F.inertia == reference.inertia == eigvalsh_inertia(A)
    assert np.array_equal(F._ldu, reference._ldu)
    b = rng.normal(size=n)
    assert np.array_equal(F.solve(b), reference.solve(b))
    for kept, flag in ((A.copy(), True), (np.asfortranarray(A), False)):
        Factorization(kept, overwrite_a=flag)
        assert np.array_equal(kept, A)


def test_a_lower_triangle_over_zeros_has_the_inertia_of_its_matrix(rng):
    """A symmetric A stored as its lower triangle over zeros (how the
    eigenpair route hands over S(lam)) has the inertia of A itself, factored
    in place or from a copy: on random indefinite matrices, on matrices
    whose entries all share one sign, where the zeros move max A or min A
    but not tau0 = 1e-12 * max|A_ij| (rank-deficient ones among them, whose
    zero pivots tau0 decides), and at order 1."""
    cases = [random_symmetric(rng, n, rng.uniform(-3.0, 3.0, n)) for n in (2, 7, 40, 300)]
    for n, rank in ((6, 6), (30, 30), (30, 12)):
        B = rng.uniform(0.5, 2.0, (n, rank))
        C = rng.uniform(0.5, 2.0, (n, n))
        for one_sign in (B @ B.T, C + C.T):
            cases += [one_sign, -one_sign]
    cases += [np.array([[2.5]]), np.array([[-0.5]])]
    kinds = set()
    for A in cases:
        expected = eigvalsh_inertia(A)
        assert Factorization(A).inertia == expected
        kinds.add((expected.n_minus > 0, expected.n_zero > 0, expected.n_plus > 0))
        lower = np.tril(A)
        for stored, flag in ((lower.copy(), False), (np.asfortranarray(lower), True)):
            F = Factorization(stored, overwrite_a=flag)
            assert F.path == "dense" and F.inertia == expected
            assert np.shares_memory(F._ldu, stored) == flag
    assert {(True, False, True), (False, True, True), (True, True, False)} <= kinds


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


def test_a_sparse_diagonal_that_cancels_is_decided_by_the_dense_factor():
    """The box operator of a 2x2x2 cube of nodes (h = 1/3, V = -60) shifted
    by e = -6: its diagonal h*6 + V*h^3 - e*h^3 cancels to a rounding
    residue, so SuperLU's diagonal pivots in the minimum-degree order lie
    within tau0, although A is nonsingular (the cube graph's eigenvalues
    scaled by h: +-1, +-1/3).  The factor is refused, and the dense
    fallback reads n_zero = 0 and the dense inertia."""
    h = 1.0 / 3.0
    corners = np.array(list(np.ndindex(2, 2, 2)))
    adjacent = np.abs(corners[:, None] - corners[None]).sum(axis=2) == 1
    A = np.where(adjacent, -h, 0.0)
    A[np.diag_indices(8)] = h * 6 + (-60.0) * h**3 - (-6.0) * h**3
    assert 0.0 < A[0, 0] < 1e-12
    F = Factorization(sp.csr_matrix(A))
    assert F.path == "dense-fallback"
    assert F.inertia == Factorization(A).inertia == eigvalsh_inertia(A) == Inertia(4, 0, 4)


@pytest.mark.parametrize("n", [900, eigcount.DENSE_CAP + 500])
def test_exactly_singular_sparse_matrix_is_on_the_spectrum(n):
    """The path-graph Neumann Laplacian has the constants in its kernel and
    an exactly zero last pivot.  Up to DENSE_CAP the dense fallback reports
    n_zero = 1; above it SuperLU's "exactly singular" is OnEigenvalue.  On
    both sides the nudged count from 0 counts the zero eigenvalue, and a
    count whose mass-free block is K is refused as SingularDirichletBlock."""
    d = np.full(n, 2.0)
    d[[0, -1]] = 1.0
    K = sp.diags([-np.ones(n - 1), d, -np.ones(n - 1)], (-1, 0, 1)).tocsr()
    if n <= eigcount.DENSE_CAP:
        assert Factorization(K).path == "dense-fallback"
        assert inertia(K).n_zero == 1
    else:
        with pytest.raises(OnEigenvalue, match="exactly singular"):
            inertia(K)
    assert _nudged(lambda x: count_below(K, np.ones(n), x), 0.0, "lambda") == (1e-9, 1)
    with pytest.raises(SingularDirichletBlock):
        count_below(sp.block_diag([K, [[1.0]]]), np.r_[np.zeros(n), 1.0], 0.5)


def test_unstable_factor_above_the_dense_cap_is_a_breakdown():
    """A refusal other than exact singularity still ends in
    FactorizationBreakdown where no dense fallback is allowed."""
    blocks = (eigcount.DENSE_CAP + 500) // 2
    A = sp.block_diag([[[1e-8, 1.0], [1.0, 1e-8]]] * blocks, format="csr")
    with pytest.raises(FactorizationBreakdown, match="unstable"):
        Factorization(A)


def test_inertia_is_the_factorization_inertia(rng):
    B = rng.normal(size=(20, 20))
    A = B + B.T
    assert inertia(A) == Factorization(A).inertia == eigvalsh_inertia(A)


# ------------------------------------------------------------ shift family


def record_orderings(monkeypatch):
    """The permc_spec of every SuperLU factorization, in call order."""
    specs = []
    real_splu = eigcount.splu

    def recording(A, *args, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return real_splu(A, *args, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(eigcount, "splu", recording)
    return specs


@pytest.mark.parametrize(
    "dim, case", [(2, SPARSE_CASES_2D[1]), (3, SPARSE_CASES[0]), (3, SPARSE_CASES[2])]
)
def test_shift_family_factors_equal_fresh_factors(dim, case, monkeypatch):
    """Pinned (seeded at lam = 0, as a level's P0 seeds it) and full
    families at seeded shifts: after the first factor no shift is ordered
    again, and every family factor has the inertia, the pivots and the
    solves of a fresh factor of K - lam*diag(m), bit for bit."""
    family, res, e = case
    _, p = make_pencil(dim, res, family, e)
    rng = np.random.default_rng(22 + dim)
    specs = record_orderings(monkeypatch)
    seeded = ShiftFamily(p.K_II, p.M_interior)
    seeded.factor(0.0)
    blocks = (
        (seeded, p.K_II, p.M_interior, "NATURAL"),
        (ShiftFamily(p.K, p.M), p.K, p.M, "MMD_AT_PLUS_A"),
    )
    for shifts, K, m, first_spec in blocks:
        for k, lam in enumerate(np.exp(rng.uniform(np.log(0.1), np.log(40.0), size=6))):
            del specs[:]
            F = shifts.factor(lam)
            assert specs == [first_spec if k == 0 else "NATURAL"]
            A = (K - lam * sp.diags(m)).tocsr()
            fresh = Factorization(A)
            assert F.path == fresh.path == "sparse"
            assert F.inertia == fresh.inertia
            assert np.array_equal(F._lu.U.diagonal(), fresh._lu.U.diagonal())
            b = rng.normal(size=(A.shape[0], 2))
            x = F.solve(b)
            assert np.array_equal(x, fresh.solve(b))
            assert relative_residual(A, x, b) <= RESIDUAL_TOL


def test_shift_family_on_a_zeroed_diagonal_entry():
    """A shift with K_ii - lam*m_i == 0 exactly: the fresh matrix drops
    that entry, the family keeps it as an explicit zero; the counts agree
    with the eigenvalue oracle and the solves meet the contract."""
    _, p = make_pencil(2, 57, THREE_WELLS, -1.0)
    K, m = p.K_II, p.M_interior
    kdiag = K.diagonal()
    lams = kdiag / m
    exact = np.flatnonzero(kdiag - lams * m == 0.0)
    i = exact[exact.size // 2]
    lam = lams[i]
    A = (K - lam * sp.diags(m)).tocsr()
    assert i not in A.indices[A.indptr[i] : A.indptr[i + 1]]
    shifts = ShiftFamily(K, m)
    assert shifts.factor(0.0).path == "sparse"
    F = shifts.factor(lam)
    assert F.inertia == Factorization(A).inertia == eigvalsh_inertia(A)
    b = np.random.default_rng(23).normal(size=A.shape[0])
    assert relative_residual(A, F.solve(b), b) <= RESIDUAL_TOL


@pytest.mark.parametrize("n", [900, eigcount.DENSE_CAP + 500])
def test_shift_family_on_the_spectrum_raises_like_a_fresh_factor(n):
    """The path-graph Neumann Laplacian at shift 0: a family ordered at
    another shift raises OnEigenvalue exactly where a fresh factor does
    (a dense-fallback n_zero = 1 up to DENSE_CAP, SuperLU's "exactly
    singular" above it), and its nudged count is that of count_below."""
    d = np.full(n, 2.0)
    d[[0, -1]] = 1.0
    K = sp.diags([-np.ones(n - 1), d, -np.ones(n - 1)], (-1, 0, 1)).tocsr()
    shifts = ShiftFamily(K, np.ones(n))
    assert shifts.factor(-1.0).path == "sparse"
    for factor in (lambda: Factorization(K), lambda: shifts.factor(0.0)):
        with pytest.raises(OnEigenvalue):
            strict_count(factor().inertia, "pencil")
    nudged = _nudged(lambda x: strict_count(shifts.factor(x).inertia, "pencil"), 0.0, "lambda")
    assert nudged == _nudged(lambda x: count_below(K, np.ones(n), x), 0.0, "lambda") == (1e-9, 1)


def test_shift_family_whose_first_factor_fell_back_never_reuses_an_order(monkeypatch):
    """With the guard refusing the first factor, which the dense fallback
    then answers, every later shift is ordered afresh."""
    _, p = make_pencil(2, 57, THREE_WELLS, -1.0)
    K, m = p.K_II, p.M_interior
    real = eigcount._backward_error
    refused = []

    def refuse_first(*args):
        """Refuse the first guard solve."""
        if not refused:
            refused.append(True)
            return np.inf
        return real(*args)

    monkeypatch.setattr(eigcount, "_backward_error", refuse_first)
    specs = record_orderings(monkeypatch)
    shifts = ShiftFamily(K, m)
    assert shifts.factor(0.5).path == "dense-fallback"
    del specs[:]
    lams = (0.7, 1.3, 2.9)
    for lam in lams:
        F = shifts.factor(lam)
        assert F.path == "sparse" and F._perm is None
        assert F.inertia == eigvalsh_inertia((K - lam * sp.diags(m)).tocsr())
    assert specs == ["MMD_AT_PLUS_A"] * len(lams)
