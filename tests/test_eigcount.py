import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wellspectra.assemble import assemble_pencil, classify_nodes
from wellspectra.eigcount import (
    ORTHONORMALITY_TOL,
    count_below,
    heat_trace,
    _SMALL_PRODUCT,
    inertia,
    matmul,
    matvec,
    pencil_eigs,
    strict_count,
    two_infinity_norm,
)
from wellspectra.errors import (
    MissingVectors,
    OnEigenvalue,
    SingularDirichletBlock,
    SizeCap,
)
from wellspectra.model import GridSpec, Inertia, SpectralSummary, build_potential


def path_laplacian(n, dense=True):
    """Pinned second-difference matrix tridiag(-1, 2, -1) of order n."""
    A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], (-1, 0, 1))
    return A.toarray() if dense else A.tocsr()


def path_eigenvalues(n):
    k = np.arange(1, n + 1)
    return 2.0 - 2.0 * np.cos(k * np.pi / (n + 1))


# ---------------------------------------------------------------- inertia


def test_inertia_trivial_cases():
    assert inertia(np.eye(4)) == Inertia(0, 0, 4)
    assert inertia(-np.eye(3)) == Inertia(3, 0, 0)
    assert inertia(np.zeros((5, 5))) == Inertia(0, 5, 0)
    assert inertia(np.diag([1.0, -2.0, 0.0, 3.0])) == Inertia(1, 1, 2)
    assert inertia(sp.csr_matrix((6, 6))) == Inertia(0, 6, 0)


def test_inertia_matches_eigensolver(rng):
    for _ in range(50):
        B = rng.normal(size=(8, 8))
        A = B + B.T
        w = np.linalg.eigvalsh(A)
        expect = Inertia(int((w < 0).sum()), 0, int((w > 0).sum()))
        assert inertia(A) == expect


def test_inertia_invariant_under_congruence(rng):
    for _ in range(20):
        B = rng.normal(size=(6, 6))
        A = B + B.T
        C = rng.normal(size=(6, 6))
        while abs(np.linalg.det(C)) < 1e-3:
            C = rng.normal(size=(6, 6))
        assert inertia(C.T @ A @ C) == inertia(A)


def test_inertia_haynsworth_additivity(rng):
    """Signature splits across a block elimination: the structural fact the
    full/pinned/boundary count identity rests on."""
    for _ in range(20):
        B = rng.normal(size=(9, 9))
        A = B + B.T + 0.3 * np.eye(9)
        A11 = A[:5, :5]
        if abs(np.linalg.det(A11)) < 1e-6:
            continue
        schur = A[5:, 5:] - A[5:, :5] @ np.linalg.solve(A11, A[:5, 5:])
        top = inertia(A11)
        bottom = inertia(schur)
        whole = inertia(A)
        assert whole.n_minus == top.n_minus + bottom.n_minus
        assert whole.n_plus == top.n_plus + bottom.n_plus


def test_inertia_sparse_agrees_with_dense():
    n = 900  # above the dense switch
    A = path_laplacian(n, dense=False) - 1.5 * sp.eye(n)
    got = inertia(A.tocsr())
    w = path_eigenvalues(n) - 1.5
    assert got == Inertia(int((w < 0).sum()), 0, int((w > 0).sum()))


def test_inertia_fallback_when_diagonal_pivoting_impossible():
    # the exchange matrix has an all-zero diagonal, so symmetric-mode LU
    # cannot stay on the diagonal; the dense fallback must still answer
    n = 810
    J = sp.coo_matrix((np.ones(n), (np.arange(n), np.arange(n)[::-1]))).tocsr()
    assert inertia(J) == Inertia(n // 2, 0, n // 2)


def test_inertia_input_validation():
    with pytest.raises(ValueError):
        inertia(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        inertia(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_strict_count_is_n_minus_off_the_spectrum():
    assert strict_count(Inertia(3, 0, 2), "pencil") == 3
    assert strict_count(Inertia(0, 0, 5), "pencil") == 0
    with pytest.raises(
        OnEigenvalue, match=r"^shift lies on the box operator spectrum \(n_zero=2\)$"
    ):
        strict_count(Inertia(1, 2, 4), "box operator")


# ------------------------------------------------------------ count_below


def test_count_below_path_closed_form():
    n = 30
    K = path_laplacian(n)
    mu = path_eigenvalues(n)
    for lam in np.linspace(-0.5, 4.5, 41):
        assert count_below(K, np.ones(n), lam) == int((mu < lam).sum())


def test_count_below_monotone(rng):
    B = rng.normal(size=(12, 12))
    K = B @ B.T + np.eye(12)
    m = rng.uniform(0.5, 2.0, size=12)
    lams = np.linspace(0.0, 50.0, 60)
    counts = [count_below(K, m, lam) for lam in lams]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[0] == 0


def test_count_below_on_eigenvalue_raises():
    K = np.diag([1.0, 2.0, 3.0])
    assert count_below(K, np.ones(3), 2.5) == 2
    with pytest.raises(OnEigenvalue):
        count_below(K, np.ones(3), 2.0)


def test_count_below_refuses_matrix_mass():
    """The mass is its diagonal, a vector: a 2-D mass, even a diagonal one,
    dense or sparse, is refused."""
    K = np.diag([1.0, 2.0])
    for M in (np.diag([1.0, 1.0]), sp.eye(2).tocsr()):
        with pytest.raises(ValueError):
            count_below(K, M, 1.5)
        with pytest.raises(ValueError):
            pencil_eigs(K, M)


def test_count_below_mass_validation():
    K = np.eye(3)
    with pytest.raises(ValueError):
        count_below(K, np.array([1.0, -1.0, 1.0]), 0.5)
    with pytest.raises(ValueError):
        count_below(K, np.ones(4), 0.5)
    with pytest.raises(ValueError):
        count_below(K, np.array([[1.0, 0.5], [0.5, 1.0]]), 0.5)


def test_count_below_singular_massless_block():
    K = np.diag([1.0, -1.0])
    with pytest.raises(SingularDirichletBlock):
        count_below(K, np.array([1.0, 0.0]), 0.5)


def test_count_below_singular_mass_matches_condensation(rng):
    """Counts at many shifts agree with the dense spectrum of the condensed
    pencil when some nodes carry no mass."""
    for _ in range(25):
        n = rng.integers(4, 12)
        B = rng.normal(size=(n, n))
        K = B @ B.T + n * np.eye(n)
        m = rng.uniform(0.2, 2.0, size=n)
        m[rng.random(n) < 0.35] = 0.0
        s = pencil_eigs(K, m)
        assert s.count == int((m > 0).sum())
        for lam in rng.uniform(0.0, 60.0, size=8):
            if np.min(np.abs(s.eigenvalues - lam), initial=np.inf) < 1e-9:
                continue
            assert count_below(K, m, lam) == int((s.eigenvalues < lam).sum())


# ------------------------------------------------------------ pencil_eigs


def test_pencil_eigs_path_closed_form():
    n = 7
    s = pencil_eigs(path_laplacian(n), np.ones(n))
    assert np.allclose(s.eigenvalues, path_eigenvalues(n), atol=1e-12)


def test_pencil_eigs_vectors_solve_the_pencil(rng):
    n = 10
    B = rng.normal(size=(n, n))
    K = B @ B.T + n * np.eye(n)
    m = rng.uniform(0.2, 2.0, size=n)
    m[:3] = 0.0
    s = pencil_eigs(K, m, want_vectors=True)
    X = s.eigenvectors
    assert X.shape == (n, 7)
    # generalized eigenproblem holds on every row, massless ones included
    R = K @ X - (m[:, None] * X) * s.eigenvalues[None, :]
    assert np.abs(R).max() < 1e-8 * np.abs(K).max()
    # m-orthonormal columns
    G = X.T @ (m[:, None] * X)
    assert np.abs(G - np.eye(7)).max() < 1e-10


def test_pencil_eigs_on_a_degenerate_ball(ball3d):
    """Divide and conquer on the ball's pinned block, whose cubic symmetry
    makes eigenvalues repeat: the values match eigvalsh of the pencil and
    the vectors are M-orthonormal within ORTHONORMALITY_TOL."""
    _, p = ball3d
    K, m = p.K_II.toarray(), p.M_interior
    s = pencil_eigs(p.K_II, m, want_vectors=True)
    ref = sla.eigvalsh(K, np.diag(m))
    assert np.any(np.diff(ref) < 1e-9 * ref[-1])  # the spectrum is degenerate
    assert np.allclose(s.eigenvalues, ref, rtol=1e-10, atol=0.0)
    X = s.eigenvectors
    G = X.T @ (m[:, None] * X)
    assert np.abs(G - np.eye(X.shape[1])).max() <= ORTHONORMALITY_TOL
    R = K @ X - (m[:, None] * X) * s.eigenvalues
    assert np.abs(R).max() < 1e-10 * np.abs(K).max()


#: the benchmark's 2D three-well landscape (57^2 in [-2, 2]^2) at its fixed,
#: unjittered centres, and two of its 32 levels: one with three sublevel
#: components and the top one, where the wells have merged
THREE_WELLS = {
    "name": "multi_well",
    "wells": [
        {"name": "gaussian_well", "center": c, "width": 0.3, "depth": d}
        for c, d in zip(([-0.75, -0.7], [0.75, -0.7], [0.0, 0.75]), (4.0, 3.0, 2.5))
    ],
}
THREE_COMPONENTS, MERGED = -1.0871, -0.1


@pytest.fixture(scope="module")
def three_wells():
    grid = GridSpec(box=((-2.0, 2.0),) * 2, resolution=(57, 57))
    V = build_potential(THREE_WELLS, grid)

    def pinned_block(e):
        dec = classify_nodes(V, e)
        return len(dec.components), assemble_pencil(dec, V, e)

    return pinned_block


@pytest.mark.parametrize(
    "case", ["three components", "merged", "diagonal", "order 1", "3D ball"]
)
def test_pencil_eigs_values_of_a_sparse_pencil_come_from_its_band(
    case, three_wells, ball3d, monkeypatch
):
    """Eigenvalues alone of a sparse K with positive masses: band reduction
    matches the dense generalized solver to rtol 1e-10, and no dense
    eigensolver runs."""
    rng = np.random.default_rng(7)
    if case in ("three components", "merged"):
        components, p = three_wells(THREE_COMPONENTS if case != "merged" else MERGED)
        assert components == (3 if case != "merged" else 1)
        K, m = p.K_II, p.M_interior
    elif case == "diagonal":
        K, m = sp.diags(rng.uniform(0.5, 5.0, 40)).tocsr(), rng.uniform(0.2, 2.0, 40)
    elif case == "order 1":
        K, m = sp.csr_matrix([[3.0]]), np.array([0.5])
    else:
        K, m = ball3d[1].K_II, ball3d[1].M_interior
    ref = sla.eigvalsh(K.toarray(), np.diag(m))

    def dense_solver(*args, **kwargs):
        raise AssertionError("values-only sparse pencil reached a dense eigensolver")

    monkeypatch.setattr(sla, "eigvalsh", dense_solver)
    monkeypatch.setattr(sla, "eigh", dense_solver)
    s = pencil_eigs(K, m)
    assert np.allclose(s.eigenvalues, ref, rtol=1e-10, atol=0.0)


def test_pencil_eigs_values_need_no_order_squared_array(three_wells):
    """The merged top-level pencil (order ~1160) costs far less memory than
    one dense copy of it."""
    _, p = three_wells(MERGED)
    order = p.n_interior
    assert order > 1100
    tracemalloc.start()
    try:
        pencil_eigs(p.K_II, p.M_interior)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * order**2 * 8


def _traced_peak(fn):
    """fn()'s result, and the peak of the memory traced while it ran (what
    was allocated before is not traced)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_pencil_eigs_with_vectors_holds_three_order_squared_arrays(three_wells, dense):
    """With eigenvectors, the merged top-level pencil (order ~1160) peaks
    below 3.3 arrays of its order squared: the weighted matrix, which
    dsyevd overwrites with the eigenvectors, and dsyevd's 2n^2 workspace.
    A dense K is left as it was, and gives the sparse K's eigenpairs."""
    _, p = three_wells(MERGED)
    order = p.n_interior
    assert order > 900
    K = p.K_II.toarray() if dense else p.K_II
    before = K.copy()
    s, peak = _traced_peak(lambda: pencil_eigs(K, p.M_interior, want_vectors=True))
    assert peak < 3.3 * order**2 * 8
    assert s.eigenvectors.flags.c_contiguous
    if dense:
        assert np.array_equal(K, before)
        sparse = pencil_eigs(p.K_II, p.M_interior, want_vectors=True)
        assert np.array_equal(s.eigenvalues, sparse.eigenvalues)
        assert np.array_equal(s.eigenvectors, sparse.eigenvectors)


def test_in_place_passes_equal_the_whole_array_expressions(rng):
    """The blocked in-place passes over order^2 arrays round each entry as
    the whole-array expressions they replace: the symmetrization and
    scaling of pencil_eigs, its scaled transpose of dsyevd's output, and the
    mirror of S(lam) (on either memory order)."""
    from wellspectra.eigcount import _BLOCK, _symmetrize, _transpose_scaled, mirror_lower

    n = 2 * _BLOCK + 37
    A = rng.standard_normal((n, n))
    d = rng.uniform(0.1, 3.0, n)
    S = A.copy()
    _symmetrize(S)
    assert np.array_equal(S, (A + A.T) / 2.0)
    Aw = d[:, None] * S * d[None, :]
    S = A.copy()
    _symmetrize(S, d)
    assert np.array_equal(S, (Aw + Aw.T) / 2.0)
    T = A.copy()
    _transpose_scaled(T, d)
    assert np.array_equal(T, d[:, None] * A.T)
    for L in (A.copy(), np.asfortranarray(A)):
        mirror_lower(L)
        assert np.array_equal(L, np.tril(A) + np.tril(A, -1).T)


def test_two_infinity_norm_holds_one_order_squared_array(three_wells):
    """Above its input, two_infinity_norm peaks below 1.3 arrays of the
    order squared (the Gram matrix of its check), on a grid of six times and
    at one time, and its norms are bit for bit max_x of (U*U) @ exp(-2 mu t)
    over all the rows at once, also for U = scale * X."""
    _, p = three_wells(MERGED)
    order = p.n_interior
    assert order > 900
    s = pencil_eigs(p.K_II, p.M_interior, want_vectors=True)
    for t in (np.geomspace(0.05, 5.0, 6), np.array([0.7])):
        norms, peak = _traced_peak(lambda: two_infinity_norm(s, p.M_interior, t))
        assert peak < 1.3 * order**2 * 8
        U = s.eigenvectors
        decay = np.exp(-2.0 * np.multiply.outer(s.eigenvalues, t))
        assert np.array_equal(norms, np.sqrt(np.max((U * U) @ decay, axis=0)))
        U = s.eigenvectors * np.sqrt(1.7)
        scaled = two_infinity_norm(s, p.M_interior / 1.7, t, scale=np.sqrt(1.7), check=False)
        assert np.array_equal(scaled, np.sqrt(np.max((U * U) @ decay, axis=0)))


def test_count_below_shifts_a_dense_matrix_in_one_array(rng):
    """A dense K is shifted in one copy, which its factorization
    overwrites: count_below peaks below 1.3 arrays of the order squared and
    leaves K as it was, and the shifted matrix equals K - lam*diag(m)."""
    from wellspectra.eigcount import _shift

    n = 700
    G = rng.standard_normal((n, n))
    K = G @ G.T / n + np.eye(n)
    m = rng.uniform(0.5, 2.0, n)
    before = K.copy()
    for lam in (0.0, 0.8, 2.5):
        count, peak = _traced_peak(lambda: count_below(K, m, lam))
        assert peak < 1.3 * n**2 * 8
        assert np.array_equal(K, before)
        assert count == int(np.sum(sla.eigh(K, np.diag(m), eigvals_only=True) < lam))
        assert np.array_equal(_shift(K, m, lam), K - lam * np.diag(m))


def test_pencil_eigs_zero_mass_rank():
    s = pencil_eigs(np.eye(3), np.zeros(3), want_vectors=True)
    assert s.count == 0
    assert s.eigenvectors.shape == (3, 0)


def test_pencil_eigs_size_cap():
    n = 4001
    with pytest.raises(SizeCap):
        pencil_eigs(sp.eye(n).tocsr(), np.ones(n))


@settings(deadline=None, max_examples=25)
@given(
    diag=st.lists(st.floats(0.1, 50.0), min_size=2, max_size=8),
    lam=st.floats(-1.0, 60.0),
)
def test_count_matches_diagonal_pencil(diag, lam):
    K = np.diag(diag)
    mu = np.sort(np.array(diag))
    if np.min(np.abs(mu - lam)) < 1e-6:
        return
    assert count_below(K, np.ones(len(diag)), lam) == int((mu < lam).sum())


# ------------------------------------------------------- trace and 2->inf


def test_heat_trace_examples():
    s = SpectralSummary(eigenvalues=np.array([0.0, 1.0]))
    assert heat_trace(s, 1.0) == pytest.approx(1.0 + np.exp(-1.0))
    assert heat_trace(s, 2.0) == pytest.approx(1.0 + np.exp(-2.0))
    with pytest.raises(ValueError):
        heat_trace(s, 0.0)
    with pytest.raises(ValueError):
        heat_trace(SpectralSummary(eigenvalues=np.array([-1.0, 2.0])), 1.0)


def test_heat_trace_monotone_and_log_convex(rng):
    mu = np.sort(rng.uniform(0.0, 5.0, size=12))
    s = SpectralSummary(eigenvalues=mu)
    ts = np.linspace(0.1, 3.0, 15)
    vals = np.array([heat_trace(s, t) for t in ts])
    assert np.all(np.diff(vals) < 0)
    # log-convexity in t (Cauchy-Schwarz on the spectral measure)
    mid = np.array([heat_trace(s, (a + b) / 2) for a, b in zip(ts, ts[2:])])
    assert np.all(mid**2 <= vals[:-2] * vals[2:] + 1e-12)


def test_two_infinity_single_mode():
    w = np.array([2.0])
    s = SpectralSummary(
        eigenvalues=np.array([3.0]), eigenvectors=np.array([[1.0 / np.sqrt(2.0)]])
    )
    assert two_infinity_norm(s, w, 0.5) == pytest.approx(np.exp(-1.5) / np.sqrt(2.0))


def test_two_infinity_matches_expm_oracle(rng):
    """Matrix-exponential reference: the 2->infinity norm of exp(-tL) on
    l2(w) is max_x sqrt(sum_y E[x, y]^2 / w_y)."""
    n = 9
    B = rng.normal(size=(n, n))
    K = B @ B.T + 0.5 * np.eye(n)
    w = rng.uniform(0.5, 2.0, size=n)
    s = pencil_eigs(K, w, want_vectors=True)
    for t in (0.2, 1.0, 3.0):
        E = sla.expm(-t * (K / w[:, None]))
        oracle = np.sqrt(np.max(np.sum(E**2 / w[None, :], axis=1)))
        assert two_infinity_norm(s, w, t) == pytest.approx(oracle, rel=1e-9)


def test_two_infinity_t_to_zero_completeness(rng):
    n = 6
    B = rng.normal(size=(n, n))
    K = B @ B.T
    w = rng.uniform(0.5, 2.0, size=n)
    s = pencil_eigs(K, w, want_vectors=True)
    # as t -> 0 the semigroup tends to the identity, whose 2->inf norm on
    # l2(w) is max_x w_x^(-1/2)
    assert two_infinity_norm(s, w, 1e-9) == pytest.approx(
        1.0 / np.sqrt(w.min()), rel=1e-6
    )


def test_two_infinity_checks_the_vectors_against_the_given_weights(rng):
    """Every call checks the eigenvectors against the weights it is given: a
    basis orthonormal for w is refused for 2w and for weights of the wrong
    length.  A grid of times gives the norm at each of its times."""
    n = 9
    B = rng.normal(size=(n, n))
    w = rng.uniform(0.5, 2.0, size=n)
    s = pencil_eigs(B @ B.T + np.eye(n), w, want_vectors=True)
    ts = np.array([0.2, 1.0])
    norms = two_infinity_norm(s, w, ts)
    assert norms.shape == ts.shape
    assert norms == pytest.approx([two_infinity_norm(s, w, t) for t in ts], rel=1e-14)
    with pytest.raises(ValueError, match="w-orthonormal"):
        two_infinity_norm(s, 2.0 * w, ts)
    with pytest.raises(ValueError, match="one weight"):
        two_infinity_norm(s, w[:-1], ts)


def test_two_infinity_requires_vectors_and_normalization(rng):
    s = SpectralSummary(eigenvalues=np.array([1.0]))
    with pytest.raises(MissingVectors):
        two_infinity_norm(s, np.ones(1), 1.0)
    bad = SpectralSummary(
        eigenvalues=np.array([1.0]), eigenvectors=np.array([[2.0]])
    )
    with pytest.raises(ValueError):
        two_infinity_norm(bad, np.ones(1), 1.0)
    with pytest.raises(ValueError):
        two_infinity_norm(bad, np.ones(1), -1.0)


# ------------------------------------------------------- dense products


def _layouts(A):
    return {"C": np.ascontiguousarray(A), "F": np.asfortranarray(A)}


#: (m, n, p) with m*n*p on both sides of _SMALL_PRODUCT, one row, one
#: column, and one of each
PRODUCT_SHAPES = [
    (40, 30, 20),
    (300, 200, 50),
    (1500, 400, 6),
    (1200, 900, 1),
    (1, 700, 30),
    (1, 500, 1),
    (7, 1, 5),
]


@pytest.mark.parametrize("shape", PRODUCT_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_matmul_and_matvec_equal_numpys_matmul_bit_for_bit(rng, shape):
    """matmul and matvec return numpy's a @ b bit for bit, C-ordered, on C-
    and Fortran-ordered operands, a one-column right-hand side and vectors
    of unit and larger stride, below and above the small-product size."""
    sizes = [np.prod(s) for s in PRODUCT_SHAPES]
    assert min(sizes) <= _SMALL_PRODUCT < max(sizes)
    m, n, p = shape
    A, B = rng.standard_normal((m, n)), rng.standard_normal((n, p))
    for a in _layouts(A).values():
        for b in _layouts(B).values():
            out = matmul(a, b)
            assert out.flags.c_contiguous
            assert np.array_equal(out, a @ b)
        strided = rng.standard_normal((n, 3))[:, 1]
        for x in (B[:, 0].copy(), strided):
            assert np.array_equal(matvec(a, x), a @ x)
        for y in (a[:, 0], a[:, 0].copy()):
            assert np.array_equal(matvec(a.T, y), y @ a)
    for x, y in ((B[:, 0].copy(), A[0].copy()), (A[:, 0], A[:, -1])):
        assert matvec(x, y) == x @ y


def test_matmul_of_a_matrix_and_its_transpose_equals_numpys_syrk(rng):
    """A matrix times its own transpose, either way round and in either
    order, equals numpy's product (its dsyrk, mirrored) bit for bit."""
    for k, n in ((5, 4000), (60, 300)):
        for z in _layouts(rng.standard_normal((n, k))).values():
            for a, b in ((z.T, z), (z, z.T)):
                assert np.array_equal(matmul(a, b), a @ b)


def test_matmul_and_matvec_never_copy_an_operand(rng):
    """Neither helper allocates anything of an operand's size, whatever the
    operands' order and the vector's stride: the products are small, and
    the traced peak stays below half of each operand."""
    A, B = rng.standard_normal((100, 20000)), rng.standard_normal((20000, 100))
    for a in _layouts(A).values():
        for b in _layouts(B).values():
            for x, y in ((a, b), (b.T, a.T)):
                _, peak = _traced_peak(lambda: matmul(x, y))
                assert peak < 0.5 * x.nbytes
        for v in (B[:, 0].copy(), rng.standard_normal((20000, 4))[:, 2]):
            _, peak = _traced_peak(lambda: matvec(a, v))
            assert peak < 0.5 * v.nbytes
    z = rng.standard_normal((20000, 20))
    _, peak = _traced_peak(lambda: matmul(z.T, z))
    assert peak < 0.5 * z.nbytes
