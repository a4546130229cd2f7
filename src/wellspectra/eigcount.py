"""Eigenvalue counting via symmetric-indefinite inertia, dense pencil
spectra (the brute-force oracle), heat traces and 2->infinity norms.

Counting below a shift never computes eigenvalues: one symmetric
factorization of K - lambda*diag(M) yields the exact integer count through
Sylvester's law of inertia.  Zero pivots are classified against the scaled
tolerance tau0 = 1e-12 * max|A_ij| and reported as OnEigenvalue, never
silently absorbed.

``Factorization`` is the one factorization object: the pivots that give a
matrix its inertia come from the same factor that then solves with it, so a
shifted matrix is factored once whether it is counted, solved, or both.
Sparse matrices, of any order, are factored sparsely: an unpivoted sparse
factor's pivots are trusted only after one solve with it shows a small
normwise backward error.

``pencil_eigs`` is the dense pinned spectrum (and the oracle of the tests):
eigenvalues from dsyevr, and eigenvectors, when a caller reads them, from
divide and conquer (dsyevd), whose O(n^2) workspace DENSE_CAP bounds.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dsytrf, dsytrf_lwork, dsytrs
from scipy.sparse.linalg import splu

from .errors import (
    FactorizationBreakdown,
    MissingVectors,
    OnEigenvalue,
    SingularDirichletBlock,
    SizeCap,
)
from .model import Inertia, SpectralSummary

#: relative pivot tolerance for rank decisions
PIVOT_RTOL = 1e-12

#: largest normwise backward error of the guard solve that lets a sparse
#: factor's pivots stand; above it the dense fallback answers
BACKWARD_ERROR_TOL = 1e-10

#: hard cap for dense eigensolver / dense fallback paths
DENSE_CAP = 4000


def _classify(values: np.ndarray, tau0: float) -> Inertia:
    neg = int(np.sum(values < -tau0))
    pos = int(np.sum(values > tau0))
    return Inertia(n_minus=neg, n_zero=values.size - neg - pos, n_plus=pos)


def _bunch_kaufman_pivots(ldu: np.ndarray, ipiv: np.ndarray) -> np.ndarray:
    """Eigenvalues of the block-diagonal D of a lower dsytrf factor.

    A 2x2 block occupies rows k, k+1 with ipiv[k] = ipiv[k+1] < 0; runs of
    negative entries are consecutive 2x2 blocks, so a block starts at every
    odd offset from the last positive entry.
    """
    d = np.diag(ldu).copy()
    idx = np.arange(d.size)
    neg = ipiv < 0
    last_pos = np.maximum.accumulate(np.where(neg, -1, idx))
    k = np.flatnonzero(neg & ((idx - last_pos) % 2 == 1))
    a, b, c = d[k], ldu[k + 1, k], d[k + 1]
    root = np.hypot(a - c, 2.0 * b)
    d[k] = ((a + c) + root) / 2.0
    d[k + 1] = ((a + c) - root) / 2.0
    return d


def _backward_error(A: sp.csc_matrix, lu) -> float:
    """Normwise backward error ||Ax - b||_inf / (||A||_inf ||x||_inf + ||b||_inf)
    of one solve with ``lu`` against a fixed pseudo-random right-hand side."""
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    x = lu.solve(b)
    residual = float(np.abs(A @ x - b).max())
    scale = float(abs(A).sum(axis=1).max()) * float(np.abs(x).max()) + float(np.abs(b).max())
    return residual / scale


class Factorization:
    """One symmetric factorization of A, serving its inertia and its solves.

    The path follows the input's representation.  Dense inputs are factored
    by LAPACK Bunch-Kaufman (dsytrf, solved by dsytrs).  Sparse inputs, of
    any order, take a symmetric-mode SuperLU LU with diagonal pivoting: with
    diag_pivot_thresh=0 pivots stay on the diagonal whenever structurally
    possible, and if they were still forced off it the row and column
    permutations differ and the factor is refused.  Unpivoted elimination
    can grow, so before the pivots are trusted one solve with a fixed
    right-hand side measures the normwise backward error
    ||Ax - b||_inf / (||A||_inf ||x||_inf + ||b||_inf); above
    BACKWARD_ERROR_TOL the factor is refused too.  The guard is skipped when
    a pivot already lies within tau0, so a singular A keeps n_zero > 0.  A
    refused or failed sparse factor falls back to the dense path up to order
    DENSE_CAP.

    ``inertia`` is (n_minus, n_zero, n_plus) with pivots classified against
    tau0 = PIVOT_RTOL * max|A_ij|; ``path`` names the factorization used
    ("dense", "sparse", "dense-fallback", or "zero" for the zero matrix);
    ``backward_error`` is the guard's measurement on a sparse factor, and
    None on the other paths or when the guard was skipped.
    """

    def __init__(self, A):
        if sp.issparse(A):
            A = A.tocsc().astype(float, copy=False)
            entries = A.data
        else:
            A = entries = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(entries)):
            raise ValueError("matrix entries must be finite")
        self.order = order = A.shape[0]
        amax = float(np.abs(entries).max()) if entries.size else 0.0
        self._lu = self._ldu = self._ipiv = None
        self.backward_error = None
        if amax == 0.0:
            self.path = "zero"
            self.inertia = Inertia(0, order, 0)
            return
        tau0 = PIVOT_RTOL * amax
        if sp.issparse(A):
            try:
                pivots = self._factor_sparse(A, tau0)
                self.path = "sparse"
            except (FactorizationBreakdown, RuntimeError) as exc:
                if order > DENSE_CAP:
                    raise FactorizationBreakdown(
                        f"sparse factorization failed at order {order}: {exc}"
                    ) from exc
                pivots = self._factor_dense(A.toarray())
                self.path = "dense-fallback"
        else:
            pivots = self._factor_dense(A)
            self.path = "dense"
        self.inertia = _classify(pivots, tau0)

    def _factor_dense(self, A: np.ndarray) -> np.ndarray:
        lwork = max(1, int(dsytrf_lwork(A.shape[0], lower=1)[0]))
        self._ldu, self._ipiv, info = dsytrf(A, lower=1, lwork=lwork)
        if info < 0:
            raise FactorizationBreakdown(f"dsytrf rejected argument {-info}")
        return _bunch_kaufman_pivots(self._ldu, self._ipiv)

    def _factor_sparse(self, A: sp.csc_matrix, tau0: float) -> np.ndarray:
        lu = splu(
            A,
            diag_pivot_thresh=0.0,
            permc_spec="MMD_AT_PLUS_A",
            options=dict(SymmetricMode=True, Equil=False),
        )
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise FactorizationBreakdown("pivoting left the diagonal")
        pivots = lu.U.diagonal()
        if np.abs(pivots).min() > tau0:
            error = _backward_error(A, lu)
            if not error <= BACKWARD_ERROR_TOL:
                raise FactorizationBreakdown(
                    f"unpivoted factor is unstable (backward error {error:.2e})"
                )
            self.backward_error = error
        self._lu = lu
        return pivots

    def solve(self, rhs) -> np.ndarray:
        """A^{-1} rhs for a vector or a block of columns, with the factor
        that gave the inertia.  A numerically singular A (n_zero > 0) has
        no solve: np.linalg.LinAlgError."""
        if self.inertia.n_zero:
            raise np.linalg.LinAlgError(
                f"matrix is numerically singular (n_zero={self.inertia.n_zero})"
            )
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.order:
            raise ValueError("right-hand side has the wrong length")
        if self._lu is not None:
            return self._lu.solve(rhs)
        x, info = dsytrs(self._ldu, self._ipiv, rhs.reshape(self.order, -1), lower=1)
        if info != 0:
            raise FactorizationBreakdown(f"dsytrs rejected argument {-info}")
        return x.reshape(rhs.shape)


def inertia(A) -> Inertia:
    """Signature (n_minus, n_zero, n_plus) of a symmetric matrix.

    Accepts dense arrays or scipy sparse matrices; see ``Factorization``
    for the factorization paths.
    """
    return Factorization(A).inertia


def _as_mass_vector(M, order: int) -> np.ndarray:
    """Normalize a diagonal mass (vector, dense diagonal matrix or sparse
    diagonal matrix) to a 1-D nonnegative array."""
    if sp.issparse(M):
        dense = M.toarray()
    else:
        dense = np.asarray(M, dtype=float)
    if dense.ndim == 2:
        if np.any(dense != np.diag(np.diag(dense))):
            raise ValueError("mass matrix must be diagonal")
        dense = np.diag(dense)
    if dense.shape != (order,):
        raise ValueError("mass diagonal has the wrong length")
    if np.any(dense < 0):
        raise ValueError("mass diagonal must be nonnegative")
    return dense


def _check_massless_block(K, m: np.ndarray):
    """The counting semantics need K positive definite on the mass-free
    nodes; verify by factorizing that principal block.  Returns the
    block's Factorization, or None when every node carries mass."""
    idx = np.flatnonzero(m == 0.0)
    if idx.size == 0:
        return None
    Kzz = K[np.ix_(idx, idx)] if not sp.issparse(K) else K.tocsr()[idx][:, idx]
    factor = Factorization(Kzz)
    inert = factor.inertia
    if inert.n_minus or inert.n_zero:
        raise SingularDirichletBlock(
            "stiffness is not positive definite on the mass-free nodes: "
            f"(n_minus, n_zero, n_plus) = {(inert.n_minus, inert.n_zero, inert.n_plus)}"
        )
    return factor


def _shift(K, m: np.ndarray, lam: float):
    if sp.issparse(K):
        return (K - lam * sp.diags(m)).tocsr()
    return K - lam * np.diag(m)


def count_below(K, M, lam: float) -> int:
    """Number of finite pencil eigenvalues of (K, diag M) strictly below
    ``lam``, computed as n_minus(K - lam*diag(M)).

    M may be a vector or a diagonal matrix, with zeros allowed (the pencil
    then has rank(M) finite eigenvalues); K must be positive definite on the
    mass-free nodes, which is checked.  If the shifted matrix is numerically
    singular the shift sits on an eigenvalue: OnEigenvalue is raised and the
    caller perturbs (the convention is lam -> lam*(1 + 1e-9)).
    """
    order = K.shape[0]
    m = _as_mass_vector(M, order)
    _check_massless_block(K, m)
    inert = inertia(_shift(K, m, lam))
    if inert.n_zero:
        raise OnEigenvalue(
            f"shift {lam!r} lies on the pencil spectrum (n_zero={inert.n_zero})"
        )
    return inert.n_minus


def pencil_eigs(K, M, want_vectors: bool = False) -> SpectralSummary:
    """All finite generalized eigenvalues of (K, diag M), sorted ascending;
    dense solve, order capped at DENSE_CAP = 4000.

    Zero-mass nodes are eliminated exactly: with z the mass-free nodes and p
    the rest, the finite spectrum is that of the condensed pencil
    (K_pp - K_pz K_zz^{-1} K_zp, M_p), and eigenvectors are extended back by
    x_z = -K_zz^{-1} K_zp x_p.  Returned eigenvectors are M-orthonormal.

    Eigenvectors come from LAPACK divide and conquer (dsyevd), which is the
    fastest dense route for the clustered, degenerate spectra of symmetric
    wells; its O(n^2) workspace (about 2n^2 doubles, 256 MB at the cap) is
    what DENSE_CAP bounds.  Eigenvalues alone come from dsyevr.
    """
    order = K.shape[0]
    if order > DENSE_CAP:
        raise SizeCap(f"dense eigensolver capped at order {DENSE_CAP}, got {order}")
    m = _as_mass_vector(M, order)
    Kd = K.toarray() if sp.issparse(K) else np.asarray(K, dtype=float)
    Kd = (Kd + Kd.T) / 2.0
    zero_factor = _check_massless_block(Kd, m)

    pos = np.flatnonzero(m > 0.0)
    zero = np.flatnonzero(m == 0.0)
    meta = {"order": order, "mass_rank": int(pos.size)}
    if pos.size == 0:
        return SpectralSummary(
            eigenvalues=np.empty(0),
            eigenvectors=np.empty((order, 0)) if want_vectors else None,
            metadata=meta,
        )

    if zero.size:
        Kzp = Kd[np.ix_(zero, pos)]
        back = zero_factor.solve(Kzp)
        S = Kd[np.ix_(pos, pos)] - Kzp.T @ back
        S = (S + S.T) / 2.0
    else:
        back = None
        S = Kd

    d = 1.0 / np.sqrt(m[pos])
    Aw = d[:, None] * S * d[None, :]
    Aw = (Aw + Aw.T) / 2.0
    if want_vectors:
        w, Y = sla.eigh(Aw, driver="evd")
        X = np.zeros((order, pos.size))
        X[pos] = d[:, None] * Y
        if zero.size:
            X[zero] = -back @ X[pos]
        return SpectralSummary(eigenvalues=w, eigenvectors=X, metadata=meta)
    w = sla.eigvalsh(Aw)
    return SpectralSummary(eigenvalues=w, metadata=meta)


def heat_trace(s: SpectralSummary, t: float) -> float:
    """Trace of the semigroup at time t: sum_k exp(-t * mu_k)."""
    if t <= 0:
        raise ValueError("heat trace needs t > 0")
    if s.count and s.eigenvalues[0] < 0:
        raise ValueError("heat trace expects a nonnegative spectrum")
    return float(np.sum(np.exp(-t * s.eigenvalues)))


#: tolerance on the weighted orthonormality of supplied eigenvectors
ORTHONORMALITY_TOL = 1e-8


def two_infinity_norm(s: SpectralSummary, w, t):
    """Exact 2->infinity operator norm of the discrete semigroup exp(-tL) on
    the weighted space l2(w): max over nodes x of
    (sum_k exp(-2 t mu_k) u_k(x)^2)^(1/2).

    ``t`` is one time or a 1-D grid of times; a grid returns one norm per
    time.  The eigenvectors must be w-orthonormal (checked once per call);
    the weights enter only through that normalization.
    """
    if s.eigenvectors is None:
        raise MissingVectors("two_infinity_norm needs eigenvectors")
    ts = np.asarray(t, dtype=float)
    if np.any(ts <= 0):
        raise ValueError("needs t > 0")
    wv = np.asarray(w, dtype=float)
    U = s.eigenvectors
    gram = U.T @ (wv[:, None] * U)
    if np.abs(gram - np.eye(gram.shape[0])).max() > ORTHONORMALITY_TOL:
        raise ValueError("eigenvectors are not w-orthonormal")
    decay = np.exp(-2.0 * np.multiply.outer(s.eigenvalues, ts.ravel()))
    norms = np.sqrt(np.max((U * U) @ decay, axis=0))
    return float(norms[0]) if ts.ndim == 0 else norms
