"""Eigenvalue counting via symmetric-indefinite inertia, full pencil
spectra (the brute-force oracle), heat traces and 2->infinity norms.

Counting below a shift never computes eigenvalues: one symmetric
factorization of K - lambda*diag(M) yields the exact integer count through
Sylvester's law of inertia.  Zero pivots are classified against the scaled
tolerance tau0 = 1e-12 * max|A_ij| and reported as n_zero; every count is
read off an inertia by ``strict_count``, which turns n_zero > 0 into
OnEigenvalue, so a shift on a spectrum is never silently absorbed.

``Factorization`` is the one factorization object: the pivots that give a
matrix its inertia come from the same factor that then solves with it, so a
shifted matrix is factored once whether it is counted, solved, or both.
Sparse matrices, of any order, are factored sparsely: an unpivoted sparse
factor's pivots are trusted only after one solve with it shows a small
normwise backward error.

``ShiftFamily`` factors the shifts K - lam*diag(m) of one sparse K at one
fill-reducing order (order once, factor per shift): only the first sparse
factor of a family runs SuperLU's minimum-degree ordering, and every later
shift writes its diagonal into a permuted copy of K's data.  The pinned
block, the full pencil and the box operator each get one family, which
keeps that order and no factor.

``pencil_eigs`` is the pinned spectrum (and the oracle of the tests), by
one of three routes: eigenvalues alone of a sparse K with every mass
positive come from band reduction (dsbevd) of its weighted lower band, in
the given node order, so no order^2 array is formed; eigenvalues alone of
a dense K, or of a pencil condensed onto its massive nodes, come from
dsyevr; eigenvectors, when a caller reads them, come from divide and
conquer (dsyevd), whose O(n^2) workspace DENSE_CAP bounds.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.blas import dsyrk
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


@lru_cache(maxsize=8)
def _guard_rhs(order: int) -> np.ndarray:
    """The guard's fixed pseudo-random right-hand side of length ``order``,
    drawn once per order (read-only)."""
    b = np.random.default_rng(0).standard_normal(order)
    b.setflags(write=False)
    return b


def _backward_error(A: sp.csc_matrix, lu, b: np.ndarray) -> float:
    """Normwise backward error ||Ax - b||_inf / (||A||_inf ||x||_inf + ||b||_inf)
    of one solve with ``lu``; ||A||_inf is read off the CSC data as the
    largest row sum of |a_ij|."""
    x = lu.solve(b)
    residual = float(np.abs(A @ x - b).max())
    row_sums = np.bincount(A.indices, weights=np.abs(A.data), minlength=A.shape[0])
    scale = float(row_sums.max()) * float(np.abs(x).max()) + float(np.abs(b).max())
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
    DENSE_CAP.  Above it, SuperLU's "exactly singular" is OnEigenvalue: with
    diag_pivot_thresh=0 it stops only at a pivot column that is zero
    throughout, so A is singular.  Any other refusal there is
    FactorizationBreakdown.

    ``perm`` is given by a ShiftFamily: A is then a sparse matrix X already
    permuted symmetrically into a fill-reducing column order,
    A = X[perm][:, perm], and SuperLU factors it in that order ("NATURAL")
    instead of computing one.  The factorization stands for X: solves take
    and return vectors in X's order, the guard solves for X's right-hand
    side, and the dense fallback factors X itself.

    ``inertia`` is (n_minus, n_zero, n_plus) with pivots classified against
    tau0 = PIVOT_RTOL * max|A_ij|; ``path`` names the factorization used
    ("dense", "sparse", "dense-fallback", or "zero" for the zero matrix);
    ``backward_error`` is the guard's measurement on a sparse factor, and
    None on the other paths or when the guard was skipped.
    """

    def __init__(self, A, perm: np.ndarray | None = None):
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
        self._lu = self._ldu = self._ipiv = self._perm = None
        self.backward_error = None
        if amax == 0.0:
            self.path = "zero"
            self.inertia = Inertia(0, order, 0)
            return
        tau0 = PIVOT_RTOL * amax
        if sp.issparse(A):
            try:
                pivots = self._factor_sparse(A, tau0, perm)
                self.path = "sparse"
            except (FactorizationBreakdown, RuntimeError) as exc:
                if order > DENSE_CAP:
                    if "exactly singular" in str(exc):
                        raise OnEigenvalue(
                            f"sparse matrix of order {order} is exactly singular"
                        ) from exc
                    raise FactorizationBreakdown(
                        f"sparse factorization failed at order {order}: {exc}"
                    ) from exc
                dense = A.toarray()
                if perm is not None:
                    inverse = np.argsort(perm)
                    dense = dense[np.ix_(inverse, inverse)]
                pivots = self._factor_dense(dense)
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

    def _factor_sparse(self, A: sp.csc_matrix, tau0: float, perm) -> np.ndarray:
        lu = splu(
            A,
            diag_pivot_thresh=0.0,
            permc_spec="MMD_AT_PLUS_A" if perm is None else "NATURAL",
            options=dict(SymmetricMode=True, Equil=False),
        )
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise FactorizationBreakdown("pivoting left the diagonal")
        pivots = lu.U.diagonal()
        if np.abs(pivots).min() > tau0:
            b = _guard_rhs(A.shape[0])
            error = _backward_error(A, lu, b if perm is None else b[perm])
            if not error <= BACKWARD_ERROR_TOL:
                raise FactorizationBreakdown(
                    f"unpivoted factor is unstable (backward error {error:.2e})"
                )
            self.backward_error = error
        self._lu, self._perm = lu, perm
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
            if self._perm is None:
                return self._lu.solve(rhs)
            x = np.empty(rhs.shape)
            x[self._perm] = self._lu.solve(rhs[self._perm])
            return x
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


def strict_count(inert: Inertia, what: str) -> int:
    """The count n_minus of an inertia, strict: a zero pivot means the
    factored shift lies on the spectrum of ``what``, and OnEigenvalue is
    raised for the caller to perturb the shift and retry."""
    if inert.n_zero:
        raise OnEigenvalue(f"shift lies on the {what} spectrum (n_zero={inert.n_zero})")
    return inert.n_minus


def _as_mass_vector(M, order: int) -> np.ndarray:
    """The mass diagonal as a 1-D nonnegative array of the pencil's order."""
    m = np.asarray(M, dtype=float)
    if m.shape != (order,):
        raise ValueError(f"mass must be a vector of length {order}, got shape {m.shape}")
    if np.any(m < 0):
        raise ValueError("mass diagonal must be nonnegative")
    return m


def _check_massless_block(K, m: np.ndarray):
    """The counting semantics need K positive definite on the mass-free
    nodes; verify by factorizing that principal block.  Returns the
    block's Factorization, or None when every node carries mass."""
    idx = np.flatnonzero(m == 0.0)
    if idx.size == 0:
        return None
    Kzz = K[np.ix_(idx, idx)] if not sp.issparse(K) else K.tocsr()[idx][:, idx]
    try:
        factor = Factorization(Kzz)
    except OnEigenvalue as exc:  # an exactly singular sparse block
        raise SingularDirichletBlock(f"stiffness on the mass-free nodes: {exc}") from exc
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


class ShiftFamily:
    """The shifted matrices K - lam*diag(m) of one sparse symmetric K, each
    factored at the fill-reducing order of the family's first sparse factor
    (order once, factor per shift).

    Until that order is known, ``factor`` forms K - lam*diag(m) and factors
    it as any sparse Factorization does, ordered by SuperLU's
    MMD_AT_PLUS_A.  If the first factor took the sparse path, the family
    keeps its column order perm = argsort(perm_c), the CSC pattern of K
    (with its whole diagonal) permuted into that order, and the positions of
    the diagonal entries.  A
    later shift writes K_ii - lam*m_i into a copy of the permuted data and
    factors it with ``Factorization(A, perm)``.  Each permuted column keeps
    its rows in the sequence the unpermuted matrix stores them, because
    SuperLU's symbolic factorization follows that sequence: the elimination,
    and so every pivot and solve, is bit for bit that of a fresh factor of
    the same matrix.  (scipy's ``splu`` would sort the rows first, so the
    matrix is flagged canonical; it has no duplicate entries.)  A family
    whose first factor did not take the sparse path never reuses an order.
    The guard, the dense fallback and OnEigenvalue apply to every factor.
    The family keeps an order, never a factor: each Factorization belongs to
    the caller of ``factor``.
    """

    def __init__(self, K, m):
        self._K = K
        self._m = np.asarray(m, dtype=float)
        self._decided = False
        self._perm_c = self._perm = None

    def _permute(self):
        """Lay out K's pattern, with its whole diagonal, in the learnt order
        (on the first reuse, so that an order never reused costs nothing)."""
        perm_c = self._perm_c
        perm = np.argsort(perm_c)
        n = perm.size
        coo = self._K.tocoo()
        diagonal = np.arange(n)
        K = sp.csc_matrix(
            (np.r_[coo.data, np.zeros(n)], (np.r_[coo.row, diagonal], np.r_[coo.col, diagonal])),
            shape=(n, n),
        )
        counts = np.diff(K.indptr)[perm]
        self._indptr = np.r_[0, np.cumsum(counts)].astype(np.intc)
        source = np.repeat(K.indptr[perm] - self._indptr[:-1], counts) + np.arange(K.nnz)
        self._data = K.data[source]
        self._indices = perm_c[K.indices[source]].astype(np.intc)
        self._diag = np.flatnonzero(self._indices == np.repeat(diagonal, counts))
        self._kdiag = self._data[self._diag]
        self._mass = self._m[perm]
        self._perm = perm

    def factor(self, lam: float) -> Factorization:
        """The Factorization of K - lam*diag(m)."""
        if self._perm_c is None:
            factor = Factorization(_shift(self._K, self._m, lam))
            if not self._decided:
                self._decided = True
                if factor.path == "sparse":
                    self._perm_c = np.array(factor._lu.perm_c)  # a copy: the view pins the factor
            return factor
        if self._perm is None:
            self._permute()
        data = self._data.copy()
        data[self._diag] = self._kdiag - lam * self._mass
        n = self._perm.size
        A = sp.csc_matrix((data, self._indices, self._indptr), shape=(n, n), copy=False)
        A.has_canonical_format = True
        return Factorization(A, self._perm)


def count_below(K, M, lam: float) -> int:
    """Number of finite pencil eigenvalues of (K, diag M) strictly below
    ``lam``, computed as n_minus(K - lam*diag(M)).

    M is the mass diagonal, a vector with zeros allowed (the pencil
    then has rank(M) finite eigenvalues); K must be positive definite on the
    mass-free nodes, which is checked.  If the shifted matrix is numerically
    singular the shift sits on an eigenvalue: OnEigenvalue is raised and the
    caller perturbs (the convention is lam -> lam*(1 + 1e-9)).
    """
    m = _as_mass_vector(M, K.shape[0])
    _check_massless_block(K, m)
    return strict_count(inertia(_shift(K, m, lam)), "pencil")


def _band_eigvalsh(K, m: np.ndarray) -> np.ndarray:
    """Eigenvalues of D^{-1/2} K D^{-1/2} (D = diag m > 0) for a sparse K,
    by band reduction (dsbevd) of its lower band in the given node order;
    K's upper and lower triangles are averaged as in the dense route."""
    lower = sp.tril((K + K.T) / 2.0, format="csr").tocoo()
    d = 1.0 / np.sqrt(m)
    offset = lower.row - lower.col
    band = np.zeros((int(offset.max(initial=0)) + 1, m.size))
    band[offset, lower.col] = d[lower.row] * lower.data * d[lower.col]
    return sla.eig_banded(band, lower=True, eigvals_only=True, overwrite_a_band=True)


def pencil_eigs(K, M, want_vectors: bool = False) -> SpectralSummary:
    """All finite generalized eigenvalues of (K, diag M), sorted ascending;
    order capped at DENSE_CAP = 4000.

    Zero-mass nodes are eliminated exactly: with z the mass-free nodes and p
    the rest, the finite spectrum is that of the condensed pencil
    (K_pp - K_pz K_zz^{-1} K_zp, M_p), and eigenvectors are extended back by
    x_z = -K_zz^{-1} K_zp x_p.  Returned eigenvectors are M-orthonormal.

    Three routes, after the size cap:

    * eigenvalues alone of a sparse K whose masses are all positive come
      from band reduction (dsbevd, Schwarz's band tridiagonalization) of the
      lower band of D^{-1/2} K D^{-1/2}, D = diag M, built from K's sparse
      entries in the given node order: O(n b) memory for half-bandwidth b,
      and no order^2 array;
    * eigenvalues alone of a dense K, or of a pencil with mass-free nodes
      (whose condensed matrix is dense), come from dsyevr;
    * eigenvectors come from LAPACK divide and conquer (dsyevd), the
      fastest dense route for the clustered, degenerate spectra of
      symmetric wells; its O(n^2) workspace (about 2n^2 doubles, 256 MB at
      the cap) is what DENSE_CAP bounds.
    """
    order = K.shape[0]
    if order > DENSE_CAP:
        raise SizeCap(f"dense eigensolver capped at order {DENSE_CAP}, got {order}")
    m = _as_mass_vector(M, order)
    pos = np.flatnonzero(m > 0.0)
    zero = np.flatnonzero(m == 0.0)
    if not want_vectors and sp.issparse(K) and pos.size and not zero.size:
        return SpectralSummary(eigenvalues=_band_eigvalsh(K, m))

    Kd = K.toarray() if sp.issparse(K) else np.asarray(K, dtype=float)
    Kd = (Kd + Kd.T) / 2.0
    zero_factor = _check_massless_block(Kd, m)
    if pos.size == 0:
        return SpectralSummary(
            eigenvalues=np.empty(0),
            eigenvectors=np.empty((order, 0)) if want_vectors else None,
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
        return SpectralSummary(eigenvalues=w, eigenvectors=X)
    w = sla.eigvalsh(Aw)
    return SpectralSummary(eigenvalues=w)


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
    time.  The eigenvectors of ``s`` are checked w-orthonormal first,
    max |X^T diag(w) X - I| <= ORTHONORMALITY_TOL, else ValueError; the
    Gram matrix is one dsyrk of diag(sqrt w) X in SciPy's BLAS.  The weights
    enter only through that normalization.
    """
    if s.eigenvectors is None:
        raise MissingVectors("the 2->infinity norm needs eigenvectors")
    U = s.eigenvectors
    w = np.asarray(w, dtype=float)
    if w.shape != U.shape[:1]:
        raise ValueError("one weight per eigenvector entry")
    ts = np.asarray(t, dtype=float)
    if np.any(ts <= 0):
        raise ValueError("needs t > 0")
    # the lower triangle of Y^T Y, Y = diag(sqrt w) U; Y.T is Fortran-ordered
    # when U is C-ordered, so dsyrk reads it without a copy
    gram = dsyrk(1.0, (np.sqrt(w)[:, None] * U).T, lower=1)
    gram[np.diag_indices_from(gram)] -= 1.0
    if not np.abs(np.tril(gram)).max(initial=0.0) <= ORTHONORMALITY_TOL:
        raise ValueError("eigenvectors are not w-orthonormal")
    del gram
    decay = np.exp(-2.0 * np.multiply.outer(s.eigenvalues, ts.ravel()))
    norms = np.sqrt(np.max((U * U) @ decay, axis=0))
    return float(norms[0]) if ts.ndim == 0 else norms
