"""The operator side: -Laplacian + V on the box with pinned walls, the
reduction of its bound-state count to the weighted sublevel problem, and the
exact cube-spectrum oracle used for semiclassical sanity checks.

The box operator A = -Laplacian + min(V, 0) does not depend on the energy
level, so ``BoxOperator`` counts it below every level of a scenario from one
factorization.  With the scalar mass h^n, the count below e is the number of
eigenvalues of A below the shift s = e*h^n.  The operator is factored at the
highest level; if that count k is 0, every lower level is 0 as well
(Sylvester monotonicity).  Otherwise shift-invert Lanczos (ARPACK, with that
factor as the inverse operator) finds the k bound states, Rayleigh-Ritz on
the orthonormalized vectors gives Ritz values theta_i, and Kahan's residual
bound (Parlett, The Symmetric Eigenvalue Problem, Thm 11.5.1) gives a radius
r such that k eigenvalues of A lie within r of the theta_i, one each.  Once
every theta_i + r lies below the top shift, those k eigenvalues are the
bound states, and a lower level's count is #{theta_i < s} whenever every
theta_i lies farther than r + tau0 from s.  A level that is not certified
this way is factored on its own, exactly as a direct count would be, so
OnEigenvalue keeps its meaning.  The top-level factor is the first factor
of the box's one ShiftFamily, and those later factors share its
fill-reducing order.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import EmptySublevel, EnumerationCap, OnEigenvalue
from .assemble import assemble_pencil, classify_nodes
from .eigcount import PIVOT_RTOL, Factorization, ShiftFamily, strict_count
from .model import AssembledPencil, GridSpec, PotentialField

#: lattice enumeration guard: mu * L^2 / pi^2 may not exceed this
ENUMERATION_LIMIT = 1e6


def box_interior_indices(grid: GridSpec) -> np.ndarray:
    """Linear indices of nodes strictly inside the box (walls pinned)."""
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.dimension):
        sl = [slice(None)] * grid.dimension
        sl[ax] = 0
        mask[tuple(sl)] = False
        sl[ax] = -1
        mask[tuple(sl)] = False
    return np.flatnonzero(mask)


def _dirichlet_laplacian(grid: GridSpec) -> sp.csr_matrix:
    """h^(n-2)-scaled pinned-wall graph Laplacian on the box interior
    (tensor sum of 1-D second-difference blocks)."""
    n = grid.dimension
    h = grid.spacing
    blocks = []
    for r in grid.resolution:
        k = r - 2
        T = sp.diags([-np.ones(k - 1), 2.0 * np.ones(k), -np.ones(k - 1)], [-1, 0, 1])
        blocks.append(T.tocsr())
    L = None
    eyes = [sp.identity(r - 2, format="csr") for r in grid.resolution]
    for ax in range(n):
        factors = [eyes[i] if i != ax else blocks[ax] for i in range(n)]
        term = factors[0]
        for f in factors[1:]:
            term = sp.kron(term, f, format="csr")
        L = term if L is None else L + term
    return (h ** (n - 2) * L).tocsr()


def assemble_schrodinger(V: PotentialField):
    """Pencil of the pinned box operator: (K + diag(V*h^n), h^n * identity)
    over the interior nodes of the box, in linear node order.

    Returns (A, m) with A sparse symmetric and m the diagonal mass vector.
    """
    grid = V.grid
    hn = grid.spacing**grid.dimension
    inner = box_interior_indices(grid)
    A = _dirichlet_laplacian(grid) + sp.diags(V.values.ravel()[inner] * hn)
    return A.tocsr(), np.full(inner.size, hn)


def _clamped(V: PotentialField) -> PotentialField:
    return PotentialField(grid=V.grid, values=np.minimum(V.values, 0.0), family=V.family)


class BoxOperator:
    """Bound-state counts of the box operator -Laplacian + min(V, 0) below
    the nonpositive levels of one scenario (see the module docstring).

    Nothing is assembled or factored until ``certify``, or the first
    ``count_below``, which certifies every level at once.  Counts, and the
    messages of OnEigenvalue errors, are kept per level, so each level is
    counted once; a level on the spectrum raises a fresh OnEigenvalue each
    time (a kept exception's traceback would keep the frames, and the
    factor, that raised it).  A level outside ``levels``, or one the certificate does not
    cover, is factored on its own.
    """

    def __init__(self, V: PotentialField, levels):
        self.potential = V
        self.levels = sorted({float(e) for e in levels if e <= 0})
        self._A = self._m = self._shifts = self._error = None
        self._counts = {}

    def certify(self):
        """Assemble the operator and certify the levels' counts, once.  An
        exception is kept, without its traceback, and raised by the next
        ``count_below``, exactly as if that count had certified: a failed
        assembly is retried by the count after it, a failed certificate is
        not."""
        if self._A is not None or self._error is not None:
            return
        try:
            self._A, self._m = assemble_schrodinger(_clamped(self.potential))
            self._shifts = ShiftFamily(self._A, self._m)
            self._certify()
        except Exception as exc:
            self._error = exc.with_traceback(None)

    def count_below(self, e: float) -> int:
        """Number of box-operator eigenvalues strictly below e, or
        OnEigenvalue if e lies on that spectrum."""
        e = float(e)
        self.certify()
        error, self._error = self._error, None
        if error is not None:
            raise error
        if e not in self._counts:
            try:
                self._counts[e] = strict_count(self._shifts.factor(e).inertia, "box operator")
            except OnEigenvalue as exc:
                self._counts[e] = str(exc)
        count = self._counts[e]
        if isinstance(count, str):
            raise OnEigenvalue(count)
        return count

    def _certify(self):
        if not self.levels:
            return
        A, m = self._A, self._m
        top = self.levels[-1]
        try:
            factor = self._shifts.factor(top)
            k = self._counts[top] = strict_count(factor.inertia, "box operator")
        except OnEigenvalue as exc:
            self._counts[top] = str(exc)
            return
        lower = self.levels[:-1]
        if not lower:
            return
        certified = _bound_states(A, factor, top * m[0], k)
        if certified is None:
            return
        theta, r = certified
        for e in lower:
            s = e * m[0]
            tau0 = PIVOT_RTOL * abs(A - e * sp.diags(m)).max()
            if top * m[0] - s > tau0 and np.all(np.abs(theta - s) > r + tau0):
                self._counts[e] = int(np.sum(theta < s))


def _bound_states(A, factor: Factorization, shift: float, k: int):
    """The k eigenvalues of A below ``shift`` (k from the inertia of
    ``factor``, the factorization of A - shift*I), as Ritz values theta and
    a radius r with one eigenvalue of A within r of each theta_i; None when
    Lanczos fails or the certificate does not place all k below the shift.
    """
    n = A.shape[0]
    if k == 0:
        return np.empty(0), 0.0
    if k >= n - 1:
        return None
    inverse = LinearOperator((n, n), matvec=factor.solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        _, X = eigsh(A, k=k, sigma=shift, which="SA", OPinv=inverse, v0=v0)
    except ArpackError:
        return None
    Q, _ = np.linalg.qr(X)
    H = Q.T @ (A @ Q)
    theta, Y = np.linalg.eigh((H + H.T) / 2.0)
    Z = Q @ Y
    # Kahan's bound needs orthonormal columns.  Z is orthonormal to within
    # eta = |Z^T Z - I|_2; its orthonormal polar factor Z (Z^T Z)^(-1/2)
    # has residual at most |R|_2 / sqrt(1 - eta) + 2 sqrt(1 + eta) eta
    # max|theta|.  eta and |R|_2 are widened by the worst-case rounding of
    # the products that formed them.
    eps = np.finfo(float).eps
    anorm = abs(A).sum(axis=1).max()
    row_nnz = np.diff(A.indptr).max()
    eta = np.linalg.norm(Z.T @ Z - np.eye(k), 2) + 2.0 * n * eps * k
    if eta >= 0.5:
        return None
    resid = np.linalg.norm(A @ Z - Z * theta, 2) * (1.0 + 4.0 * k * eps)
    resid += 2.0 * (row_nnz + 2) * eps * np.sqrt(k) * anorm
    r = resid / np.sqrt(1.0 - eta) + 2.0 * np.sqrt(1.0 + eta) * eta * np.abs(theta).max()
    if not np.all(theta + r < shift):
        return None
    return theta, r


def reduction_check(
    V: PotentialField,
    e: float,
    lam: float,
    pencil: AssembledPencil | None = None,
    box: BoxOperator | None = None,
):
    """Compare the box operator's bound-state count below e with the full
    weighted count of the sublevel pencil at shift lam:

        N_operator(e)  <=  N_weighted_full(lam),   lam >= 1.

    Positive parts of V are clamped to zero first (with a warning): the
    comparison argument drops them, so clamping only strengthens the check.
    ``pencil`` is the sublevel pencil of (V, e) if the caller already
    assembled it; clamping leaves it unchanged, since only nodes with
    V < e <= 0 enter it.  ``box`` is the scenario's BoxOperator of V, which
    counts the box operator once for all levels.  Returns (N_operator,
    N_weighted_full, inequality_holds).
    """
    if lam < 1.0:
        raise ValueError("the reduction needs lam >= 1")
    if e > 0:
        raise ValueError("level e must be nonpositive")
    if box is None:
        box = BoxOperator(V, [e])
    elif box.potential is not V:
        raise ValueError("box operator belongs to another potential")
    if np.any(V.values > 0):
        warnings.warn("potential has positive parts; clamping them to zero")
        V = _clamped(V)

    n_op = box.count_below(e)

    if pencil is None:
        try:
            dec = classify_nodes(V, e)
        except EmptySublevel:
            return n_op, 0, n_op <= 0
        pencil = assemble_pencil(dec, V, e)
    elif abs(pencil.level - e) > 1e-12 * max(1.0, abs(e)):
        raise ValueError(f"pencil level {pencil.level} does not match e={e}")
    n_weighted = strict_count(pencil.full_shifts.factor(lam).inertia, "weighted pencil")
    return n_op, n_weighted, n_op <= n_weighted


def box_exact_count(n: int, side: float, mu: float) -> int:
    """Exact counting function of the pinned cube of side L: the number of
    positive-integer lattice points with (pi/L)^2 * |k|^2 <= mu.

    Enumerates one axis analytically, so the cost is O(R^(n-1)) with
    R = L*sqrt(mu)/pi; guarded by ENUMERATION_LIMIT on R^2.
    """
    if n not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if side <= 0:
        raise ValueError("side must be positive")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    R2 = mu * side**2 / np.pi**2
    if R2 > ENUMERATION_LIMIT:
        raise EnumerationCap(f"mu*L^2/pi^2 = {R2:.3g} exceeds {ENUMERATION_LIMIT:.0e}")
    if R2 < 1.0:
        return 0
    kmax = int(np.floor(np.sqrt(R2)))
    if n == 1:
        return kmax
    k1 = np.arange(1, kmax + 1)
    if n == 2:
        return int(np.sum(np.floor(np.sqrt(np.maximum(R2 - k1**2, 0.0))).astype(int)))
    ka, kb = np.meshgrid(k1, k1, indexing="ij")
    rem = R2 - ka**2 - kb**2
    return int(np.sum(np.floor(np.sqrt(np.maximum(rem, 0.0))).astype(int)))
