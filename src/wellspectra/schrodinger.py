"""The operator side: -Laplacian + V on the box with pinned walls, the
reduction of its bound-state count to the weighted sublevel problem, and the
exact cube-spectrum oracle used for semiclassical sanity checks.

The box operator A = -Laplacian + min(V, 0) does not depend on the energy
level, so ``BoxOperator`` counts it below every level of a scenario at once.
With the scalar mass h^n, the count below e <= 0 is the number of
eigenvalues of A below the shift s = e*h^n, and it is always read off an
inertia.  There are two routes, and ``compact_well`` picks one per box.

The Birman-Schwinger route serves a 3D well W = {V < 0} that is small
against the box.  Write A - s = L0(s) - P R^2 P^T, where
L0(s) = h^(n-2) (-Laplacian_graph) - s I is positive definite for s <= 0 and
diagonal in the n-D DST-I basis, P injects W into the box, and
R = diag(sqrt(|V| h^n)) on W.  Haynsworth inertia additivity on
[[L0, P R], [R P^T, I]], eliminating either diagonal block, followed by a
Sylvester congruence with R, gives

    n_minus(A - s) = n_minus(I - R G_W(s) R),   G_W = P^T L0^{-1} P,

with n_zero equal on both sides.  So a level's count is the strict count of
one dense Bunch-Kaufman inertia of order |W| (``birman_schwinger_matrix``):
no sparse factor of the box, no Lanczos and no error radius, and a level
outside ``levels`` takes the same route.  The scaling by R matters: the
unscaled |D|^{-1} - G_W, D = diag(V h^n), reaches 1e30 in a Gaussian's
tails, and the pivot tolerance 1e-12 max|entry| then swamps every pivot.
G_W is formed in SciPy's BLAS (dgemm, by ``eigcount.matmul``) from one
dense 1-D sine matrix per axis: L0^{-1} = S diag(1/Lambda) S, and the unit
columns of W, restricted to W's bounding box, are contracted one axis at a
time.

The sparse route serves the rest: 1D and 2D boxes, where sparse fill stays
far below N^2, and 3D wells that fill most of the box.  The operator is
factored at the highest level; if that count k is 0, every lower level is 0
as well (Sylvester monotonicity).  Otherwise shift-invert Lanczos (ARPACK,
with that factor as the inverse operator) finds the k bound states,
Rayleigh-Ritz on the orthonormalized vectors gives Ritz values theta_i, and
Kahan's residual bound (Parlett, The Symmetric Eigenvalue Problem, Thm
11.5.1) gives a radius r such that k eigenvalues of A lie within r of the
theta_i, one each.  Once every theta_i + r lies below the top shift, those k
eigenvalues are the bound states, and a lower level's count is
#{theta_i < s} whenever every theta_i lies farther than r + tau0 from s.  A
level that is not certified this way is factored on its own, exactly as a
direct count would be, so OnEigenvalue keeps its meaning.  The top-level
factor is the first factor of the box's one ShiftFamily, and those later
factors share its fill-reducing order.  The certificate's orthonormalization,
Rayleigh-Ritz eigensolve and 2-norms are SciPy's LAPACK (QR, dsyevd and the
singular values), and its dense products go through ``eigcount.matmul``:
nothing of it runs in numpy's BLAS, whose thread pool would then spin
beside SciPy's.

The rule: a 3D box of N interior nodes takes the Birman-Schwinger route when
levels * |W|^3 <= COMPACT_WELL_C * N^2, with levels the number of levels
counted (at least 1).  The dense route costs levels * (|W|^3/3 for the
inertia plus the G_W contractions); the sparse LU of a 3D box, with its
Lanczos certificate, grows about as N^2.  Ball wells of depth 12 at levels
-0.5, -2 and -6, the box counted alone (medians of 3 processes; time, and
the process's peak RSS, 65 MB of it the imports; 2-core host, NumPy 2.4,
SciPy 1.17):

    grid  radius  |W|/N  3|W|^3/N^2   sparse LU + Lanczos   Birman-Schwinger
    25^3   1.0    0.075      15         0.89 s, 145 MB       0.22 s,  89 MB
    25^3   1.25   0.147     116         1.12 s, 145 MB       0.79 s, 139 MB
    25^3   1.3    0.159     147         1.17 s, 145 MB       0.95 s, 147 MB
    25^3   1.4    0.207     323         1.21 s, 146 MB       1.81 s, 174 MB
    33^3   1.0    0.071      31         4.33 s, 359 MB       1.12 s, 149 MB
    33^3   1.15   0.109     115         4.03 s, 358 MB       3.19 s, 288 MB
    33^3   1.2    0.126     177         3.91 s, 358 MB       3.96 s, 341 MB
    33^3   1.4    0.198     690         4.93 s, 362 MB      11.85 s, 604 MB
    41^3   1.0    0.070      61        17.4 s,  908 MB       5.44 s, 358 MB

The routes tie in time near C = 180 at 33^3 and between C = 150 and 320 at
25^3, and the dense route's peak passes the sparse one's near C = 150; at
C = 120 the dense route is faster and no larger on both grids.  BENCH_box_route.json has the ladder.
The dense peaks above include the copy of each matrix that its factor
took; the factor now overwrites the matrix (the 41^3 box alone: 358 MB
before, 305 MB after, on the same host).
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import EmptySublevel, EnumerationCap, OnEigenvalue
from .assemble import assemble_pencil, classify_nodes
from .eigcount import PIVOT_RTOL, Factorization, ShiftFamily, matmul, strict_count
from .model import AssembledPencil, GridSpec, PotentialField

#: lattice enumeration guard: mu * L^2 / pi^2 may not exceed this
ENUMERATION_LIMIT = 1e6

#: a 3D box takes the Birman-Schwinger route when
#: levels * |W|^3 <= COMPACT_WELL_C * N^2 (see the module docstring)
COMPACT_WELL_C = 120.0

#: unit columns of G_W contracted per dgemm in ``birman_schwinger_matrix``
_COLUMN_BLOCK = 128


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


def _interior(V: PotentialField) -> np.ndarray:
    """V on the box interior, as an array of the interior's shape."""
    return V.values[(slice(1, -1),) * V.grid.dimension]


def compact_well(grid: GridSpec, well_size: int, levels: int) -> bool:
    """The route rule: True when a box of ``grid`` whose well has
    ``well_size`` interior nodes, counted at ``levels`` levels, takes the
    Birman-Schwinger route (see the module docstring)."""
    if grid.dimension != 3:
        return False
    interior = float(np.prod([r - 2 for r in grid.resolution]))
    return max(levels, 1) * float(well_size) ** 3 <= COMPACT_WELL_C * interior**2


def _sine_basis(m: int):
    """The orthonormal DST-I matrix S of order m (symmetric, S S = I), whose
    columns are the eigenvectors of tridiag(-1, 2, -1), and its eigenvalues
    4 sin^2(pi k / (2(m + 1))), k = 1..m."""
    k = np.arange(1, m + 1)
    phase = np.outer(k, k) % (2 * (m + 1))  # the sine's argument, reduced exactly
    S = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * phase / (m + 1))
    return S, 4.0 * np.sin(np.pi * k / (2 * (m + 1))) ** 2


def birman_schwinger_matrix(V: PotentialField, e: float) -> np.ndarray:
    """I - R G_W(s) R at s = e*h^n <= 0, whose inertia counts the box
    operator of V (clamped) below e: n_minus is the count, and n_zero > 0
    exactly when e lies on that spectrum (see the module docstring).  Rows
    and columns run over the well W = {V < 0} of the box interior, in linear
    node order; R = diag(sqrt(|V| h^n)) on W.

    L0^{-1} = S diag(1/Lambda) S in the n-D sine basis S = S_1 x ... x S_n.
    Its (row, column) entry restricted to W's bounding box is a sum over the
    modes k of prod_a S_a[c_a, k_a] S_a[i_a, k_a] / Lambda(k).  Axes 1..n-1
    are summed first, for every (column, row) coordinate pair in the box,
    each by one dgemm; the last axis is summed per block of W's columns by
    one more, and the rows outside W are dropped.  The matrix is
    Fortran-ordered, so that its factorization can overwrite it.
    """
    grid = V.grid
    n, h = grid.dimension, grid.spacing
    if e > 0:
        raise ValueError("the Birman-Schwinger route needs a level e <= 0")
    inner = _interior(V)
    well = inner < 0
    coords = np.nonzero(well)
    size = coords[0].size
    if size == 0:
        return np.empty((0, 0))
    r = np.sqrt(-inner[well] * h**n)
    lo = [int(c.min()) for c in coords]
    bases = [_sine_basis(m) for m in inner.shape]
    rows = [S[a:int(c.max()) + 1] for (S, _), a, c in zip(bases, lo, coords)]
    spectrum = -e * h**n
    for axis, (_, lam) in enumerate(bases):
        spectrum = spectrum + h ** (n - 2) * lam.reshape([-1 if a == axis else 1 for a in range(n)])
    # T's axes: the (column, row) pairs of the axes summed so far, latest
    # first, then the modes of the axes still to sum
    T = 1.0 / spectrum
    for axis in range(n - 1):
        S = rows[axis]
        pairs = (S[:, None, :] * S[None, :, :]).reshape(-1, S.shape[1])
        rest = T.shape[:axis] + T.shape[axis + 1:]
        T = matmul(pairs, np.moveaxis(T, axis, 0).reshape(S.shape[1], -1))
        T = T.reshape((pairs.shape[0],) + rest)
    # to (column prefix, row prefix, last mode), each prefix in C order
    widths = [S.shape[0] for S in rows[:-1]]
    paired = [w for w in reversed(widths) for _ in range(2)]
    order = [2 * (n - 2 - a) for a in range(n - 1)] + [2 * (n - 2 - a) + 1 for a in range(n - 1)]
    prefix = int(np.prod(widths))
    last = rows[-1]
    T = T.reshape(paired + [last.shape[1]]).transpose(order + [2 * (n - 1)])
    T = np.ascontiguousarray(T).reshape(prefix, prefix, last.shape[1])
    column = np.zeros(size, dtype=np.intp)
    for axis in range(n - 1):
        column = column * widths[axis] + (coords[axis] - lo[axis])
    depth = coords[-1] - lo[-1]
    box_position = column * last.shape[0] + depth
    out = np.empty((size, size), order="F")
    for start in range(0, size, _COLUMN_BLOCK):
        block = slice(start, start + _COLUMN_BLOCK)
        Y = T[column[block]] * last[depth[block]][:, None, :]
        G = matmul(Y.reshape(-1, last.shape[1]), last.T).reshape(Y.shape[0], -1)
        # G_W is symmetric: these columns are also the block's rows
        out[block] = G[:, box_position] * (-r[block, None] * r)
    out[np.diag_indices(size)] += 1.0
    return out


class BoxOperator:
    """Bound-state counts of the box operator -Laplacian + min(V, 0) below
    the nonpositive levels of one scenario, by the route that
    ``compact_well`` picks for its grid, well size and number of levels (see
    the module docstring).

    Nothing is assembled or factored until ``certify``, or the first
    ``count_below``, which counts every level at once: on the
    Birman-Schwinger route one dense inertia per level, each matrix and
    factor let go before the next level's; on the sparse route one factor
    at the top level and its Lanczos certificate.  ``route`` names the route
    taken ("birman-schwinger" or "sparse"), and is None until then.  Counts,
    and the messages of OnEigenvalue errors, are kept per level, so each
    level is counted once; a level on the spectrum raises a fresh
    OnEigenvalue each time (a kept exception's traceback would keep the
    frames, and the factor, that raised it).  A level outside ``levels``, or
    one the certificate does not cover, is factored on its own.
    """

    def __init__(self, V: PotentialField, levels):
        self.potential = V
        self.levels = sorted({float(e) for e in levels if e <= 0})
        self.route = None
        self._A = self._m = self._shifts = self._error = None
        self._counts = {}

    def certify(self):
        """Pick the route, assemble the operator on the sparse route, and
        count or certify the levels, once.  An exception is kept, without
        its traceback, and raised by the next ``count_below``, exactly as if
        that count had certified: a failed assembly is retried by the count
        after it, a failed count or certificate is not."""
        if self.route is not None or self._error is not None:
            return
        try:
            well_size = int(np.count_nonzero(_interior(self.potential) < 0))
            if compact_well(self.potential.grid, well_size, len(self.levels)):
                self.route = "birman-schwinger"
            else:
                self._A, self._m = assemble_schrodinger(_clamped(self.potential))
                self._shifts = ShiftFamily(self._A, self._m)
                self.route = "sparse"
            self._certify()
        except Exception as exc:
            self._error = exc.with_traceback(None)

    def count_below(self, e: float) -> int:
        """Number of box-operator eigenvalues strictly below e <= 0, or
        OnEigenvalue if e lies on that spectrum."""
        e = float(e)
        if e > 0:
            raise ValueError(f"the box operator is counted below levels e <= 0, got {e!r}")
        self.certify()
        error, self._error = self._error, None
        if error is not None:
            raise error
        if e not in self._counts:
            self._count(e)
        count = self._counts[e]
        if isinstance(count, str):
            raise OnEigenvalue(count)
        return count

    def _count(self, e: float):
        """Keep the count at e, or the message of its OnEigenvalue, from a
        factorization of the level's own on the box's route."""
        try:
            if self.route == "birman-schwinger":
                factor = Factorization(
                    birman_schwinger_matrix(self.potential, e), overwrite_a=True
                )
            else:
                factor = self._shifts.factor(e)
            self._counts[e] = strict_count(factor.inertia, "box operator")
        except OnEigenvalue as exc:
            self._counts[e] = str(exc)

    def _certify(self):
        if self.route == "birman-schwinger":
            for e in self.levels:
                self._count(e)
            return
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
    Q = sla.qr(X, mode="economic")[0]
    H = matmul(Q.T, A @ Q)
    theta, Y = sla.eigh((H + H.T) / 2.0, driver="evd")
    Z = matmul(Q, Y)
    # Kahan's bound needs orthonormal columns.  Z is orthonormal to within
    # eta = |Z^T Z - I|_2; its orthonormal polar factor Z (Z^T Z)^(-1/2)
    # has residual at most |R|_2 / sqrt(1 - eta) + 2 sqrt(1 + eta) eta
    # max|theta|.  eta and |R|_2 are widened by the worst-case rounding of
    # the products that formed them.
    eps = np.finfo(float).eps
    anorm = abs(A).sum(axis=1).max()
    row_nnz = np.diff(A.indptr).max()
    eta = sla.svdvals(matmul(Z.T, Z) - np.eye(k)).max() + 2.0 * n * eps * k
    if eta >= 0.5:
        return None
    resid = sla.svdvals(A @ Z - Z * theta).max() * (1.0 + 4.0 * k * eps)
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
