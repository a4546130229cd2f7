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
one dense Bunch-Kaufman inertia of order |W| (``birman_schwinger_matrix``),
with no sparse factor of the box.  The scaling by R matters: the
unscaled |D|^{-1} - G_W, D = diag(V h^n), reaches 1e30 in a Gaussian's
tails, and the pivot tolerance 1e-12 max|entry| then swamps every pivot.
G_W is formed in SciPy's BLAS (dgemm, by ``eigcount.matmul``) from one
dense 1-D sine matrix per axis, L0^{-1} = S diag(1/Lambda) S, read only at
the coordinates that W occupies.

The sparse route serves the rest: 1D and 2D boxes, where sparse fill stays
far below N^2, and 3D wells that fill most of the box.  A level's count is
the strict count of one sparse factor of A - s I, taken from the box's one
ShiftFamily, so every factor after the first shares its fill-reducing
order.

Both routes count the levels from the top down, one factor alive at a
time, into one table.  Once a count is 0, every lower level is 0 as well
(Sylvester monotonicity) and is not factored.  A level whose factor raises
(OnEigenvalue on the spectrum, or any other error) has no count, so the
levels below it are still factored.

The rule: a 3D box of N interior nodes takes the Birman-Schwinger route
when |W|^3 <= COMPACT_WELL_C * N^2.  Both routes make one factor per level,
so the number of levels does not enter; the dense inertia costs |W|^3/3
per level, and the sparse LU of a 3D box grows about as N^2.  The rule
reads |W| alone: beyond the |W|^2 matrix, the construction's memory is
small whatever W's shape.  BENCH_box_rule.json forces each route on balls
of depth 12 and on lattice3d wells, 64 balls of depth 60 that occupy
most coordinates of every axis, at levels -0.5, -2 and -6, the box
counted alone (medians of 5 processes; time, and the process's peak RSS,
about 65 MB of it the imports; 2-core host, NumPy 2.4, SciPy 1.17).  On
each well and grid, the dense route is faster and smaller on every rung
up to the first row below, and loses on the next rung, the second:

    well     grid    |W|   |W|^3/N^2   sparse            Birman-Schwinger
    ball     25^3   3002      183      1.20 s, 143 MB    1.05 s, 137 MB
    ball     25^3   3407      267      0.92 s, 143 MB    1.35 s, 157 MB
    lattice  25^3   3096      200      1.23 s, 143 MB    1.17 s, 142 MB
    lattice  25^3   3744      355      1.15 s, 143 MB    1.77 s, 176 MB
    ball     33^3   5887      230      6.86 s, 375 MB    5.53 s, 338 MB
    ball     33^3   6619      327      6.77 s, 375 MB    7.38 s, 405 MB
    lattice  33^3   5328      170      7.65 s, 376 MB    4.21 s, 287 MB
    lattice  33^3   6440      301      6.93 s, 376 MB    6.28 s, 391 MB

C = 170 is the largest ratio up to which every well on every grid was
measured no slower and no larger.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp

from .errors import EmptySublevel, EnumerationCap
from .assemble import assemble_pencil, classify_nodes
from .eigcount import Factorization, ShiftFamily, matmul, strict_count
from .model import AssembledPencil, GridSpec, PotentialField

#: lattice enumeration guard: mu * L^2 / pi^2 may not exceed this
ENUMERATION_LIMIT = 1e6

#: a 3D box takes the Birman-Schwinger route when
#: |W|^3 <= COMPACT_WELL_C * N^2 (see the module docstring)
COMPACT_WELL_C = 170.0


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
    inner = _interior(V).ravel()
    A = _dirichlet_laplacian(grid) + sp.diags(inner * hn)
    return A.tocsr(), np.full(inner.size, hn)


def _clamped(V: PotentialField) -> PotentialField:
    return PotentialField(grid=V.grid, values=np.minimum(V.values, 0.0), family=V.family)


def _interior(V: PotentialField) -> np.ndarray:
    """V on the box interior, as an array of the interior's shape."""
    return V.values[(slice(1, -1),) * V.grid.dimension]


def compact_well(grid: GridSpec, well_size: int) -> bool:
    """The route rule: True when a box of ``grid`` whose well has
    ``well_size`` interior nodes takes the Birman-Schwinger route (see the
    module docstring)."""
    if grid.dimension != 3:
        return False
    interior = float(np.prod([r - 2 for r in grid.resolution]))
    return float(well_size) ** 3 <= COMPACT_WELL_C * interior**2


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

    L0^{-1} = S diag(1/Lambda) S in the n-D sine basis (n >= 2); its entry
    between two nodes c and i of W sums prod_a S_a[c_a, k_a] S_a[i_a, k_a]
    / Lambda(k) over the modes k.  W's nodes are in C order: those that
    share all but their last coordinate are a run [a, b), and the runs that
    share their first coordinate a slab.  Per slab, one dgemm per axis sums
    axes 1..n-1 into T, over the u_a coordinates that W occupies on each;
    per run, one more sums the last axis against every node from a on.
    That fills the lower triangle of the Fortran-ordered result, all that
    its factor reads (above the diagonal: zeros, and a run's mirrored ones).

    In 3D, with m_a modes on axis a and N = m_1 m_2 m_3, it holds besides
    the |W|^2 result at most 3N + u_1 u_2^2 m_3 + u_2^2 m_2 + 4 |W| m_3
    doubles, 10 |W| index integers, the sine matrices and a few kB, known
    before the first allocation; W's shape enters only these small terms
    (m^4 doubles at most).  At most N / m_3 runs gather at most N |W| doubles.
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
    bases = [_sine_basis(m) for m in inner.shape]
    inverse = -e * h**n  # 1/Lambda(k), over the modes of every axis
    for axis, (_, lam) in enumerate(bases):
        inverse = inverse + h ** (n - 2) * lam.reshape([-1 if a == axis else 1 for a in range(n)])
    np.divide(1.0, inverse, out=inverse)
    (first, first_inv), *occupied = [np.unique(c, return_inverse=True) for c in coords[:-1]]
    pairs = [bases[axis][0][values] for axis, (values, _) in enumerate(occupied, 1)]
    pairs = [(S[:, None, :] * S[None, :, :]).reshape(-1, S.shape[1]) for S in pairs]
    last = bases[-1][0][coords[-1]]
    starts = [0, *(np.flatnonzero(np.any(np.diff(coords[:-1], axis=1) != 0, axis=0)) + 1)]
    out = np.zeros((size, size))
    for a, b in zip(starts, [*starts[1:], size]):
        i = first_inv[a]
        if a == 0 or i != first_inv[a - 1]:
            # T's axes: the (column, row) pairs of axes n-2..1, the row's
            # axis-0 coordinate (the i-th or past it), the last axis's modes
            S = bases[0][0]
            T = matmul(S[first[i]] * S[first[i:]], inverse.reshape(len(S), -1))
            T = T.reshape((-1,) + inverse.shape[1:])
            for axis, P in enumerate(pairs, 1):
                rest = T.shape[:axis] + T.shape[axis + 1:]
                T = matmul(P, np.moveaxis(T, axis, 0).reshape(T.shape[axis], -1))
                T = T.reshape((P.shape[0],) + rest)
        pair = tuple(inv[a:] * values.size + inv[a] for values, inv in reversed(occupied))
        G = matmul(last[a:b], (T[(*pair, first_inv[a:] - i)] * last[a:]).T)
        # out is C-ordered: these rows are the columns of the result
        np.multiply(-r[a:b, None], r[a:], out=out[a:b, a:])
        out[a:b, a:] *= G
    out[np.diag_indices(size)] += 1.0
    return out.T


def _fresh(kind: type, message: str) -> Exception:
    """A new exception of ``kind``, or of its nearest base class that is
    made from a message alone (numpy's MemoryError subclass is not), with
    ``message``."""
    for cls in kind.__mro__:
        try:
            return cls(message)
        except TypeError:
            continue


class BoxOperator:
    """Bound-state counts of the box operator -Laplacian + min(V, 0) below
    the nonpositive levels of one scenario, on the route that
    ``compact_well`` picks (see the module docstring).

    Construction picks the route and counts every level, once, from the top
    down, into one table: a level's count, or the type and message of the
    error that its own factor raised, which ``count_below`` raises afresh
    each time (a kept exception's traceback would keep the frames, and the
    factor, that raised it).  Below a strict count of 0 every level counts
    0 as well (Sylvester monotonicity), unfactored; a level whose factor
    raised has no count, so the levels below it are factored.  A failure
    to pick the route or to assemble the box is every level's outcome.
    ``route`` names the route taken ("birman-schwinger" or "sparse"); it is
    None when the box could not be assembled.
    """

    def __init__(self, V: PotentialField, levels):
        self.potential = V
        self.levels = sorted({float(e) for e in levels if e <= 0})
        self.route = None
        self._shifts = None
        try:
            well_size = int(np.count_nonzero(_interior(V) < 0))
            if compact_well(V.grid, well_size):
                self.route = "birman-schwinger"
            else:
                self._shifts = ShiftFamily(*assemble_schrodinger(_clamped(V)))
                self.route = "sparse"
        except Exception as exc:
            self._outcomes = dict.fromkeys(self.levels, (type(exc), str(exc)))
            return
        self._outcomes = {}
        for i in reversed(range(len(self.levels))):
            e = self.levels[i]
            try:
                outcome = strict_count(self._factor(e).inertia, "box operator")
            except Exception as exc:
                outcome = (type(exc), str(exc))
            self._outcomes[e] = outcome
            if outcome == 0:
                self._outcomes.update(dict.fromkeys(self.levels[:i], 0))
                break
        self._shifts = None

    def count_below(self, e: float) -> int:
        """Number of box-operator eigenvalues strictly below the listed
        level e <= 0, or the error that the level's factor raised
        (OnEigenvalue if e lies on that spectrum)."""
        e = float(e)
        if e > 0:
            raise ValueError(f"the box operator is counted below levels e <= 0, got {e!r}")
        if e not in self._outcomes:
            raise ValueError(f"the box operator was not counted below {e!r}")
        outcome = self._outcomes[e]
        if isinstance(outcome, tuple):
            raise _fresh(*outcome)
        return outcome

    def _factor(self, e: float) -> Factorization:
        """The factorization of the level e on the box's route."""
        if self.route == "birman-schwinger":
            return Factorization(birman_schwinger_matrix(self.potential, e), overwrite_a=True)
        return self._shifts.factor(e)


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

    Positive parts of V are clamped to zero (with a warning): the box
    operator is that of min(V, 0), and the comparison argument drops them,
    so clamping only strengthens the check.  The sublevel pencil reads V
    only where V < e <= 0, so it is the same for V and min(V, 0).
    ``pencil`` is the sublevel pencil of (V, e) if the caller already
    assembled it.  ``box`` is the scenario's BoxOperator of V, which counts
    the box operator once for all its levels, e among them.  Returns
    (N_operator, N_weighted_full, inequality_holds).
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
