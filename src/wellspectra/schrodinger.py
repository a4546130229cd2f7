"""The operator side: -Laplacian + V on the box with pinned walls, the
reduction of its bound-state count to the weighted sublevel problem, and the
exact cube-spectrum oracle used for semiclassical sanity checks.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp

from .errors import EmptySublevel, EnumerationCap, OnEigenvalue
from .assemble import assemble_pencil, classify_nodes
from .eigcount import inertia
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


def _strict_count(A, label: str) -> int:
    inert = inertia(A)
    if inert.n_zero:
        raise OnEigenvalue(f"shift lies on the {label} spectrum (n_zero={inert.n_zero})")
    return inert.n_minus


def reduction_check(
    V: PotentialField, e: float, lam: float, pencil: AssembledPencil | None = None
):
    """Compare the box operator's bound-state count below e with the full
    weighted count of the sublevel pencil at shift lam:

        N_operator(e)  <=  N_weighted_full(lam),   lam >= 1.

    Positive parts of V are clamped to zero first (with a warning): the
    comparison argument drops them, so clamping only strengthens the check.
    ``pencil`` is the sublevel pencil of (V, e) if the caller already
    assembled it; clamping leaves it unchanged, since only nodes with
    V < e <= 0 enter it.  Returns (N_operator, N_weighted_full,
    inequality_holds).
    """
    if lam < 1.0:
        raise ValueError("the reduction needs lam >= 1")
    if e > 0:
        raise ValueError("level e must be nonpositive")
    if np.any(V.values > 0):
        warnings.warn("potential has positive parts; clamping them to zero")
        V = PotentialField(
            grid=V.grid, values=np.minimum(V.values, 0.0), family=V.family
        )

    A, m = assemble_schrodinger(V)
    n_op = _strict_count(A - e * sp.diags(m), "box operator")

    if pencil is None:
        try:
            dec = classify_nodes(V, e)
        except EmptySublevel:
            return n_op, 0, n_op <= 0
        pencil = assemble_pencil(dec, V, e)
    elif abs(pencil.level - e) > 1e-12 * max(1.0, abs(e)):
        raise ValueError(f"pencil level {pencil.level} does not match e={e}")
    n_weighted = _strict_count(pencil.shifted(lam), "weighted pencil")
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
