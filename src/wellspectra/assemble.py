"""Sublevel-set decomposition and pencil assembly.

Given a sampled potential and an energy level ``e``, classify grid nodes into
interior (V < e) and boundary (exterior neighbors of the interior), collect
the lattice edges carrying Dirichlet energy, and assemble the stiffness /
mass / surface data of the weighted eigenvalue pencil.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph
from scipy.spatial.distance import cdist

from .errors import DetachedComponent, EmptySublevel
from .model import AssembledPencil, GridSpec, PotentialField, SublevelDecomposition

# above this many nodes, reduce to convex-hull vertices before the
# pairwise-distance scan
_HULL_SWITCH = 1500


def _points_diameter(pts: np.ndarray) -> float:
    """Max Euclidean distance between any two rows of ``pts``."""
    if pts.shape[0] <= 1:
        return 0.0
    if pts.shape[1] == 1:
        return float(pts.max() - pts.min())
    if pts.shape[0] > _HULL_SWITCH:
        try:
            from scipy.spatial import ConvexHull

            pts = pts[ConvexHull(pts).vertices]
        except Exception:
            # degenerate (collinear/coplanar) point sets: scan directly
            pass
    best = 0.0
    for start in range(0, pts.shape[0], 512):
        block = pts[start : start + 512]
        best = max(best, float(cdist(block, pts).max()))
    return best


def _lattice_edges(grid: GridSpec, keep_mask: np.ndarray) -> np.ndarray:
    """All grid edges (u, v), u < v, for which ``keep_mask`` holds on at
    least one endpoint.  ``keep_mask`` is boolean over the grid shape."""
    lin = np.arange(grid.num_nodes).reshape(grid.shape)
    pieces = []
    for ax in range(grid.dimension):
        lo = [slice(None)] * grid.dimension
        hi = [slice(None)] * grid.dimension
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        u = lin[tuple(lo)].ravel()
        v = lin[tuple(hi)].ravel()
        keep = keep_mask.ravel()
        sel = keep[u] | keep[v]
        pieces.append(np.stack([u[sel], v[sel]], axis=1))
    if not pieces:
        return np.empty((0, 2), dtype=int)
    return np.concatenate(pieces, axis=0)


def classify_nodes(
    V: PotentialField, e: float, allow_positive_level: bool = False
) -> SublevelDecomposition:
    """Split grid nodes at level ``e`` into interior {V < e} and boundary
    (exterior lattice neighbors of the interior).

    Raises EmptySublevel when no node lies below the level (a legal signal:
    every downstream count is zero), and DetachedComponent when an interior
    component has no boundary neighbor (the region fills the grid, so the
    pinned count problem would be ill-posed).
    """
    if e > 0 and not allow_positive_level:
        raise ValueError(
            "level must be nonpositive; pass allow_positive_level=True to explore"
        )
    grid = V.grid
    mask = V.values < e
    if not mask.any():
        raise EmptySublevel(f"no nodes with V < {e}")

    edges = _lattice_edges(grid, mask)
    flat = mask.ravel()
    interior = np.flatnonzero(flat)

    one_in = flat[edges[:, 0]] != flat[edges[:, 1]]
    cross = edges[one_in]
    boundary = np.unique(np.where(flat[cross[:, 0]], cross[:, 1], cross[:, 0]))
    touched = np.unique(np.where(flat[cross[:, 0]], cross[:, 0], cross[:, 1]))

    # connected components of the interior subgraph
    local = np.full(grid.num_nodes, -1, dtype=int)
    local[interior] = np.arange(interior.size)
    both_in = flat[edges[:, 0]] & flat[edges[:, 1]]
    ii = edges[both_in]
    adj = sp.coo_matrix(
        (np.ones(ii.shape[0]), (local[ii[:, 0]], local[ii[:, 1]])),
        shape=(interior.size, interior.size),
    )
    ncomp, labels = csgraph.connected_components(adj.tocsr(), directed=False)
    components = [interior[labels == c] for c in range(ncomp)]

    touched_set = np.zeros(grid.num_nodes, dtype=bool)
    touched_set[touched] = True
    for comp in components:
        if not touched_set[comp].any():
            raise DetachedComponent(
                f"an interior component of {comp.size} nodes has no boundary "
                "neighbor; the sublevel region must sit strictly inside the box"
            )

    pts = grid.node_coords(np.concatenate([interior, boundary]))
    return SublevelDecomposition(
        level=float(e),
        interior=interior,
        boundary=boundary,
        edges=edges,
        components=components,
        diameter=_points_diameter(pts),
    )


def assemble_pencil(
    dec: SublevelDecomposition, V: PotentialField, e: float
) -> AssembledPencil:
    """Assemble stiffness K, diagonal mass M and surface weights sigma on the
    decomposition, in local ordering interior-then-boundary.

    K is the h^(n-2)-scaled graph Laplacian over the decomposition edges
    (edges between two boundary nodes carry no energy and are absent by
    construction, so K_BB is diagonal).  M_ii = (V(x_i) - e)_- * h^n on the
    interior and 0 on the boundary; sigma_b counts interface faces, each
    weighted h^(n-1).  Nothing is factored here: the pinned block K_II is
    checked for positive definiteness by the first pinned solve at
    lam <= 0 (see ``a2r``).
    """
    if abs(dec.level - e) > 1e-12 * max(1.0, abs(e)):
        raise ValueError(f"decomposition level {dec.level} does not match e={e}")
    grid = V.grid
    n = grid.dimension
    h = grid.spacing

    nodes = np.concatenate([dec.interior, dec.boundary])
    ni = dec.num_interior
    order = nodes.size
    local = np.full(grid.num_nodes, -1, dtype=int)
    local[nodes] = np.arange(order)

    eu = local[dec.edges[:, 0]]
    ev = local[dec.edges[:, 1]]
    if np.any(eu < 0) or np.any(ev < 0):
        raise ValueError("decomposition edges reference nodes outside I union B")
    c = h ** (n - 2)
    rows = np.concatenate([eu, ev, eu, ev])
    cols = np.concatenate([eu, ev, ev, eu])
    data = np.concatenate(
        [np.full(eu.size, c), np.full(eu.size, c), np.full(eu.size, -c), np.full(eu.size, -c)]
    )
    K = sp.coo_matrix((data, (rows, cols)), shape=(order, order)).tocsr()
    K.sum_duplicates()

    M = np.zeros(order)
    M[:ni] = (e - V.values.ravel()[dec.interior]) * h**n

    interior_flag = np.zeros(order, dtype=bool)
    interior_flag[:ni] = True
    one_in = interior_flag[eu] != interior_flag[ev]
    bnd_side = np.where(interior_flag[eu[one_in]], ev[one_in], eu[one_in])
    counts = np.bincount(bnd_side - ni, minlength=order - ni)
    sigma = counts.astype(float) * h ** (n - 1)

    return AssembledPencil(grid=grid, dec=dec, K=K, M=M, sigma=sigma)
