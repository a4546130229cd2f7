"""Sublevel-set decomposition and pencil assembly.

Given a sampled potential and an energy level ``e``, classify grid nodes into
interior (V < e) and boundary (exterior neighbors of the interior), collect
the lattice edges carrying Dirichlet energy, and assemble the stiffness /
mass / surface data of the weighted eigenvalue pencil.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DetachedComponent, EmptySublevel
from .model import AssembledPencil, GridSpec, PotentialField, SublevelDecomposition

def _diameter(grid: GridSpec, interior: np.ndarray, boundary: np.ndarray) -> float:
    """Max Euclidean distance between two nodes of I union B.

    The maximum is attained at vertices of the convex hull, so only B and
    the interior nodes on a face of the box are scanned: an interior node
    off the faces is the midpoint of two lattice neighbours, which lie in
    I union B, so it is no hull vertex.  The faces count because a sublevel
    set may touch the box, where its extreme nodes can be interior.
    """
    face = np.zeros(grid.shape, dtype=bool)
    for ax in range(grid.dimension):
        ends = [slice(None)] * grid.dimension
        ends[ax] = [0, -1]
        face[tuple(ends)] = True
    pts = grid.node_coords(np.concatenate([boundary, interior[face.ravel()[interior]]]))
    out = np.empty((min(512, len(pts)), len(pts)))
    blocks = (pts[start : start + 512] for start in range(0, len(pts), 512))
    best = max((grid.squared_distances(a, pts, out[: len(a)]).max() for a in blocks), default=0.0)
    return float(np.sqrt(best))


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
    return np.concatenate(pieces, axis=0)


def classify_nodes(V: PotentialField, e: float) -> SublevelDecomposition:
    """Split grid nodes at level ``e`` into interior {V < e} and boundary
    (exterior lattice neighbors of the interior).

    A positive level is a ValueError.  Raises EmptySublevel when no node
    lies below the level (a legal signal: every downstream count is zero),
    and DetachedComponent when {V < e} fills the grid, so no node is left
    for a boundary (any smaller set has a grid edge leaving it).  A set that
    reaches a box face is assembled with that face free (a face node's row of
    K lacks its neighbor off the grid), though ``schrodinger.BoxOperator``
    pins the face.
    """
    if e > 0:
        raise ValueError(f"level must be nonpositive, got {e!r}")
    grid = V.grid
    mask = V.values < e
    if not mask.any():
        raise EmptySublevel(f"no nodes with V < {e}")
    if mask.all():
        n = grid.num_nodes
        raise DetachedComponent(f"{{V < {e}}} fills all {n} grid nodes, so it has no boundary")

    edges = _lattice_edges(grid, mask)
    flat = mask.ravel()
    interior = np.flatnonzero(flat)
    cross = edges[flat[edges[:, 0]] != flat[edges[:, 1]]]
    boundary = np.unique(np.where(flat[cross[:, 0]], cross[:, 1], cross[:, 0]))
    return SublevelDecomposition(
        level=float(e),
        interior=interior,
        boundary=boundary,
        edges=edges,
        diameter=_diameter(grid, interior, boundary),
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
