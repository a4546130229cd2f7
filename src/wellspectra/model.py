"""Domain types shared by every module: grids, potentials, sublevel
decompositions, assembled pencils, inertia triples, spectral summaries and
bound reports.

All types are immutable after construction.  One document is stored: the
assembled pencil, with its grid and decomposition nested, round-trips
through ``AssembledPencil.to_dict`` / ``from_dict`` (schema in
:mod:`wellspectra.cli`).  ``BoundReport.to_dict`` and ``GridSpec.to_dict``
also feed the scenario report JSON.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import UnknownFamily

DEFAULT_NODE_CAP = 200_000

# relative tolerance for "all axis spacings equal"
_SPACING_RTOL = 1e-9


@dataclass
class GridSpec:
    """Uniform node-centered lattice on a rectangular box.

    Parameters
    ----------
    box : sequence of (lo, hi) pairs, one per axis
    resolution : sequence of node counts per axis (>= 3)
    node_cap : maximum total node count (desk scale guard)
    """

    box: tuple
    resolution: tuple
    node_cap: int = DEFAULT_NODE_CAP

    def __post_init__(self):
        self.box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        self.resolution = tuple(int(r) for r in self.resolution)
        n = len(self.box)
        if n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
        if len(self.resolution) != n:
            raise ValueError("box and resolution must have the same length")
        if any(r < 3 for r in self.resolution):
            raise ValueError("resolution must be >= 3 per axis")
        if any(hi <= lo for lo, hi in self.box):
            raise ValueError("box intervals must have positive length")
        spacings = [(hi - lo) / (r - 1) for (lo, hi), r in zip(self.box, self.resolution)]
        h0 = spacings[0]
        if any(abs(h - h0) > _SPACING_RTOL * h0 for h in spacings):
            raise ValueError(f"grid must be isotropic; axis spacings {spacings} differ")
        total = int(np.prod(self.resolution))
        if total > self.node_cap:
            raise ValueError(f"grid has {total} nodes, exceeding the cap {self.node_cap}")

    @property
    def dimension(self) -> int:
        return len(self.box)

    @property
    def shape(self) -> tuple:
        return self.resolution

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.resolution))

    @property
    def spacing(self) -> float:
        lo, hi = self.box[0]
        return (hi - lo) / (self.resolution[0] - 1)

    def axes(self) -> list:
        """Per-axis node coordinate arrays."""
        return [np.linspace(lo, hi, r) for (lo, hi), r in zip(self.box, self.resolution)]

    def node_coords(self, indices=None) -> np.ndarray:
        """Coordinates of the given linear node indices, shape (k, dimension).

        With ``indices=None`` returns all nodes in linear (C) order.
        """
        if indices is None:
            indices = np.arange(self.num_nodes)
        multi = np.unravel_index(np.asarray(indices, dtype=int), self.shape)
        return np.stack([ax[i] for ax, i in zip(self.axes(), multi)], axis=-1)

    @staticmethod
    def squared_distances(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write |a_i - b_j|^2 into ``out[i, j]`` and return ``out``, summed
        coordinate by coordinate in 64-row blocks as SciPy's ``cdist`` sums,
        so ``np.sqrt(out)`` equals its Euclidean distances bit for bit."""
        diff = np.empty((min(64, len(a)), len(b)))
        for start in range(0, len(a), 64):
            block = out[start : start + 64]
            block.fill(0.0)
            for ai, bi in zip(a[start : start + 64].T, b.T):
                d = np.subtract.outer(ai, bi, out=diff[: len(block)])
                block += np.multiply(d, d, out=d)
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "grid",
            "box": [list(b) for b in self.box],
            "resolution": list(self.resolution),
            "node_cap": self.node_cap,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        return cls(
            box=tuple(tuple(b) for b in d["box"]),
            resolution=tuple(d["resolution"]),
            node_cap=d.get("node_cap", DEFAULT_NODE_CAP),
        )


@dataclass
class PotentialField:
    """Potential sampled at grid nodes, with cached sublevel norms.

    ``norm(e, p)`` returns the lattice quadrature of ``((V - e)_-)^p``:
    ``(sum_i ((V(x_i) - e)_-)^p * h^n)^(1/p)``.
    """

    grid: GridSpec
    values: np.ndarray
    family: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(self.grid.shape)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("potential values must be finite at every node")
        self.values.setflags(write=False)
        self._norm_cache = {}

    def negative_part(self, e: float) -> np.ndarray:
        """(V - e)_- sampled at every node (nonnegative array)."""
        return np.maximum(e - self.values, 0.0)

    def norm(self, e: float, p: float) -> float:
        """Lattice L^p norm of (V - e)_- over the box."""
        key = (float(e), float(p))
        if key not in self._norm_cache:
            w = self.negative_part(e)
            hn = self.grid.spacing ** self.grid.dimension
            self._norm_cache[key] = float((np.sum(w ** p) * hn) ** (1.0 / p))
        return self._norm_cache[key]



def _radial2(grid: GridSpec, center) -> np.ndarray:
    center = np.asarray(center, dtype=float)
    if center.shape != (grid.dimension,):
        raise ValueError("center must have one coordinate per axis")
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    r2 = np.zeros(grid.shape)
    for ax, m in enumerate(mesh):
        r2 += (m - center[ax]) ** 2
    return r2


def _check_support_inside(grid: GridSpec, center, extent: float, name: str):
    for ax, (lo, hi) in enumerate(grid.box):
        if center[ax] - extent < lo or center[ax] + extent > hi:
            warnings.warn(f"{name} support reaches the box edge; truncation is uncontrolled")
            return


def _ball_well(grid, center, radius, depth):
    if depth <= 0:
        raise ValueError("well depth must be positive")
    _check_support_inside(grid, np.asarray(center, float), float(radius), "ball_well")
    return np.where(_radial2(grid, center) < float(radius) ** 2, -float(depth), 0.0)


def _gaussian_well(grid, center, width, depth):
    if depth <= 0 or width <= 0:
        raise ValueError("gaussian well needs positive width and depth")
    _check_support_inside(grid, np.asarray(center, float), 3.0 * float(width), "gaussian_well")
    return -float(depth) * np.exp(-_radial2(grid, center) / (2.0 * float(width) ** 2))


def _band_limited_random(grid, seed, cutoff, amplitude):
    """Zero-at-edge random field: clipped band-limited cosine sum times a
    sine-squared envelope.  Deterministic in the seed."""
    cutoff = int(cutoff)
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    rng = np.random.default_rng(int(seed))
    n = grid.dimension
    ks = [k for k in np.ndindex(*((cutoff + 1,) * n)) if any(k)]
    # unit coordinates in [0, 1] per axis
    unit = [
        (ax - lo) / (hi - lo)
        for ax, (lo, hi) in zip(np.meshgrid(*grid.axes(), indexing="ij"), grid.box)
    ]
    raw = np.zeros(grid.shape)
    for k in ks:
        c = rng.standard_normal()
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = np.zeros(grid.shape) + phase
        for ax in range(n):
            arg = arg + np.pi * k[ax] * unit[ax]
        raw += c * np.cos(arg)
    raw *= float(amplitude) / np.sqrt(len(ks))
    envelope = np.ones(grid.shape)
    for u in unit:
        envelope = envelope * np.sin(np.pi * u) ** 2
    return envelope * np.minimum(raw, 0.0)


def build_potential(family: dict, grid: GridSpec) -> PotentialField:
    """Sample an analytic potential family at the grid nodes.

    Families: ``ball_well(center, radius, depth)``,
    ``gaussian_well(center, width, depth)``, ``multi_well(wells=[...])``,
    ``band_limited_random(seed, cutoff, amplitude)``.  All produce V <= 0
    decaying toward the box edge (a warning is emitted if a well's support
    reaches the edge).
    """
    name = family.get("name")
    if name == "ball_well":
        vals = _ball_well(grid, family["center"], family["radius"], family["depth"])
    elif name == "gaussian_well":
        vals = _gaussian_well(grid, family["center"], family["width"], family["depth"])
    elif name == "multi_well":
        wells = family["wells"]
        if not wells:
            raise ValueError("multi_well needs at least one component")
        vals = np.zeros(grid.shape)
        for sub in wells:
            vals = vals + build_potential(sub, grid).values
    elif name == "band_limited_random":
        vals = _band_limited_random(
            grid, family["seed"], family["cutoff"], family["amplitude"]
        )
    else:
        raise UnknownFamily(f"unknown potential family {name!r}")
    return PotentialField(grid=grid, values=vals, family=dict(family))


@dataclass
class SublevelDecomposition:
    """Node classification for one energy level.

    ``interior`` holds linear indices with V < e, ``boundary`` the exterior
    grid neighbors of the interior, ``edges`` every lattice edge with at
    least one interior endpoint (as (u, v) index pairs, u < v),
    ``components`` the connected components of the interior.
    """

    level: float
    interior: np.ndarray
    boundary: np.ndarray
    edges: np.ndarray
    components: list
    diameter: float

    def __post_init__(self):
        self.interior = np.asarray(self.interior, dtype=int)
        self.boundary = np.asarray(self.boundary, dtype=int)
        self.edges = np.asarray(self.edges, dtype=int).reshape(-1, 2)
        self.components = [np.asarray(c, dtype=int) for c in self.components]
        self.interior.setflags(write=False)
        self.boundary.setflags(write=False)
        self.edges.setflags(write=False)

    @property
    def num_interior(self) -> int:
        return self.interior.size

    @property
    def num_boundary(self) -> int:
        return self.boundary.size

    def to_dict(self) -> dict:
        return {
            "kind": "decomposition",
            "level": self.level,
            "interior": self.interior.tolist(),
            "boundary": self.boundary.tolist(),
            "edges": self.edges.tolist(),
            "components": [c.tolist() for c in self.components],
            "diameter": self.diameter,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SublevelDecomposition":
        return cls(
            level=d["level"],
            interior=np.array(d["interior"], dtype=int),
            boundary=np.array(d["boundary"], dtype=int),
            edges=np.array(d["edges"], dtype=int).reshape(-1, 2),
            components=[np.array(c, dtype=int) for c in d["components"]],
            diameter=d["diameter"],
        )


@dataclass
class AssembledPencil:
    """Stiffness/mass/surface data for one sublevel decomposition.

    Local ordering is interior nodes first (sorted by grid index), then
    boundary nodes.  ``K`` is the h^(n-2)-scaled graph Laplacian over the
    decomposition edges (CSR), ``M`` the diagonal mass vector
    (``(V - e)_- * h^n`` on interior, zero on boundary), ``sigma`` the
    per-boundary-node surface weights (#interior neighbors * h^(n-1)).
    ``K_II``, ``K_IB`` and ``K_BB`` are sliced from K once per pencil.
    ``pinned_shifts`` and ``full_shifts`` are the eigcount.ShiftFamily of
    (K - lam*M)_II and of K - lam*M, built on first use and ordered by
    their own first factor.  A pencil holds no factorization.
    """

    grid: GridSpec
    dec: SublevelDecomposition
    K: sp.csr_matrix
    M: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.M.setflags(write=False)
        self.sigma.setflags(write=False)

    @property
    def level(self) -> float:
        return self.dec.level

    @property
    def n_interior(self) -> int:
        return self.dec.num_interior

    @property
    def n_boundary(self) -> int:
        return self.dec.num_boundary

    @property
    def order(self) -> int:
        return self.n_interior + self.n_boundary

    @property
    def nodes(self) -> np.ndarray:
        """Grid linear indices in local order (interior then boundary)."""
        return np.concatenate([self.dec.interior, self.dec.boundary])

    @cached_property
    def K_II(self) -> sp.csr_matrix:
        ni = self.n_interior
        return self.K[:ni, :ni]

    @cached_property
    def K_IB(self) -> sp.csr_matrix:
        ni = self.n_interior
        return self.K[:ni, ni:]

    @cached_property
    def K_BB(self) -> sp.csr_matrix:
        ni = self.n_interior
        return self.K[ni:, ni:]

    @property
    def M_interior(self) -> np.ndarray:
        return self.M[: self.n_interior]

    @cached_property
    def pinned_shifts(self):
        from .eigcount import ShiftFamily

        return ShiftFamily(self.K_II, self.M_interior)

    @cached_property
    def full_shifts(self):
        from .eigcount import ShiftFamily

        return ShiftFamily(self.K, self.M)

    def to_dict(self) -> dict:
        coo = self.K.tocoo()
        return {
            "kind": "assembled_pencil",
            "grid": self.grid.to_dict(),
            "dec": self.dec.to_dict(),
            "K": {
                "shape": list(coo.shape),
                "row": coo.row.tolist(),
                "col": coo.col.tolist(),
                "data": coo.data.tolist(),
            },
            "M": self.M.tolist(),
            "sigma": self.sigma.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AssembledPencil":
        k = d["K"]
        K = sp.coo_matrix(
            (k["data"], (k["row"], k["col"])), shape=tuple(k["shape"])
        ).tocsr()
        return cls(
            grid=GridSpec.from_dict(d["grid"]),
            dec=SublevelDecomposition.from_dict(d["dec"]),
            K=K,
            M=np.array(d["M"], dtype=float),
            sigma=np.array(d["sigma"], dtype=float),
        )


@dataclass(frozen=True)
class Inertia:
    """Signature triple (n_minus, n_zero, n_plus) of a symmetric matrix."""

    n_minus: int
    n_zero: int
    n_plus: int

    @property
    def order(self) -> int:
        return self.n_minus + self.n_zero + self.n_plus



@dataclass
class SpectralSummary:
    """Sorted finite generalized eigenvalues of a pencil, optionally with
    weight-orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        self.eigenvalues.setflags(write=False)
        if self.eigenvectors is not None:
            self.eigenvectors = np.asarray(self.eigenvectors, dtype=float)
            if self.eigenvectors.shape[1] != self.eigenvalues.size:
                raise ValueError("one eigenvector column per eigenvalue")
            self.eigenvectors.setflags(write=False)

    @property
    def count(self) -> int:
        return self.eigenvalues.size



#: default relative tolerance for real-valued bound verdicts
VERDICT_RTOL = 1e-9

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"


@dataclass
class BoundReport:
    """One named bound: inputs, analytic right-hand side, measured left-hand
    side, and the verdict ``holds`` iff LHS <= RHS (within VERDICT_RTOL for
    real-valued LHS)."""

    name: str
    constants: dict
    point: dict
    rhs: float
    lhs: float | int | None
    verdict: str = ""
    notes: str = ""

    def __post_init__(self):
        if not self.verdict:
            self.verdict = self._judge()
        if self.verdict not in (HOLDS, VIOLATED, NOT_APPLICABLE):
            raise ValueError(f"bad verdict {self.verdict!r}")

    def _judge(self) -> str:
        if self.lhs is None or self.rhs is None or not np.isfinite(self.rhs):
            return NOT_APPLICABLE
        if isinstance(self.lhs, (int, np.integer)):
            return HOLDS if self.lhs <= self.rhs else VIOLATED
        slack = VERDICT_RTOL * max(abs(self.lhs), abs(self.rhs), 1.0)
        return HOLDS if self.lhs <= self.rhs + slack else VIOLATED

    def to_dict(self) -> dict:
        lhs = self.lhs
        if isinstance(lhs, np.integer):
            lhs = int(lhs)
        elif isinstance(lhs, np.floating):
            lhs = float(lhs)
        return {
            "kind": "bound_report",
            "name": self.name,
            "constants": self.constants,
            "point": self.point,
            "rhs": self.rhs,
            "lhs": lhs,
            "verdict": self.verdict,
            "notes": self.notes,
        }
