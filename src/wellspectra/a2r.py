"""Absorption-to-reflection machinery on the boundary of a sublevel region.

Everything here is exact linear algebra on an assembled pencil: the shifted
harmonic extension (energy minimizer with prescribed boundary trace), the
Poisson matrix whose rows are discrete harmonic measures, the boundary
measures mu_e / nu_e they induce, the Schur-complement boundary form S(lambda),
and the splitting of the counting function

    n_minus(K - lam*M)  =  n_minus((K - lam*M)_II)  +  n_minus(S(lam)),

which holds as an exact integer identity by inertia additivity of Schur
complements.

At each shift (K - lam*M)_II is factored once: the factor that shows lam is
off the pinned spectrum is the one that solves for the Poisson matrix, and
the lam = 0 Poisson matrix P0 can be handed to every consumer of the level.
The boundary count n_minus(S(lam)) still comes from an explicitly formed
S(lam), so the splitting identity is checked, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .errors import OnEigenvalue, ResolventViolation
from .eigcount import Factorization, inertia, pencil_eigs
from .model import AssembledPencil, SpectralSummary

#: relative residual contract for harmonic extensions and form identities
RESIDUAL_TOL = 1e-10


@dataclass
class BoundaryMeasures:
    """Per-boundary-node weights induced by sweeping interior mass to the
    boundary along harmonic measure.

    mu[b] = sum_i M_ii * P0[i, b]   (interior pencil mass swept to b)
    nu[b] = sum_i h^n * P0[i, b]    (plain cell volume swept to b)

    Row-stochasticity of P0 makes the totals exact: sum(mu) equals the total
    interior mass and sum(nu) equals the interior volume.  All entries are
    strictly positive (every boundary node has an interior neighbor).
    """

    mu: np.ndarray
    nu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.nu = np.asarray(self.nu, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        for arr in (self.mu, self.nu, self.sigma):
            arr.setflags(write=False)

    @property
    def dmu_dsigma(self) -> np.ndarray:
        return self.mu / self.sigma

    @property
    def dnu_dsigma(self) -> np.ndarray:
        return self.nu / self.sigma

    @property
    def dnu_dmu(self) -> np.ndarray:
        return self.nu / self.mu


def _pinned_factor(p: AssembledPencil, lam: float) -> Factorization:
    """The one factorization of (K - lam*M)_II; its inertia shows whether
    lam is on the pinned spectrum, and it solves for that shift."""
    return Factorization(p.K_II - lam * sp.diags(p.M_interior))


def _interior_solve(
    p: AssembledPencil, lam: float, rhs: np.ndarray, factor: Factorization | None = None
) -> np.ndarray:
    """Solve (K - lam*M)_II X = rhs after verifying lam is off the pinned
    spectrum (by inertia, so the check is exact up to pivot tolerance).
    ``factor`` is _pinned_factor(p, lam) if the caller already has it."""
    if factor is None:
        factor = _pinned_factor(p, lam)
    n_zero = factor.inertia.n_zero
    if n_zero:
        raise ResolventViolation(
            f"shift {lam!r} lies on the pinned spectrum (n_zero={n_zero})"
        )
    return factor.solve(rhs)


def poisson_matrix(
    p: AssembledPencil, lam: float, factor: Factorization | None = None
) -> np.ndarray:
    """Interior-to-boundary solution operator of the shifted pencil:
    P_lam = -(K - lam*M)_II^{-1} (K - lam*M)_IB, shape (|I|, |B|).

    At lam = 0 each row is the exit distribution of the lattice walk started
    at that interior node (nonnegative, sums to 1): the discrete harmonic
    measure.  ``factor`` is _pinned_factor(p, lam) if the caller has it.
    """
    rhs = -p.K_IB.toarray()
    return _interior_solve(p, lam, rhs, factor)


def harmonic_extension(p: AssembledPencil, lam: float, phi: np.ndarray) -> np.ndarray:
    """Extend boundary values phi into the interior as the minimizer of the
    shifted energy D[u] - lam*|u|_M^2 with trace phi; returns the full local
    vector (interior block first).

    The interior equations hold to RESIDUAL_TOL relative, else the solve is
    rejected as sitting too close to the pinned spectrum.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (p.n_boundary,):
        raise ValueError("phi must have one entry per boundary node")
    rhs = -(p.K_IB @ phi)
    u_int = _interior_solve(p, lam, rhs)
    A_II = p.K_II - lam * sp.diags(p.M_interior)
    res = A_II @ u_int - rhs
    scale = max(float(np.linalg.norm(rhs)), float(np.linalg.norm(A_II @ u_int)), 1e-300)
    if np.linalg.norm(res) > RESIDUAL_TOL * scale:
        raise ResolventViolation(
            f"interior solve at shift {lam!r} is inaccurate "
            f"(relative residual {np.linalg.norm(res) / scale:.2e})"
        )
    return np.concatenate([u_int, phi])


def schur_form(
    p: AssembledPencil, lam: float, P: np.ndarray | None = None
) -> np.ndarray:
    """Boundary energy form at shift lam: the Schur complement
    S(lam) = (K - lam*M)_BB - (K - lam*M)_BI (K - lam*M)_II^{-1} (K - lam*M)_IB,
    returned dense and symmetrized.  ``P`` is poisson_matrix(p, lam) if the
    caller already has it.

    phi' S(lam) phi equals the shifted energy of the harmonic extension of
    phi, so S(0) is positive semidefinite with the constants in its kernel
    (per connected component).
    """
    if P is None:
        P = poisson_matrix(p, lam)
    S = p.K_BB.toarray() + p.K_IB.T @ P
    return (S + S.T) / 2.0


def boundary_measures(
    p: AssembledPencil, P0: np.ndarray | None = None
) -> BoundaryMeasures:
    """Sweep interior pencil mass and interior volume to the boundary along
    harmonic measure (the lam=0 Poisson matrix ``P0``, computed if not
    given)."""
    if P0 is None:
        P0 = poisson_matrix(p, 0.0)
    hn = p.grid.spacing ** p.grid.dimension
    mu = P0.T @ p.M_interior
    nu = hn * P0.sum(axis=0)
    return BoundaryMeasures(mu=mu, nu=nu, sigma=p.sigma)


def a_lambda_norm(dirichlet_spectrum: SpectralSummary, lam: float) -> float:
    """Operator norm of the interior comparison map at shift lam:
    max over pinned eigenvalues mu of |lam * mu / (mu - lam)|.

    g(mu) = lam*mu/(mu-lam) decreases on each side of its pole at lam.  For
    lam > 0, |g| rises towards the pole from below and falls away from it
    above, so the max is at one of the two eigenvalues bracketing lam.  For
    lam < 0 every mu lies above the pole, where g < 0 and |g| rises with mu,
    so the max is at the top of the spectrum.  Only these candidates are
    evaluated.
    """
    mus = dirichlet_spectrum.eigenvalues
    if mus.size == 0:
        raise ValueError("need a nonempty pinned spectrum")
    if mus[0] <= 0:
        raise ValueError("pinned spectrum must be positive")
    if lam == 0.0:
        return 0.0
    if np.min(np.abs(mus - lam)) <= 1e-14 * max(abs(lam), mus[-1]):
        raise OnEigenvalue(f"shift {lam!r} coincides with a pinned eigenvalue")
    if lam < 0:
        cand = mus[-1:]
    else:
        pos = int(np.searchsorted(mus, lam))
        cand = mus[max(pos - 1, 0) : pos + 1]
    return float(np.max(np.abs(lam * cand / (cand - lam))))


def verify_isomorphism(p: AssembledPencil, lam: float, phi: np.ndarray) -> float:
    """Relative residual of the exact relation tying the shifted and
    unshifted extensions of the same trace:

        K_II (u_lam - u_0)_I = lam * (M u_lam)_I.

    Both extensions are computed and the identity is evaluated directly;
    the contract is residual <= RESIDUAL_TOL.
    """
    if lam == 0.0:
        raise ValueError("the comparison needs lam != 0")
    u_lam = harmonic_extension(p, lam, phi)
    u_0 = harmonic_extension(p, 0.0, phi)
    ni = p.n_interior
    lhs = p.K_II @ (u_lam[:ni] - u_0[:ni])
    rhs = lam * p.M_interior * u_lam[:ni]
    scale = max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)), 1e-300)
    return float(np.linalg.norm(lhs - rhs) / scale)


def splitting_counts(p: AssembledPencil, lam: float):
    """Counting functions of the full pencil, the pinned pencil and the
    boundary form at the same shift, plus the exact-identity flag
    N_full == N_dir + n_minus(S(lam)).

    Raises OnEigenvalue if lam sits on the spectrum of any of the three
    objects (the caller perturbs lam and retries).
    """
    full = inertia(p.shifted(lam))
    if full.n_zero:
        raise OnEigenvalue(f"shift {lam!r} lies on the full pencil spectrum")
    factor = _pinned_factor(p, lam)
    pinned = factor.inertia
    if pinned.n_zero:
        raise OnEigenvalue(f"shift {lam!r} lies on the pinned spectrum")
    S = schur_form(p, lam, poisson_matrix(p, lam, factor))
    boundary = inertia(S)
    if boundary.n_zero:
        raise OnEigenvalue(f"shift {lam!r} makes the boundary form singular")
    n_full, n_dir, n_bnd = full.n_minus, pinned.n_minus, boundary.n_minus
    return n_full, n_dir, n_bnd, (n_full == n_dir + n_bnd)


def a2r_spectrum_and_count(S0: np.ndarray, bm: BoundaryMeasures, gamma: float):
    """Steklov-type spectrum of (S(0), diag mu) and the count
    n_minus(S(0) - gamma*diag(mu)).

    For gamma below the smallest generalized eigenvalue the count is zero
    (S(0) is positive semidefinite).
    """
    if np.any(bm.mu <= 0):
        raise ValueError("boundary mass must be strictly positive")
    summary = pencil_eigs(np.asarray(S0, dtype=float), bm.mu)
    shifted = np.asarray(S0, dtype=float) - gamma * np.diag(bm.mu)
    inert = inertia(shifted)
    if inert.n_zero:
        raise OnEigenvalue(f"gamma {gamma!r} lies on the boundary-form spectrum")
    return summary, inert.n_minus


def radon_nikodym_report(bm: BoundaryMeasures, sigma: np.ndarray, p: float):
    """Norms of the boundary density ratios:
    (|dmu/dsigma|_{L^p(sigma)}, |dnu/dsigma|_inf, |dnu/dmu|_inf)."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0:
        raise ValueError("empty boundary")
    dmu = bm.mu / sigma
    lp = float((np.sum(dmu**p * sigma)) ** (1.0 / p))
    return lp, float(np.max(bm.nu / sigma)), float(np.max(bm.nu / bm.mu))


def estimate_poisson_constant(
    p: AssembledPencil, samples: int, seed: int = 0, P0: np.ndarray | None = None
) -> float:
    """EMPIRICAL: smallest c >= 1 with
    c^{-1} * d(x)/|x-y|^n  <=  P0[x,y]/sigma_y  <=  c * d(x)/|x-y|^n
    over `samples` random interior/boundary pairs, where d(x) is the
    distance from x to the nearest boundary node.

    This probes a two-sided kernel comparison that has no rigorous discrete
    counterpart; the value is a sampled estimate, monotone nondecreasing in
    the sample count, and nothing more.  ``P0`` is the lam = 0 Poisson
    matrix, computed if not given.
    """
    if p.grid.dimension < 2:
        raise ValueError("kernel comparison needs dimension >= 2")
    if P0 is None:
        P0 = poisson_matrix(p, 0.0)
    xi = p.grid.node_coords(p.dec.interior)
    yb = p.grid.node_coords(p.dec.boundary)
    dist_to_boundary = cKDTree(yb).query(xi)[0]
    rng = np.random.default_rng(seed)
    ii = rng.integers(0, xi.shape[0], size=samples)
    bb = rng.integers(0, yb.shape[0], size=samples)
    gap = np.linalg.norm(xi[ii] - yb[bb], axis=1)
    ref = dist_to_boundary[ii] / gap ** p.grid.dimension
    hhat = np.maximum(P0[ii, bb], 0.0) / p.sigma[bb]
    ok = hhat > 0
    if not ok.any():
        return 1.0
    ratio = hhat[ok] / ref[ok]
    return float(max(1.0, np.max(ratio), np.max(1.0 / ratio)))
