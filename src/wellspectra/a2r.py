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
Every shift of the pinned block, and every shift of the full pencil, is
factored through the pencil's shift family, at one fill-reducing order, and
held only by the caller that asked for it.  A pinned solve at lam <= 0
checks that K_II is positive definite, also for a pencil that was loaded
or built without ``assemble_pencil``.
The boundary count n_minus(S(lam)) still comes from an explicitly formed
S(lam), so the splitting identity is checked, not assumed.

A level reads its pinned spectrum through one ``PinnedSpectrum``, built
from the pinned eigenvalues, with the eigenvectors X (X^T M_II X = I) when
the caller computed them.  A sweep point needs S(lam) alone, not the
|I| x |B| Poisson matrix.  On the interior,
(K - lam*M)_II^{-1} = X diag(1/(mu - lam)) X^T, and M vanishes on B, so
S(lam) = K_BB - W diag(1/(mu - lam)) W^T with W = K_BI X formed once per
pencil, after which X is let go.  That is two rank-updates (dsyrk) in
SciPy's BLAS per shift and no pinned solve.  Every dense product here runs
in SciPy's BLAS: the rank-updates call dsyrk, and the boundary measures'
P0^T m goes through ``eigcount.matvec``, a dgemv that reads the
Fortran-ordered P0 in place, bit for bit numpy's P0.T @ m.  numpy's matmul
would run in numpy's own OpenBLAS, whose thread pool contends with SciPy's
between SuperLU and LAPACK calls.  N_full and N_dir still come from their own
factorizations, and n_minus(S) from its own Bunch-Kaufman factorization,
so the identity stays an independent check.  Without eigenvectors (2D
levels, P0, single counts) S(lam) comes from the Poisson matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dsyrk

from .errors import OnEigenvalue, ResolventViolation, SingularDirichletBlock
from .eigcount import (
    Factorization,
    inertia,
    matvec,
    mirror_lower,
    strict_count,
    two_infinity_norm,
)
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


def _interior_solve(
    p: AssembledPencil, lam: float, rhs: np.ndarray, factor: Factorization | None = None
) -> np.ndarray:
    """Solve (K - lam*M)_II X = rhs after verifying lam is off the pinned
    spectrum (by inertia, so the check is exact up to pivot tolerance).
    ``factor`` is p.pinned_shifts.factor(lam) if the caller already has it.

    At lam <= 0, K_II + |lam| M_II is positive definite when K_II is, so a
    negative or zero pivot there is SingularDirichletBlock.  This is the
    pencil's one positive-definiteness check (P0 passes through it), read
    off the factor that solves.  Every level of a scenario takes P0 from its
    run of levels, whose K_II are equal (see ``scenario``), so the P0 solve
    of the run's first level is the check for all of them."""
    if factor is None:
        factor = p.pinned_shifts.factor(lam)
    inert = factor.inertia
    if lam <= 0.0 and (inert.n_minus or inert.n_zero):
        raise SingularDirichletBlock(
            f"pinned stiffness block is not positive definite: "
            f"(n_minus, n_zero, n_plus) = {(inert.n_minus, inert.n_zero, inert.n_plus)}"
        )
    if inert.n_zero:
        raise ResolventViolation(
            f"shift {lam!r} lies on the pinned spectrum (n_zero={inert.n_zero})"
        )
    return factor.solve(rhs)


def poisson_matrix(
    p: AssembledPencil, lam: float, factor: Factorization | None = None
) -> np.ndarray:
    """Interior-to-boundary solution operator of the shifted pencil:
    P_lam = -(K - lam*M)_II^{-1} (K - lam*M)_IB, shape (|I|, |B|).

    At lam = 0 each row is the exit distribution of the lattice walk started
    at that interior node (nonnegative, sums to 1): the discrete harmonic
    measure.  ``factor`` is p.pinned_shifts.factor(lam) if the caller has it.
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


#: columns of W = K_BI X formed per sparse product
_COLUMN_BLOCK = 16


class PinnedSpectrum:
    """The one holder of a level's pinned spectrum, built from all |I|
    eigenvalues ``s = pencil_eigs(K_II, M_II)`` and the sweep's time grid
    ``t``.

    ``summary`` holds the eigenvalues alone (the shift grid, a_lambda_norm
    and the heat trace read them).  When ``s`` carries eigenvectors, the
    level's eigenvectors are X = ``scale`` * s.eigenvectors: ``two_infinity``
    holds the semigroup's 2->infinity norms at the times ``t``, and the
    boundary coupling W = K_BI X is formed once, Fortran-ordered, so that
    the BLAS reads it in place; otherwise ``two_infinity`` is None.  X
    itself is never formed: W is made by blocks of columns of s.eigenvectors,
    each scaled, and the norms by blocks of rows, entry for entry as from X.
    A later level of a plateau passes the run's first eigenvectors with
    scale = sqrt(r) (see ``scenario._Run``).  The norms' call checks X
    M_II-orthonormal, unless the caller has ``checked`` it.  Nothing keeps
    the eigenvectors, so the |I|^2 array is freed once the caller lets go
    of ``s``.
    """

    def __init__(
        self,
        p: AssembledPencil,
        s: SpectralSummary,
        t,
        *,
        scale: float = 1.0,
        checked: bool = False,
    ):
        if s.count != p.n_interior:
            raise ValueError("the pinned spectrum needs all |I| eigenvalues")
        self.summary = replace(s, eigenvectors=None)
        self.two_infinity = self._W = self._K_BB = None
        X = s.eigenvectors
        if X is not None:
            self.two_infinity = two_infinity_norm(
                s, p.M_interior, t, scale=scale, check=not checked
            )
            K_BI = p.K_IB.T
            self._W = np.empty((p.n_boundary, X.shape[1]), order="F")
            for start in range(0, X.shape[1], _COLUMN_BLOCK):
                cols = slice(start, start + _COLUMN_BLOCK)
                self._W[:, cols] = K_BI @ (X[:, cols] * scale)
            self._K_BB = p.K_BB.toarray()

    def schur_form(self, lam: float) -> np.ndarray | None:
        """S(lam) = K_BB - W diag(1/(mu - lam)) W^T, dense, Fortran-ordered
        and exactly symmetric, or None when the spectrum came without
        eigenvectors: the eigenvalues below lam enter through one dsyrk and
        those above through another, each on W's columns scaled by
        |mu - lam|^(-1/2), and the lower triangle they form is mirrored in
        place.  A shift equal to a pinned eigenvalue is OnEigenvalue."""
        if self._W is None:
            return None
        mu, W = self.summary.eigenvalues, self._W
        below = int(np.searchsorted(mu, lam))
        if below < mu.size and mu[below] == lam:
            raise OnEigenvalue(f"shift {lam!r} coincides with a pinned eigenvalue")
        scale = 1.0 / np.sqrt(np.abs(mu - lam))
        S = np.array(self._K_BB, order="F")
        for alpha, cols in ((-1.0, slice(below, mu.size)), (1.0, slice(0, below))):
            if cols.start < cols.stop:
                S = dsyrk(alpha, W[:, cols] * scale[cols], beta=1.0, c=S, lower=1, overwrite_c=1)
        mirror_lower(S)
        return S


def boundary_measures(
    p: AssembledPencil, P0: np.ndarray | None = None
) -> BoundaryMeasures:
    """Sweep interior pencil mass and interior volume to the boundary along
    harmonic measure (the lam=0 Poisson matrix ``P0``, computed if not
    given)."""
    if P0 is None:
        P0 = poisson_matrix(p, 0.0)
    hn = p.grid.spacing ** p.grid.dimension
    mu = matvec(P0.T, p.M_interior)
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


def splitting_counts(
    p: AssembledPencil, lam: float, spectrum: PinnedSpectrum | None = None
):
    """Counting functions of the full pencil, the pinned pencil and the
    boundary form at the same shift, plus the exact-identity flag
    N_full == N_dir + n_minus(S(lam)).

    N_full and N_dir are read off factorizations of their own.  S(lam) is
    formed from ``spectrum``, the pencil's PinnedSpectrum, when it holds
    eigenvectors, and otherwise from the Poisson matrix solved with the
    pinned factor; its count comes from its own Bunch-Kaufman factor,
    which overwrites it.
    Raises OnEigenvalue if lam sits on the spectrum of any of the three
    objects (the caller perturbs lam and retries).
    """
    n_full = strict_count(p.full_shifts.factor(lam).inertia, "full pencil")
    factor = p.pinned_shifts.factor(lam)
    n_dir = strict_count(factor.inertia, "pinned")
    S = None if spectrum is None else spectrum.schur_form(lam)
    if S is None:
        # exactly symmetric, so its transpose, Fortran-ordered, is S itself
        S = schur_form(p, lam, poisson_matrix(p, lam, factor)).T
    n_bnd = strict_count(inertia(S, overwrite_a=True), "boundary form")
    return n_full, n_dir, n_bnd, (n_full == n_dir + n_bnd)


def radon_nikodym_report(bm: BoundaryMeasures, p: float):
    """Norms of the boundary density ratios:
    (|dmu/dsigma|_{L^p(sigma)}, |dnu/dsigma|_inf, |dnu/dmu|_inf)."""
    if bm.sigma.size == 0:
        raise ValueError("empty boundary")
    lp = float((np.sum(bm.dmu_dsigma**p * bm.sigma)) ** (1.0 / p))
    return lp, float(np.max(bm.dnu_dsigma)), float(np.max(bm.dnu_dmu))


def estimate_poisson_constant(p: AssembledPencil, P0: np.ndarray | None = None) -> float:
    """Exact discrete kernel constant: the smallest c >= 1 with
    c^{-1} * d(x)/|x-y|^n  <=  P0[x,y]/sigma_y  <=  c * d(x)/|x-y|^n
    over every interior/boundary pair with P0[x, y] > 0, where d(x) is the
    distance from x to the nearest boundary node.  Pairs in different
    components (P0[x, y] = 0) compare nothing and are skipped.

    The ratio is formed in place in one |I| x |B| array of the distances,
    whose row minima are d(x).  ``P0`` is the lam = 0 Poisson matrix,
    computed if not given.  The name predates the exhaustive maximum and is
    kept, since callers (the benchmark's tracer among them) look it up.
    """
    n = p.grid.dimension
    if n < 2:
        raise ValueError("kernel comparison needs dimension >= 2")
    if P0 is None:
        P0 = poisson_matrix(p, 0.0)
    xi = p.grid.node_coords(p.dec.interior)
    yb = p.grid.node_coords(p.dec.boundary)
    ratio = p.grid.squared_distances(xi, yb, np.empty((len(xi), len(yb))))
    d = np.sqrt(ratio, out=ratio).min(axis=1, keepdims=True)
    ratio **= n
    ratio *= P0
    ratio /= d
    ratio /= p.sigma
    positive = P0 > 0
    high = ratio.max(where=positive, initial=1.0)
    low = ratio.min(where=positive, initial=1.0)
    return float(max(high, 1.0 / low))
