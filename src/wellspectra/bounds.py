"""Closed-form spectral-bound constants and right-hand-side evaluators.

These are pure arithmetic: semiclassical counting constants, Sobolev-type
constants (interior, weighted, boundary-trace), and the displayed right-hand
sides they induce for counting functions, heat traces and 2->infinity norms.
Measured left-hand sides come from the other modules; pairing happens in
BoundReports.

The trace-inequality offset ``b``, which the theory leaves unspecified, is a
configuration input; an empirical estimator is provided and clearly flagged
as such.  Every
evaluator here requires dimension n >= 3: the bounds are false in low
dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionTooLow, MissingConstant, SubcriticalExponent
from .eigcount import matvec, pencil_eigs
from .model import PotentialField

SPHERE_AREA = "sphere_area"
BALL_VOLUME = "ball_volume"


def omega(n: int, convention: str = SPHERE_AREA) -> float:
    """The 'volume of the unit sphere' constant under an explicit convention:
    surface area of S^{n-1} in R^n (default) or volume of the unit n-ball.
    The convention is a flag because the source formulas use the symbol both
    ways; keeping it explicit makes the ambiguity auditable."""
    if convention == SPHERE_AREA:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    if convention == BALL_VOLUME:
        return math.pi ** (n / 2.0) / math.gamma(1.0 + n / 2.0)
    raise ValueError(f"unknown sphere-constant convention {convention!r}")


def classical_constant(n: int) -> float:
    """Semiclassical phase-space constant C_n = (4*pi)^(-n/2) / Gamma(1+n/2)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return (4.0 * math.pi) ** (-n / 2.0) / math.gamma(1.0 + n / 2.0)


def _need_dimension(n: int):
    if n < 3:
        raise DimensionTooLow(f"bound evaluators need n >= 3, got {n}")


def sobolev_constant(n: int) -> float:
    """Best constant S_n in the critical embedding H^1_0 -> L^{2n/(n-2)}:
    S_n = (n(n-2)pi)^{-1} * (Gamma(n)/Gamma(n/2))^{2/n}."""
    _need_dimension(n)
    return (math.gamma(n) / math.gamma(n / 2.0)) ** (2.0 / n) / (n * (n - 2) * math.pi)


def weighted_sobolev(n: int, p: float, normWp: float):
    """Exponent and constant of the embedding into L^r of the weighted
    measure W dx, W in L^p: r = (2n/(n-2))*(1 - 1/p), S_r = S_n * |W|_p^{2/r}.

    Requires p > n/2, which is exactly r > 2.
    """
    _need_dimension(n)
    if p <= n / 2.0:
        raise SubcriticalExponent(f"need p > n/2 = {n / 2.0}, got p = {p}")
    if normWp < 0:
        raise ValueError("norm must be nonnegative")
    n_star = 2.0 * n / (n - 2.0)
    r = n_star * (1.0 - 1.0 / p)
    return r, sobolev_constant(n) * normWp ** (2.0 / r)


def _exponent_d(n: int, p: float) -> float:
    r, _ = weighted_sobolev(n, p, 1.0)
    return 2.0 * r / (r - 2.0)


def dirichlet_count_bound(
    n: int, p: float, normW1: float, normWp: float, lam: float
) -> float:
    """Counting-function bound for the pinned weighted form:
    N(lam) <= e^{2d} * S_n^d * |W|_1^2 * |W|_p^{d-2} * lam^d,
    with d = 2r/(r-2) from the weighted embedding chain."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    d = _exponent_d(n, p)
    return math.e ** (2.0 * d) * sobolev_constant(n) ** d * normW1**2 * normWp ** (d - 2.0) * lam**d


def ultracontractivity_and_trace_bounds(d: float, S_r: float, normW1: float, t: float):
    """Right-hand sides of the semigroup decay estimates at time t:
    2->infinity norm <= (e*(d/4)*S_r)^{d/4} * t^{-d/4}
    trace            <= |W|_1^2 * (e*d*S_r)^d * t^{-d}."""
    if t <= 0:
        raise ValueError("needs t > 0")
    two_inf = (math.e * (d / 4.0) * S_r) ** (d / 4.0) * t ** (-d / 4.0)
    trace = normW1**2 * (math.e * d * S_r) ** d * t ** (-d)
    return two_inf, trace


def trace_sobolev_constants(n: int, convention: str = SPHERE_AREA):
    """Boundary-trace embedding constants:
    q = 2(n-1)/(n-2), S = (2/(n-2)) * omega_n^{1/(1-n)}
    under the declared sphere-constant convention."""
    _need_dimension(n)
    q = 2.0 * (n - 1.0) / (n - 2.0)
    S = (2.0 / (n - 2.0)) * omega(n, convention) ** (1.0 / (1.0 - n))
    return q, S


def boundary_bound_constants(
    n: int,
    p: float,
    S: float,
    b: float,
    norm_dmu_dsigma_p: float,
    norm_dnu_dmu_inf: float,
):
    """Constants of the boundary-form Sobolev inequality against the swept
    mass mu: s = q(1 - 1/p), m = 2s/(s-2),
    c1 = S * |dmu/dsigma|_p^{2/s},  c2 = b * |dmu/dsigma|_p^{2/s} * |dnu/dmu|_inf.

    s > 2 (equivalently p > n-1) is required, else the exponent m is
    undefined."""
    q, _ = trace_sobolev_constants(n)
    s = q * (1.0 - 1.0 / p)
    if s <= 2.0:
        raise SubcriticalExponent(
            f"boundary chain needs s > 2 (p > n-1 = {n - 1}); got s = {s}"
        )
    m = 2.0 * s / (s - 2.0)
    scale = norm_dmu_dsigma_p ** (2.0 / s)
    return s, m, S * scale, b * scale * norm_dnu_dmu_inf


def a2r_count_bound(m: float, c1: float, c2: float, normW1: float, gamma: float) -> float:
    """Counting bound for the boundary form against the swept mass:
    N(gamma) <= e^{2m} * |W|_1^2 * (c1*gamma + c2)^m."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return math.e ** (2.0 * m) * normW1**2 * (c1 * gamma + c2) ** m


def a2r_trace_bound(m: float, c1: float, c2: float, normW1: float, t: float) -> float:
    """Companion heat-trace bound for the boundary semigroup:
    trace(t) <= (e*m*c1)^m * |W|_1^2 * e^{(c2/c1) t} * t^{-m}."""
    if t <= 0:
        raise ValueError("needs t > 0")
    return (math.e * m * c1) ** m * normW1**2 * math.exp((c2 / c1) * t) * t ** (-m)


def estimate_b(S0, bm, sigma, q: float, S: float, samples: int, seed: int = 0) -> float:
    """EMPIRICAL: lower estimate of the offset b in the boundary trace
    inequality |phi|_{L^q(sigma)}^2 <= S*phi'S0 phi + b*|phi|_{L^2(nu)}^2,
    maximized over constants, low boundary-pencil eigenvectors and random
    vectors.  A sampled max can only under-estimate the true b."""
    S0 = np.asarray(S0, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    nb = S0.shape[0]
    rng = np.random.default_rng(seed)
    cands = [np.ones(nb)]
    low = pencil_eigs(S0, bm.mu, want_vectors=True)
    for k in range(min(10, low.count)):
        cands.append(low.eigenvectors[:, k])
    extra = max(0, samples - len(cands))
    cands.extend(rng.standard_normal((extra, nb)))
    best = -math.inf
    for phi in cands:
        lq2 = float(np.sum(np.abs(phi) ** q * sigma)) ** (2.0 / q)
        energy = float(matvec(matvec(S0.T, phi), phi))
        den = float(np.sum(phi**2 * bm.nu))
        best = max(best, (lq2 - S * energy) / den)
    return best


def polya_weyl_report(n: int, volume: float, mu: float) -> float:
    """Tiling-domain counting bound (also the leading Weyl term):
    C_n * |domain| * mu^{n/2}."""
    _need_dimension(n)
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if volume <= 0:
        raise ValueError("volume must be positive")
    return classical_constant(n) * volume * mu ** (n / 2.0)


def lieb_bound(V: PotentialField, mu: float, L_n) -> float:
    """Semiclassical bound-state bound L_n * integral of (V - mu)_-^{n/2};
    the prefactor L_n is a configuration input (only L_n > C_n is known)."""
    n = V.grid.dimension
    _need_dimension(n)
    if L_n is None:
        raise MissingConstant("L_n is not set; supply it in configuration")
    return float(L_n) * V.norm(mu, n / 2.0) ** (n / 2.0)


@dataclass(frozen=True)
class BoundConstants:
    """The full constant chain for one (n, p) pair, interior and (optionally)
    boundary, as fed into BoundReports."""

    n: int
    p: float
    normW1: float
    normWp: float
    C_n: float
    S_n: float
    n_star: float
    r: float
    S_r: float
    d: float
    q: float
    S_trace: float
    omega_convention: str
    s: float | None = None
    m: float | None = None
    c1: float | None = None
    c2: float | None = None
    b: float | None = None
    L_n: float | None = None
    extras: dict = field(default_factory=dict)

    @classmethod
    def derive(
        cls,
        n: int,
        p: float,
        normW1: float,
        normWp: float,
        dmu_dsigma_p: float | None = None,
        dnu_dmu_inf: float | None = None,
        b: float | None = None,
        L_n: float | None = None,
        convention: str = SPHERE_AREA,
    ) -> "BoundConstants":
        r, S_r = weighted_sobolev(n, p, normWp)
        q, S_trace = trace_sobolev_constants(n, convention)
        s = m = c1 = c2 = None
        if b is not None and dmu_dsigma_p is not None and dnu_dmu_inf is not None:
            s, m, c1, c2 = boundary_bound_constants(
                n, p, S_trace, b, dmu_dsigma_p, dnu_dmu_inf
            )
        return cls(
            n=n,
            p=p,
            normW1=normW1,
            normWp=normWp,
            C_n=classical_constant(n),
            S_n=sobolev_constant(n),
            n_star=2.0 * n / (n - 2.0),
            r=r,
            S_r=S_r,
            d=2.0 * r / (r - 2.0),
            q=q,
            S_trace=S_trace,
            omega_convention=convention,
            s=s,
            m=m,
            c1=c1,
            c2=c2,
            b=b,
            L_n=L_n,
        )

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "p": self.p,
            "normW1": self.normW1,
            "normWp": self.normWp,
            "C_n": self.C_n,
            "S_n": self.S_n,
            "n_star": self.n_star,
            "r": self.r,
            "S_r": self.S_r,
            "d": self.d,
            "q": self.q,
            "S_trace": self.S_trace,
            "omega_convention": self.omega_convention,
            "s": self.s,
            "m": self.m,
            "c1": self.c1,
            "c2": self.c2,
            "b": self.b,
            "L_n": self.L_n,
        }
        out.update(self.extras)
        return out
