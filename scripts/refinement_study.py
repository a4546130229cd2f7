#!/usr/bin/env python3
"""Refinement study on the 3D ball well: measured counting functions, heat
traces and boundary counts against their closed-form bounds at two grid
resolutions.

The quantity tracked per evaluation point is the signed margin
``measured - bound`` (negative while the bound holds).  Refinement must not
push it upward: a bound that only holds thanks to coarse discretization
would reveal itself here by a rising margin.
"""

import argparse

from wellspectra import a2r, bounds
from wellspectra.assemble import assemble_pencil, classify_nodes
from wellspectra.eigcount import count_below, heat_trace, pencil_eigs
from wellspectra.model import GridSpec, build_potential
from wellspectra.scenario import _nudged

DEPTH, RADIUS, LEVEL, P = 12.0, 1.0, -0.5, 3.0
B_SAMPLES, SEED = 200, 7


def measure(resolution, lams, ts, gammas):
    """The rows of one resolution.  Only what they print is built: the
    level's pencil, its pinned eigenvalues (no eigenvectors), the lam = 0
    Poisson matrix with S(0) and the boundary measure mu_B, and the bound
    constants, with b estimated as a scenario estimates it (200 samples,
    seed 7)."""
    grid = GridSpec(box=((-2.0, 2.0),) * 3, resolution=(resolution,) * 3)
    family = {"name": "ball_well", "center": [0.0, 0.0, 0.0], "radius": RADIUS, "depth": DEPTH}
    V = build_potential(family, grid)
    pencil = assemble_pencil(classify_nodes(V, LEVEL), V, LEVEL)
    spec = pencil_eigs(pencil.K_II, pencil.M_interior)
    P0 = a2r.poisson_matrix(pencil, 0.0)
    S0 = a2r.schur_form(pencil, 0.0, P0)
    bm = a2r.boundary_measures(pencil, P0)
    q, S_trace = bounds.trace_sobolev_constants(3, bounds.SPHERE_AREA)
    b = bounds.estimate_b(S0, bm, pencil.sigma, q, S_trace, B_SAMPLES, seed=SEED)
    dmu_p, _, dnu_dmu_inf = a2r.radon_nikodym_report(bm, P)
    c = bounds.BoundConstants.derive(
        3, P, V.norm(LEVEL, 1.0), V.norm(LEVEL, P),
        dmu_dsigma_p=dmu_p, dnu_dmu_inf=dnu_dmu_inf, b=b,
    )

    rows = []
    for lam in lams:
        lam_used, n_dir = _nudged(
            lambda x: count_below(pencil.K_II, pencil.M_interior, x), lam, "lambda"
        )
        rows.append(("count(lam=%.3g)" % lam, n_dir,
                     bounds.dirichlet_count_bound(3, P, c.normW1, c.normWp, lam_used)))
    for t in ts:
        rows.append(("trace(t=%.3g)" % t, heat_trace(spec, t),
                     bounds.ultracontractivity_and_trace_bounds(c.d, c.S_r, c.normW1, t)[1]))
    for g in gammas:
        g_used, n_g = _nudged(lambda x: count_below(S0, bm.mu, x), g, "gamma")
        rows.append(("boundary(gamma=%.3g)" % g, n_g,
                     bounds.a2r_count_bound(c.m, c.c1, c.c2, c.normW1, g_used)))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--coarse", type=int, default=17)
    ap.add_argument("--fine", type=int, default=25)
    args = ap.parse_args()

    lams = [0.9, 1.8]
    ts = [0.5, 2.0]
    gammas = [1.0, 4.0]
    coarse = measure(args.coarse, lams, ts, gammas)
    fine = measure(args.fine, lams, ts, gammas)

    print(
        f"{'point':>22} {'lhs_c':>10} {'lhs_f':>10} {'rhs_c':>12} {'rhs_f':>12} "
        f"{'margin_c':>12} {'margin_f':>12} safe"
    )
    for (name, lc, rc), (_, lf, rf) in zip(coarse, fine):
        mc, mf = lc - rc, lf - rf
        safe = mc <= 0 and mf <= mc
        print(
            f"{name:>22} {lc:>10.4g} {lf:>10.4g} {rc:>12.5g} {rf:>12.5g} "
            f"{mc:>12.5g} {mf:>12.5g} {'yes' if safe else 'NO'}"
        )


if __name__ == "__main__":
    main()
