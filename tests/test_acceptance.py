"""End-to-end acceptance suite.

Nine criteria, one test each, every test printing a single PASS/FAIL line
to the real terminal (capture temporarily disabled) so the verdicts are
visible in any pytest run.  Tolerances and budgets are stated inline.
"""

import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from wellspectra import a2r, bounds
from wellspectra.assemble import assemble_pencil, classify_nodes
from wellspectra.eigcount import (
    count_below,
    heat_trace,
    pencil_eigs,
    two_infinity_norm,
)
from wellspectra.errors import (
    DetachedComponent,
    EmptySublevel,
)
from wellspectra.model import GridSpec, build_potential
from wellspectra.scenario import _nudged, run_scenario
from wellspectra.schrodinger import box_exact_count, reduction_check

ROOT = Path(__file__).resolve().parents[1]

RESIDUAL_TOL = 1e-10


@pytest.fixture
def report(capsys):
    """One visible verdict line per criterion, shown even for passing tests."""

    def _report(ok: bool, text: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'}: {text}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


# ------------------------------------------------------------------ shared


def _random_family(rng, dim):
    kind = rng.choice(["ball", "gauss", "multi", "random"])
    center = rng.uniform(-0.4, 0.4, size=dim).tolist()
    if kind == "ball":
        return {
            "name": "ball_well",
            "center": center,
            "radius": float(rng.uniform(0.6, 1.1)),
            "depth": float(rng.uniform(3.0, 20.0)),
        }
    if kind == "gauss":
        return {
            "name": "gaussian_well",
            "center": center,
            "width": float(rng.uniform(0.3, 0.6)),
            "depth": float(rng.uniform(2.0, 12.0)),
        }
    if kind == "multi":
        return {
            "name": "multi_well",
            "wells": [
                {
                    "name": "gaussian_well",
                    "center": rng.uniform(-0.8, 0.8, size=dim).tolist(),
                    "width": float(rng.uniform(0.25, 0.45)),
                    "depth": float(rng.uniform(2.0, 8.0)),
                }
                for _ in range(2)
            ],
        }
    return {
        "name": "band_limited_random",
        "seed": int(rng.integers(0, 2**31)),
        "cutoff": int(rng.integers(2, 5)),
        "amplitude": float(rng.uniform(3.0, 8.0)),
    }


@pytest.fixture(scope="module")
def scenario_batch():
    """One hundred randomized wells (2D and 3D alternating), each carrying a
    shift grid inside the resolvent set of its pinned problem."""
    started = time.perf_counter()
    rng = np.random.default_rng(20260814)
    scenarios = []
    while len(scenarios) < 100:
        dim = 2 if len(scenarios) % 2 == 0 else 3
        res = int(rng.choice([17, 21, 25] if dim == 2 else [9, 11, 13]))
        grid = GridSpec(box=((-2.0, 2.0),) * dim, resolution=(res,) * dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            V = build_potential(_random_family(rng, dim), grid)
        vmin = float(V.values.min())
        if vmin >= -1e-9:
            continue
        e = float(rng.uniform(0.15, 0.6)) * vmin
        try:
            dec = classify_nodes(V, e)
            pencil = assemble_pencil(dec, V, e)
        except (EmptySublevel, DetachedComponent):
            continue
        dir_spec = pencil_eigs(pencil.K_II, pencil.M_interior)
        mus = dir_spec.eigenvalues
        lam_grid = np.geomspace(0.4 * mus[0], 1.02 * mus[min(10, mus.size) - 1], 4)
        scenarios.append(
            {
                "pencil": pencil,
                "dir_spec": dir_spec,
                "bm": a2r.boundary_measures(pencil),
                "S0": a2r.schur_form(pencil, 0.0),
                "P0": a2r.poisson_matrix(pencil, 0.0),
                "lam_grid": lam_grid,
                "dim": dim,
            }
        )
    return {"scenarios": scenarios, "build_seconds": time.perf_counter() - started}


def _boundary_count(S0, mu, gamma0):
    return _nudged(lambda g: count_below(S0, mu, g), gamma0, "gamma")


def test_splitting_identity_exact_on_randomized_scenarios(scenario_batch, report):
    started = time.perf_counter()
    scenarios = scenario_batch["scenarios"]
    checked = failed = 0
    for sc in scenarios:
        for lam0 in sc["lam_grid"]:
            _, (n_full, n_dir, n_bnd, ok) = _nudged(
                lambda x: a2r.splitting_counts(sc["pencil"], x), float(lam0), "lambda"
            )
            checked += 1
            if not ok:
                failed += 1
    elapsed = time.perf_counter() - started + scenario_batch["build_seconds"]
    report(
        failed == 0 and len(scenarios) >= 100 and elapsed <= 300.0,
        f"splitting identity N_full = N_dir + n-(S(lam)) exact on "
        f"{checked - failed}/{checked} shifts across {len(scenarios)} "
        f"randomized scenarios in {elapsed:.1f}s (budget 300s)",
    )


def test_counting_inequality_on_randomized_scenarios(scenario_batch, report):
    checked = failed = 0
    for sc in scenario_batch["scenarios"]:
        for lam0 in sc["lam_grid"]:

            def probe(lam):
                n_full, n_dir, _, _ = a2r.splitting_counts(sc["pencil"], lam)
                return n_full, n_dir, a2r.a_lambda_norm(sc["dir_spec"], lam)

            _, (n_full, n_dir, gamma0) = _nudged(probe, float(lam0), "lambda")
            _, n_gamma = _boundary_count(sc["S0"], sc["bm"].mu, gamma0)
            checked += 1
            if n_full > n_dir + n_gamma:
                failed += 1
    report(
        failed == 0 and checked >= 100,
        f"counting inequality N_full <= N_dir + N_boundary(gamma) held on "
        f"{checked - failed}/{checked} shifts",
    )


def test_operator_reduction_across_level_sweep(report):
    grid = GridSpec(box=((-2.0, 2.0),) * 3, resolution=(17,) * 3)
    V = build_potential(
        {"name": "ball_well", "center": [0.0, 0.0, 0.0], "radius": 1.0, "depth": 12.0},
        grid,
    )
    levels = np.linspace(-11.0, -0.5, 10)
    bad = []
    for e in levels:
        _, (n_op, n_w, ok) = _nudged(
            lambda lam: reduction_check(V, float(e), lam), 1.0, "lambda"
        )
        if not ok:
            bad.append((float(e), n_op, n_w))
    report(
        not bad,
        f"operator count <= weighted full count at shift 1 on "
        f"{len(levels) - len(bad)}/{len(levels)} levels of the 3D benchmark well",
    )


def test_extension_identities_on_desk_scale_pencils(report):
    cases = [
        (2, 81, {"name": "gaussian_well", "center": [0.0, 0.0], "width": 0.6, "depth": 4.0}, -0.8),
        (3, 17, {"name": "ball_well", "center": [0.0, 0.0, 0.0], "radius": 1.0, "depth": 12.0}, -0.5),
    ]
    rng = np.random.default_rng(42)
    worst_iso = worst_form = 0.0
    max_order = 0
    for dim, res, family, e in cases:
        grid = GridSpec(box=((-2.0, 2.0),) * dim, resolution=(res,) * dim)
        V = build_potential(family, grid)
        dec = classify_nodes(V, e)
        p = assemble_pencil(dec, V, e)
        assert p.order <= 2000
        max_order = max(max_order, p.order)
        mus = pencil_eigs(p.K_II, p.M_interior).eigenvalues
        for lam in (0.5 * mus[0], 0.5 * (mus[0] + mus[1])):
            # shifted-vs-unshifted extension comparison, 5 random traces
            for _ in range(5):
                phi = rng.normal(size=p.n_boundary)
                worst_iso = max(worst_iso, a2r.verify_isomorphism(p, lam, phi))
            # boundary-form difference identity S(0)-S(lam) = lam*P_lam' M P_0
            S0 = a2r.schur_form(p, 0.0)
            Sl = a2r.schur_form(p, lam)
            P0 = a2r.poisson_matrix(p, 0.0)
            Pl = a2r.poisson_matrix(p, lam)
            diff = S0 - Sl
            rhs = lam * Pl.T @ (p.M_interior[:, None] * P0)
            num = np.linalg.norm(diff - (rhs + rhs.T) / 2.0)
            worst_form = max(worst_form, num / max(np.linalg.norm(diff), 1e-300))
    report(
        worst_iso <= RESIDUAL_TOL and worst_form <= RESIDUAL_TOL,
        f"extension and boundary-form identities on pencils up to order "
        f"{max_order}: residuals {worst_iso:.2e} / {worst_form:.2e} "
        f"(tolerance {RESIDUAL_TOL:.0e})",
    )


def test_contraction_and_lower_bound_on_random_vectors(scenario_batch, report):
    rng = np.random.default_rng(7)
    checked = failed = 0
    for sc in scenario_batch["scenarios"]:
        p = sc["pencil"]
        gap = np.diag(sc["bm"].mu) - sc["P0"].T @ (p.M_interior[:, None] * sc["P0"])
        lam = float(sc["lam_grid"][len(sc["lam_grid"]) // 2])
        lam, _ = _nudged(lambda x: a2r.splitting_counts(p, x), lam, "lambda")
        S0, Sl = sc["S0"], a2r.schur_form(p, lam)
        a = a2r.a_lambda_norm(sc["dir_spec"], lam)
        mu = sc["bm"].mu
        Phi = rng.normal(size=(p.n_boundary, 100))
        quad_mu = np.einsum("ij,ij->j", Phi, mu[:, None] * Phi)
        quad_S0 = np.einsum("ij,ij->j", Phi, S0 @ Phi)
        quad_gap = np.einsum("ij,ij->j", Phi, gap @ Phi)
        quad_Sl = np.einsum("ij,ij->j", Phi, Sl @ Phi)
        contraction_ok = quad_gap >= -1e-10 * quad_mu
        # rounding cushion scaled by the terms actually subtracted
        tol = 1e-9 * (np.abs(quad_S0) + a * quad_mu + 1.0)
        lower_ok = quad_Sl >= quad_S0 - a * quad_mu - tol
        checked += Phi.shape[1]
        failed += int(np.sum(~(contraction_ok & lower_ok)))
    report(
        failed == 0,
        f"mass contraction and shifted-energy lower bound held on "
        f"{checked - failed}/{checked} random boundary vectors "
        f"(100 per scenario)",
    )


def test_box_oracle_and_weyl_ratio(report):
    started = time.perf_counter()
    exact7 = box_exact_count(3, 1.0, 100.0)
    mus = np.geomspace(1.0, 1e4, 40)
    polya_ok = all(
        box_exact_count(3, 1.0, float(mu)) <= bounds.polya_weyl_report(3, 1.0, float(mu))
        for mu in mus
    )
    ratio = box_exact_count(3, 1.0, 1e4) / bounds.polya_weyl_report(3, 1.0, 1e4)
    elapsed = time.perf_counter() - started
    report(
        exact7 == 7 and polya_ok and 0.85 <= ratio <= 1.0 and elapsed <= 30.0,
        f"cube oracle: count(mu=100) = {exact7} (expect 7), counting bound held on "
        f"40 log-spaced shifts to 1e4, leading-term ratio {ratio:.4f} in "
        f"[0.85, 1.0], {elapsed:.1f}s (budget 30s)",
    )


def _benchmark_margins(res):
    """Measured-vs-bound margins (measured - bound; <= 0 means the bound
    holds) for the 3D benchmark well at one resolution."""
    grid = GridSpec(box=((-2.0, 2.0),) * 3, resolution=(res,) * 3)
    V = build_potential(
        {"name": "ball_well", "center": [0.0, 0.0, 0.0], "radius": 1.0, "depth": 12.0},
        grid,
    )
    e = -0.5
    dec = classify_nodes(V, e)
    p = assemble_pencil(dec, V, e)
    spec = pencil_eigs(p.K_II, p.M_interior, want_vectors=True)
    bm = a2r.boundary_measures(p)
    S0 = a2r.schur_form(p, 0.0)
    pconst = 3.0
    dmu_p, _, dnu_dmu_inf = a2r.radon_nikodym_report(bm, pconst)
    q, S_trace = bounds.trace_sobolev_constants(3)
    b = bounds.estimate_b(S0, bm, p.sigma, q, S_trace, samples=200, seed=7)
    consts = bounds.BoundConstants.derive(
        3,
        pconst,
        V.norm(e, 1.0),
        V.norm(e, pconst),
        dmu_dsigma_p=dmu_p,
        dnu_dmu_inf=dnu_dmu_inf,
        b=b,
    )
    margins = {}
    for lam in (0.9, 1.8):
        n_dir = int((spec.eigenvalues < lam).sum())
        rhs = bounds.dirichlet_count_bound(3, pconst, consts.normW1, consts.normWp, lam)
        margins[("count", lam)] = n_dir - rhs
    for t in (0.5, 2.0):
        rhs2, rhs_tr = bounds.ultracontractivity_and_trace_bounds(
            consts.d, consts.S_r, consts.normW1, t
        )
        margins[("trace", t)] = heat_trace(spec, t) - rhs_tr
        margins[("two_inf", t)] = two_infinity_norm(spec, p.M_interior, t) - rhs2
    for gamma in (1.0, 4.0):
        _, n_g = _boundary_count(S0, bm.mu, gamma)
        rhs = bounds.a2r_count_bound(consts.m, consts.c1, consts.c2, consts.normW1, gamma)
        margins[("boundary", gamma)] = n_g - rhs
    return margins


def test_bound_suite_margins_tighten_under_refinement(report):
    coarse = _benchmark_margins(17)
    fine = _benchmark_margins(25)
    bad = []
    for key in coarse:
        if not (fine[key] <= coarse[key] <= 0.0):
            bad.append((key, coarse[key], fine[key]))
    report(
        not bad,
        f"bound suite on the 3D benchmark at 17^3 and 25^3: all "
        f"{len(coarse)} measured quantities under their bounds, signed "
        f"margins nonincreasing under refinement"
        + (f"; offenders: {bad}" if bad else ""),
    )


def test_inertia_counts_match_dense_oracle_on_random_pencils(report):
    rng = np.random.default_rng(99)
    agree = 0
    total = 500
    for i in range(total):
        n = int(rng.integers(2, 65))
        B = rng.normal(size=(n, n))
        if i % 2 == 0:
            K = B @ B.T + 0.5 * np.eye(n)  # definite: zero-mass nodes allowed
            m = rng.uniform(0.1, 3.0, size=n)
            m[rng.random(n) < 0.3] = 0.0
        else:
            K = (B + B.T) / 2.0  # indefinite: full mass
            m = rng.uniform(0.1, 3.0, size=n)
        eigs = pencil_eigs(K, m).eigenvalues
        spread = float(np.abs(eigs).max()) if eigs.size else 1.0
        lam = float(rng.normal(scale=max(1.0, spread)))
        while eigs.size and np.min(np.abs(eigs - lam)) < 1e-8:
            lam += 0.371
        if count_below(K, m, lam) == int((eigs < lam).sum()):
            agree += 1
    report(
        agree == total,
        f"inertia counts equal dense-eigensolver counts on {agree}/{total} "
        f"random pencils of order <= 64",
    )


def test_reports_byte_identical_across_runs(tmp_path, report):
    configs = [
        "ball_well_3d.cfg", "gaussian_well_2d.cfg", "empty_level_1d.cfg",
        "gaussian_offcentre_3d.cfg",
    ]
    identical = True
    for name in configs:
        pair = []
        for run in (0, 1):
            out = tmp_path / f"{name}-{run}"
            result = run_scenario(ROOT / "configs" / name, out_dir=out)
            pair.append(
                result.csv_path.read_bytes() + result.json_path.read_bytes()
            )
        identical = identical and pair[0] == pair[1]
    report(
        identical,
        f"CSV and JSON reports byte-identical across two runs of "
        f"{len(configs)} bundled configs",
    )
