"""Configuration-driven scenario runner.

A scenario file (INI format, parsed with configparser) declares a grid, a
potential family, a list of energy levels and sweep controls.  For every
level the runner classifies the sublevel region, assembles the pencil,
sweeps a shift grid and a time grid of equal length, and emits

* a CSV of counting data, one row per (level, sweep index), columns in the
  pinned order of ``CSV_COLUMNS``; and
* a JSON document of BoundReports (``schema_version`` 1).

Both outputs are byte-deterministic given the config: floats are printed
with ``repr``, rows are produced in sweep order, and every random draw is
seeded from the config.  Sweep points run serially, in order.

Each spectral object is computed once per scenario and only as far as a
report reads it.  A level holds its pinned spectrum in one
``a2r.PinnedSpectrum``: the eigenvalues, and in dimension >= 3, where the
semigroup 2->infinity norm and every sweep point's boundary form S(lambda)
read the eigenvectors, the norms over the time grid (whose computation
checks the eigenvectors w-orthonormal, once per run of levels) and
W = K_BI X; the level lets go of its |I|^2 eigenvector array before its
first sweep point.
The boundary measures, S(0) and c_P are read off the lam = 0 Poisson matrix
P0.  The box operator's bound-state counts for all levels come from one
``BoxOperator``, counted before the first level, while the resident set is
smallest.  Its route depends on the well W = {V < 0} alone
(``schrodinger.compact_well``): a 3D well with levels * |W|^3 <= 120 N^2
(N the box's interior nodes) is counted by Birman-Schwinger, one dense
inertia of I - R G_W R, of order |W|, per level, each let go before the
next; a well that fills much of the box, and every 1D or 2D box, by one
sparse factor of the box operator with a Lanczos certificate.  On the
ball at 25^3 (|W|/N = 0.075), counted alone, the box takes 0.22 s and a
process peak of 89 MB by Birman-Schwinger, against 0.89 s and 145 MB by
the sparse factor; the schrodinger module docstring has the crossover data.

Every level takes P0 (with S(0) and c_P), its pinned spectrum and b from its
run: a run of consecutive levels whose sets {V < e} are equal and on which V
takes one value V0 (a plateau), or else a run of one.  On a plateau the
weight (V - e)_- is the constant e - V0, so K, P0 and the pinned
eigenvectors do not depend on the level.  The run computes P0, S(0), c_P and
the pinned spectrum (mu, X) from its first level's pencil, exactly as that
level would alone; a later level, whose interior mass is m_e = (e - V0) h^n,
takes mu r and X sqrt(r) with r = m_1/m_e, read off X without a copy.  The
run checks X once, at its first level, and estimates b once, from its first
level: b does not change with the mass.  Every level still classifies its
nodes and assembles its own pencil (the same nodes in the same order, so the
shared P0 fits it), and takes its own boundary measures off P0,
PinnedSpectrum (2->infinity norms and W included), sweep-point
factorizations, box count and reduction check; no count is copied between
levels.  The run lets go of X once its last level has built its spectrum.

Config schema::

    [grid]       dimension, box (lo:hi per axis, comma separated),
                 resolution (comma separated), node_cap (optional)
    [potential]  family = ball_well | gaussian_well | multi_well |
                 band_limited_random, plus family parameters
                 (center/radius/depth/width/seed/cutoff/amplitude/wells)
    [levels]     values = comma separated energies, or count/min/max (all <= 0)
    [sweeps]     points (shared grid length), lambda_min, lambda_max
                 (each finite and > 0, min <= max), t_min, t_max (each finite
                 and > 0; all optional)
    [constants]  p (finite, > 0), L_n (finite, > 0), b (finite),
                 omega_convention, b_samples (>= 1)
    [output]     directory, prefix
    [seed]       value
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import a2r, bounds
from .assemble import assemble_pencil, classify_nodes
from .eigcount import count_below, heat_trace, pencil_eigs
from .eigcount import inertia  # noqa: F401  (unused; perfbench's tracer test wraps it here)
from .errors import ConfigError, EmptySublevel, OnEigenvalue
from .model import (
    HOLDS,
    NOT_APPLICABLE,
    VIOLATED,
    AssembledPencil,
    BoundReport,
    GridSpec,
    PotentialField,
    SpectralSummary,
    build_potential,
)
from .schrodinger import BoxOperator, reduction_check

#: pinned CSV column order (stable external interface)
CSV_COLUMNS = [
    "scenario_id",
    "e",
    "lambda",
    "N_full",
    "N_dir",
    "N_a2r_nonpos",
    "identity_holds",
    "gamma",
    "N_a2r_gamma",
    "a_lambda_norm",
    "bound_thm54",
    "bound_thm59",
    "heat_trace_t",
    "trace_bound",
    "t",
    "verdict_counting",
    "verdict_thm54",
    "verdict_thm59",
    "verdict_trace",
]

SCHEMA_VERSION = 1

#: relative shift applied when a sweep point lands on a spectrum
NUDGE = 1e-9
_NUDGE_TRIES = 8


@dataclass
class SweepSpec:
    points: int = 8
    lambda_min: float | None = None
    lambda_max: float | None = None
    t_min: float = 0.05
    t_max: float = 5.0


@dataclass
class ConstantsSpec:
    p: float = 3.0
    L_n: float | None = None
    b: float | None = None
    omega_convention: str = bounds.SPHERE_AREA
    b_samples: int = 200


@dataclass
class ScenarioConfig:
    grid: GridSpec
    family: dict
    levels: list
    sweep: SweepSpec
    constants: ConstantsSpec
    out_dir: str = "out"
    prefix: str = "scenario"
    seed: int = 0


@dataclass
class ScenarioResult:
    csv_path: Path
    json_path: Path
    rows: list
    document: dict
    violations: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0


def _floats(text: str) -> list:
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _ints(text: str) -> list:
    return [int(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _get(cp, section, key, default=None):
    if cp.has_option(section, key):
        raw = cp.get(section, key).strip()
        if raw:
            return raw
    return default


def check_shift_range(lo: float | None, hi: float | None) -> None:
    """A given end of a shift range (None: the default end) that is not
    finite and > 0, or lo > hi, is a ConfigError.  A single given end can
    still cross a default one; ``lambda_grid`` checks that."""
    given = [x for x in (lo, hi) if x is not None]
    if not all(0 < x < np.inf for x in given) or given != sorted(given):
        raise ConfigError(f"bad shift range [{lo}, {hi}]")


def load_config(path) -> ScenarioConfig:
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path}")
        dim = cp.getint("grid", "dimension")
        box_raw = cp.get("grid", "box")
        box = tuple(
            tuple(float(x) for x in part.split(":")) for part in box_raw.split(",")
        )
        resolution = tuple(_ints(cp.get("grid", "resolution")))
        if len(box) != dim or len(resolution) != dim:
            raise ConfigError(
                f"grid dimension {dim} does not match box/resolution lengths"
            )
        kwargs = {}
        cap = _get(cp, "grid", "node_cap")
        if cap is not None:
            kwargs["node_cap"] = int(cap)
        grid = GridSpec(box=box, resolution=resolution, **kwargs)

        name = cp.get("potential", "family")
        family = {"name": name}
        if name in ("ball_well", "gaussian_well"):
            family["center"] = _floats(cp.get("potential", "center"))
            family["depth"] = cp.getfloat("potential", "depth")
            if name == "ball_well":
                family["radius"] = cp.getfloat("potential", "radius")
            else:
                family["width"] = cp.getfloat("potential", "width")
        elif name == "multi_well":
            family["wells"] = json.loads(cp.get("potential", "wells"))
        elif name == "band_limited_random":
            family["seed"] = cp.getint("potential", "seed")
            family["cutoff"] = cp.getint("potential", "cutoff")
            family["amplitude"] = cp.getfloat("potential", "amplitude")
        else:
            raise ConfigError(f"unknown potential family {name!r}")

        if cp.has_option("levels", "values"):
            levels = _floats(cp.get("levels", "values"))
        else:
            count = cp.getint("levels", "count")
            lo = cp.getfloat("levels", "min")
            hi = cp.getfloat("levels", "max")
            levels = list(np.linspace(lo, hi, count))
        if not levels:
            raise ConfigError("no energy levels given")
        if any(e > 0 for e in levels):
            raise ConfigError(f"energy levels must be nonpositive, got {max(levels)!r}")

        sweep = SweepSpec()
        if cp.has_section("sweeps"):
            sweep.points = int(_get(cp, "sweeps", "points", sweep.points))
            for key in ("lambda_min", "lambda_max"):
                val = _get(cp, "sweeps", key)
                if val is not None:
                    setattr(sweep, key, float(val))
            sweep.t_min = float(_get(cp, "sweeps", "t_min", sweep.t_min))
            sweep.t_max = float(_get(cp, "sweeps", "t_max", sweep.t_max))
        if sweep.points < 1:
            raise ConfigError("sweeps.points must be >= 1")
        check_shift_range(sweep.lambda_min, sweep.lambda_max)
        if not (0 < sweep.t_min < np.inf and 0 < sweep.t_max < np.inf):
            raise ConfigError(
                "sweeps.t_min and t_max must be finite and > 0, "
                f"got {sweep.t_min} and {sweep.t_max}"
            )

        consts = ConstantsSpec()
        if cp.has_section("constants"):
            consts.p = float(_get(cp, "constants", "p", consts.p))
            for key in ("L_n", "b"):
                val = _get(cp, "constants", key)
                if val is not None:
                    setattr(consts, key, float(val))
            consts.omega_convention = _get(
                cp, "constants", "omega_convention", consts.omega_convention
            )
            consts.b_samples = int(_get(cp, "constants", "b_samples", consts.b_samples))
        if not 0 < consts.p < np.inf:
            raise ConfigError(f"constants.p must be finite and > 0, got {consts.p}")
        if consts.L_n is not None and not 0 < consts.L_n < np.inf:
            raise ConfigError(f"constants.L_n must be finite and > 0, got {consts.L_n}")
        if consts.b is not None and not np.isfinite(consts.b):
            raise ConfigError(f"constants.b must be finite, got {consts.b}")
        if consts.b_samples < 1:
            raise ConfigError(f"constants.b_samples must be >= 1, got {consts.b_samples}")
        if consts.omega_convention not in (bounds.SPHERE_AREA, bounds.BALL_VOLUME):
            raise ConfigError(
                f"unknown omega_convention {consts.omega_convention!r}"
            )

        out_dir = _get(cp, "output", "directory", "out")
        prefix = _get(cp, "output", "prefix", Path(str(path)).stem)
        seed = int(_get(cp, "seed", "value", 0))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    return ScenarioConfig(
        grid=grid,
        family=family,
        levels=levels,
        sweep=sweep,
        constants=consts,
        out_dir=out_dir,
        prefix=prefix,
        seed=seed,
    )


def _nudged(fn, x0: float, what: str):
    """Evaluate fn at x0, multiplicatively perturbing upward on OnEigenvalue
    (the documented 1e-9 protocol); returns (x_used, result)."""
    x = x0
    for _ in range(_NUDGE_TRIES):
        try:
            return x, fn(x)
        except OnEigenvalue:
            x = x * (1.0 + NUDGE) if x != 0.0 else NUDGE
    raise OnEigenvalue(f"could not move {what} off the spectrum near {x0!r}")


def lambda_grid(mus, lo: float | None, hi: float | None, points: int) -> np.ndarray:
    """Geometric shift grid of ``points`` values from lo to hi; by default
    from 0.5*mu_1 to 1.02*mu_min(10, N) of the ascending pinned spectrum
    ``mus``.  A range that is not 0 < lo <= hi < inf is a ConfigError."""
    if lo is None:
        lo = 0.5 * mus[0]
    if hi is None:
        hi = 1.02 * mus[min(10, len(mus)) - 1]
    if not (0 < lo <= hi < np.inf):
        raise ConfigError(f"bad shift range [{lo}, {hi}]")
    return np.geomspace(lo, hi, points)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _empty_level_row(scenario_id: str, e: float) -> dict:
    return {
        "scenario_id": scenario_id,
        "e": e,
        "lambda": None,
        "N_full": 0,
        "N_dir": 0,
        "N_a2r_nonpos": 0,
        "identity_holds": True,
        "gamma": None,
        "N_a2r_gamma": 0,
        "a_lambda_norm": None,
        "bound_thm54": None,
        "bound_thm59": None,
        "heat_trace_t": None,
        "trace_bound": None,
        "t": None,
        "verdict_counting": NOT_APPLICABLE,
        "verdict_thm54": NOT_APPLICABLE,
        "verdict_thm59": NOT_APPLICABLE,
        "verdict_trace": NOT_APPLICABLE,
    }


def _plateau_runs(V: PotentialField, levels) -> list:
    """The level indices, in runs of consecutive levels that share one
    sublevel problem: a level joins the previous level's run when its set
    {V < e} is that level's set and V takes one value on it (a plateau).
    Both tests read only the potential."""
    runs = []
    previous = None
    for index, e in enumerate(levels):
        mask = V.values < e
        inside = V.values[mask]
        if previous is not None and np.array_equal(mask, previous) and inside.size and (
            inside.min() == inside.max()
        ):
            runs[-1].append(index)
        else:
            runs.append([index])
        previous = mask
    return runs


class _Run:
    """The sublevel problem of a run of consecutive levels (see
    ``_plateau_runs``), computed from the run's first level; a level that
    shares its set with no neighbour is a run of one.

    It keeps P0 with S(0) and c_P (value and pair count), the first level's
    pinned spectrum, with its eigenvectors until the run's last level has
    read them, and b.
    """

    def __init__(self, levels: int = 1):
        self.levels_left = levels
        self.zero = self.spectrum = self.mass = self.b = None

    def poisson_zero(self, pencil: AssembledPencil):
        """The lam = 0 Poisson matrix P0 of the run's first pencil, S(0), and
        the exact kernel constant c_P with the number of pairs it is the
        maximum over (None below dimension 2), computed on the first call."""
        if self.zero is None:
            P0 = a2r.poisson_matrix(pencil, 0.0)
            S0 = a2r.schur_form(pencil, 0.0, P0)
            kernel = None
            if pencil.grid.dimension >= 2:
                kernel = (
                    a2r.estimate_poisson_constant(pencil, P0=P0),
                    int(np.count_nonzero(P0 > 0)),
                )
            self.zero = P0, S0, kernel
        return self.zero

    def pinned_spectrum(
        self, pencil: AssembledPencil, want_vectors: bool, t
    ) -> a2r.PinnedSpectrum:
        """The PinnedSpectrum of ``pencil`` over the time grid ``t``, with
        the eigenvectors when asked for.  The first call computes the
        spectrum (mu_1, X_1) of the run's first pencil, and its
        PinnedSpectrum checks X_1 M_1-orthonormal.  A later level's interior
        mass is the constant m_e, so its spectrum is the first one rescaled
        by r = m_1/m_e: mu_1 r, with X_e = X_1 sqrt(r), which its
        PinnedSpectrum reads off X_1 without a copy.  The check of X_1
        covers X_e: M_e = M_1/r, so X_e' M_e X_e = r X_1' (M_1/r) X_1 =
        X_1' M_1 X_1, up to the rounding of the scaling by sqrt(r) and of
        r itself (a few ulps, far below ORTHONORMALITY_TOL = 1e-8); so a run
        makes one Gram check."""
        first = self.spectrum
        if first is None:
            first = pencil_eigs(pencil.K_II, pencil.M_interior, want_vectors=want_vectors)
            self.mass = pencil.M_interior[0]
            spectrum = a2r.PinnedSpectrum(pencil, first, t)
        else:
            r = float(self.mass / pencil.M_interior[0])
            s = SpectralSummary(
                eigenvalues=first.eigenvalues * r, eigenvectors=first.eigenvectors
            )
            spectrum = a2r.PinnedSpectrum(pencil, s, t, scale=np.sqrt(r), checked=True)
        self.levels_left -= 1
        self.spectrum = first if self.levels_left else None
        return spectrum

    def estimate_b(self, cfg: ScenarioConfig, bm: a2r.BoundaryMeasures, sigma) -> float:
        """The EMPIRICAL trace offset b of ``bounds.estimate_b`` from S(0) and
        the first caller's boundary measures ``bm`` and surface weights
        ``sigma``, computed on the first call.  It is every level's b: mu_B =
        m_e P0' 1 only rescales, the ratio that estimate_b maximizes is
        homogeneous of degree 0 in phi, and its draws share the seed."""
        if self.b is None:
            consts = cfg.constants
            q, S_trace = bounds.trace_sobolev_constants(
                cfg.grid.dimension, consts.omega_convention
            )
            self.b = bounds.estimate_b(
                self.zero[1], bm, sigma, q, S_trace, consts.b_samples, seed=cfg.seed
            )
        return self.b


class _LevelRun:
    """All computations for one energy level of one scenario.

    ``box`` is the scenario's BoxOperator of V; by default the level counts
    the box operator on its own.  ``shared`` is the _Run of levels whose
    sublevel problem (P0, the pinned spectrum and b) the level reads; by
    default the level is a run of one.
    """

    def __init__(
        self,
        cfg: ScenarioConfig,
        V: PotentialField,
        index: int,
        e: float,
        box: BoxOperator | None = None,
        shared: _Run | None = None,
    ):
        self.cfg = cfg
        self.V = V
        self.e = float(e)
        self.box = box if box is not None else BoxOperator(V, [e])
        self.shared = shared if shared is not None else _Run()
        self.scenario_id = f"{cfg.prefix}-L{index:02d}"
        self.rows = []
        self.reports = []
        self.violations = []
        self.meta = {}
        self.pencil = None

    def run(self):
        try:
            dec = classify_nodes(self.V, self.e)
        except EmptySublevel:
            self.rows.append(_empty_level_row(self.scenario_id, self.e))
            self.meta = {"empty": True, "n_interior": 0, "n_boundary": 0}
            self._reduction_report()
            return self
        pencil = assemble_pencil(dec, self.V, self.e)
        self.pencil = pencil
        self.meta = {
            "empty": False,
            "n_interior": pencil.n_interior,
            "n_boundary": pencil.n_boundary,
            "diameter": float(dec.diameter),
        }

        # eigenvectors only for n >= 3, where the 2->infinity norm and the
        # sweep points' S(lambda) read them; the spectrum lets go of them,
        # and the run does once its last level has read them
        sweep = self.cfg.sweep
        t_grid = np.geomspace(sweep.t_min, sweep.t_max, sweep.points)
        self.spectrum = self.shared.pinned_spectrum(
            pencil, self.cfg.grid.dimension >= 3, t_grid
        )
        # P0 lives as long as the run: dropped before the sweep, it doubled
        # the minor page faults of a levels-2d run under glibc's malloc
        # (15.6k to 31.4k), and the run took about 12 % longer
        P0, self.S0, kernel = self.shared.poisson_zero(pencil)
        self.bm = a2r.boundary_measures(pencil, P0)
        kernel_report = self._kernel_constant_report(kernel)
        self.consts = self._derive_constants()

        lam_grid = lambda_grid(
            self.spectrum.summary.eigenvalues, sweep.lambda_min, sweep.lambda_max, sweep.points
        )
        two_inf = self.spectrum.two_infinity
        if two_inf is None:
            two_inf = [None] * len(t_grid)
        for lam, t, two in zip(lam_grid, t_grid, two_inf):
            row, reports = self._sweep_point(lam, t, two)
            self.rows.append(row)
            self.reports.extend(reports)
            if row["identity_holds"] is not True:
                self.violations.append(
                    f"{self.scenario_id}: splitting identity failed at "
                    f"lambda={row['lambda']!r}"
                )
            if row["verdict_counting"] == VIOLATED:
                self.violations.append(
                    f"{self.scenario_id}: counting inequality failed at "
                    f"lambda={row['lambda']!r}"
                )
        self._reduction_report()
        if kernel_report is not None:
            self.reports.append(kernel_report)
        return self

    # -- constants ---------------------------------------------------------

    def _derive_constants(self):
        cfg = self.cfg
        n = cfg.grid.dimension
        if n < 3:
            return None
        p = cfg.constants.p
        normW1 = self.V.norm(self.e, 1.0)
        normWp = self.V.norm(self.e, p)
        dmu_p, dnu_sig_inf, dnu_dmu_inf = a2r.radon_nikodym_report(self.bm, p)
        b = cfg.constants.b
        b_note = "b supplied by configuration"
        if b is None and p > n - 1:
            b = self.shared.estimate_b(cfg, self.bm, self.pencil.sigma)
            b_note = f"b estimated from {cfg.constants.b_samples} sampled traces (EMPIRICAL)"
        try:
            consts = bounds.BoundConstants.derive(
                n,
                p,
                normW1,
                normWp,
                dmu_dsigma_p=dmu_p,
                dnu_dmu_inf=dnu_dmu_inf,
                b=b,
                L_n=cfg.constants.L_n,
                convention=cfg.constants.omega_convention,
            )
        except Exception:
            return None
        consts.extras["dnu_dsigma_inf"] = dnu_sig_inf
        consts.extras["b_provenance"] = b_note
        return consts

    # -- per sweep point ---------------------------------------------------

    def _sweep_point(self, lam0: float, t: float, two_inf: float | None):
        def counting(lam):
            n_full, n_dir, n_bnd, identity = a2r.splitting_counts(
                self.pencil, lam, self.spectrum
            )
            gamma = a2r.a_lambda_norm(self.spectrum.summary, lam)
            return n_full, n_dir, n_bnd, identity, gamma

        lam, (n_full, n_dir, n_bnd, identity, gamma0) = _nudged(
            counting, float(lam0), "lambda"
        )

        def boundary_count(g):
            return count_below(self.S0, self.bm.mu, g)

        gamma, n_gamma = _nudged(boundary_count, gamma0, "gamma")
        counting_ok = n_full <= n_dir + n_gamma

        reports = []
        consts = self.consts
        base_point = {"e": self.e, "lambda": lam}

        bound54 = bound59 = trace_rhs = None
        if consts is not None:
            bound54 = bounds.dirichlet_count_bound(
                consts.n, consts.p, consts.normW1, consts.normWp, lam
            )
            reports.append(
                BoundReport(
                    name="pinned-count-bound",
                    constants=consts.to_dict(),
                    point=dict(base_point),
                    rhs=bound54,
                    lhs=n_dir,
                )
            )
            if consts.m is not None:
                bound59 = bounds.a2r_count_bound(
                    consts.m, consts.c1, consts.c2, consts.normW1, gamma
                )
                reports.append(
                    BoundReport(
                        name="boundary-count-bound",
                        constants=consts.to_dict(),
                        point={"e": self.e, "gamma": gamma},
                        rhs=bound59,
                        lhs=n_gamma,
                        notes=consts.extras.get("b_provenance", ""),
                    )
                )

        trace_val = heat_trace(self.spectrum.summary, t)
        if consts is not None:
            two_inf_rhs, trace_rhs = bounds.ultracontractivity_and_trace_bounds(
                consts.d, consts.S_r, consts.normW1, t
            )
            reports.append(
                BoundReport(
                    name="heat-trace-bound",
                    constants=consts.to_dict(),
                    point={"e": self.e, "t": t},
                    rhs=trace_rhs,
                    lhs=trace_val,
                )
            )
            if two_inf is not None:
                reports.append(
                    BoundReport(
                        name="semigroup-2inf-bound",
                        constants=consts.to_dict(),
                        point={"e": self.e, "t": t},
                        rhs=two_inf_rhs,
                        lhs=float(two_inf),
                    )
                )

        def verdict_of(name):
            for rep in reports:
                if rep.name == name:
                    return rep.verdict
            return NOT_APPLICABLE

        row = {
            "scenario_id": self.scenario_id,
            "e": self.e,
            "lambda": lam,
            "N_full": n_full,
            "N_dir": n_dir,
            "N_a2r_nonpos": n_bnd,
            "identity_holds": bool(identity),
            "gamma": gamma,
            "N_a2r_gamma": n_gamma,
            "a_lambda_norm": gamma0,
            "bound_thm54": bound54,
            "bound_thm59": bound59,
            "heat_trace_t": trace_val,
            "trace_bound": trace_rhs,
            "t": t,
            "verdict_counting": HOLDS if counting_ok else VIOLATED,
            "verdict_thm54": verdict_of("pinned-count-bound"),
            "verdict_thm59": verdict_of("boundary-count-bound"),
            "verdict_trace": verdict_of("heat-trace-bound"),
        }
        return row, reports

    # -- per-level reports ---------------------------------------------------

    def _reduction_report(self):
        def check(lam):
            return reduction_check(self.V, self.e, lam, pencil=self.pencil, box=self.box)

        try:
            try:
                lam, (n_op, n_weighted, holds) = 1.0, check(1.0)
            except OnEigenvalue:
                # a level on the box operator spectrum stays there for every
                # lambda: count_below re-raises its kept error, unnudged
                self.box.count_below(self.e)
                lam, (n_op, n_weighted, holds) = _nudged(check, 1.0 + NUDGE, "lambda")
        except Exception as exc:
            self.reports.append(
                BoundReport(
                    name="operator-reduction",
                    constants={},
                    point={"e": self.e},
                    rhs=None,
                    lhs=None,
                    verdict=NOT_APPLICABLE,
                    notes=f"skipped: {exc}",
                )
            )
            return
        self.reports.append(
            BoundReport(
                name="operator-reduction",
                constants={"lambda": lam},
                point={"e": self.e},
                rhs=float(n_weighted),
                lhs=n_op,
            )
        )
        if not holds:
            self.violations.append(
                f"{self.scenario_id}: operator reduction inequality failed at e={self.e!r}"
            )
        L_n = self.cfg.constants.L_n
        n = self.cfg.grid.dimension
        if L_n is not None and n >= 3:
            rhs = bounds.lieb_bound(self.V, self.e, L_n)
            self.reports.append(
                BoundReport(
                    name="operator-count-bound",
                    constants={"L_n": L_n},
                    point={"e": self.e},
                    rhs=rhs,
                    lhs=n_op,
                    notes="L_n supplied by configuration",
                )
            )

    def _kernel_constant_report(self, kernel) -> BoundReport | None:
        """The report of the kernel constant ``kernel`` = (c_P, pairs) from
        ``_Run.poisson_zero``, or None; the level lists it last."""
        if kernel is None:
            return None
        value, pairs = kernel
        note = f"c_P exact: maximum over all {pairs} interior/boundary pairs with P0 > 0"
        return BoundReport(
            name="poisson-kernel-constant",
            constants={"c_P": value},
            point={"e": self.e},
            rhs=None,
            lhs=None,
            verdict=NOT_APPLICABLE,
            notes=note,
        )


def run_scenario(config_path, out_dir=None) -> ScenarioResult:
    """Run every level of a scenario config; write CSV and JSON reports.

    Returns a ScenarioResult whose exit_code is 1 when a must-hold identity
    (splitting identity, counting inequality, operator reduction) failed,
    else 0.  Config errors raise ConfigError.
    """
    cfg = load_config(config_path)
    if out_dir is not None:
        cfg.out_dir = str(out_dir)
    V = build_potential(cfg.family, cfg.grid)

    runs = _plateau_runs(V, cfg.levels)
    box = BoxOperator(V, cfg.levels)
    box.certify()
    rows = []
    violations = []
    scenario_docs = []
    for run in runs:
        shared = _Run(len(run))
        for index in run:
            e = cfg.levels[index]
            level = _LevelRun(cfg, V, index, e, box=box, shared=shared).run()
            rows.extend(level.rows)
            violations.extend(level.violations)
            doc = {
                "scenario_id": level.scenario_id,
                "level": float(e),
                **level.meta,
                "constants": level.consts.to_dict()
                if getattr(level, "consts", None) is not None
                else None,
                "reports": [rep.to_dict() for rep in level.reports],
            }
            scenario_docs.append(doc)
            del level  # its pencil, shift families and W go before the next level's
        del shared  # and the run's P0 and S(0) before the next run's

    document = {
        "schema_version": SCHEMA_VERSION,
        "prefix": cfg.prefix,
        "seed": cfg.seed,
        "grid": cfg.grid.to_dict(),
        "family": cfg.family,
        "violations": violations,
        "scenarios": scenario_docs,
    }

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{cfg.prefix}_counts.csv"
    json_path = out / f"{cfg.prefix}_bounds.json"
    write_csv(csv_path, rows)
    json_path.write_text(json.dumps(document, indent=1) + "\n")
    return ScenarioResult(
        csv_path=csv_path,
        json_path=json_path,
        rows=rows,
        document=document,
        violations=violations,
    )


def write_csv(path, rows):
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in CSV_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n")
