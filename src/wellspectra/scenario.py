"""Configuration-driven scenario runner.

A scenario file (INI format, parsed with configparser) declares a grid, a
potential family, a list of energy levels and sweep controls.  For every
level the runner classifies the sublevel region, assembles the pencil,
sweeps a shift grid and a time grid of equal length, and emits

* a CSV of counting data, one row per (level, sweep index), columns in the
  pinned order of ``CSV_COLUMNS``; and
* a JSON document of BoundReports (``schema_version`` 1).

A level states each bound once, as a ``_Bound`` of its table: the bounds
of each sweep point (``_LevelRun._point_bounds``), then its own
(``_LevelRun._level_bounds``).  A bound that has CSV columns names its
bound_*/verdict_* pair, which the row reads off its report; a bound not
made leaves the pair empty and not applicable (``_LevelRun._row``).

Both outputs are byte-deterministic given the config: floats are printed
with ``repr``, rows are produced in sweep order, and every random draw is
seeded from the config.  Sweep points run serially, in order.

Each spectral object is computed once per scenario and only as far as a
report reads it.  A level holds its pinned spectrum in one
``a2r.PinnedSpectrum``: the eigenvalues, and in dimension >= 3, where the
semigroup 2->infinity norm and every sweep point's boundary form S(lambda)
read the eigenvectors, the norms over the time grid (whose computation
checks the eigenvectors w-orthonormal, once per run of levels) and, on a
level that sweeps, W = K_BI X; the level lets go of its eigenvector arrays
before its first sweep point.  The scenario reads the group G of grid
reflections and axis transpositions that fix V's sampled values once
(``symmetry.symmetry_group``; G = {id} is one sector).  A 3D level solves
its pinned pencil in the sectors of G, one eigenproblem each, and every
sweep point counts S(lambda) as the sum of its sector blocks' counts; 1D
and 2D levels compute eigenvalues alone, in no sectors.
The boundary measures, S(0) and c_P are read off the lam = 0 Poisson matrix
P0.  The box operator's bound-state counts for all levels come from one
``BoxOperator``, which counts them when it is built, before the first
level, while the resident set is smallest: one inertia per level, on a
route that the well W = {V < 0} alone picks (the schrodinger module
docstring has the rule).  A level whose box factor raised skips its
reduction report with that error.

Every level takes P0 (with S(0) and c_P), its pinned spectrum, b and the
time grid from its run (``_Run``, built from the config, G and its number
of levels): a run of consecutive levels whose sets {V < e} are equal and on
which V takes one value V0 (a plateau), or else a run of one.  On a plateau
the weight (V - e)_- is the constant e - V0, so K, P0 and the pinned
eigenvectors do not depend on the level.  The run computes P0, S(0), c_P
and the pinned spectrum (mu, X) from its first level's pencil, exactly as
that level would alone; each level, whose interior mass is
m_e = (e - V0) h^n, takes mu r and X sqrt(r) with r = m_1/m_e (1.0 on the
first), read off X without a copy.  The run checks X once, at its first
level, and estimates b once, from its first level: b does not change with
the mass.  When the shift grid follows the spectrum (neither lambda_min nor
lambda_max is configured), a plateau also sweeps once, at its first level.
A later level's pencils are the first level's with the masses over r, and
its default grid is the first one times r, so it reports the first level's
sweep points, each the row's counting columns by name, with the
``_SCALED`` columns lambda, a_lambda_norm and gamma times r and every
count as it is.  Each count stays the inertia of the matrix it names, by
congruence: K - (r lam)(M_1/r) = K - lam M_1, and
S(0) - (r gamma)(mu_B/r) = S(0) - gamma mu_B (see ``_Run.sweep``).  A run
of one, a plateau whose grid is configured and a standalone ``_LevelRun``
(a run of one of its own, with G read off its V) sweep level by level.
Every level still classifies its nodes and assembles its own pencil (the
same nodes in the same order, so the shared P0 fits it), and computes its
own boundary measures off P0, 2->infinity norms, heat traces, bound
columns, verdicts, box count and reduction check.  The run lets go of X
once its last level has built its spectrum.

Config schema (a section or key not listed is a ConfigError)::

    [grid]       dimension, box (lo:hi per axis, comma separated),
                 resolution (comma separated), node_cap (optional)
    [potential]  family, a key of ``model.FAMILIES``, and that family's
                 parameters; ``build_potential`` checks them
                 (``model.PARAMETERS``)
    [levels]     values = comma separated energies, or count/min/max (all
                 finite and <= 0)
    [sweeps]     points, lambda_min, lambda_max, t_min, t_max (optional,
                 with the rules of ``_OPTIONAL``; given shift ends also
                 min <= max)
    [constants]  p, L_n, b, omega_convention, b_samples (optional, with
                 the rules of ``_OPTIONAL``); c_P and cp_samples are retired,
                 accepted and ignored
    [output]     directory, prefix
    [seed]       value
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import a2r, bounds
from .assemble import assemble_pencil, classify_nodes
from .eigcount import count_below, heat_trace, pencil_eigs
from .eigcount import inertia  # noqa: F401  (unused; perfbench's tracer test wraps it here)
from .errors import ConfigError, EmptySublevel, OnEigenvalue, SubcriticalExponent
from .model import (
    HOLDS,
    NOT_APPLICABLE,
    VIOLATED,
    AssembledPencil,
    DEFAULT_NODE_CAP,
    FAMILIES,
    PARAMETERS,
    BoundReport,
    GridSpec,
    PotentialField,
    SpectralSummary,
    _floats,
    build_potential,
)
from .schrodinger import BoxOperator, reduction_check
from .symmetry import Group, Sectors, symmetry_group

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

#: the sweep-point columns that scale with the mass: a later level of a run
#: that shares its sweep reports the first level's times r (``_Run.sweep``)
_SCALED = ("lambda", "a_lambda_norm", "gamma")

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


def _ints(text: str) -> list:
    return [int(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _positive(x) -> bool:
    return 0 < x < np.inf


#: the optional [sweeps] and [constants] keys: (section, key, reader, rule,
#: the rule in words).  A key left out or empty keeps its SweepSpec or
#: ConstantsSpec default; a value that is not None and breaks its rule is a
#: ConfigError.  The shift range has its own check, ``check_shift_range``.
_OPTIONAL = (
    ("sweeps", "points", int, lambda n: n >= 1, ">= 1"),
    ("sweeps", "lambda_min", float, None, None),
    ("sweeps", "lambda_max", float, None, None),
    ("sweeps", "t_min", float, _positive, "finite and > 0"),
    ("sweeps", "t_max", float, _positive, "finite and > 0"),
    ("constants", "p", float, _positive, "finite and > 0"),
    ("constants", "L_n", float, _positive, "finite and > 0"),
    ("constants", "b", float, np.isfinite, "finite"),
    ("constants", "omega_convention", str,
     lambda s: s in (bounds.SPHERE_AREA, bounds.BALL_VOLUME),
     f"{bounds.SPHERE_AREA} or {bounds.BALL_VOLUME}"),
    ("constants", "b_samples", int, lambda n: n >= 1, ">= 1"),
)

#: the keys of every section, lowercase as configparser reads them; the
#: retired [constants] keys c_P and cp_samples are accepted and ignored,
#: [potential] takes ``family`` and that family's parameters (model.FAMILIES)
#: and [DEFAULT], which configparser lends to every section, takes none
_KEYS = {
    "DEFAULT": set(),
    "grid": {"dimension", "box", "resolution", "node_cap"},
    "levels": {"values", "count", "min", "max"},
    "sweeps": {key.lower() for section, key, *_ in _OPTIONAL if section == "sweeps"},
    "constants": {"c_p", "cp_samples"}
    | {key.lower() for section, key, *_ in _OPTIONAL if section == "constants"},
    "output": {"directory", "prefix"},
    "seed": {"value"},
}


def check_shift_range(lo: float | None, hi: float | None) -> None:
    """A given end of a shift range (None: the default end) that is not
    finite and > 0, or lo > hi, is a ConfigError.  A single given end can
    still cross a default one; ``lambda_grid`` checks the range again with
    its default ends filled in."""
    given = [x for x in (lo, hi) if x is not None]
    if not all(0 < x < np.inf for x in given) or given != sorted(given):
        raise ConfigError(f"bad shift range [{lo}, {hi}]")


def load_config(path) -> ScenarioConfig:
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path}")
        name = cp.get("potential", "family")
        if name not in FAMILIES:
            raise ConfigError(f"unknown potential family {name!r}")
        known = {**_KEYS, "potential": {"family", *FAMILIES[name].params}}
        for section in cp:
            if section not in known:
                raise ConfigError(f"unknown section [{section}]")
            for key in cp[section]:
                if key not in known[section]:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")

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
        cap = int(cp.get("grid", "node_cap", fallback="") or DEFAULT_NODE_CAP)
        grid = GridSpec(box=box, resolution=resolution, node_cap=cap)

        family = {"name": name}
        for key in FAMILIES[name].params:
            family[key] = PARAMETERS[key].read(cp.get("potential", key))

        spanned = not cp.has_option("levels", "values")
        if spanned:
            count = cp.getint("levels", "count")
            given = [cp.getfloat("levels", "min"), cp.getfloat("levels", "max")]
        else:
            given = _floats(cp.get("levels", "values"))
        for e in given:
            if not np.isfinite(e):
                raise ConfigError(f"energy levels must be finite, got {e!r}")
        levels = list(np.linspace(*given, count)) if spanned else given
        if not levels:
            raise ConfigError("no energy levels given")
        if any(e > 0 for e in levels):
            raise ConfigError(f"energy levels must be nonpositive, got {max(levels)!r}")

        specs = {"sweeps": SweepSpec(), "constants": ConstantsSpec()}
        for section, key, read, holds, rule in _OPTIONAL:
            raw = cp.get(section, key, fallback="")
            if raw:
                setattr(specs[section], key, read(raw))
            value = getattr(specs[section], key)
            if holds is not None and value is not None and not holds(value):
                raise ConfigError(f"{section}.{key} must be {rule}, got {value!r}")
        sweep, consts = specs["sweeps"], specs["constants"]
        check_shift_range(sweep.lambda_min, sweep.lambda_max)

        out_dir = cp.get("output", "directory", fallback="") or "out"
        prefix = cp.get("output", "prefix", fallback="") or Path(str(path)).stem
        seed = int(cp.get("seed", "value", fallback="") or 0)
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
    ``mus``.  A range that is not 0 < lo <= hi < inf is a ConfigError
    (``check_shift_range``)."""
    if lo is None:
        lo = 0.5 * mus[0]
    if hi is None:
        hi = 1.02 * mus[min(10, len(mus)) - 1]
    check_shift_range(lo, hi)
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


class _Bound(NamedTuple):
    """One bound of a level's table: the fields of its BoundReport (the
    level's e leads its point) and the bound_*/verdict_* CSV columns that
    the report's rhs and verdict fill, if any."""

    name: str
    constants: dict
    point: dict
    rhs: float | None = None
    lhs: float | int | None = None
    notes: str = ""
    columns: tuple = ()


class _Run:
    """The sublevel problem of a run of consecutive levels (see
    ``_plateau_runs``), computed from the run's first level; a level that
    shares its set with no neighbour is a run of one.

    It is built from the config, the scenario's symmetry group G of V and
    its number of levels, and makes the [sweeps] time grid ``t`` once.  It
    keeps P0 with S(0) and c_P (value and pair count), the first level's
    pinned spectrum, with its eigenvectors until the run's last level has
    read them, and b.  A run of more than one level whose shift grid follows
    the spectrum (``shares_sweep``: neither end of it configured) also keeps
    its first level's sweep points (see ``sweep``).
    """

    def __init__(self, cfg: ScenarioConfig, group: Group, levels: int = 1):
        sweep = cfg.sweep
        self.cfg = cfg
        self.group = group
        self.levels_left = levels
        self.shares_sweep = levels > 1 and sweep.lambda_min is None and sweep.lambda_max is None
        self.t = np.geomspace(sweep.t_min, sweep.t_max, sweep.points)
        self.zero = self.spectrum = self.sectors = self.mass = self.b = self.points = None

    def _ratio(self, pencil: AssembledPencil) -> float:
        """r = m_1/m_e, the run's first interior mass over ``pencil``'s."""
        return float(self.mass / pencil.M_interior[0])

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

    def pinned_spectrum(self, pencil: AssembledPencil) -> a2r.PinnedSpectrum:
        """The PinnedSpectrum of ``pencil`` over the run's time grid ``t``,
        with the eigenvectors in dimension >= 3, where the 2->infinity norm
        and the sweep points' S(lambda) read them.  The first call computes
        the spectrum (mu_1, X_1) of the run's first pencil: with
        eigenvectors, one ``pencil_eigs`` per sector of the run's group G
        (G = {id} is one sector whose orbit bases are identity matrices),
        and the run keeps the sectors for its later levels, whose sets I and
        B are the first level's; below dimension 3, the values alone, and
        no sectors.  Level e,
        whose interior mass is the constant m_e, reads it rescaled by
        r = m_1/m_e: mu_1 r, with X_e = X_1 sqrt(r), which its
        PinnedSpectrum reads off X_1 without a copy.  On the first level
        r = m_1/m_1 = 1.0, and the products by 1.0 and sqrt(1.0) leave every
        bit.  Its PinnedSpectrum checks X_1 M_1-orthonormal, which covers
        X_e: M_e = M_1/r, so X_e' M_e X_e = r X_1' (M_1/r) X_1 =
        X_1' M_1 X_1, up to the rounding of the scaling by sqrt(r) and of
        r itself (a few ulps, far below ORTHONORMALITY_TOL = 1e-8); so a run
        makes one Gram check.  A later level of a run that shares its sweep
        makes no sweep point, so its PinnedSpectrum forms no W.  The
        spectrum lets go of the eigenvectors, and the run does once its last
        level has read them."""
        later = self.spectrum is not None
        if not later:
            if self.cfg.grid.dimension >= 3:
                self.sectors = Sectors(pencil, self.group)
                self.spectrum = [
                    pencil_eigs(K, m, want_vectors=True) for K, m in self.sectors.pencils(pencil)
                ]
            else:
                self.spectrum = [pencil_eigs(pencil.K_II, pencil.M_interior)]
            self.mass = pencil.M_interior[0]
        r = self._ratio(pencil)
        scaled = [
            SpectralSummary(eigenvalues=part.eigenvalues * r, eigenvectors=part.eigenvectors)
            for part in self.spectrum
        ]
        self.levels_left -= 1
        if not self.levels_left:
            self.spectrum = None
        return a2r.PinnedSpectrum(
            pencil, scaled, self.t, scale=np.sqrt(r), checked=later,
            schur=not (later and self.shares_sweep), sectors=self.sectors,
        )

    def sweep(self, pencil: AssembledPencil, compute) -> list:
        """The sweep points of ``pencil``'s level, each its counting columns
        by CSV name: ``compute()``, the level's own sweep, or on a later
        level of a run that shares its sweep, the first level's points with
        the ``_SCALED`` columns (lambda, a_lambda_norm, gamma) times
        r = m_1/m_e and every count as it is.

        The later level's pencils are the first level's with the masses
        over r, so N_e(lam) = N_1(lam/r), and its default grid, read off
        mu_1 r, is the first level's times r.  Each count stays the inertia
        of the matrix it names: K - (r lam_1)(M_1/r) = K - lam_1 M_1 gives
        N_full, N_dir and, through its Schur complement, N_a2r_nonpos; and
        with mu_B = m_1 P0' 1 the first level's boundary measure,
        S(0) - (r gamma_1)(mu_B/r) = S(0) - gamma_1 mu_B gives N_a2r_gamma.
        a_lambda_norm, homogeneous of degree 1 in (mu, lam), scales by r.
        Such a level makes no sweep-point factorization and forms no
        S(lam)."""
        if self.points is not None:
            r = self._ratio(pencil)
            return [{**point, **{col: point[col] * r for col in _SCALED}} for point in self.points]
        points = compute()
        if self.shares_sweep:
            self.points = points
        return points

    def estimate_b(self, bm: a2r.BoundaryMeasures, sigma) -> float:
        """The EMPIRICAL trace offset b of ``bounds.estimate_b`` from S(0) and
        the first caller's boundary measures ``bm`` and surface weights
        ``sigma``, computed on the first call.  It is every level's b: mu_B =
        m_e P0' 1 only rescales, the ratio that estimate_b maximizes is
        homogeneous of degree 0 in phi, and its draws share the seed."""
        if self.b is None:
            cfg = self.cfg
            q, S_trace = bounds.trace_sobolev_constants(
                cfg.grid.dimension, cfg.constants.omega_convention
            )
            self.b = bounds.estimate_b(
                self.zero[1], bm, sigma, q, S_trace, cfg.constants.b_samples, seed=cfg.seed
            )
        return self.b


class _LevelRun:
    """All computations for one energy level of one scenario.

    ``box`` is the scenario's BoxOperator of V; by default the level builds
    its own, which counts the box operator below e before any other work.
    ``shared`` is the _Run of levels whose sublevel problem (P0, the pinned
    spectrum and b) the level reads, and on a later level of a run that
    shares its sweep, the sweep points, rescaled (``_Run.sweep``); by
    default the level is a run of one and sweeps its own grid.
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
        self.shared = shared if shared is not None else _Run(cfg, symmetry_group(V))
        self.scenario_id = f"{cfg.prefix}-L{index:02d}"
        self.rows = []
        self.reports = []
        self.violations = []
        self.meta = {}
        self.pencil = None
        self.consts = self.constants = None

    def run(self):
        try:
            dec = classify_nodes(self.V, self.e)
        except EmptySublevel:
            counts = dict.fromkeys(("N_full", "N_dir", "N_a2r_nonpos", "N_a2r_gamma"), 0)
            self.rows.append(self._row({"identity_holds": True, **counts}))
            self.meta = {"empty": True, "n_interior": 0, "n_boundary": 0}
            self._report(self._level_bounds())
            return self
        pencil = assemble_pencil(dec, self.V, self.e)
        self.pencil = pencil
        self.meta = {
            "empty": False,
            "n_interior": pencil.n_interior,
            "n_boundary": pencil.n_boundary,
            "diameter": float(dec.diameter),
        }

        self.spectrum = self.shared.pinned_spectrum(pencil)
        # P0 lives as long as the run: dropped before the sweep, it doubled
        # the minor page faults of a levels-2d run under glibc's malloc
        # (15.6k to 31.4k), and the run took about 12 % longer
        P0, self.S0, kernel = self.shared.poisson_zero(pencil)
        self.bm = a2r.boundary_measures(pencil, P0)
        self.consts = self._derive_constants()
        if self.consts is not None:
            self.constants = self.consts.to_dict()

        points = self.shared.sweep(pencil, self._sweep)
        two_inf = self.spectrum.two_infinity
        if two_inf is None:
            two_inf = [None] * len(self.shared.t)
        for point, t, two in zip(points, self.shared.t, two_inf):
            row = self._sweep_point(point, t, two)
            self.rows.append(row)
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
        self._report(self._level_bounds(kernel))
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
        # the boundary chain needs s > 2, that is p > n - 1; below it the
        # interior chain stands alone
        boundary = p > n - 1
        if b is None and boundary:
            b = self.shared.estimate_b(self.bm, self.pencil.sigma)
            b_note = f"b estimated from {cfg.constants.b_samples} sampled traces (EMPIRICAL)"
        elif b is None:
            b_note = "no b used: the boundary chain needs p > n - 1"
        try:
            consts = bounds.BoundConstants.derive(
                n,
                p,
                normW1,
                normWp,
                dmu_dsigma_p=dmu_p if boundary else None,
                dnu_dmu_inf=dnu_dmu_inf,
                b=b,
                L_n=cfg.constants.L_n,
                convention=cfg.constants.omega_convention,
            )
        except SubcriticalExponent:
            return None
        consts.extras["dnu_dsigma_inf"] = dnu_sig_inf
        consts.extras["b_provenance"] = b_note
        return consts

    # -- per sweep point ---------------------------------------------------

    def _sweep(self) -> list:
        """The counting columns of each shift of the level's own grid."""
        sweep = self.cfg.sweep
        lam_grid = lambda_grid(
            self.spectrum.summary.eigenvalues, sweep.lambda_min, sweep.lambda_max, sweep.points
        )
        return [self._counts(lam) for lam in lam_grid]

    def _counts(self, lam0: float) -> dict:
        """The counting columns of the shift ``lam0``, by CSV name; lambda
        and gamma (a_lambda_norm at lambda) are the shifts used, after any
        nudge."""
        def counting(lam):
            n_full, n_dir, n_bnd, identity = a2r.splitting_counts(self.pencil, lam, self.spectrum)
            return n_full, n_dir, n_bnd, identity, a2r.a_lambda_norm(self.spectrum.summary, lam)

        lam, (n_full, n_dir, n_bnd, identity, norm) = _nudged(counting, float(lam0), "lambda")
        gamma, n_gamma = _nudged(lambda g: count_below(self.S0, self.bm.mu, g), norm, "gamma")
        return {
            "lambda": lam, "N_full": n_full, "N_dir": n_dir, "N_a2r_nonpos": n_bnd,
            "identity_holds": bool(identity), "a_lambda_norm": norm,
            "gamma": gamma, "N_a2r_gamma": n_gamma,
        }

    def _sweep_point(self, point: dict, t: float, two_inf: float | None) -> dict:
        """The CSV row of one sweep point, its counting columns ``point``
        merged in, after its bounds' reports; each bound that fills a
        bound_*/verdict_* pair fills it off its report."""
        trace = heat_trace(self.spectrum.summary, t)
        counting_ok = point["N_full"] <= point["N_dir"] + point["N_a2r_gamma"]
        row = self._row({
            **point, "heat_trace_t": trace, "t": t,
            "verdict_counting": HOLDS if counting_ok else VIOLATED,
        })
        table = self._point_bounds(row, two_inf)
        for bound, report in zip(table, self._report(table)):
            row.update(zip(bound.columns, (report.rhs, report.verdict)))
        return row

    def _point_bounds(self, row: dict, two_inf: float) -> list:
        """The bounds judged at one sweep point, read off its ``row``, in
        report order; none on a level without constants, and the boundary
        count's only where the boundary chain gave m.  Constants exist only
        in n >= 3, where the level has its 2->infinity norms."""
        c = self.consts
        if c is None:
            return []
        lam, gamma, t = row["lambda"], row["gamma"], row["t"]
        two_inf_rhs, trace_rhs = bounds.ultracontractivity_and_trace_bounds(
            c.d, c.S_r, c.normW1, t
        )
        table = [
            _Bound(
                "pinned-count-bound", self.constants, {"lambda": lam},
                bounds.dirichlet_count_bound(c.n, c.p, c.normW1, c.normWp, lam),
                row["N_dir"], columns=("bound_thm54", "verdict_thm54"),
            ),
            _Bound(
                "boundary-count-bound", self.constants, {"gamma": gamma},
                bounds.a2r_count_bound(c.m, c.c1, c.c2, c.normW1, gamma),
                row["N_a2r_gamma"], c.extras["b_provenance"], ("bound_thm59", "verdict_thm59"),
            ) if c.m is not None else None,
            _Bound(
                "heat-trace-bound", self.constants, {"t": t}, trace_rhs, row["heat_trace_t"],
                columns=("trace_bound", "verdict_trace"),
            ),
            _Bound("semigroup-2inf-bound", self.constants, {"t": t}, two_inf_rhs, float(two_inf)),
        ]
        return [bound for bound in table if bound is not None]

    # -- per-level reports ---------------------------------------------------

    def _level_bounds(self, kernel=None) -> list:
        """The level's own bounds, in report order after its sweep points':
        the operator reduction at lambda = 1, nudged, or skipped with the
        error that the box factor or the check raised (a level on the box
        operator spectrum stays there for every lambda, so its OnEigenvalue
        is not nudged); where it ran and L_n is given in n >= 3, the Lieb
        bound on the operator count; and the kernel constant ``kernel`` =
        (c_P, pairs) from ``_Run.poisson_zero``, if any."""
        def check(lam):
            return reduction_check(self.V, self.e, lam, pencil=self.pencil, box=self.box)

        try:
            self.box.count_below(self.e)
            lam, (n_op, n_weighted, holds) = _nudged(check, 1.0, "lambda")
            reduction = dict(constants={"lambda": lam}, rhs=float(n_weighted), lhs=n_op)
        except Exception as exc:
            reduction, n_op, holds = dict(constants={}, notes=f"skipped: {exc}"), None, True
        if not holds:
            self.violations.append(
                f"{self.scenario_id}: operator reduction inequality failed at e={self.e!r}"
            )
        L_n = self.cfg.constants.L_n
        lieb = n_op is not None and L_n is not None and self.cfg.grid.dimension >= 3
        table = [
            _Bound("operator-reduction", point={}, **reduction),
            _Bound(
                "operator-count-bound", {"L_n": L_n}, {}, bounds.lieb_bound(self.V, self.e, L_n),
                n_op, "L_n supplied by configuration",
            ) if lieb else None,
            _Bound(
                "poisson-kernel-constant", {"c_P": kernel[0]}, {}, notes=(
                    f"c_P exact: maximum over all {kernel[1]} interior/boundary pairs "
                    "with P0 > 0"
                ),
            ) if kernel is not None else None,
        ]
        return [bound for bound in table if bound is not None]

    def _report(self, table: list) -> list:
        """Append the BoundReport of each _Bound of ``table``, and return them."""
        reports = [
            BoundReport(b.name, b.constants, {"e": self.e, **b.point}, b.rhs, b.lhs, notes=b.notes)
            for b in table
        ]
        self.reports.extend(reports)
        return reports

    def _row(self, values: dict) -> dict:
        """A CSV row of the level: ``values``, every other verdict not
        applicable and every other column empty."""
        row = dict.fromkeys(CSV_COLUMNS)
        row.update({col: NOT_APPLICABLE for col in CSV_COLUMNS if col.startswith("verdict_")})
        row.update(scenario_id=self.scenario_id, e=self.e)
        row.update(values)
        return row


def run_scenario(config_path, out_dir=None) -> ScenarioResult:
    """Run every level of a scenario config; write CSV and JSON reports.

    Returns a ScenarioResult whose exit_code is 1 when a must-hold identity
    (splitting identity, counting inequality, operator reduction) failed,
    else 0.  Config errors raise ConfigError; so do an output directory
    that cannot be made and a report path that is a directory, before any
    level is counted, and a report that cannot be written.
    """
    cfg = load_config(config_path)
    if out_dir is not None:
        cfg.out_dir = str(out_dir)
    V = build_potential(cfg.family, cfg.grid)
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc}") from exc
    csv_path = out / f"{cfg.prefix}_counts.csv"
    json_path = out / f"{cfg.prefix}_bounds.json"
    for path in (csv_path, json_path):
        if path.is_dir():
            raise ConfigError(f"cannot write report {path}: it is a directory")

    group = symmetry_group(V)
    box = BoxOperator(V, cfg.levels)
    rows = []
    violations = []
    scenario_docs = []
    for run in _plateau_runs(V, cfg.levels):
        shared = _Run(cfg, group, len(run))
        for index in run:
            e = cfg.levels[index]
            level = _LevelRun(cfg, V, index, e, box=box, shared=shared).run()
            rows.extend(level.rows)
            violations.extend(level.violations)
            doc = {
                "scenario_id": level.scenario_id,
                "level": float(e),
                **level.meta,
                "constants": level.constants,
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

    path = csv_path
    try:
        write_csv(path, rows)
        path = json_path
        path.write_text(json.dumps(document, indent=1) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write report {path}: {exc}") from exc
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
