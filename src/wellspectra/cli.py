"""Command-line front end.

Subcommands
-----------
run         run a scenario config end to end; writes CSV + JSON reports
assemble    classify and assemble one level of a config; print a summary
count       eigenvalue count below a shift for a serialized pencil
splitting   sweep a shift grid and print the splitting-identity table
bounds      evaluate the bound suite on one level; print JSON reports
oracle      exact reference quantities (currently: box-count)
report      summarize previously written CSV/JSON outputs

Exit codes: 0 success, 1 a must-hold identity failed, 2 configuration or
usage error.

Pencil documents
----------------
``count --pencil`` reads a JSON document of one of two kinds:

* ``assembled_pencil``, as ``assemble --save`` writes it: the grid, the
  decomposition (level, interior/boundary node indices, edges, components,
  diameter; the components are written for the reader and derived again
  from the interior and edges on load), K in COO triplet form
  (shape/row/col/data), the mass diagonal M and the surface weights sigma;
* ``raw_pencil``: ``{"kind": "raw_pencil", "K": [[...], ...], "M": [...]}``
  (dense symmetric K, mass diagonal M, no geometry).

Any other file, a K that is not square and exactly symmetric, an M that is
not a nonnegative vector of K's order, or a K or M with an entry that is not
finite is a configuration error.  So are a positive ``--level``, a
``--lambda`` that is not finite or whose shifted pencil K - lambda*M is
not, a ``--lambda-grid`` below 1, a
``--lambda-min``/``--lambda-max`` that is not finite and > 0, ``oracle
box-count`` arguments outside n in {1, 2, 3}, side > 0 and mu >= 0 (all
finite), ``report`` files that cannot be read or are not scenario
reports, a scenario config that ``scenario.load_config`` refuses (an
unknown section or key among them) and a potential that
``model.build_potential`` cannot build (a missing family parameter or one
that breaks its rule); each is refused before any work.  So are a ``run``
output directory that cannot be made or a report path in it that is a
directory, refused before any level is counted, a report that cannot be
written, and an ``assemble --save`` path that cannot be written.  Scenario
CSV columns are documented in ``wellspectra.scenario.CSV_COLUMNS``; the JSON
report document carries ``schema_version`` 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import a2r, model
from .assemble import assemble_pencil, classify_nodes
from .eigcount import _as_mass_vector, count_below, pencil_eigs
from .errors import ConfigError, EmptySublevel, WellSpectraError
from .scenario import (
    CSV_COLUMNS,
    SCHEMA_VERSION,
    _nudged,
    check_shift_range,
    lambda_grid,
    load_config,
    run_scenario,
)
from .schrodinger import box_exact_count


def _check_level(level: float) -> None:
    """A level that is not nonpositive is a ConfigError, raised before any work."""
    if not level <= 0:
        raise ConfigError(f"level must be nonpositive, got {level!r}")


def _load_level(config_path: str, level: float):
    _check_level(level)
    cfg = load_config(config_path)
    V = model.build_potential(cfg.family, cfg.grid)
    dec = classify_nodes(V, level)
    return cfg, V, assemble_pencil(dec, V, level)


def _cmd_run(args) -> int:
    result = run_scenario(args.config, out_dir=args.out)
    print(f"wrote {result.csv_path}")
    print(f"wrote {result.json_path}")
    for bad in result.violations:
        print(f"VIOLATION: {bad}", file=sys.stderr)
    if not result.violations:
        print(f"{len(result.rows)} rows, all must-hold identities satisfied")
    return result.exit_code


def _cmd_assemble(args) -> int:
    try:
        cfg, V, pencil = _load_level(args.config, args.level)
    except EmptySublevel:
        print(f"level {args.level}: empty sublevel region (all counts are 0)")
        return 0
    dec = pencil.dec
    print(f"level {dec.level}: |I| = {dec.num_interior}, |B| = {dec.num_boundary}")
    print(
        f"edges = {dec.edges.shape[0]}, components = {len(dec.components)}, "
        f"diameter = {dec.diameter!r}"
    )
    print(
        f"K: {pencil.order}x{pencil.order} with {pencil.K.nnz} nonzeros; "
        f"interior mass total = {float(pencil.M.sum())!r}; "
        f"surface total = {float(pencil.sigma.sum())!r}"
    )
    if args.save:
        try:
            Path(args.save).write_text(json.dumps(pencil.to_dict(), indent=1) + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write the pencil to {args.save}: {exc}") from exc
        print(f"wrote {args.save}")
    return 0


def _load_pencil_matrices(path):
    """K and the mass vector M of a pencil document (the bundled example
    when ``path`` is None); a file that is not one is a ConfigError."""
    bundled = resources.files("wellspectra").joinpath("data/diag_pencil.json")
    source = bundled if path is None else Path(path)
    try:
        doc = json.loads(source.read_text())
        kind = doc.get("kind") if isinstance(doc, dict) else None
        if kind == "raw_pencil":
            K, M = np.array(doc["K"], dtype=float), doc["M"]
        elif kind == "assembled_pencil":
            pencil = model.AssembledPencil.from_dict(doc)
            K, M = pencil.K, pencil.M
        else:
            raise ConfigError(f"{path}: expected an assembled_pencil or raw_pencil")
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError(f"K must be square, got shape {K.shape}")
        M = _as_mass_vector(M, K.shape[0])
        entries = K.data if sp.issparse(K) else K
        if not (np.all(np.isfinite(entries)) and np.all(np.isfinite(M))):
            raise ValueError("K and M must have finite entries")
        if sp.csr_matrix(K - K.T).count_nonzero():
            raise ValueError("K must be symmetric")
        return K, M
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: not a pencil document: {exc}") from exc


def _cmd_count(args) -> int:
    if not np.isfinite(args.lam):
        raise ConfigError(f"--lambda must be finite, got {args.lam!r}")
    K, M = _load_pencil_matrices(args.pencil)
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = K.diagonal() - args.lam * M
    if not np.all(np.isfinite(shifted)):
        raise ConfigError(f"--lambda {args.lam!r} overflows the shifted pencil K - lambda*M")
    lam, n = _nudged(lambda x: count_below(K, M, x), args.lam, "lambda")
    print(n)
    return 0


def _cmd_splitting(args) -> int:
    if args.lambda_grid < 1:
        raise ConfigError(f"--lambda-grid must be >= 1, got {args.lambda_grid}")
    check_shift_range(args.lambda_min, args.lambda_max)
    try:
        cfg, V, pencil = _load_level(args.config, args.level)
    except EmptySublevel:
        print(f"level {args.level}: empty sublevel region, nothing to split")
        return 0
    mus = pencil_eigs(pencil.K_II, pencil.M_interior).eigenvalues
    grid = lambda_grid(mus, args.lambda_min, args.lambda_max, args.lambda_grid)
    print("lambda,N_full,N_dir,N_a2r_nonpos,identity_holds")
    bad = 0
    for lam0 in grid:
        lam, (nf, nd, nb, ident) = _nudged(
            lambda x: a2r.splitting_counts(pencil, x), float(lam0), "lambda"
        )
        bad += 0 if ident else 1
        print(f"{lam!r},{nf},{nd},{nb},{'true' if ident else 'false'}")
    if bad:
        print(f"VIOLATION: identity failed on {bad} shifts", file=sys.stderr)
        return 1
    return 0


def _cmd_bounds(args) -> int:
    from .scenario import _LevelRun

    _check_level(args.level)
    cfg = load_config(args.config)
    if cfg.grid.dimension < 3:
        raise ConfigError("bound suite needs dimension >= 3")
    V = model.build_potential(cfg.family, cfg.grid)
    level = _LevelRun(cfg, V, 0, args.level).run()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario_id": level.scenario_id,
        "level": args.level,
        "reports": [rep.to_dict() for rep in level.reports],
    }
    print(json.dumps(doc, indent=1))
    return 1 if level.violations else 0


def _cmd_oracle(args) -> int:
    if args.oracle_command == "box-count":
        if args.n not in (1, 2, 3):
            raise ConfigError(f"--n must be 1, 2 or 3, got {args.n}")
        if not (np.isfinite(args.side) and args.side > 0):
            raise ConfigError(f"--side must be finite and > 0, got {args.side!r}")
        if not (np.isfinite(args.mu) and args.mu >= 0):
            raise ConfigError(f"--mu must be finite and >= 0, got {args.mu!r}")
        print(box_exact_count(args.n, args.side, args.mu))
        return 0
    raise ConfigError(f"unknown oracle {args.oracle_command!r}")


def _cmd_report(args) -> int:
    try:
        with Path(args.csv).open() as f:
            reader = csv.DictReader(f)
            missing = [col for col in CSV_COLUMNS if col not in (reader.fieldnames or [])]
            rows = list(reader)
        doc = json.loads(Path(args.json).read_text())
        verdicts = {}
        for sc in doc.get("scenarios", []):
            for rep in sc.get("reports", []):
                verdicts.setdefault(rep["name"], []).append(rep["verdict"])
        violations = list(doc.get("violations", []))
    except (OSError, ValueError, csv.Error, AttributeError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read the reports: {type(exc).__name__}: {exc}") from exc
    if missing:
        raise ConfigError(f"{args.csv}: not a scenario CSV, missing columns {missing}")
    identity_bad = sum(1 for r in rows if r["identity_holds"] != "true")
    ineq_bad = sum(1 for r in rows if r["verdict_counting"] == "violated")
    print(f"rows: {len(rows)}")
    print(f"splitting identity: {len(rows) - identity_bad}/{len(rows)} hold")
    print(f"counting inequality: {'all hold' if not ineq_bad else f'{ineq_bad} violated'}")
    for name in sorted(verdicts):
        vs = verdicts[name]
        summary = ", ".join(
            f"{vs.count(kind)} {kind}"
            for kind in ("holds", "violated", "not-applicable")
            if vs.count(kind)
        )
        print(f"{name}: {summary}")
    for bad in violations:
        print(f"VIOLATION: {bad}", file=sys.stderr)
    return 1 if (identity_bad or ineq_bad or violations) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellspectra",
        description="eigenvalue counting lab for potential wells",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config end to end")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_asm = sub.add_parser("assemble", help="classify and assemble one level")
    p_asm.add_argument("config")
    p_asm.add_argument("--level", type=float, required=True)
    p_asm.add_argument("--save", default=None, help="write the pencil as JSON")
    p_asm.set_defaults(fn=_cmd_assemble)

    p_cnt = sub.add_parser("count", help="count pencil eigenvalues below a shift")
    p_cnt.add_argument("--lambda", dest="lam", type=float, required=True)
    p_cnt.add_argument(
        "--pencil",
        default=None,
        help="pencil JSON (assembled_pencil or raw_pencil); default: bundled example",
    )
    p_cnt.set_defaults(fn=_cmd_count)

    p_spl = sub.add_parser("splitting", help="splitting-identity table over a shift grid")
    p_spl.add_argument("config")
    p_spl.add_argument("--level", type=float, required=True)
    p_spl.add_argument("--lambda-grid", type=int, default=25)
    p_spl.add_argument("--lambda-min", type=float, default=None)
    p_spl.add_argument("--lambda-max", type=float, default=None)
    p_spl.set_defaults(fn=_cmd_splitting)

    p_bnd = sub.add_parser("bounds", help="bound suite for one level, JSON to stdout")
    p_bnd.add_argument("config")
    p_bnd.add_argument("--level", type=float, required=True)
    p_bnd.set_defaults(fn=_cmd_bounds)

    p_orc = sub.add_parser("oracle", help="exact reference quantities")
    orc = p_orc.add_subparsers(dest="oracle_command", required=True)
    p_box = orc.add_parser("box-count", help="exact pinned-cube counting function")
    p_box.add_argument("--n", type=int, default=3)
    p_box.add_argument("--side", type=float, default=1.0)
    p_box.add_argument("--mu", type=float, required=True)
    p_orc.set_defaults(fn=_cmd_oracle)

    p_rep = sub.add_parser("report", help="summarize written CSV/JSON outputs")
    p_rep.add_argument("csv")
    p_rep.add_argument("json")
    p_rep.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WellSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
