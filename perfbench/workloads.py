"""Seeded inputs, output digests and the count oracle of the benchmark.

Each workload turns ``--seed`` into the only inputs the program sees: a
scenario config file for ``ball3d-25`` and ``levels-2d``, a stream of
shifts for ``count-3d``.  NOTES.md says why each workload was chosen.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

WORKLOADS = ("ball3d-25", "levels-2d", "count-3d")

#: CSV columns the output digest covers: every integer count, the splitting
#: identity flag and the verdicts.  Float columns are left out because they
#: drift by about 3e-12 between platforms.
DIGEST_COLUMNS = (
    "scenario_id",
    "N_full",
    "N_dir",
    "N_a2r_nonpos",
    "N_a2r_gamma",
    "identity_holds",
    "verdict_counting",
    "verdict_thm54",
    "verdict_thm59",
    "verdict_trace",
)

#: relative shift a count request applies when it lands on an eigenvalue,
#: and how many times it tries (the scenario runner's own protocol)
NUDGE = 1e-9
NUDGE_TRIES = 8

#: count-3d: fixed landscape and request range
COUNT_FAMILY = {"name": "band_limited_random", "seed": 5, "cutoff": 3, "amplitude": 8.0}
COUNT_LEVEL = -1.0
COUNT_LAMBDA_RANGE = (0.2, 20.0)


def ball3d_config(seed: int, resolution: int = 25) -> str:
    """The bundled 3D ball-well scenario (configs/ball_well_3d.cfg geometry,
    levels and sweeps) at ``resolution`` nodes per axis, seeded by ``seed``."""
    return f"""[grid]
dimension = 3
box = -2:2, -2:2, -2:2
resolution = {resolution}, {resolution}, {resolution}

[potential]
family = ball_well
center = 0, 0, 0
radius = 1.0
depth = 12.0

[levels]
values = -0.5, -2.0, -6.0

[sweeps]
points = 6
t_min = 0.05
t_max = 5.0

[constants]
p = 3.0
L_n = 0.1156
omega_convention = sphere_area
b_samples = 200
cp_samples = 2000

[output]
prefix = ball3d

[seed]
value = {seed}
"""


#: levels-2d: well depths, common width and the corners of the triangle
#: the seed jitters the centres around.  Jitter, not free placement, keeps
#: the amount of work nearly the same for every seed.
LEVELS_DEPTHS = (4.0, 3.0, 2.5)
LEVELS_WIDTH = 0.3
LEVELS_CENTRES = ((-0.75, -0.7), (0.75, -0.7), (0.0, 0.75))
LEVELS_JITTER = 0.08


def levels2d_config(seed: int, resolution: int = 57, levels: int = 32) -> str:
    """Three Gaussian wells (depths 4, 3, 2.5; width 0.3; centres jittered
    by up to 0.08 per axis from ``seed`` around a fixed triangle inside
    [-0.9, 0.9]^2) in [-2, 2]^2, with ``levels`` energies from -3.5 to -0.1
    and 6 sweep points."""
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-LEVELS_JITTER, LEVELS_JITTER, size=(3, 2))
    wells = [
        {
            "name": "gaussian_well",
            "center": [round(c + float(d), 6) for c, d in zip(LEVELS_CENTRES[k], jitter[k])],
            "width": LEVELS_WIDTH,
            "depth": depth,
        }
        for k, depth in enumerate(LEVELS_DEPTHS)
    ]
    return f"""[grid]
dimension = 2
box = -2:2, -2:2
resolution = {resolution}, {resolution}

[potential]
family = multi_well
wells = {json.dumps(wells)}

[levels]
count = {levels}
min = -3.5
max = -0.1

[sweeps]
points = 6
t_min = 0.05
t_max = 5.0

[constants]
p = 3.0

[output]
prefix = levels2d

[seed]
value = {seed}
"""


def count_grid(resolution: int = 33):
    from wellspectra.model import GridSpec

    return GridSpec(box=((-2.0, 2.0),) * 3, resolution=(resolution,) * 3)


def shift_stream(seed: int):
    """Endless log-uniform shifts in COUNT_LAMBDA_RANGE drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    lo, hi = (math.log(x) for x in COUNT_LAMBDA_RANGE)
    while True:
        yield float(math.exp(rng.uniform(lo, hi)))


def count_request(count_below, K, m, lam: float):
    """One request: ``count_below(K, m, lam)``, retried with the relative
    nudge while the shift lies on the spectrum.  Returns (shift used, count)."""
    from wellspectra.errors import OnEigenvalue

    for _ in range(NUDGE_TRIES):
        try:
            return lam, count_below(K, m, lam)
        except OnEigenvalue:
            lam = lam * (1.0 + NUDGE)
    raise OnEigenvalue(f"could not move the shift off the spectrum near {lam!r}")


def oracle_eigenvalues(K, m, above: float, k: int = 40) -> np.ndarray:
    """The ``k`` pencil eigenvalues nearest 0 from shift-invert ARPACK,
    sorted; independent of the inertia path.  Raises if they do not reach
    past ``above``, since then counts up to ``above`` cannot be checked."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh

    w = eigsh(
        K.tocsc(),
        k=k,
        M=sp.diags(m).tocsc(),
        sigma=0.0,
        which="LM",
        v0=np.ones(K.shape[0]),
        return_eigenvectors=False,
    )
    w = np.sort(w)
    if not w[-1] > above:
        raise RuntimeError(f"oracle spectrum ends at {w[-1]!r}, not above {above!r}")
    return w


def oracle_count(eigenvalues: np.ndarray, lam: float) -> int:
    """Number of oracle eigenvalues strictly below ``lam``."""
    return int(np.searchsorted(eigenvalues, lam, side="left"))


def rows_digest(csv_text: str) -> str:
    """SHA-256 over the DIGEST_COLUMNS of every CSV row, in row order."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in csv.DictReader(io.StringIO(csv_text)):
        writer.writerow([row[col] for col in DIGEST_COLUMNS])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def counts_digest(results) -> str:
    """SHA-256 over (shift, count) pairs of a request sequence."""
    text = "".join(f"{lam!r},{count}\n" for lam, count in results)
    return hashlib.sha256(text.encode()).hexdigest()
