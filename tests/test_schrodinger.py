import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from wellspectra import eigcount, schrodinger
from wellspectra.assemble import assemble_pencil, classify_nodes
from wellspectra.bounds import polya_weyl_report
from wellspectra.eigcount import Factorization, inertia, pencil_eigs
from wellspectra.errors import EnumerationCap, OnEigenvalue
from wellspectra.model import GridSpec, Inertia, PotentialField, build_potential
from wellspectra.schrodinger import (
    COMPACT_WELL_C,
    BoxOperator,
    assemble_schrodinger,
    birman_schwinger_matrix,
    box_exact_count,
    compact_well,
    reduction_check,
)


def test_box_interior_indices():
    """The box operator acts on the nodes strictly inside the box, in
    linear order, with V h^n on its diagonal: orders 3 and 1 on a 5-node
    line and a 3 x 3 square."""
    g1 = GridSpec(box=((0.0, 1.0),), resolution=(5,))
    g2 = GridSpec(box=((0.0, 1.0),) * 2, resolution=(3,) * 2)
    for grid, inner in ((g1, [1, 2, 3]), (g2, [4])):
        values = np.arange(1.0, np.prod(grid.shape) + 1.0)
        A, m = assemble_schrodinger(PotentialField(grid=grid, values=values))
        free, _ = assemble_schrodinger(PotentialField(grid=grid, values=np.zeros(values.size)))
        hn = grid.spacing**grid.dimension
        assert A.shape == (len(inner),) * 2 and np.array_equal(m, np.full(len(inner), hn))
        assert np.allclose(A.diagonal() - free.diagonal(), values[inner] * hn, rtol=1e-14)


def test_free_box_spectrum_1d():
    res = 30
    grid = GridSpec(box=((0.0, 1.0),), resolution=(res,))
    V = PotentialField(grid=grid, values=np.zeros(res))
    A, m = assemble_schrodinger(V)
    got = pencil_eigs(A, m).eigenvalues
    h = grid.spacing
    k = np.arange(1, res - 1)
    expect = (2.0 - 2.0 * np.cos(k * np.pi / (res - 1))) / h**2
    assert np.allclose(got, expect, rtol=1e-10)
    # the low modes approximate (k pi)^2 on the unit interval
    assert np.allclose(got[:3], (k[:3] * np.pi) ** 2, rtol=0.01)


def test_constant_potential_shifts_spectrum():
    res = 14
    grid = GridSpec(box=((0.0, 1.0),) * 2, resolution=(res,) * 2)
    V0 = PotentialField(grid=grid, values=np.zeros((res, res)))
    Vc = PotentialField(grid=grid, values=np.full((res, res), -3.0))
    e0 = pencil_eigs(*assemble_schrodinger(V0)).eigenvalues
    ec = pencil_eigs(*assemble_schrodinger(Vc)).eigenvalues
    assert np.allclose(ec, e0 - 3.0, atol=1e-9)


def test_bound_state_count_matches_dense_oracle():
    grid = GridSpec(box=((-2.0, 2.0),) * 3, resolution=(11,) * 3)
    V = build_potential(
        {"name": "ball_well", "center": [0.0, 0.0, 0.0], "radius": 1.0, "depth": 12.0},
        grid,
    )
    e = -0.5
    A, m = assemble_schrodinger(V)
    spec = pencil_eigs(A, m).eigenvalues
    n_op, n_weighted, ok = reduction_check(V, e, 1.0 + 1e-9)
    assert n_op == int((spec < e).sum())
    assert n_op >= 1  # the deep well binds at least the ground state
    assert ok


def test_deeper_wells_bind_more():
    counts = []
    for depth in (4.0, 12.0, 30.0):
        grid = GridSpec(box=((-2.0, 2.0),) * 3, resolution=(11,) * 3)
        V = build_potential(
            {
                "name": "ball_well",
                "center": [0.0, 0.0, 0.0],
                "radius": 1.0,
                "depth": depth,
            },
            grid,
        )
        A, m = assemble_schrodinger(V)
        counts.append(int((pencil_eigs(A, m).eigenvalues < -0.5).sum()))
    assert counts[0] <= counts[1] <= counts[2]
    assert counts[2] > counts[0]


def test_reduction_check_validation_and_clamping():
    grid = GridSpec(box=((-1.0, 1.0),), resolution=(21,))
    V = PotentialField(grid=grid, values=np.zeros(21))
    with pytest.raises(ValueError):
        reduction_check(V, -0.5, 0.5)
    with pytest.raises(ValueError):
        reduction_check(V, 0.5, 1.0)
    # V == 0 has an empty sublevel set and no bound states
    assert reduction_check(V, -0.5, 1.0) == (0, 0, True)
    bumpy = PotentialField(grid=grid, values=np.linspace(-1.0, 1.0, 21))
    with pytest.warns(UserWarning):
        reduction_check(bumpy, -0.5, 1.0)


def test_reduction_holds_across_levels(ball3d):
    V, _ = ball3d
    for e in np.linspace(-6.0, -0.5, 6):
        n_op, n_w, ok = reduction_check(V, float(e), 1.0 + 1e-9)
        assert ok, (e, n_op, n_w)


def test_reduction_check_reuses_a_given_pencil():
    """Handing over the level's pencil gives the same answer as letting
    reduction_check classify and assemble, also when V has positive parts
    that get clamped; a pencil of another level is refused."""
    grid = GridSpec(box=((-2.0, 2.0),) * 2, resolution=(21, 21))
    X, Y = np.meshgrid(*grid.axes(), indexing="ij")
    V = PotentialField(grid=grid, values=2.0 * (X**2 + Y**2) - 8.0 + 0.5 * (X > 1.5))
    for e in (-6.0, -2.0):
        pencil = assemble_pencil(classify_nodes(V, e), V, e)
        with pytest.warns(UserWarning):
            plain = reduction_check(V, e, 1.0 + 1e-9)
        with pytest.warns(UserWarning):
            assert reduction_check(V, e, 1.0 + 1e-9, pencil=pencil) == plain
    with pytest.warns(UserWarning), pytest.raises(ValueError):
        reduction_check(V, -6.0, 1.0, pencil=pencil)
    other = PotentialField(grid=grid, values=V.values.copy())
    with pytest.raises(ValueError):
        reduction_check(V, -6.0, 1.0, box=BoxOperator(other, [-6.0]))


def test_reduction_check_without_a_pencil_factors_no_pinned_block(monkeypatch):
    """Without a pencil, reduction_check assembles one but factors no
    pinned block: the box operator and the full pencil are its only
    factorizations."""
    grid = GridSpec(box=((-2.0, 2.0),) * 2, resolution=(21, 21))
    X, Y = np.meshgrid(*grid.axes(), indexing="ij")
    V = PotentialField(grid=grid, values=np.minimum(2.0 * (X**2 + Y**2) - 8.0, 0.0))
    orders = []
    real = eigcount.Factorization.__init__

    def recording(self, A, perm=None):
        orders.append(A.shape[0])
        real(self, A, perm)

    monkeypatch.setattr(eigcount.Factorization, "__init__", recording)
    reduction_check(V, -2.0, 1.0)
    pencil = assemble_pencil(classify_nodes(V, -2.0), V, -2.0)
    assert orders == [assemble_schrodinger(V)[0].shape[0], pencil.order]


# ------------------------------------------------ box-operator counts


def _direct_box_count(V, e):
    """Today's per-level count: one factorization of A - e*h^n."""
    A, m = assemble_schrodinger(V)
    inert = inertia(A - e * sp.diags(m))
    return "on-spectrum" if inert.n_zero else inert.n_minus


def _box_outcome(box, e):
    try:
        return box.count_below(e)
    except OnEigenvalue:
        return "on-spectrum"


def _landscape(dim, name):
    """A seeded deep landscape with 6 nonpositive levels spread over its range."""
    rng = np.random.default_rng(7)
    centre = list(rng.uniform(-0.3, 0.3, dim))
    family = {
        "ball": {"name": "ball_well", "center": centre, "radius": 1.0, "depth": 60.0},
        "gaussian": {"name": "gaussian_well", "center": centre, "width": 0.5, "depth": 80.0},
        "multi": {
            "name": "multi_well",
            "wells": [
                {
                    "name": "gaussian_well",
                    "center": list(rng.uniform(-0.9, 0.9, dim)),
                    "width": 0.3,
                    "depth": float(rng.uniform(40.0, 80.0)),
                }
                for _ in range(3)
            ],
        },
        "band": {"name": "band_limited_random", "seed": 11, "cutoff": 3, "amplitude": 300.0},
    }[name]
    res = {2: 41, 3: 15}[dim]
    V = build_potential(family, GridSpec(box=((-2.0, 2.0),) * dim, resolution=(res,) * dim))
    levels = sorted(rng.uniform(0.9 * V.values.min(), -0.05, 6))
    return V, levels


def _box_factors(monkeypatch, zero_at=None):
    """Record the level and a weak reference of every factor a BoxOperator
    makes, on either route, and give the factor at the level ``zero_at`` a
    zero pivot."""
    made = []
    real = BoxOperator._factor

    def recording(self, e):
        factor = real(self, e)
        if e == zero_at:
            inert = factor.inertia
            factor.inertia = Inertia(inert.n_minus, 1, inert.n_plus - 1)
        made.append((e, weakref.ref(factor)))
        return factor

    monkeypatch.setattr(BoxOperator, "_factor", recording)
    return made


def _top_down_to_zero(levels, counts):
    """The levels a top-down count factors: each from the top down to the
    first count of 0, and none below it."""
    factored = []
    for e, count in zip(reversed(levels), reversed(counts)):
        factored.append(e)
        if count == 0:
            break
    return factored


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", ["ball", "gaussian", "multi", "band"])
def test_certified_box_counts_equal_direct_factorization(dim, name, monkeypatch):
    V, levels = _landscape(dim, name)
    direct = [_direct_box_count(V, e) for e in levels]
    made = _box_factors(monkeypatch)
    box = BoxOperator(V, levels)
    assert [_box_outcome(box, e) for e in reversed(levels)] == direct[::-1]
    assert [e for e, _ in made] == _top_down_to_zero(levels, direct)
    assert direct[-1] >= 1


def _ball_2d():
    grid = GridSpec(box=((-2.0, 2.0),) * 2, resolution=(31,) * 2)
    return build_potential(
        {"name": "ball_well", "center": [0.1, -0.2], "radius": 1.0, "depth": 60.0}, grid
    )


def test_level_on_a_bound_state_raises_from_its_own_factor(monkeypatch):
    """A level on a bound state gets its own factorization, with the
    outcome of a direct one, and raises OnEigenvalue when that
    factorization finds a zero pivot; the levels above it keep their
    counts."""
    V = _ball_2d()
    A, m = assemble_schrodinger(V)
    mus = np.linalg.eigvalsh(A.toarray()) / m[0]
    on, clear, top = mus[2], (mus[4] + mus[5]) / 2, (mus[8] + mus[9]) / 2
    box = BoxOperator(V, [on, clear, top])
    assert _box_outcome(box, on) == _direct_box_count(V, on)
    assert box.count_below(clear) == 5 and box.count_below(top) == 9

    _box_factors(monkeypatch, zero_at=on)
    box = BoxOperator(V, [on, clear, top])
    with pytest.raises(OnEigenvalue, match="box operator"):
        box.count_below(on)
    assert box.count_below(clear) == 5


def test_top_level_on_the_box_spectrum_keeps_no_factor_alive(monkeypatch):
    """A top level on the box spectrum raises OnEigenvalue at every count,
    and what the box keeps of that error holds no frame: the level below it
    is factored too, and once the counts have raised, both factors are
    garbage."""
    V = _ball_2d()
    made = _box_factors(monkeypatch, zero_at=-20.0)
    box = BoxOperator(V, [-30.0, -20.0])
    for _ in range(2):
        with pytest.raises(OnEigenvalue, match=r"box operator spectrum \(n_zero=1\)"):
            box.count_below(-20.0)
    assert box.count_below(-30.0) == _direct_box_count(V, -30.0)
    gc.collect()
    assert [e for e, _ in made] == [-20.0, -30.0]
    assert not any(ref() is not None for _, ref in made)


def test_box_without_bound_states_or_with_one_level_makes_one_factor(monkeypatch):
    """Below a top-level count of 0 no level is factored, and a single
    level is its own factor's count."""
    made = _box_factors(monkeypatch)
    V = _ball_2d()
    # k = 0: the top level lies below the ground state (about -55.5)
    levels = [-59.0, -58.0, -57.0, -56.0]
    box = BoxOperator(V, levels)
    assert [box.count_below(e) for e in levels] == [0, 0, 0, 0]
    assert [e for e, _ in made] == [-56.0]
    made.clear()
    assert BoxOperator(V, [-30.0]).count_below(-30.0) == _direct_box_count(V, -30.0)
    assert [e for e, _ in made] == [-30.0]


@pytest.mark.parametrize("route", ["sparse", "birman-schwinger"])
def test_level_on_the_box_spectrum_on_both_routes(route, monkeypatch):
    """A middle level on the box spectrum (a zero pivot injected into its
    factor) raises OnEigenvalue at every count, on either route.  It has no
    count, so the zero rule does not pass through it: the level below it,
    whose count is 0, is still factored.  No factor stays alive."""
    levels = [-58.0, -57.0, -30.0]
    V = _ball_2d() if route == "sparse" else _ball_3d(1.0, seed=1, res=13)[0]
    direct = [_direct_box_count(V, e) for e in levels]
    assert direct[:2] == [0, 0] and direct[2] >= 1
    made = _box_factors(monkeypatch, zero_at=-57.0)
    box = BoxOperator(V, levels)
    assert box.route == route
    for _ in range(2):
        with pytest.raises(OnEigenvalue, match=r"box operator spectrum \(n_zero=1\)"):
            box.count_below(-57.0)
    assert [box.count_below(e) for e in (-58.0, -30.0)] == [0, direct[2]]
    gc.collect()
    assert [e for e, _ in made] == levels[::-1]
    assert not any(ref() is not None for _, ref in made)


def test_a_level_the_box_did_not_list_is_refused(monkeypatch):
    """The box counts the levels it lists and no other: a count below an
    unlisted level is a ValueError, and factors nothing."""
    made = _box_factors(monkeypatch)
    box = BoxOperator(_ball_2d(), [-30.0])
    assert box.count_below(-30.0) == _direct_box_count(box.potential, -30.0)
    with pytest.raises(ValueError, match="not counted below -20.0"):
        box.count_below(-20.0)
    assert [e for e, _ in made] == [-30.0]


@pytest.mark.parametrize("route", ["sparse", "birman-schwinger"])
def test_a_failed_level_factor_fails_that_level_alone(route, monkeypatch):
    """numpy's MemoryError, raised while a middle level's factor is alive,
    is that level's outcome alone: it is raised afresh at every count, as a
    MemoryError with the same message (the subclass needs more than a
    message to be made), the levels above and below it count, and no
    factor stays alive."""
    levels = [-58.0, -57.0, -30.0]
    V = _ball_2d() if route == "sparse" else _ball_3d(1.0, seed=1, res=13)[0]
    made = []
    real = BoxOperator._factor

    def failing(self, e):
        factor = real(self, e)
        made.append((e, weakref.ref(factor)))
        if e == -57.0:
            np.empty((10**7, 10**7))
        return factor

    monkeypatch.setattr(BoxOperator, "_factor", failing)
    box = BoxOperator(V, levels)
    raised = []
    for _ in range(2):
        with pytest.raises(MemoryError, match="Unable to allocate") as info:
            box.count_below(-57.0)
        raised.append(info.value)
    assert box.route == route and raised[0] is not raised[1]
    assert [box.count_below(e) for e in (-58.0, -30.0)] == [0, _direct_box_count(V, -30.0)]
    del raised, info
    gc.collect()
    assert [e for e, _ in made] == levels[::-1]
    assert not any(ref() is not None for _, ref in made)


def test_a_failed_box_assembly_is_every_levels_outcome(monkeypatch):
    """An error that assembling the box raises is the outcome of every
    level, raised afresh at every count; the box takes no route and makes
    no factor."""
    made = _box_factors(monkeypatch)

    def broken(V):
        raise RuntimeError("box assembly broke down")

    monkeypatch.setattr(schrodinger, "assemble_schrodinger", broken)
    box = BoxOperator(_ball_2d(), [-30.0, -20.0])
    for e in (-20.0, -30.0, -20.0):
        with pytest.raises(RuntimeError, match="box assembly broke down"):
            box.count_below(e)
    assert box.route is None and made == []


def _constant_well_spectrum(grid, c):
    """The eigenvalues of the box operator of V = -c on the box, in closed
    form: h^-2 sum_a 4 sin^2(pi k_a / (2 (R_a - 1))) - c, k_a = 1..R_a - 2."""
    total = -c
    for r in grid.resolution:
        k = np.arange(1, r - 1)
        lam = 4.0 * np.sin(np.pi * k / (2 * (r - 1))) ** 2 / grid.spacing**2
        total = np.add.outer(total, lam)
    return np.sort(total.ravel())


@pytest.mark.parametrize(
    "dim, res, c, rule",
    [
        (1, 41, 200.0, "sparse"),
        (2, 21, 100.0, "sparse"),
        (3, 7, 30.0, "birman-schwinger"),  # N = 125
        (3, 9, 30.0, "sparse"),  # N = 343
    ],
)
def test_box_counts_of_a_constant_well_equal_the_closed_form(dim, res, c, rule, monkeypatch):
    """With V = -c on the whole box, the box operator is the pinned
    Laplacian shifted by -c, whose spectrum is known in closed form.  At
    seeded levels <= 0, each midway between two distinct eigenvalues, the
    box counts exactly the eigenvalues below the level: on the route the
    rule picks, and in 3D on the other route too.  Every shifted operator
    is indefinite."""
    grid = GridSpec(box=((-2.0, 2.0),) * dim, resolution=(res,) * dim)
    V = PotentialField(grid=grid, values=np.full(grid.shape, -c))
    spectrum = _constant_well_spectrum(grid, c)
    distinct = spectrum[np.flatnonzero(np.diff(spectrum) > 1e-6 * np.abs(spectrum).max())]
    distinct = np.append(distinct, spectrum[-1])
    middles = (distinct[:-1] + distinct[1:]) / 2
    middles = middles[middles <= 0]
    rng = np.random.default_rng(dim * 100 + res)
    levels = sorted(rng.choice(middles, size=6, replace=False))
    expected = [int(np.count_nonzero(spectrum < e)) for e in levels]
    assert 0 < min(expected) and max(expected) < spectrum.size

    def counts(route):
        box = BoxOperator(V, levels)
        assert box.route == route
        return [box.count_below(e) for e in levels]

    assert counts(rule) == expected
    if dim == 3:
        other = "sparse" if rule == "birman-schwinger" else "birman-schwinger"
        monkeypatch.setattr(schrodinger, "compact_well", lambda *args: other != "sparse")
        assert counts(other) == expected


# ------------------------------------------------ the Birman-Schwinger route


def _bs_outcome(V, e):
    """The count at e read off the Birman-Schwinger matrix of V alone."""
    inert = inertia(birman_schwinger_matrix(V, e))
    return "on-spectrum" if inert.n_zero else inert.n_minus


def _ball_3d(radius, seed, res=17, depth=60.0):
    rng = np.random.default_rng(seed)
    grid = GridSpec(box=((-2.0, 2.0),) * 3, resolution=(res,) * 3)
    centre = list(rng.uniform(-0.3, 0.3, 3))
    family = {"name": "ball_well", "center": centre, "radius": radius, "depth": depth}
    return build_potential(family, grid), sorted(rng.uniform(-0.97 * depth, -0.5, 4))


@pytest.mark.parametrize("radius", [0.5, 0.8, 1.1, 1.3])
def test_compact_ball_counts_equal_direct_factorization(radius):
    """Over a ladder of 3D ball wells the box takes the Birman-Schwinger
    route, and its counts at its levels equal a direct factorization of the
    box operator."""
    V, levels = _ball_3d(radius, seed=int(10 * radius))
    box = BoxOperator(V, levels)
    assert box.route == "birman-schwinger"
    direct = [_direct_box_count(V, e) for e in levels]
    assert [_box_outcome(box, e) for e in levels] == direct
    assert direct[-1] >= 1


@pytest.mark.parametrize("seed", [3, 11, 19])
def test_birman_schwinger_counts_a_clamped_random_landscape(seed):
    """On band-limited random landscapes with their positive parts clamped,
    the matrix's counts equal a direct factorization at every level."""
    grid = GridSpec(box=((-2.0, 2.0),) * 3, resolution=(13,) * 3)
    family = {"name": "band_limited_random", "seed": seed, "cutoff": 3, "amplitude": 300.0}
    raw = build_potential(family, grid)
    V = PotentialField(grid=grid, values=np.minimum(raw.values, 0.0))
    levels = np.random.default_rng(seed).uniform(0.9 * V.values.min(), -0.05, 5)
    direct = [_direct_box_count(V, e) for e in levels]
    assert [_bs_outcome(V, e) for e in levels] == direct
    assert max(direct) >= 1


def test_birman_schwinger_scaling_on_the_multi_landscape():
    """Called directly on the 3D multi-well landscape, whose Gaussian tails
    take |V| h^n down by more than 20 decades, the route counts every level
    as a direct factorization does.  The unscaled |D|^-1 - G_W has entries
    up to about 1e30 there, which swamp every pivot: the scaling by
    R = sqrt(|D|) keeps the matrix's entries of order one."""
    V, levels = _landscape(3, "multi")
    inner = -V.values[1:-1, 1:-1, 1:-1]
    assert inner.min() > 0 and inner.max() / inner.min() > 1e20
    assert np.abs(birman_schwinger_matrix(V, levels[0])).max() < 1e3
    assert [_bs_outcome(V, e) for e in levels] == [_direct_box_count(V, e) for e in levels]


def test_box_route_rule():
    """The compact ball takes the Birman-Schwinger route; a well that fills
    the box (the 3D Gaussian, V < 0 everywhere) and every 2D box, however
    small its well, take the sparse route.  The rule is
    |W|^3 <= COMPACT_WELL_C * N^2 in 3D, whatever the number of levels."""

    def route(V, levels):
        return BoxOperator(V, levels).route

    V, levels = _ball_3d(1.0, seed=0)
    assert route(V, levels) == "birman-schwinger"
    V, levels = _landscape(3, "gaussian")
    assert np.all(V.values < 0) and route(V, levels) == "sparse"
    for name in ("ball", "gaussian", "multi", "band"):
        V, levels = _landscape(2, name)
        assert route(V, levels) == "sparse"
    values = np.zeros((31, 31))
    values[15, 15] = -60.0
    assert route(PotentialField(grid=_ball_2d().grid, values=values), [-1.0]) == "sparse"
    grid = GridSpec(box=((-2.0, 2.0),) * 3, resolution=(17,) * 3)
    edge = int(np.floor((COMPACT_WELL_C * 15.0**6) ** (1 / 3)))
    assert compact_well(grid, edge) and not compact_well(grid, edge + 1)


def test_birman_schwinger_levels_hold_one_matrix_at_a_time(monkeypatch):
    """Each level's matrix and factor are let go before the next level's
    matrix is formed.  A zero pivot is OnEigenvalue, raised afresh at every
    count of that level while the other levels count; a positive level is
    refused."""
    V, _ = _ball_3d(1.0, seed=1, res=13)
    levels = [-30.0, -10.0, -3.0]
    made, alive = [], []
    real_matrix = schrodinger.birman_schwinger_matrix

    class Recording(Factorization):
        def __init__(self, A, perm=None, **kwargs):
            super().__init__(A, perm, **kwargs)
            made.append(weakref.ref(self))
            if len(made) == 2:
                inert = self.inertia
                self.inertia = Inertia(inert.n_minus, 1, inert.n_plus - 1)

    def matrix(V, e):
        alive.append([ref() is not None for ref in made])
        return real_matrix(V, e)

    monkeypatch.setattr(schrodinger, "Factorization", Recording)
    monkeypatch.setattr(schrodinger, "birman_schwinger_matrix", matrix)
    box = BoxOperator(V, levels)
    assert box.route == "birman-schwinger"
    assert alive == [[], [False], [False, False]]
    for _ in range(2):
        with pytest.raises(OnEigenvalue, match=r"box operator spectrum \(n_zero=1\)"):
            box.count_below(-10.0)
    assert [box.count_below(e) for e in (-30.0, -3.0)] == [
        _direct_box_count(V, -30.0), _direct_box_count(V, -3.0)
    ]
    assert len(made) == 3 and not any(ref() is not None for ref in made)
    with pytest.raises(ValueError):
        box.count_below(0.5)


def test_birman_schwinger_matrix_is_factored_in_place(monkeypatch):
    """The box matrix is Fortran-ordered, and each level's factor
    overwrites it, so the route holds one |W|^2 array per level; the counts
    are those of a factor of a copy."""
    V, levels = _ball_3d(1.0, seed=1, res=13)
    A = schrodinger.birman_schwinger_matrix(V, levels[0])
    assert A.flags.f_contiguous
    copy = A.copy()
    assert Factorization(A, overwrite_a=True).inertia == Factorization(copy).inertia
    in_place = []

    class Recording(Factorization):
        def __init__(self, A, perm=None, **kwargs):
            super().__init__(A, perm, **kwargs)
            in_place.append(np.shares_memory(self._ldu, A))

    monkeypatch.setattr(schrodinger, "Factorization", Recording)
    box = BoxOperator(V, levels)
    assert [box.count_below(e) for e in levels] == [_direct_box_count(V, e) for e in levels]
    assert box.route == "birman-schwinger" and in_place == [True] * len(levels)


def _reference_birman_schwinger(V, e):
    """I - R P^T (L0 - s)^-1 P R from a dense inverse of the box Laplacian."""
    grid = V.grid
    hn = grid.spacing**grid.dimension
    free, _ = assemble_schrodinger(PotentialField(grid=grid, values=np.zeros(grid.shape)))
    inner = schrodinger._interior(V).ravel()
    well = np.flatnonzero(inner < 0)
    G = np.linalg.inv(free.toarray() - e * hn * np.eye(inner.size))[np.ix_(well, well)]
    r = np.sqrt(-inner[well] * hn)
    return np.eye(well.size) - r[:, None] * G * r


def test_birman_schwinger_entries_match_a_dense_inverse():
    """The matrix's lower triangle, all that its factorization reads, is
    I - R G_W R from a dense inverse of the box operator, on two wells with
    gaps: two separated balls, which occupy no middle coordinate on any
    axis, and a clamped random landscape, whose runs along the last axis
    skip nodes.  The result is Fortran-ordered and has the reference's
    inertia."""
    grid = GridSpec(box=((-2.0, 2.0),) * 3, resolution=(11,) * 3)
    wells = [
        {"name": "ball_well", "center": [c, -c, c], "radius": 0.7, "depth": 60.0}
        for c in (-1.0, 1.0)
    ]
    balls = build_potential({"name": "multi_well", "wells": wells}, grid)
    family = {"name": "band_limited_random", "seed": 3, "cutoff": 3, "amplitude": 300.0}
    raw = build_potential(family, grid)
    landscape = PotentialField(grid=grid, values=np.minimum(raw.values, 0.0))
    coords = np.nonzero(schrodinger._interior(balls) < 0)
    assert all(np.ptp(c) + 1 > np.unique(c).size for c in coords)
    coords = np.nonzero(schrodinger._interior(landscape) < 0)
    same_prefix = (np.diff(coords[0]) == 0) & (np.diff(coords[1]) == 0)
    assert np.any(same_prefix & (np.diff(coords[2]) > 1))
    for V, e in ((balls, -20.0), (landscape, -40.0)):
        A = birman_schwinger_matrix(V, e)
        ref = _reference_birman_schwinger(V, e)
        assert A.flags.f_contiguous and A.shape == ref.shape
        low = np.tril_indices(ref.shape[0])
        assert np.allclose(A[low], ref[low], rtol=0, atol=1e-12 * np.abs(ref).max())
        assert inertia(A).n_minus >= 1 and inertia(A) == inertia(ref)


def test_birman_schwinger_matrix_footprint_follows_the_well():
    """On a compact well spread across the box, two radius-0.3 balls at
    (-1.5)^3 and (1.5)^3, the construction holds arrays of W's occupied
    coordinates, not of its bounding box: at 25^3 its tracemalloc peak stays
    under 4 MB, and its count equals a direct factorization's."""
    grid = GridSpec(box=((-2.0, 2.0),) * 3, resolution=(25,) * 3)
    wells = [
        {"name": "ball_well", "center": [c] * 3, "radius": 0.3, "depth": 60.0}
        for c in (-1.5, 1.5)
    ]
    V = build_potential({"name": "multi_well", "wells": wells}, grid)
    tracemalloc.start()
    try:
        A = birman_schwinger_matrix(V, -0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert inertia(A).n_minus == _direct_box_count(V, -0.5) >= 1


def test_birman_schwinger_footprint_bound_holds_on_a_spanning_well():
    """On a random landscape whose well occupies every coordinate of the
    box, the construction's tracemalloc peak stays within the bound that
    its docstring states: the |W|^2 result plus 3N + u_1 u_2^2 m_3 +
    u_2^2 m_2 + 4 |W| m_3 doubles, 10 |W| index integers, the sine
    matrices and a few kB."""
    grid = GridSpec(box=((-2.0, 2.0),) * 3, resolution=(17,) * 3)
    family = {"name": "band_limited_random", "seed": 3, "cutoff": 3, "amplitude": 300.0}
    V = build_potential(family, grid)
    coords = np.nonzero(schrodinger._interior(V) < 0)
    size, m = coords[0].size, 15
    u = [np.unique(c).size for c in coords]
    assert u == [m] * 3
    doubles = size**2 + 3 * m**3 + u[0] * u[1] ** 2 * m + u[1] ** 2 * m + 4 * size * m
    tracemalloc.start()
    try:
        birman_schwinger_matrix(V, -40.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (doubles + 10 * size + 3 * m * (m + 1)) + 16 * 2**10


# --------------------------------------------------------------- box count


def _brute_box_count(n, side, mu):
    R2 = mu * side**2 / np.pi**2
    kmax = int(np.floor(np.sqrt(max(R2, 0.0))))
    count = 0
    rng = range(1, kmax + 1)
    if n == 1:
        return sum(1 for k in rng if k * k <= R2)
    if n == 2:
        return sum(1 for a in rng for b in rng if a * a + b * b <= R2)
    return sum(
        1
        for a in rng
        for b in rng
        for c in rng
        if a * a + b * b + c * c <= R2
    )


def test_box_count_reference_value():
    assert box_exact_count(3, 1.0, 100.0) == 7


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mu", [0.0, 5.0, 42.0, 333.3, 2000.0])
def test_box_count_matches_brute_force(n, mu):
    for side in (1.0, 2.5):
        assert box_exact_count(n, side, mu) == _brute_box_count(n, side, mu)


def test_box_count_small_and_invalid():
    assert box_exact_count(3, 1.0, 0.0) == 0
    assert box_exact_count(3, 1.0, 0.9 * np.pi**2 * 3) == 0  # below ground state
    with pytest.raises(ValueError):
        box_exact_count(4, 1.0, 10.0)
    with pytest.raises(ValueError):
        box_exact_count(3, 0.0, 10.0)
    with pytest.raises(ValueError):
        box_exact_count(3, 1.0, -1.0)
    with pytest.raises(EnumerationCap):
        box_exact_count(3, 1.0, 1e7 * np.pi**2)


def test_polya_dominates_and_weyl_ratio_converges():
    side = 1.0
    ratios = []
    for mu in (1e2, 1e3, 1e4):
        count = box_exact_count(3, side, mu)
        bound = polya_weyl_report(3, side**3, mu)
        assert count <= bound
        ratios.append(count / bound)
    assert ratios[0] < ratios[1] < ratios[2]
    assert 0.85 <= ratios[2] <= 1.0
