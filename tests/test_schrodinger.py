import numpy as np
import pytest

from wellspectra.assemble import assemble_pencil, classify_nodes
from wellspectra.bounds import polya_weyl_report
from wellspectra.eigcount import pencil_eigs
from wellspectra.errors import EnumerationCap
from wellspectra.model import GridSpec, PotentialField, build_potential
from wellspectra.schrodinger import (
    assemble_schrodinger,
    box_exact_count,
    box_interior_indices,
    reduction_check,
)


def test_box_interior_indices():
    g1 = GridSpec(box=((0.0, 1.0),), resolution=(5,))
    assert box_interior_indices(g1).tolist() == [1, 2, 3]
    g2 = GridSpec(box=((0.0, 1.0),) * 2, resolution=(3,) * 2)
    assert box_interior_indices(g2).tolist() == [4]


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
