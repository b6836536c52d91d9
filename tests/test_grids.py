import numpy as np
import pytest
from oflux.errors import PreconditionError
from oflux.grids import (
    Snapshot,
    Trajectory,
    deriv,
    divergence,
    energy,
    make_grid,
    trapezoid_time_weights,
    wall_distance,
    wall_normal_sign,
)
from oflux.synth import taylor_green

from conftest import TWO_PI, channel_grid


def test_make_grid_spacings():
    g = make_grid((64, 64), (TWO_PI, TWO_PI))
    assert g.spacing == (TWO_PI / 64, TWO_PI / 64)
    gc = make_grid((64, 65), (TWO_PI, 1.0), ("periodic", "wall"))
    assert gc.spacing[1] == pytest.approx(1.0 / 64, abs=0)


def test_make_grid_rejects_coarse():
    with pytest.raises(PreconditionError, match="too coarse"):
        make_grid((4, 4), (1.0, 1.0))


def test_make_grid_rejects_bad_extent():
    with pytest.raises(PreconditionError):
        make_grid((16, 16), (1.0, -1.0))


def test_distance_tie_resolves_to_lower_wall():
    # node 32 of 65 sits at mid-channel, as far from either wall plane
    grid = channel_grid(64, 65, ly=1.0)
    assert grid.axis_coords(1)[32] == 0.5
    assert np.broadcast_to(wall_distance(grid), grid.dims)[0, 32] == 0.5
    sgn = wall_normal_sign(grid)
    assert np.all(sgn[:, 32] == -1.0)
    assert np.all(sgn[:, 31] == -1.0) and np.all(sgn[:, 33] == 1.0)


def test_wall_axis_needs_exactly_one_wall():
    assert make_grid((16, 17, 16), (1.0, 1.0, 1.0), ("periodic", "wall", "periodic")).wall_axis == 1
    box = make_grid((16, 16), (1.0, 1.0))
    for g in (box, make_grid((16, 16), (1.0, 1.0), "wall")):
        with pytest.raises(PreconditionError, match="no boundary"):
            g.wall_axis
        with pytest.raises(PreconditionError, match="no boundary"):
            wall_normal_sign(g)
    assert np.all(wall_distance(box) == np.inf)


def test_trapezoid_time_weights():
    # half weight at either end; a lone snapshot weighs 1 whatever dt is
    assert trapezoid_time_weights(3, 0.1).tolist() == [0.05, 0.1, 0.05]
    assert trapezoid_time_weights(3, 0.1).sum() == pytest.approx(0.2, rel=1e-15)
    for dt in (1e-3, 0.25, 1.0):
        assert trapezoid_time_weights(1, dt).tolist() == [1.0]


def test_divergence_constant_field(box64):
    snap = Snapshot(box64, np.stack([np.full(box64.dims, 2.0), np.full(box64.dims, -3.0)]))
    assert np.abs(divergence(snap)).max() <= 1e-14


def test_divergence_taylor_green(box64):
    # analytic divergence of (sin x cos y, -cos x sin y) is identically zero
    assert np.abs(divergence(taylor_green(box64))).max() <= 1e-12


def test_divergence_linear_along_wall_axis():
    # linear field along the wall axis: central and one-sided closures are exact
    grid = channel_grid(32, 33)
    _, y = grid.meshes()
    u2 = np.stack([np.zeros(grid.dims), np.broadcast_to(y, grid.dims).copy()])
    div2 = divergence(Snapshot(grid, u2))
    assert np.abs(div2 - 1.0).max() <= 1e-12


def test_energy_constant_unit_box():
    g = make_grid((16, 16), (1.0, 1.0))
    snap = Snapshot(g, np.stack([np.ones(g.dims), np.zeros(g.dims)]))
    assert energy(snap) == pytest.approx(0.5, abs=1e-14)


def test_energy_sine_analytic(box64):
    # 0.5 * int sin^2 x dx dy = 0.5 * pi * 2 pi = pi^2
    x, _ = box64.meshes()
    snap = Snapshot(box64, np.stack([np.broadcast_to(np.sin(x), box64.dims).copy(), np.zeros(box64.dims)]))
    assert energy(snap) == pytest.approx(np.pi**2, abs=1e-12)


def test_energy_axis_permutation_invariant(box128):
    from oflux.synth import fractional_field

    f = fractional_field(0.5, None, 11, box128)
    e0 = energy(f)
    swapped = Snapshot(box128, np.transpose(f.velocity[::-1], (0, 2, 1)))
    assert energy(swapped) == pytest.approx(e0, rel=1e-13)


def test_distance_field_gradient_is_minus_normal():
    # |grad d + n(sigma)| <= 1e-12 where d < half-width (central differences)
    grid = channel_grid(32, 65, ly=1.0)
    d = np.broadcast_to(wall_distance(grid), grid.dims)
    sgn = wall_normal_sign(grid)
    hy = grid.spacing[1]
    grad_y = (d[:, 2:] - d[:, :-2]) / (2 * hy)
    inner = np.abs(d[:, 1:-1] - 0.5) > 1.5 * hy  # exclude the mid-channel kink
    err = np.abs(grad_y + sgn[:, 1:-1])
    assert err[inner].max() <= 1e-12


def test_snapshot_divergence_tag_contract(box64):
    from oflux.synth import fractional_field

    f = fractional_field(0.4, None, 5, box64)
    tol = f.tags["divergence_free"]
    assert np.abs(divergence(f)).max() <= tol


def test_divergence_order_on_smooth_channel_field():
    # wall-axis differencing is second order: divergence defect shrinks ~h^2
    from conftest import stream_channel_field

    defects = {}
    for ny in (33, 65):
        grid = channel_grid(ny - 1, ny)
        snap = stream_channel_field(grid)
        defects[ny] = np.abs(divergence(snap)).max()
    assert np.log2(defects[33] / defects[65]) >= 1.7


@pytest.mark.parametrize("shape", [(12, 9), (9, 10, 11)])
@pytest.mark.parametrize("kind", ["periodic", "wall"])
def test_deriv_with_leading_axes_equals_per_component(shape, kind):
    # non-square grids, odd and even axes, the last axis periodic or a wall
    kinds = ["periodic"] * (len(shape) - 1) + [kind]
    grid = make_grid(shape, (1.3, 0.9, 1.1)[: len(shape)], kinds)
    f = np.random.default_rng(1).standard_normal((2, 3, *shape))
    for axis in range(grid.ndim):
        want = np.stack([np.stack([deriv(c, axis, grid) for c in row]) for row in f])
        assert np.array_equal(deriv(f, axis, grid), want)


def test_trajectory_rejects_snapshots_on_different_grids():
    small, large = make_grid((32, 32), (TWO_PI, TWO_PI)), make_grid((64, 64), (TWO_PI, TWO_PI))
    snaps = [Snapshot(g, np.zeros((2, *g.dims)), None, 0.1 * k) for k, g in enumerate((small, large, small))]
    with pytest.raises(PreconditionError, match="grid"):
        Trajectory(tuple(snaps), 0.1)
    same_dims = make_grid((32, 32), (TWO_PI, 1.0))
    with pytest.raises(PreconditionError, match="grid"):
        Trajectory((snaps[0], Snapshot(same_dims, np.zeros((2, 32, 32)), None, 0.1)), 0.1)
