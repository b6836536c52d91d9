import numpy as np
import pytest

from oflux.errors import PreconditionError
from oflux.grids import Snapshot, make_grid
from oflux.mollify import full_box_chain
from oflux.pressure import (
    interior_holder_check,
    negative_sobolev_norm,
    solve_pressure_channel,
    solve_pressure_periodic,
)
from oflux.synth import estimate_holder_exponent, fractional_field, taylor_green

from conftest import TWO_PI, channel_grid, stream_channel_field


def test_periodic_taylor_green_oracle(box64):
    snap = taylor_green(box64)
    rep = solve_pressure_periodic(snap)
    assert np.abs(rep.pressure - snap.pressure).max() <= 1e-10
    assert rep.residual <= 1e-10


def test_periodic_constant_velocity(box64):
    snap = Snapshot(box64, np.stack([np.full(box64.dims, 1.3), np.full(box64.dims, -0.2)]))
    rep = solve_pressure_periodic(snap)
    assert np.abs(rep.pressure).max() <= 1e-14


def test_periodic_solve_is_exact_in_discrete_algebra(box128):
    f = fractional_field(0.4, None, 3, box128)
    rep = solve_pressure_periodic(f)
    assert rep.residual <= 1e-10
    assert abs(rep.pressure.mean()) <= 1e-14


def test_periodic_pressure_owns_its_memory(box64):
    # a view into the solve's output would keep its source field alive beside every
    # pressure a trajectory stores
    rep = solve_pressure_periodic(fractional_field(0.4, None, 3, box64))
    assert rep.pressure.base is None and rep.pressure.flags.owndata
    assert rep.pressure.shape == box64.dims


def test_channel_unidirectional_shear():
    grid = channel_grid(64, 65)
    _, y = grid.meshes()
    u = np.stack(
        [np.broadcast_to(np.sin(np.pi * y), grid.dims).copy(), np.zeros(grid.dims)]
    )
    rep = solve_pressure_channel(Snapshot(grid, u))
    assert np.abs(rep.pressure).max() <= 1e-10
    assert rep.residual <= 1e-10


def test_channel_impermeability_guard():
    grid = channel_grid(32, 33)
    vel = np.zeros((2, *grid.dims))
    vel[1, :, 0] = 0.05
    with pytest.raises(PreconditionError, match="impermeability violated"):
        solve_pressure_channel(Snapshot(grid, vel))


def test_channel_manufactured_solution_order():
    errs = {}
    for n in (33, 65, 129):
        grid = channel_grid(n - 1, n)
        snap = stream_channel_field(grid)
        rep = solve_pressure_channel(snap)
        exact = snap.pressure - snap.pressure[:, 1:-1].mean()
        errs[n] = float(np.abs(rep.pressure - exact).max())
    order1 = np.log2(errs[33] / errs[65])
    order2 = np.log2(errs[65] / errs[129])
    assert 1.7 <= order1 <= 2.3
    assert 1.7 <= order2 <= 2.3


def test_gauge_invariance_perturb_and_rerun():
    # adding a constant to p then re-zeroing the gauge leaves diagnostics alone
    grid = channel_grid(64, 65)
    snap = stream_channel_field(grid)
    rep = solve_pressure_channel(snap)
    shifted = rep.pressure + 11.0
    shifted = shifted - shifted[:, 1:-1].mean()
    assert np.abs(shifted - rep.pressure).max() <= 1e-12


def test_sobolev_beta_zero_is_l2(box64):
    f = fractional_field(0.5, None, 3, box64).velocity[0]
    norm = negative_sobolev_norm(f, 0.0, box64)
    l2 = np.sqrt(np.sum(f**2) * box64.cell_volume())
    assert abs(norm - l2) <= 1e-12


def test_sobolev_single_mode(box64):
    x, y = box64.meshes()
    mode = np.cos(3 * x + 2 * y) + 0 * y
    norm = negative_sobolev_norm(mode, 1.5, box64)
    pred = np.sqrt((1 + 13.0) ** (-1.5) * TWO_PI**2 / 2)
    assert abs(norm - pred) <= 1e-12


def test_sobolev_monotone_in_beta(box64):
    x, y = box64.meshes()
    mode = np.cos(3 * x + 2 * y) + 0 * y
    vals = [negative_sobolev_norm(mode, b, box64) for b in (0.0, 0.5, 1.0, 2.0)]
    assert all(vals[i + 1] < vals[i] for i in range(3))


def test_sobolev_channel_beta_zero_is_trapezoid_l2():
    grid = channel_grid(32, 33)
    _, y = grid.meshes()
    f = np.broadcast_to(np.sin(np.pi * y), grid.dims).copy()
    norm = negative_sobolev_norm(f, 0.0, grid)
    from oflux.grids import integrate

    l2 = np.sqrt(integrate(f**2, grid))
    assert abs(norm - l2) <= 1e-12


def test_interior_holder_check_taylor_green_stable():
    ratios = {}
    for n in (64, 128):
        g = make_grid((n, n), (TWO_PI, TWO_PI))
        snap = taylor_green(g)
        chain = full_box_chain(g, eta=1.0)
        rep = interior_holder_check(snap, chain, alpha=0.5)
        ratios[n] = rep.ratio
    assert ratios[64] is not None
    assert abs(ratios[128] - ratios[64]) <= 0.2 * max(ratios.values())


def test_interior_holder_check_degenerate(box64):
    snap = Snapshot(
        box64, np.zeros((2, *box64.dims)), np.zeros(box64.dims)
    )
    chain = full_box_chain(box64, eta=1.0)
    rep = interior_holder_check(snap, chain, alpha=0.5)
    assert rep.degenerate == "0/0 degenerate"
    assert rep.ratio is None


def test_interior_pressure_gains_regularity(box256):
    # solved pressure should be at least as regular as the velocity
    f = fractional_field(0.4, None, 7, box256)
    p = solve_pressure_periodic(f).pressure
    au = estimate_holder_exponent(f).exponent
    ap = estimate_holder_exponent(p, grid=box256).exponent
    assert ap >= au - 0.1


def test_interior_holder_check_requires_pressure(box64):
    chain = full_box_chain(box64, eta=1.0)
    with pytest.raises(PreconditionError, match="pressure"):
        interior_holder_check(fractional_field(0.4, None, 1, box64), chain, alpha=0.5)
