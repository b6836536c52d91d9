import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from oflux import solver
from oflux.errors import PreconditionError
from oflux.boundary import shell_ladder
from oflux.grids import Snapshot, Trajectory, divergence, make_grid, wall_distance, wall_normal_sign
from oflux.pressure import solve_pressure_channel
from oflux.solver import (
    MacState,
    SolverConfig,
    _Projector,
    _divergence,
    _grad_correct,
    _scratch,
    advection,
    dissipation_sweep,
    gradient_norm_sq,
    kinetic_energy,
    mac_to_nodes,
    nodes_to_mac,
    project,
    run,
    shell_flux_row,
    step,
    viscous_flux_criterion,
)
from oflux.synth import fractional_field, taylor_green

from conftest import TWO_PI, channel_grid
import tridiag_oracle
from tridiag_oracle import lap_x, lap_y_u, lap_y_v


@pytest.fixture(scope="module")
def periodic64():
    return make_grid((64, 64), (TWO_PI, TWO_PI))


def _with_pressure(traj):
    """The trajectory with each snapshot's Bernoulli pressure, as ``sweep`` stores it."""
    return traj.map(lambda s: s.with_pressure(solve_pressure_channel(s)))


def _channel_init(grid, amp=0.05):
    x, y = grid.meshes()
    prof = np.sin(np.pi * y / grid.extents[1]) ** 2
    u0 = np.ascontiguousarray(np.broadcast_to(prof, grid.dims) + amp * np.sin(2 * x) * prof)
    return Snapshot(grid, np.stack([u0, np.zeros(grid.dims)]))


def test_zero_initial_data_stays_zero(periodic64):
    z = Snapshot(periodic64, np.zeros((2, *periodic64.dims)))
    traj, series = run(SolverConfig(0.01, 0.01, 0.1, z, snapshot_stride=5))
    assert max(np.abs(s.velocity).max() for s in traj.snapshots) == 0.0
    assert series.cumulative_dissipation[-1] == 0.0


def test_taylor_green_accuracy(periodic64):
    init = taylor_green(periodic64, 0.0, 0.01)
    traj, series = run(SolverConfig(0.01, 0.005, 1.0, init, snapshot_stride=50))
    exact = taylor_green(periodic64, 1.0, 0.01)
    err = traj.snapshots[-1].velocity - exact.velocity
    l2 = np.sqrt(np.sum(err**2) * periodic64.cell_volume())
    assert l2 <= 1e-3


def test_taylor_green_dissipation_budget(periodic64):
    init = taylor_green(periodic64, 0.0, 0.01)
    _, series = run(SolverConfig(0.01, 0.005, 1.0, init, snapshot_stride=50))
    e0 = series.kinetic_energy[0]
    budget = e0 * (1.0 - np.exp(-4 * 0.01 * 1.0))
    assert abs(series.cumulative_dissipation[-1] - budget) <= 0.01 * budget
    assert series.leray_residual.max() <= 1e-8
    assert np.all(np.diff(series.cumulative_dissipation) >= 0.0)


def test_divergence_free_after_every_step(periodic64):
    cfg = SolverConfig(0.01, 0.01, 0.05, taylor_green(periodic64, 0.0, 0.01))
    state = nodes_to_mac(cfg.initial)
    proj = _Projector(periodic64)
    u, v = project(state.u, state.v, periodic64, proj)
    state = MacState(u, v, 0.0)
    for _ in range(5):
        state, _, _ = step(state, cfg)
        assert np.abs(_divergence(state.u, state.v, periodic64)).max() <= 1e-10


def test_cfl_violation_reports_admissible_dt(periodic64):
    init = taylor_green(periodic64)
    cfg = SolverConfig(0.0, 0.2, 1.0, init)
    with pytest.raises(PreconditionError, match="CFL violation") as err:
        run(cfg)
    assert float(re.search(r"exceeds admissible (\S+)", str(err.value)).group(1)) < 0.2


@pytest.mark.parametrize("geometry", ["periodic", "channel"])
def test_non_finite_state_raises(geometry):
    grid = make_grid((32, 32), (TWO_PI, TWO_PI))
    init = taylor_green(grid)
    if geometry == "channel":
        grid = channel_grid(32, 33)
        init = _channel_init(grid)
    vel = init.velocity.copy()
    vel[1, 16, 16] = np.nan  # one node of the wall-normal component
    cfg = SolverConfig(0.01, 0.01, 0.1, Snapshot(grid, vel))
    with pytest.raises(PreconditionError, match="non-finite velocity entering step 1"):
        run(cfg)


@pytest.mark.parametrize(
    "field, value",
    [("nu", float("nan")), ("dt", float("nan")), ("t_end", float("inf")), ("snapshot_stride", 0)],
)
def test_solver_config_rejects_bad_numbers(periodic64, field, value):
    args = dict(nu=0.01, dt=0.01, t_end=0.1, initial=taylor_green(periodic64))
    args[field] = value
    with pytest.raises(PreconditionError, match=field):
        SolverConfig(**args)


def test_projection_idempotent(periodic64):
    f = fractional_field(0.5, None, 2, periodic64)
    st = nodes_to_mac(f)
    proj = _Projector(periodic64)
    u1, v1 = project(st.u, st.v, periodic64, proj)
    u2, v2 = project(u1, v1, periodic64, proj)
    scale = max(np.abs(u1).max(), np.abs(v1).max())
    assert max(np.abs(u2 - u1).max(), np.abs(v2 - v1).max()) <= 1e-12 * max(scale, 1.0)


def test_euler_energy_conservation_128():
    g = make_grid((128, 128), (TWO_PI, TWO_PI))
    f = fractional_field(0.9, 4, 3, g)
    init = Snapshot(g, 0.25 * f.velocity)  # modest amplitude keeps RK drift tiny
    traj, series = run(SolverConfig(0.0, 0.002, 1.0, init, snapshot_stride=500))
    drift = abs(series.kinetic_energy[-1] - series.kinetic_energy[0])
    assert drift <= 1e-6
    assert series.leray_residual.max() <= 1e-8


def test_refinement_order_taylor_green():
    errs = {}
    for n in (32, 64, 128):
        g = make_grid((n, n), (TWO_PI, TWO_PI))
        cfg = SolverConfig(0.01, 0.0025, 0.5, taylor_green(g, 0.0, 0.01), snapshot_stride=200)
        traj, series = run(cfg)
        exact = taylor_green(g, 0.5, 0.01)
        errs[n] = float(np.sqrt(np.sum((traj.snapshots[-1].velocity - exact.velocity) ** 2) * g.cell_volume()))
        assert series.leray_residual.max() <= 1e-8
    assert np.log2(errs[32] / errs[64]) >= 1.7
    assert np.log2(errs[64] / errs[128]) >= 1.7


def test_skew_advection_energy_neutral(periodic64):
    rng = np.random.default_rng(0)
    proj = _Projector(periodic64)
    u, v = project(rng.standard_normal(periodic64.dims), rng.standard_normal(periodic64.dims), periodic64, proj)
    du, dv = advection(u, v, periodic64)
    scale = kinetic_energy(u, v, periodic64)
    assert abs(np.sum(u * du) + np.sum(v * dv)) <= 1e-11 * scale


MAC_CASES = dict(
    nx=hst.integers(8, 17),
    ny=hst.integers(8, 17),
    channel=hst.booleans(),
    sliced=hst.booleans(),
    seed=hst.integers(0, 2**32 - 1),
)


def _mac_fields(nx, ny, channel, sliced, seed):
    """A grid and random (u, v, q) on its MAC layout; ``sliced`` draws each as
    the leading columns of a wider array, so that none is contiguous."""
    grid = channel_grid(nx, ny, 1.3, 0.7) if channel else make_grid((nx, ny), (1.3, 0.7))
    rng = np.random.default_rng(seed)
    ncy = ny - 1 if channel else ny

    def draw(m):
        return rng.standard_normal((nx, m + 3 * sliced))[:, :m]

    u, v, q = draw(ncy), draw(ny), draw(ncy)
    if channel:
        v[:, 0] = v[:, -1] = 0.0
    return grid, u, v, q


def _stale_scratch(grid):
    """Work arrays that hold NaN, so that a stencil reading before writing shows."""
    scratch = _scratch(grid)
    for buf in scratch:
        buf.fill(np.nan)
    return scratch


def _same_bytes(got, want):
    # tobytes, not array_equal: -0.0 == +0.0 would hide a changed sign of zero
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(**MAC_CASES)
def test_advection_one_corner_flux_is_bitwise_the_two_flux_form(nx, ny, channel, sliced, seed):
    grid, u, v, _ = _mac_fields(nx, ny, channel, sliced, seed)
    want = tridiag_oracle.advection(u, v, grid)
    for scratch in (None, _stale_scratch(grid)):
        for got, w in zip(advection(u, v, grid, scratch), want):
            assert _same_bytes(got, w)


@settings(max_examples=25, deadline=None)
@given(**MAC_CASES)
def test_mac_stencils_are_bitwise_their_roll_forms(nx, ny, channel, sliced, seed):
    grid, u, v, q = _mac_fields(nx, ny, channel, sliced, seed)
    for scratch in (None, _stale_scratch(grid)):
        assert _same_bytes(_divergence(u, v, grid, scratch), tridiag_oracle.divergence(u, v, grid))
        if channel:
            assert _same_bytes(gradient_norm_sq(u, v, grid, scratch), tridiag_oracle.gradient_norm_sq(u, v, grid))
    for got, want in zip(_grad_correct(u, v, q, grid), tridiag_oracle.grad_correct(u, v, q, grid)):
        assert _same_bytes(got, want)


@settings(max_examples=25, deadline=None)
@given(nx=hst.integers(8, 17), ny=hst.integers(8, 17), sliced=hst.booleans(), seed=hst.integers(0, 2**32 - 1))
def test_channel_resampling_is_bitwise_its_roll_form(nx, ny, sliced, seed):
    grid, u, v, _ = _mac_fields(nx, ny, True, sliced, seed)
    nodes = np.random.default_rng(seed).standard_normal((2, nx, ny + 3 * sliced))[:, :, :ny]
    nodes[:, :, 0] = nodes[:, :, -1] = 0.0  # no-slip
    state = nodes_to_mac(Snapshot(grid, nodes))
    for got, want in zip((state.u, state.v), tridiag_oracle.channel_to_mac(nodes[0], nodes[1])):
        assert _same_bytes(got, want)
    snap = mac_to_nodes(MacState(u, v, 0.0), grid)
    assert _same_bytes(snap.velocity, np.stack(tridiag_oracle.channel_to_nodes(u, v)))


# du and dv are two grid fields; on the channel numpy's iterator adds its
# buffers (a fixed 64 KB each, about 3 fields at 64 x 65) for the strided
# wall-axis slices.
@pytest.mark.parametrize("channel, bound", [(False, 2.5), (True, 6.0)])
def test_advection_allocates_only_its_outputs(channel, bound):
    grid = channel_grid(64, 65) if channel else make_grid((64, 64), (TWO_PI, TWO_PI))
    _, u, v, _ = _mac_fields(64, grid.dims[1], channel, False, 3)
    scratch = _scratch(grid)
    advection(u, v, grid, scratch)  # warm
    tracemalloc.start()
    try:
        advection(u, v, grid, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * 64 * grid.dims[1]) <= bound


def test_channel_advection_energy_neutral():
    grid = channel_grid(64, 65)
    rng = np.random.default_rng(1)
    u = rng.standard_normal((64, 64))
    v = rng.standard_normal((64, 65))
    v[:, 0] = v[:, -1] = 0.0
    u, v = project(u, v, grid, _Projector(grid))
    du, dv = advection(u, v, grid)
    assert abs(np.sum(u * du) + np.sum(v * dv)) <= 1e-11 * kinetic_energy(u, v, grid)


def test_diffusion_energy_compatible():
    # <w, L w> == -||grad w||^2 in the staggered inner product (audit basis)
    grid = channel_grid(32, 33)
    rng = np.random.default_rng(4)
    u = rng.standard_normal((32, 32))
    v = rng.standard_normal((32, 33))
    v[:, 0] = v[:, -1] = 0.0
    hx, hy = grid.spacing
    lap_u = lap_y_u(u, hy) + lap_x(u, hx)
    lap_v = lap_y_v(v, hy) + lap_x(v, hx)
    lap_v[:, 0] = lap_v[:, -1] = 0.0
    ip = (np.sum(u * lap_u) + np.sum(v * lap_v)) * grid.cell_volume()
    g2 = gradient_norm_sq(u, v, grid)
    assert abs(ip + g2) <= 1e-10 * max(g2, 1.0)


def test_channel_run_no_slip_and_leray():
    grid = channel_grid(64, 65)
    init = _channel_init(grid)
    traj, series = run(SolverConfig(0.01, 0.0025, 0.25, init, snapshot_stride=25))
    assert series.leray_residual.max() <= 1e-8
    last = traj.snapshots[-1]
    assert np.abs(last.velocity[:, :, 0]).max() == 0.0
    assert np.abs(last.velocity[:, :, -1]).max() == 0.0


def test_channel_mirror_symmetry_is_bitwise():
    # y -> 1 - y with v -> -v maps the channel equations onto themselves
    grid = channel_grid(32, 33)
    x, y = grid.meshes()
    prof = np.sin(np.pi * y / grid.extents[1]) ** 2
    skew = 1.0 + 0.5 * y / grid.extents[1]  # no mirror symmetry of its own
    vel = np.stack([np.broadcast_to(f, grid.dims) for f in (prof * skew + 0.05 * np.sin(2 * x) * prof,
                                                         0.05 * np.cos(x) * prof * skew)])

    def mirror(w):
        m = w[:, :, ::-1].copy()
        m[1] *= -1.0
        return m

    ends = []
    for w in (vel, mirror(vel)):
        traj, series = run(SolverConfig(1e-2, 1e-3, 0.05, Snapshot(grid, np.ascontiguousarray(w)), snapshot_stride=50))
        ends.append((traj.snapshots[-1].velocity, series.kinetic_energy))
    (got, e_got), (back, e_back) = ends
    want = mirror(back)
    assert _same_bytes(got[:, :, 1:-1], want[:, :, 1:-1])
    assert np.array_equal(got, want)  # the walls' v is 0, whose sign the mirror's negation flips
    assert np.allclose(e_got, e_back, rtol=1e-14, atol=0.0)  # sums in another order: round-off only


def test_channel_requires_no_slip_initial():
    grid = channel_grid(32, 33)
    vel = np.zeros((2, *grid.dims))
    vel[0, :, 0] = 1.0  # slip on the lower wall
    with pytest.raises(PreconditionError, match="no-slip"):
        nodes_to_mac(Snapshot(grid, vel))


def test_dissipation_sweep_periodic_decreasing():
    g = make_grid((128, 128), (TWO_PI, TWO_PI))
    cfg = SolverConfig(1e-2, 0.005, 0.5, taylor_green(g, 0.0, 1e-2), snapshot_stride=100)
    rep = dissipation_sweep(cfg, [1e-2, 3e-3, 1e-3], 0.5)
    vals = [r[1] for r in rep.rows]
    assert all(vals[i + 1] < vals[i] for i in range(2))
    assert vals[-1] <= 0.5 * vals[0]
    assert rep.verdict == "vanishing-dissipation trend consistent"
    assert all(r[2] for r in rep.rows)  # periodic entries are never flagged


def test_dissipation_sweep_zero_data(periodic64):
    z = Snapshot(periodic64, np.zeros((2, *periodic64.dims)))
    cfg = SolverConfig(1e-2, 0.01, 0.1, z)
    rep = dissipation_sweep(cfg, [1e-2, 1e-3], 0.1)
    assert all(r[1] == 0.0 for r in rep.rows)


def test_dissipation_sweep_channel_flags_thin_layers():
    grid = channel_grid(64, 65)
    init = _channel_init(grid)
    cfg = SolverConfig(1e-2, 0.0025, 0.2, init, snapshot_stride=40)
    rep = dissipation_sweep(cfg, [1e-2, 1e-3, 1e-4], 0.2)
    hy = grid.spacing[1]
    for nu, _, resolved in rep.rows:
        assert resolved == (np.sqrt(nu * 0.2) >= 4 * hy)
    assert rep.flagged  # thin boundary layers reported, never asserted


def _criterion(runs, etas):
    """``viscous_flux_criterion`` over the rows of (nu, trajectory) runs."""
    etas = shell_ladder(etas, runs[0][1].grid)
    return viscous_flux_criterion([(nu, shell_flux_row(nu, traj, etas)) for nu, traj in runs], etas)


def test_viscous_flux_criterion_positive():
    grid = channel_grid(64, 65)
    init = _channel_init(grid)
    runs = []
    for nu in (0.02, 0.01):
        traj, series = run(SolverConfig(nu, 0.0025, 0.3, init, snapshot_stride=40))
        assert series.leray_residual.max() <= 1e-8
        runs.append((nu, _with_pressure(traj)))
    h = grid.spacing[1]
    rep = _criterion(runs, [28 * h, 14 * h, 7 * h])
    assert rep.eta_trend_ok
    # no-slip walls: the wall-plane integrand vanishes; fluxes are finite
    assert all(np.isfinite(v) for row in rep.flux for v in row)


def test_viscous_flux_criterion_blowing_negative():
    grid = channel_grid(64, 65)
    init = _channel_init(grid)
    runs = []
    for nu in (0.02, 0.01):
        traj, _ = run(SolverConfig(nu, 0.0025, 0.2, init, snapshot_stride=40))
        sgn = wall_normal_sign(grid)
        blown = traj.map(
            lambda s: Snapshot(
                s.grid,
                np.stack([s.velocity[0], s.velocity[1] + 0.05 * sgn * _interior_mask(grid)]),
                None,
                s.time,
            )
        )
        runs.append((nu, _with_pressure(blown)))
    h = grid.spacing[1]
    rep = _criterion(runs, [28 * h, 14 * h, 7 * h])
    assert not rep.eta_trend_ok


def test_viscous_flux_criterion_rejects_equal_smallest_viscosities():
    row = (1.0, 0.5, 0.25)
    with pytest.raises(PreconditionError, match="two distinct smallest viscosities"):
        viscous_flux_criterion([(0.02, row), (0.01, row), (0.01, row)], [0.4, 0.3, 0.2])


def test_viscous_flux_criterion_rejects_a_non_finite_flux():
    grid = channel_grid(32, 65)
    runs = [(nu, run(SolverConfig(nu, 1e-3, 0.01, _channel_init(grid), snapshot_stride=2))[0])
            for nu in (1e-2, 5e-3, 2.5e-3)]
    nu, traj = runs[-1]
    last = traj.snapshots[-1]
    vel = last.velocity.copy()
    vel[0, 16, 32] = np.nan
    runs[-1] = (nu, Trajectory(traj.snapshots[:-1] + (Snapshot(grid, vel, None, last.time),), traj.dt))
    runs = [(nu, _with_pressure(traj)) for nu, traj in runs]
    with pytest.raises(PreconditionError, match="non-finite shell flux nan at nu=0.0025, eta=0.4"):
        _criterion(runs, [0.4, 0.2, 0.1])


def test_viscous_flux_criterion_refuses_a_run_without_pressure(monkeypatch):
    grid = channel_grid(16, 33)
    traj, _ = run(SolverConfig(0.01, 0.001, 0.005, _channel_init(grid), snapshot_stride=1))
    monkeypatch.setattr(solver, "shell_flux", lambda *a: pytest.fail("a shell flux was computed"))
    with pytest.raises(PreconditionError, match="nu=0.01 run's snapshots carry no pressure"):
        shell_flux_row(0.01, traj, [0.4, 0.3, 0.2])


def _interior_mask(grid):
    d = np.broadcast_to(wall_distance(grid), grid.dims)
    return np.where(d > 0, 1.0, 0.0)
