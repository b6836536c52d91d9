import numpy as np
import pytest

from oflux.errors import PreconditionError
from oflux.grids import Domain, Snapshot, divergence, make_grid
from oflux.solver import (
    CFLViolation,
    MacState,
    SolverConfig,
    _Projector,
    _divergence,
    advection,
    dissipation_sweep,
    gradient_norm_sq,
    kinetic_energy,
    nodes_to_mac,
    project,
    run,
    step,
    viscous_flux_criterion,
)
from oflux.synth import fractional_field, taylor_green

from conftest import TWO_PI, channel_domain
from tridiag_oracle import lap_x, lap_y_u, lap_y_v


@pytest.fixture(scope="module")
def periodic64():
    return Domain(make_grid((64, 64), (TWO_PI, TWO_PI)), "periodic")


def _channel_init(dom, amp=0.05):
    x, y = dom.grid.meshes()
    prof = np.sin(np.pi * y / dom.grid.extents[1]) ** 2
    u0 = np.ascontiguousarray(np.broadcast_to(prof, dom.grid.dims) + amp * np.sin(2 * x) * prof)
    return Snapshot(dom.grid, np.stack([u0, np.zeros(dom.grid.dims)]))


def test_zero_initial_data_stays_zero(periodic64):
    z = Snapshot(periodic64.grid, np.zeros((2, *periodic64.grid.dims)))
    traj, series = run(SolverConfig(periodic64, 0.01, 0.01, 0.1, z, snapshot_stride=5))
    assert max(np.abs(s.velocity).max() for s in traj.snapshots) == 0.0
    assert series.cumulative_dissipation[-1] == 0.0


def test_taylor_green_accuracy(periodic64):
    init = taylor_green(periodic64.grid, 0.0, 0.01)
    traj, series = run(SolverConfig(periodic64, 0.01, 0.005, 1.0, init, snapshot_stride=50))
    exact = taylor_green(periodic64.grid, 1.0, 0.01)
    err = traj.snapshots[-1].velocity - exact.velocity
    l2 = np.sqrt(np.sum(err**2) * periodic64.grid.cell_volume())
    assert l2 <= 1e-3


def test_taylor_green_dissipation_budget(periodic64):
    init = taylor_green(periodic64.grid, 0.0, 0.01)
    _, series = run(SolverConfig(periodic64, 0.01, 0.005, 1.0, init, snapshot_stride=50))
    e0 = series.kinetic_energy[0]
    budget = e0 * (1.0 - np.exp(-4 * 0.01 * 1.0))
    assert abs(series.cumulative_dissipation[-1] - budget) <= 0.01 * budget
    assert series.leray_residual.max() <= 1e-8
    assert np.all(np.diff(series.cumulative_dissipation) >= 0.0)


def test_divergence_free_after_every_step(periodic64):
    cfg = SolverConfig(periodic64, 0.01, 0.01, 0.05, taylor_green(periodic64.grid, 0.0, 0.01))
    state = nodes_to_mac(cfg.initial, periodic64)
    proj = _Projector(periodic64)
    u, v = project(state.u, state.v, periodic64, proj)
    state = MacState(u, v, 0.0)
    for _ in range(5):
        state, _, _ = step(state, cfg)
        assert np.abs(_divergence(state.u, state.v, periodic64)).max() <= 1e-10


def test_cfl_violation_reports_admissible_dt(periodic64):
    init = taylor_green(periodic64.grid)
    cfg = SolverConfig(periodic64, 0.0, 0.2, 1.0, init)
    with pytest.raises(CFLViolation) as err:
        run(cfg)
    assert err.value.admissible_dt < 0.2


@pytest.mark.parametrize("geometry", ["periodic", "channel"])
def test_non_finite_state_raises(geometry):
    dom = Domain(make_grid((32, 32), (TWO_PI, TWO_PI)), "periodic")
    init = taylor_green(dom.grid)
    if geometry == "channel":
        dom = channel_domain(32, 33)
        init = _channel_init(dom)
    vel = init.velocity.copy()
    vel[1, 16, 16] = np.nan  # one node of the wall-normal component
    cfg = SolverConfig(dom, 0.01, 0.01, 0.1, Snapshot(dom.grid, vel))
    with pytest.raises(PreconditionError, match="non-finite velocity entering step 1"):
        run(cfg)


@pytest.mark.parametrize(
    "field, value",
    [("nu", float("nan")), ("dt", float("nan")), ("t_end", float("inf")), ("snapshot_stride", 0)],
)
def test_solver_config_rejects_bad_numbers(periodic64, field, value):
    args = dict(domain=periodic64, nu=0.01, dt=0.01, t_end=0.1, initial=taylor_green(periodic64.grid))
    args[field] = value
    with pytest.raises(PreconditionError, match=field):
        SolverConfig(**args)


def test_projection_idempotent(periodic64):
    f = fractional_field(0.5, None, 2, periodic64.grid)
    st = nodes_to_mac(f, periodic64)
    proj = _Projector(periodic64)
    u1, v1 = project(st.u, st.v, periodic64, proj)
    u2, v2 = project(u1, v1, periodic64, proj)
    scale = max(np.abs(u1).max(), np.abs(v1).max())
    assert max(np.abs(u2 - u1).max(), np.abs(v2 - v1).max()) <= 1e-12 * max(scale, 1.0)


def test_euler_energy_conservation_128():
    g = make_grid((128, 128), (TWO_PI, TWO_PI))
    dom = Domain(g, "periodic")
    f = fractional_field(0.9, 4, 3, g)
    init = Snapshot(g, 0.25 * f.velocity)  # modest amplitude keeps RK drift tiny
    traj, series = run(SolverConfig(dom, 0.0, 0.002, 1.0, init, snapshot_stride=500))
    drift = abs(series.kinetic_energy[-1] - series.kinetic_energy[0])
    assert drift <= 1e-6
    assert series.leray_residual.max() <= 1e-8


def test_refinement_order_taylor_green():
    errs = {}
    for n in (32, 64, 128):
        g = make_grid((n, n), (TWO_PI, TWO_PI))
        dom = Domain(g, "periodic")
        cfg = SolverConfig(dom, 0.01, 0.0025, 0.5, taylor_green(g, 0.0, 0.01), snapshot_stride=200)
        traj, series = run(cfg)
        exact = taylor_green(g, 0.5, 0.01)
        errs[n] = float(np.sqrt(np.sum((traj.snapshots[-1].velocity - exact.velocity) ** 2) * g.cell_volume()))
        assert series.leray_residual.max() <= 1e-8
    assert np.log2(errs[32] / errs[64]) >= 1.7
    assert np.log2(errs[64] / errs[128]) >= 1.7


def test_skew_advection_energy_neutral(periodic64):
    rng = np.random.default_rng(0)
    proj = _Projector(periodic64)
    u, v = project(rng.standard_normal(periodic64.grid.dims), rng.standard_normal(periodic64.grid.dims), periodic64, proj)
    du, dv = advection(u, v, periodic64)
    scale = kinetic_energy(u, v, periodic64)
    assert abs(np.sum(u * du) + np.sum(v * dv)) <= 1e-11 * scale


def test_channel_advection_energy_neutral():
    dom = channel_domain(64, 65)
    rng = np.random.default_rng(1)
    u = rng.standard_normal((64, 64))
    v = rng.standard_normal((64, 65))
    v[:, 0] = v[:, -1] = 0.0
    u, v = project(u, v, dom, _Projector(dom))
    du, dv = advection(u, v, dom)
    assert abs(np.sum(u * du) + np.sum(v * dv)) <= 1e-11 * kinetic_energy(u, v, dom)


def test_diffusion_energy_compatible():
    # <w, L w> == -||grad w||^2 in the staggered inner product (audit basis)
    dom = channel_domain(32, 33)
    rng = np.random.default_rng(4)
    u = rng.standard_normal((32, 32))
    v = rng.standard_normal((32, 33))
    v[:, 0] = v[:, -1] = 0.0
    hx, hy = dom.grid.spacing
    lap_u = lap_y_u(u, hy) + lap_x(u, hx)
    lap_v = lap_y_v(v, hy) + lap_x(v, hx)
    lap_v[:, 0] = lap_v[:, -1] = 0.0
    ip = (np.sum(u * lap_u) + np.sum(v * lap_v)) * dom.grid.cell_volume()
    g2 = gradient_norm_sq(u, v, dom)
    assert abs(ip + g2) <= 1e-10 * max(g2, 1.0)


def test_channel_run_no_slip_and_leray():
    dom = channel_domain(64, 65)
    init = _channel_init(dom)
    traj, series = run(SolverConfig(dom, 0.01, 0.0025, 0.25, init, snapshot_stride=25))
    assert series.leray_residual.max() <= 1e-8
    last = traj.snapshots[-1]
    assert np.abs(last.velocity[:, :, 0]).max() == 0.0
    assert np.abs(last.velocity[:, :, -1]).max() == 0.0


def test_channel_requires_no_slip_initial():
    dom = channel_domain(32, 33)
    vel = np.zeros((2, *dom.grid.dims))
    vel[0, :, 0] = 1.0  # slip on the lower wall
    with pytest.raises(PreconditionError, match="no-slip"):
        nodes_to_mac(Snapshot(dom.grid, vel), dom)


def test_dissipation_sweep_periodic_decreasing():
    g = make_grid((128, 128), (TWO_PI, TWO_PI))
    dom = Domain(g, "periodic")
    cfg = SolverConfig(dom, 1e-2, 0.005, 0.5, taylor_green(g, 0.0, 1e-2), snapshot_stride=100)
    rep = dissipation_sweep(cfg, [1e-2, 3e-3, 1e-3], 0.5)
    vals = [r[1] for r in rep.rows]
    assert all(vals[i + 1] < vals[i] for i in range(2))
    assert vals[-1] <= 0.5 * vals[0]
    assert rep.verdict == "vanishing-dissipation trend consistent"
    assert all(r[2] for r in rep.rows)  # periodic entries are never flagged


def test_dissipation_sweep_zero_data(periodic64):
    z = Snapshot(periodic64.grid, np.zeros((2, *periodic64.grid.dims)))
    cfg = SolverConfig(periodic64, 1e-2, 0.01, 0.1, z)
    rep = dissipation_sweep(cfg, [1e-2, 1e-3], 0.1)
    assert all(r[1] == 0.0 for r in rep.rows)


def test_dissipation_sweep_channel_flags_thin_layers():
    dom = channel_domain(64, 65)
    init = _channel_init(dom)
    cfg = SolverConfig(dom, 1e-2, 0.0025, 0.2, init, snapshot_stride=40)
    rep = dissipation_sweep(cfg, [1e-2, 1e-3, 1e-4], 0.2)
    hy = dom.grid.spacing[1]
    for nu, _, resolved in rep.rows:
        assert resolved == (np.sqrt(nu * 0.2) >= 4 * hy)
    assert rep.flagged  # thin boundary layers reported, never asserted


def test_viscous_flux_criterion_positive():
    dom = channel_domain(64, 65)
    init = _channel_init(dom)
    runs = []
    for nu in (0.02, 0.01):
        traj, series = run(SolverConfig(dom, nu, 0.0025, 0.3, init, snapshot_stride=40))
        assert series.leray_residual.max() <= 1e-8
        runs.append((nu, traj))
    h = dom.grid.spacing[1]
    rep = viscous_flux_criterion(runs, [28 * h, 14 * h, 7 * h], dom)
    assert rep.eta_trend_ok
    # no-slip walls: the wall-plane integrand vanishes; fluxes are finite
    assert all(np.isfinite(v) for row in rep.flux for v in row)


def test_viscous_flux_criterion_blowing_negative():
    dom = channel_domain(64, 65)
    init = _channel_init(dom)
    runs = []
    for nu in (0.02, 0.01):
        traj, _ = run(SolverConfig(dom, nu, 0.0025, 0.2, init, snapshot_stride=40))
        sgn = dom.normal_sign_field()
        blown = traj.map(
            lambda s: Snapshot(
                s.grid,
                np.stack([s.velocity[0], s.velocity[1] + 0.05 * sgn * _interior_mask(dom)]),
                None,
                s.time,
            )
        )
        runs.append((nu, blown))
    h = dom.grid.spacing[1]
    rep = viscous_flux_criterion(runs, [28 * h, 14 * h, 7 * h], dom)
    assert not rep.eta_trend_ok


def _interior_mask(dom):
    d = dom.distance_field()
    return np.where(d > 0, 1.0, 0.0)
