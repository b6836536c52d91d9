import numpy as np
import pytest
from scipy.integrate import quad

from oflux.boundary import (
    boundary_cutoff,
    check_shell,
    conservation_verdict,
    global_balance,
    modulus_check,
    shell_flux,
    smooth_step,
    smooth_step_deriv,
)
from oflux.errors import PreconditionError, UnderResolvedError
from oflux.grids import (Snapshot, Trajectory, energy, integrate, trapezoid_time_weights, wall_distance,
                         wall_normal_sign)

from conftest import TWO_PI, channel_grid


def _bump(t):
    return np.exp(-1.0 / (1.0 - t * t)) if abs(t) < 1 else 0.0


def test_smooth_step_plateaus():
    assert smooth_step(0.1) == 0.0
    assert smooth_step(0.24) == 0.0
    assert smooth_step(0.9) == 1.0
    assert smooth_step(0.51) == pytest.approx(1.0, abs=1e-14)


def test_smooth_step_midpoint_against_quad_oracle():
    # phi(3/8) equals the normalized bump integral up to its midpoint
    z, _ = quad(_bump, -1, 1)
    val, _ = quad(_bump, -1, 0.0)
    assert abs(smooth_step(0.375) - val / z) <= 1e-12
    assert smooth_step(0.375) == pytest.approx(0.5, abs=1e-12)
    # symmetry about the midpoint of the transition
    assert abs(smooth_step(0.425) - (1.0 - smooth_step(0.325))) <= 1e-12


def test_smooth_step_derivative_nonneg_and_unit_mass():
    s = np.linspace(0.0, 1.0, 1001)
    assert (smooth_step_deriv(s) >= 0).all()
    assert smooth_step_deriv(0.249) == 0.0 and smooth_step_deriv(0.501) == 0.0
    mass, _ = quad(lambda t: float(smooth_step_deriv(t)), 0.25, 0.5, limit=200)
    assert abs(mass - 1.0) <= 1e-12


def test_shell_spec_rejects_thin_shell():
    grid = channel_grid(32, 33)
    with pytest.raises(UnderResolvedError, match="under-resolved"):
        check_shell(grid, 6 * grid.spacing[1])


def test_shell_spec_bounds():
    grid = channel_grid(32, 65)
    with pytest.raises(PreconditionError):
        check_shell(grid, 0.7)  # above the half-width


def test_boundary_cutoff_values_and_gradient():
    def fd_error(ny):
        grid = channel_grid(64, ny, ly=1.0)
        h = grid.spacing[1]
        eta = 28 * (1.0 / 128)  # fixed physical shell scale
        psi, grad = boundary_cutoff(grid, eta)
        d = np.broadcast_to(wall_distance(grid), grid.dims)
        assert np.all(psi[d >= eta / 2 + 1e-12] == 1.0)
        assert np.all(psi[d <= eta / 4 - 1e-12] == 0.0)
        assert np.all(grad[:, d >= eta] == 0.0)
        fd = (psi[:, 2:] - psi[:, :-2]) / (2 * h)
        return np.abs(fd - grad[1][:, 1:-1]).max(), np.abs(grad).max()

    e1, gmax = fd_error(257)
    e2, _ = fd_error(513)
    assert e1 / e2 >= 3.0  # second-order convergence of the differencing check
    assert e2 <= 0.05 * gmax


def test_shell_flux_tangential_zero():
    grid = channel_grid(32, 65)
    _, y = grid.meshes()
    u = np.stack([np.broadcast_to(np.sin(np.pi * y), grid.dims).copy(), np.zeros(grid.dims)])
    snap = Snapshot(grid, u, np.ones(grid.dims), 0.0)
    assert shell_flux(snap, 14 * grid.spacing[1]) == 0.0


def test_shell_flux_closed_form():
    # u.n = d with unit Bernoulli factor; the node-classified shell is the
    # cell union [eta/4 rounded out, eta/2 rounded in], exact for linear d
    grid = channel_grid(64, 65, ly=1.0)
    h = grid.spacing[1]
    d = np.broadcast_to(wall_distance(grid), grid.dims)
    sgn = wall_normal_sign(grid)
    u = np.stack([np.zeros(grid.dims), d * sgn])
    ke = 0.5 * np.sum(u**2, axis=0)
    snap = Snapshot(grid, u, 1.0 - ke, 0.0)
    eta = 10 * h  # shell (2.5h, 5h): planes 3h, 4h; cells cover [2.5h, 4.5h]
    flux = shell_flux(snap, eta)
    covered = ((4.5 * h) ** 2 - (2.5 * h) ** 2) / 2.0
    pred = (1.0 / eta) * TWO_PI * 2.0 * covered
    assert flux == pytest.approx(pred, abs=1e-10)


def test_shell_flux_halving():
    grid = channel_grid(64, 129, ly=1.0)
    h = grid.spacing[1]
    d = np.broadcast_to(wall_distance(grid), grid.dims)
    sgn = wall_normal_sign(grid)
    u = np.stack([np.zeros(grid.dims), d * sgn])
    ke = 0.5 * np.sum(u**2, axis=0)
    snap = Snapshot(grid, u, 1.0 - ke, 0.0)
    f1 = shell_flux(snap, 28 * h)
    f2 = shell_flux(snap, 14 * h)
    assert abs(f2 / f1 - 0.5) <= 0.10


def _steady_shear_traj(grid, n=5, dt=0.1, pressure=0.0):
    _, y = grid.meshes()
    prof = np.sin(np.pi * y) ** 2
    u = np.stack([np.broadcast_to(prof, grid.dims).copy(), np.zeros(grid.dims)])
    p = np.full(grid.dims, pressure)
    return Trajectory(tuple(Snapshot(grid, u, p, i * dt) for i in range(n)), dt)


def test_global_balance_steady():
    grid = channel_grid(64, 129)
    traj = _steady_shear_traj(grid)
    h = grid.spacing[1]
    rep = global_balance(traj, 28 * h, 0.0, 0.4)
    assert rep.e2 == rep.e1
    assert rep.boundary_term == 0.0
    assert abs(rep.residual) <= rep.budget


def test_global_balance_zero_field():
    grid = channel_grid(32, 65)
    z = np.zeros((2, *grid.dims))
    traj = Trajectory(tuple(Snapshot(grid, z, np.zeros(grid.dims), 0.1 * i) for i in range(3)), 0.1)
    rep = global_balance(traj, 14 * grid.spacing[1], 0.0, 0.2)
    assert rep.e1 == 0.0 and rep.e2 == 0.0 and rep.residual == 0.0


def test_global_balance_kernel_is_the_cutoff_gradient():
    # the boundary term integrates the Bernoulli flux against (1/eta) step'(d/eta); read
    # off psi's gradient as -grad psi . n it keeps every bit, and +0.0 off the shell
    grid = channel_grid(32, 65)
    rng = np.random.default_rng(2)
    traj = Trajectory(tuple(Snapshot(grid, rng.standard_normal((2, *grid.dims)), rng.standard_normal(grid.dims),
                                     0.1 * i) for i in range(4)), 0.1)
    eta = 14 * grid.spacing[1]
    kernel = (1.0 / eta) * smooth_step_deriv(np.broadcast_to(wall_distance(grid), grid.dims) / eta)
    _, grad = boundary_cutoff(grid, eta)
    from_grad = -grad[grid.wall_axis] * wall_normal_sign(grid)
    assert from_grad.tobytes() == kernel.tobytes()
    assert not np.signbit(from_grad[from_grad == 0.0]).any()
    want = 0.0
    for snap, w in zip(traj.snapshots[1:4], trapezoid_time_weights(3, traj.dt)):
        ke = 0.5 * np.sum(snap.velocity ** 2, axis=0)
        want += w * integrate((ke + snap.pressure) * snap.velocity[1] * wall_normal_sign(grid) * kernel, grid)
    assert global_balance(traj, eta, 0.1, 0.3).boundary_term == want


def test_global_balance_periodic_degenerate(box64):
    # psi == 1 on a periodic box: residual is the raw energy drift
    from oflux.synth import taylor_green

    s0 = taylor_green(box64, 0.0, 0.05)
    s1 = taylor_green(box64, 0.5, 0.05)
    snaps = (
        Snapshot(box64, s0.velocity, s0.pressure, 0.0),
        Snapshot(box64, s1.velocity, s1.pressure, 0.5),
    )
    traj = Trajectory(snaps, 0.5)
    rep = global_balance(traj, 0.1, 0.0, 0.5)
    assert rep.boundary_term == 0.0
    assert rep.residual == pytest.approx(energy(snaps[1]) - energy(snaps[0]), rel=1e-14)


def test_conservation_verdict_steady_positive():
    grid = channel_grid(128, 129)
    traj = _steady_shear_traj(grid)
    h = grid.spacing[1]
    v = conservation_verdict(traj, [56 * h, 28 * h, 14 * h])
    assert v.verdict == "hypotheses consistent and energy conserved"
    assert v.exit_code == 0
    assert v.energy_drift <= 1e-8


def test_conservation_verdict_leak_flips():
    grid = channel_grid(128, 129)
    _, y = grid.meshes()
    prof = np.sin(np.pi * y) ** 2
    d = np.broadcast_to(wall_distance(grid), grid.dims)
    sgn = wall_normal_sign(grid)
    leak = np.where(d < 0.3, 0.1 * sgn, 0.0)
    u = np.stack([np.broadcast_to(prof, grid.dims).copy(), leak])
    p = np.ones(grid.dims)  # bounded Bernoulli factor near the walls
    traj = Trajectory(tuple(Snapshot(grid, u, p, 0.1 * i) for i in range(5)), 0.1)
    h = grid.spacing[1]
    v = conservation_verdict(traj, [56 * h, 28 * h, 14 * h])
    assert v.verdict.startswith("hypotheses fail")
    assert "shell-flux" in v.verdict
    assert v.exit_code == 3


def test_conservation_verdict_zero_field_trivial():
    grid = channel_grid(64, 129)
    z = np.zeros((2, *grid.dims))
    traj = Trajectory(
        tuple(Snapshot(grid, z, np.zeros(grid.dims), 0.1 * i) for i in range(3)), 0.1
    )
    h = grid.spacing[1]
    v = conservation_verdict(traj, [56 * h, 28 * h, 14 * h])
    assert v.exit_code == 0


def test_conservation_verdict_gauge_and_time_shift_invariance():
    grid = channel_grid(128, 129)
    traj = _steady_shear_traj(grid)
    h = grid.spacing[1]
    etas = [56 * h, 28 * h, 14 * h]
    v0 = conservation_verdict(traj, etas)
    shifted = Trajectory(
        tuple(Snapshot(s.grid, s.velocity, s.pressure, s.time + 5.0) for s in traj.snapshots),
        traj.dt,
    )
    v1 = conservation_verdict(shifted, etas)
    assert v0.verdict == v1.verdict
    assert v0.flux_ladder == v1.flux_ladder
    # pressure gauge: add a constant then re-zero -> identical bits
    regauged = traj.map(lambda s: Snapshot(s.grid, s.velocity, (s.pressure + 3.0) - 3.0, s.time))
    v2 = conservation_verdict(regauged, etas)
    assert v2.flux_ladder == v0.flux_ladder


def test_conservation_verdict_builds_the_wall_cutoff_once(monkeypatch):
    import oflux.boundary as boundary
    from oflux.mollify import cutoff_region
    from oflux.pressure import negative_sobolev_norm

    grid = channel_grid(64, 129)
    _, y = grid.meshes()
    wave = np.broadcast_to(np.cos(np.pi * y), grid.dims)
    traj = _steady_shear_traj(grid).map(lambda s: Snapshot(s.grid, s.velocity, (1.0 + s.time) * wave, s.time))
    h = grid.spacing[1]
    etas = [56 * h, 28 * h, 14 * h]
    expected = conservation_verdict(traj, etas)
    # the per-snapshot maximum with a cutoff rebuilt for every snapshot
    d = np.broadcast_to(wall_distance(grid), grid.dims)
    gamma = 0.5 * max(etas)
    norms = [
        negative_sobolev_norm(s.pressure, 1.0, grid, cutoff=cutoff_region(grid, d < gamma / 2, d < gamma))
        for s in traj.snapshots
    ]
    assert expected.pressure_norm == max(norms)

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return cutoff_region(*args, **kwargs)

    monkeypatch.setattr(boundary, "cutoff_region", counting)
    assert conservation_verdict(traj, etas) == expected
    assert len(calls) == 1


def test_verdict_needs_three_shells():
    grid = channel_grid(64, 129)
    traj = _steady_shear_traj(grid)
    h = grid.spacing[1]
    with pytest.raises(PreconditionError):
        conservation_verdict(traj, [28 * h, 14 * h])


def test_modulus_impermeable_shear():
    grid = channel_grid(64, 129)
    traj = _steady_shear_traj(grid)
    rep = modulus_check(traj, 0.2)
    assert max(rep.envelope) == 0.0
    assert rep.vanishing


def test_modulus_linear_normal_velocity():
    grid = channel_grid(64, 129)
    d = np.broadcast_to(wall_distance(grid), grid.dims)
    sgn = wall_normal_sign(grid)
    u = np.stack([np.zeros(grid.dims), d * sgn])
    traj = Trajectory((Snapshot(grid, u, np.zeros(grid.dims), 0.0),), 1.0)
    rep = modulus_check(traj, 0.2)
    assert abs(rep.intercept) <= 1e-10
    assert rep.vanishing
    assert rep.slope == pytest.approx(1.0, abs=1e-10)


def test_modulus_constant_leak_detected():
    grid = channel_grid(64, 129)
    sgn = wall_normal_sign(grid)
    u = np.stack([np.zeros(grid.dims), np.broadcast_to(0.1 * sgn, grid.dims)])
    traj = Trajectory((Snapshot(grid, u, np.zeros(grid.dims), 0.0),), 1.0)
    rep = modulus_check(traj, 0.2)
    assert rep.intercept == pytest.approx(0.1, abs=1e-12)
    assert not rep.vanishing


def _nan_channel_traj(grid, field):
    """Three snapshots of a wall-bounded shear whose middle one holds one NaN
    near the lower wall; Python's max() would drop it, as it is not first."""
    _, y = grid.meshes()
    u = np.stack([np.broadcast_to(np.sin(np.pi * y) ** 2, grid.dims).copy(), np.zeros(grid.dims)])
    p = np.broadcast_to(np.cos(np.pi * y), grid.dims).copy()
    snaps = []
    for i in range(3):
        data = {"velocity": u.copy(), "pressure": p.copy()}
        if i == 1:
            data[field][(0,) * (data[field].ndim - 2) + (3, 2)] = np.nan
        snaps.append(Snapshot(grid, data["velocity"], data["pressure"], 0.1 * i))
    return Trajectory(tuple(snaps), 0.1)


def test_global_balance_budget_keeps_a_nan():
    grid = channel_grid(16, 65)
    rep = global_balance(_nan_channel_traj(grid, "velocity"), 14 * grid.spacing[1], 0.0, 0.2)
    assert np.isnan([rep.residual, rep.budget]).all()


def test_conservation_verdict_pressure_norm_keeps_a_nan():
    grid = channel_grid(16, 65)
    h = grid.spacing[1]
    v = conservation_verdict(_nan_channel_traj(grid, "pressure"), [28 * h, 14 * h, 7 * h])
    assert np.isnan(v.pressure_norm)
    assert not v.pressure_norm_finite
    assert v.exit_code == 3 and "near-boundary-pressure" in v.verdict


def test_modulus_bound_keeps_a_nan():
    grid = channel_grid(16, 65)
    rep = modulus_check(_nan_channel_traj(grid, "pressure"), 0.2)
    assert np.isnan(rep.bound_m)
