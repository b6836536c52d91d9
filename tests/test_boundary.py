import numpy as np
import pytest
from scipy.integrate import quad

from oflux.boundary import (
    ShellSpec,
    boundary_cutoff,
    conservation_verdict,
    global_balance,
    modulus_check,
    shell_flux,
    smooth_step,
    smooth_step_deriv,
)
from oflux.errors import PreconditionError, UnderResolvedError
from oflux.grids import Domain, Snapshot, Trajectory, energy

from conftest import TWO_PI, channel_domain


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
    dom = channel_domain(32, 33)
    with pytest.raises(UnderResolvedError, match="under-resolved"):
        ShellSpec.build(dom, 6 * dom.grid.spacing[1])


def test_shell_spec_bounds():
    dom = channel_domain(32, 65)
    with pytest.raises(PreconditionError):
        ShellSpec.build(dom, 0.7)  # above the half-width


def test_boundary_cutoff_values_and_gradient():
    def fd_error(ny):
        dom = channel_domain(64, ny, ly=1.0)
        h = dom.grid.spacing[1]
        eta = 28 * (1.0 / 128)  # fixed physical shell scale
        psi, grad = boundary_cutoff(dom, eta)
        d = dom.distance_field()
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
    dom = channel_domain(32, 65)
    _, y = dom.grid.meshes()
    u = np.stack([np.broadcast_to(np.sin(np.pi * y), dom.grid.dims).copy(), np.zeros(dom.grid.dims)])
    snap = Snapshot(dom.grid, u, np.ones(dom.grid.dims), 0.0)
    assert shell_flux(snap, 14 * dom.grid.spacing[1], dom) == 0.0


def test_shell_flux_closed_form():
    # u.n = d with unit Bernoulli factor; the node-classified shell is the
    # cell union [eta/4 rounded out, eta/2 rounded in], exact for linear d
    dom = channel_domain(64, 65, ly=1.0)
    h = dom.grid.spacing[1]
    d = dom.distance_field()
    sgn = dom.normal_sign_field()
    u = np.stack([np.zeros(dom.grid.dims), d * sgn])
    ke = 0.5 * np.sum(u**2, axis=0)
    snap = Snapshot(dom.grid, u, 1.0 - ke, 0.0)
    eta = 10 * h  # shell (2.5h, 5h): planes 3h, 4h; cells cover [2.5h, 4.5h]
    flux = shell_flux(snap, eta, dom)
    covered = ((4.5 * h) ** 2 - (2.5 * h) ** 2) / 2.0
    pred = (1.0 / eta) * TWO_PI * 2.0 * covered
    assert flux == pytest.approx(pred, abs=1e-10)


def test_shell_flux_halving():
    dom = channel_domain(64, 129, ly=1.0)
    h = dom.grid.spacing[1]
    d = dom.distance_field()
    sgn = dom.normal_sign_field()
    u = np.stack([np.zeros(dom.grid.dims), d * sgn])
    ke = 0.5 * np.sum(u**2, axis=0)
    snap = Snapshot(dom.grid, u, 1.0 - ke, 0.0)
    f1 = shell_flux(snap, 28 * h, dom)
    f2 = shell_flux(snap, 14 * h, dom)
    assert abs(f2 / f1 - 0.5) <= 0.10


def _steady_shear_traj(dom, n=5, dt=0.1, pressure=0.0):
    _, y = dom.grid.meshes()
    prof = np.sin(np.pi * y) ** 2
    u = np.stack([np.broadcast_to(prof, dom.grid.dims).copy(), np.zeros(dom.grid.dims)])
    p = np.full(dom.grid.dims, pressure)
    return Trajectory(tuple(Snapshot(dom.grid, u, p, i * dt) for i in range(n)), dt)


def test_global_balance_steady():
    dom = channel_domain(64, 129)
    traj = _steady_shear_traj(dom)
    h = dom.grid.spacing[1]
    rep = global_balance(traj, 28 * h, 0.0, 0.4, dom)
    assert rep.e2 == rep.e1
    assert rep.boundary_term == 0.0
    assert abs(rep.residual) <= rep.budget


def test_global_balance_zero_field():
    dom = channel_domain(32, 65)
    z = np.zeros((2, *dom.grid.dims))
    traj = Trajectory(tuple(Snapshot(dom.grid, z, np.zeros(dom.grid.dims), 0.1 * i) for i in range(3)), 0.1)
    rep = global_balance(traj, 14 * dom.grid.spacing[1], 0.0, 0.2, dom)
    assert rep.e1 == 0.0 and rep.e2 == 0.0 and rep.residual == 0.0


def test_global_balance_periodic_degenerate(box64):
    # psi == 1 on a periodic box: residual is the raw energy drift
    from oflux.synth import taylor_green

    dom = Domain(box64, "periodic")
    s0 = taylor_green(box64, 0.0, 0.05)
    s1 = taylor_green(box64, 0.5, 0.05)
    snaps = (
        Snapshot(box64, s0.velocity, s0.pressure, 0.0),
        Snapshot(box64, s1.velocity, s1.pressure, 0.5),
    )
    traj = Trajectory(snaps, 0.5)
    rep = global_balance(traj, 0.1, 0.0, 0.5, dom)
    assert rep.boundary_term == 0.0
    assert rep.residual == pytest.approx(energy(snaps[1]) - energy(snaps[0]), rel=1e-14)


def test_conservation_verdict_steady_positive():
    dom = channel_domain(128, 129)
    traj = _steady_shear_traj(dom)
    h = dom.grid.spacing[1]
    v = conservation_verdict(traj, [56 * h, 28 * h, 14 * h], dom)
    assert v.verdict == "hypotheses consistent and energy conserved"
    assert v.exit_code == 0
    assert v.energy_drift <= 1e-8


def test_conservation_verdict_leak_flips():
    dom = channel_domain(128, 129)
    _, y = dom.grid.meshes()
    prof = np.sin(np.pi * y) ** 2
    d = dom.distance_field()
    sgn = dom.normal_sign_field()
    leak = np.where(d < 0.3, 0.1 * sgn, 0.0)
    u = np.stack([np.broadcast_to(prof, dom.grid.dims).copy(), leak])
    p = np.ones(dom.grid.dims)  # bounded Bernoulli factor near the walls
    traj = Trajectory(tuple(Snapshot(dom.grid, u, p, 0.1 * i) for i in range(5)), 0.1)
    h = dom.grid.spacing[1]
    v = conservation_verdict(traj, [56 * h, 28 * h, 14 * h], dom)
    assert v.verdict.startswith("hypotheses fail")
    assert "shell-flux" in v.verdict
    assert v.exit_code == 3


def test_conservation_verdict_zero_field_trivial():
    dom = channel_domain(64, 129)
    z = np.zeros((2, *dom.grid.dims))
    traj = Trajectory(
        tuple(Snapshot(dom.grid, z, np.zeros(dom.grid.dims), 0.1 * i) for i in range(3)), 0.1
    )
    h = dom.grid.spacing[1]
    v = conservation_verdict(traj, [56 * h, 28 * h, 14 * h], dom)
    assert v.exit_code == 0


def test_conservation_verdict_gauge_and_time_shift_invariance():
    dom = channel_domain(128, 129)
    traj = _steady_shear_traj(dom)
    h = dom.grid.spacing[1]
    etas = [56 * h, 28 * h, 14 * h]
    v0 = conservation_verdict(traj, etas, dom)
    shifted = Trajectory(
        tuple(Snapshot(s.grid, s.velocity, s.pressure, s.time + 5.0) for s in traj.snapshots),
        traj.dt,
    )
    v1 = conservation_verdict(shifted, etas, dom)
    assert v0.verdict == v1.verdict
    assert v0.flux_ladder == v1.flux_ladder
    # pressure gauge: add a constant then re-zero -> identical bits
    regauged = traj.map(lambda s: Snapshot(s.grid, s.velocity, (s.pressure + 3.0) - 3.0, s.time))
    v2 = conservation_verdict(regauged, etas, dom)
    assert v2.flux_ladder == v0.flux_ladder


def test_conservation_verdict_builds_the_wall_cutoff_once(monkeypatch):
    import oflux.boundary as boundary
    from oflux.mollify import cutoff_region
    from oflux.pressure import negative_sobolev_norm

    dom = channel_domain(64, 129)
    _, y = dom.grid.meshes()
    wave = np.broadcast_to(np.cos(np.pi * y), dom.grid.dims)
    traj = _steady_shear_traj(dom).map(lambda s: Snapshot(s.grid, s.velocity, (1.0 + s.time) * wave, s.time))
    h = dom.grid.spacing[1]
    etas = [56 * h, 28 * h, 14 * h]
    expected = conservation_verdict(traj, etas, dom).as_dict()
    # the per-snapshot maximum with a cutoff rebuilt for every snapshot
    d = dom.distance_field()
    gamma = 0.5 * max(etas)
    norms = [
        negative_sobolev_norm(s.pressure, 1.0, dom.grid, cutoff=cutoff_region(dom.grid, d < gamma / 2, d < gamma)).value
        for s in traj.snapshots
    ]
    assert expected["pressure_norm"] == max(norms)

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return cutoff_region(*args, **kwargs)

    monkeypatch.setattr(boundary, "cutoff_region", counting)
    assert conservation_verdict(traj, etas, dom).as_dict() == expected
    assert len(calls) == 1


def test_verdict_needs_three_shells():
    dom = channel_domain(64, 129)
    traj = _steady_shear_traj(dom)
    h = dom.grid.spacing[1]
    with pytest.raises(PreconditionError):
        conservation_verdict(traj, [28 * h, 14 * h], dom)


def test_modulus_impermeable_shear():
    dom = channel_domain(64, 129)
    traj = _steady_shear_traj(dom)
    rep = modulus_check(traj, 0.2, dom)
    assert max(rep.envelope) == 0.0
    assert rep.vanishing


def test_modulus_linear_normal_velocity():
    dom = channel_domain(64, 129)
    d = dom.distance_field()
    sgn = dom.normal_sign_field()
    u = np.stack([np.zeros(dom.grid.dims), d * sgn])
    traj = Trajectory((Snapshot(dom.grid, u, np.zeros(dom.grid.dims), 0.0),), 1.0)
    rep = modulus_check(traj, 0.2, dom)
    assert abs(rep.intercept) <= 1e-10
    assert rep.vanishing
    assert rep.slope == pytest.approx(1.0, abs=1e-10)


def test_modulus_constant_leak_detected():
    dom = channel_domain(64, 129)
    sgn = dom.normal_sign_field()
    u = np.stack([np.zeros(dom.grid.dims), 0.1 * sgn])
    traj = Trajectory((Snapshot(dom.grid, u, np.zeros(dom.grid.dims), 0.0),), 1.0)
    rep = modulus_check(traj, 0.2, dom)
    assert rep.intercept == pytest.approx(0.1, abs=1e-12)
    assert not rep.vanishing


def _nan_channel_traj(dom, field):
    """Three snapshots of a wall-bounded shear whose middle one holds one NaN
    near the lower wall; Python's max() would drop it, as it is not first."""
    _, y = dom.grid.meshes()
    u = np.stack([np.broadcast_to(np.sin(np.pi * y) ** 2, dom.grid.dims).copy(), np.zeros(dom.grid.dims)])
    p = np.broadcast_to(np.cos(np.pi * y), dom.grid.dims).copy()
    snaps = []
    for i in range(3):
        data = {"velocity": u.copy(), "pressure": p.copy()}
        if i == 1:
            data[field][(0,) * (data[field].ndim - 2) + (3, 2)] = np.nan
        snaps.append(Snapshot(dom.grid, data["velocity"], data["pressure"], 0.1 * i))
    return Trajectory(tuple(snaps), 0.1)


def test_global_balance_budget_keeps_a_nan():
    dom = channel_domain(16, 65)
    rep = global_balance(_nan_channel_traj(dom, "velocity"), 14 * dom.grid.spacing[1], 0.0, 0.2, dom)
    assert np.isnan([rep.residual, rep.budget]).all()


def test_conservation_verdict_pressure_norm_keeps_a_nan():
    dom = channel_domain(16, 65)
    h = dom.grid.spacing[1]
    v = conservation_verdict(_nan_channel_traj(dom, "pressure"), [28 * h, 14 * h, 7 * h], dom)
    assert np.isnan(v.pressure_norm)
    assert not v.pressure_norm_finite
    assert v.exit_code == 3 and "near-boundary-pressure" in v.verdict


def test_modulus_bound_keeps_a_nan():
    dom = channel_domain(16, 65)
    rep = modulus_check(_nan_channel_traj(dom, "pressure"), 0.2, dom)
    assert np.isnan(rep.bound_m)
