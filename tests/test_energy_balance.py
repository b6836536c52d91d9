import numpy as np
import pytest

from oflux.errors import PreconditionError
from oflux.energy_balance import (
    ChiWindow,
    TestFunction,
    dr_convergence_sweep,
    dr_dissipation_field,
    weak_energy_identity,
)
from oflux.grids import Snapshot, Trajectory, integrate, make_grid
from oflux.mollify import block_mask, cutoff_region, full_box_chain
from oflux.pressure import solve_pressure_periodic
from oflux.synth import fractional_field, taylor_green

from conftest import TWO_PI, frozen_trajectory, steady_tg_trajectory


def _sym_test_function(grid, t1=0.0, t2=0.4):
    # blocks with equal index fractions on both axes are swap-symmetric
    phi = cutoff_region(grid, block_mask(grid, 0.35, 0.65), block_mask(grid, 0.2, 0.8))
    return TestFunction(ChiWindow(t1, t2), phi)


def _asym_test_function(grid, t1=0.0, t2=0.4):
    phi = cutoff_region(
        grid,
        block_mask(grid, (0.18, 0.40), (0.48, 0.72)),
        block_mask(grid, (0.06, 0.28), (0.60, 0.86)),
    )
    return TestFunction(ChiWindow(t1, t2), phi)


def test_weak_identity_steady_taylor_green(box128):
    traj = steady_tg_trajectory(box128)
    chain = full_box_chain(box128, eta=10.0)
    rep = weak_energy_identity(traj, _sym_test_function(box128), 8 * box128.max_spacing, chain)
    assert abs(rep.lhs) <= 1e-6
    assert abs(rep.residual) <= 1e-6


def test_weak_identity_zero_field(box64):
    snaps = tuple(
        Snapshot(box64, np.zeros((2, *box64.dims)), np.zeros(box64.dims), 0.1 * i)
        for i in range(5)
    )
    traj = Trajectory(snaps, 0.1)
    chain = full_box_chain(box64, eta=10.0)
    rep = weak_energy_identity(traj, _sym_test_function(box64), 6 * box64.max_spacing, chain)
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_weak_identity_refinement_order():
    # off-center test function exposes the mollification error; it shrinks
    # at order >= 1.7 when epsilon scales with h
    vals = {}
    for n in (64, 128):
        g = make_grid((n, n), (TWO_PI, TWO_PI))
        traj = steady_tg_trajectory(g)
        chain = full_box_chain(g, eta=10.0)
        rep = weak_energy_identity(traj, _asym_test_function(g), 8 * g.max_spacing, chain)
        vals[n] = rep
        assert abs(rep.residual) <= 1e-6
    order = np.log2(abs(vals[64].lhs) / abs(vals[128].lhs))
    assert order >= 1.7


def test_weak_identity_frozen_field_budget(box128):
    # frozen-in-time field: the time term vanishes exactly; the identity
    # residual stays within 3x the refinement-backed discretization budget
    f = fractional_field(0.5, None, 3, box128)
    p = solve_pressure_periodic(f)
    traj = frozen_trajectory(Snapshot(box128, f.velocity, p), n_snaps=5, dt=0.1)
    chain = full_box_chain(box128, eta=10.0)
    rep = weak_energy_identity(traj, _sym_test_function(box128), 8 * box128.max_spacing, chain)

    # a frozen field is not an Euler solution: residual carries the (reported)
    # Euler-residual pairing, and the remaining algebra defect is pure
    # discretization, gauged by a 64 -> 128 refinement study
    g64 = make_grid((64, 64), (TWO_PI, TWO_PI))
    f64 = fractional_field(0.5, None, 3, g64)
    p64 = solve_pressure_periodic(f64)
    traj64 = frozen_trajectory(Snapshot(g64, f64.velocity, p64), n_snaps=5, dt=0.1)
    chain64 = full_box_chain(g64, eta=10.0)
    rep64 = weak_energy_identity(traj64, _sym_test_function(g64), 8 * g64.max_spacing, chain64)
    budget = abs(rep64.algebra_defect)  # coarse-grid defect bounds the fine one
    assert abs(rep.algebra_defect) <= 3.0 * budget
    assert abs(rep.residual + rep.euler_term) <= 3.0 * budget


def test_pressure_gauge_invariance(box64):
    f = taylor_green(box64)
    traj = steady_tg_trajectory(box64)
    chain = full_box_chain(box64, eta=10.0)
    test = _asym_test_function(box64)
    rep0 = weak_energy_identity(traj, test, 6 * box64.max_spacing, chain)
    shifted = traj.map(lambda s: Snapshot(s.grid, s.velocity, s.pressure + 7.0 - 7.0, s.time))
    rep1 = weak_energy_identity(shifted, test, 6 * box64.max_spacing, chain)
    assert rep1.lhs == pytest.approx(rep0.lhs, abs=1e-12)
    # a raw constant shift moves lhs only through int u . grad(chi phi) = 0
    shifted2 = traj.map(lambda s: Snapshot(s.grid, s.velocity, s.pressure + 7.0, s.time))
    rep2 = weak_energy_identity(shifted2, test, 6 * box64.max_spacing, chain)
    assert rep2.lhs == pytest.approx(rep0.lhs, abs=1e-11)


def test_time_reversal_antisymmetry(box64):
    rng = np.random.default_rng(5)
    base = fractional_field(0.6, 8, 2, box64)
    snaps = []
    n = 5
    for i in range(n):
        scale = 1.0 + 0.1 * np.sin(1.3 * i)
        vel = scale * base.velocity
        p = solve_pressure_periodic(Snapshot(box64, vel))
        snaps.append(Snapshot(box64, vel, p, 0.1 * i))
    traj = Trajectory(tuple(snaps), 0.1)
    rev = Trajectory(
        tuple(
            Snapshot(box64, -s.velocity, s.pressure, 0.1 * i)
            for i, s in enumerate(reversed(snaps))
        ),
        0.1,
    )
    chain = full_box_chain(box64, eta=10.0)
    test = _sym_test_function(box64)
    a = weak_energy_identity(traj, test, 6 * box64.max_spacing, chain)
    b = weak_energy_identity(rev, test, 6 * box64.max_spacing, chain)
    assert b.lhs == pytest.approx(-a.lhs, rel=1e-10, abs=1e-13)
    assert b.rhs == pytest.approx(-a.rhs, rel=1e-10, abs=1e-13)


def test_dr_field_steady_taylor_green(box128):
    traj = steady_tg_trajectory(box128)
    chain = full_box_chain(box128, eta=10.0)
    _, defect = dr_dissipation_field(traj, 4 * box128.max_spacing, chain)
    assert np.abs(defect).max() <= 1e-5


def test_dr_field_constant(box64):
    vel = np.stack([np.full(box64.dims, 1.0), np.full(box64.dims, -1.0)])
    snaps = tuple(Snapshot(box64, vel, np.zeros(box64.dims), 0.1 * i) for i in range(3))
    traj = Trajectory(snaps, 0.1)
    chain = full_box_chain(box64, eta=10.0)
    _, defect = dr_dissipation_field(traj, 4 * box64.max_spacing, chain)
    assert np.abs(defect).max() <= 1e-14


def test_dr_field_integrates_to_weak_lhs(box64):
    # frozen field: <D_eps, chi phi> equals the weak lhs (discrete parts match)
    f = fractional_field(0.5, None, 9, box64)
    p = solve_pressure_periodic(f)
    traj = frozen_trajectory(Snapshot(box64, f.velocity, p), n_snaps=5, dt=0.1)
    chain = full_box_chain(box64, eta=10.0)
    test = _asym_test_function(box64)
    eps = 6 * box64.max_spacing
    times, defect = dr_dissipation_field(traj, eps, chain)
    chi = test.chi(times)
    wts = np.full(len(times), traj.dt)
    paired = sum(
        w * c * integrate(d * test.phi.values, box64)
        for w, c, d in zip(wts, chi, defect)
    )
    rep = weak_energy_identity(traj, test, eps, chain)
    assert paired == pytest.approx(rep.lhs, abs=1e-10)


def test_dr_sweep_band_limited(box128):
    f = fractional_field(0.5, 2, 3, box128)
    p = solve_pressure_periodic(f)
    traj = frozen_trajectory(Snapshot(box128, f.velocity, p), n_snaps=3, dt=0.1)
    chain = full_box_chain(box128, eta=10.0)
    test = _sym_test_function(box128, 0.0, 0.2)
    h = box128.max_spacing
    res = dr_convergence_sweep(traj, [16 * h, 12 * h, 9 * h, 7 * h, 5 * h, 4 * h], test, 1.0, chain)
    assert res.fit.slope >= 1.8
    assert res.verdict == "consistent with conservation"


def test_dr_sweep_below_threshold_inconclusive(box128):
    f = fractional_field(0.25, None, 1, box128)
    p = solve_pressure_periodic(f)
    traj = frozen_trajectory(Snapshot(box128, f.velocity, p), n_snaps=3, dt=0.1)
    chain = full_box_chain(box128, eta=10.0)
    test = _sym_test_function(box128, 0.0, 0.2)
    h = box128.max_spacing
    res = dr_convergence_sweep(traj, [16 * h, 12 * h, 9 * h, 7 * h, 5 * h], test, 0.25, chain)
    assert res.verdict.startswith("non-vanishing/inconclusive")


def test_dr_sweep_zero_field(box64):
    snaps = tuple(
        Snapshot(box64, np.zeros((2, *box64.dims)), np.zeros(box64.dims), 0.1 * i)
        for i in range(3)
    )
    traj = Trajectory(snaps, 0.1)
    chain = full_box_chain(box64, eta=10.0)
    test = _sym_test_function(box64, 0.0, 0.2)
    h = box64.max_spacing
    res = dr_convergence_sweep(traj, [8 * h, 6 * h, 5 * h, 4 * h], test, 0.6, chain)
    assert all(abs(r.rhs) == 0.0 for r in res.reports)


def test_weak_identity_requires_pressure(box64):
    f = fractional_field(0.5, None, 1, box64)
    traj = frozen_trajectory(f, n_snaps=3, dt=0.1)
    chain = full_box_chain(box64, eta=10.0)
    with pytest.raises(PreconditionError, match="pressure"):
        weak_energy_identity(traj, _sym_test_function(box64, 0.0, 0.2), 4 * box64.max_spacing, chain)
