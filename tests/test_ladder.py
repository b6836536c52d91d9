"""The transform-once epsilon-ladders against per-rung references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oflux import energy_balance
from oflux.commutator import _probe_mask, scaling_probe
from oflux.energy_balance import ChiWindow, TestFunction, dr_convergence_sweep, dr_dissipation_field
from oflux.errors import PreconditionError
from oflux.grids import Snapshot, Trajectory, deriv, make_grid
from oflux.mollify import block_mask, cutoff_region, full_box_chain

from ladder_oracle import scaling_probe_rungs, weak_identity_all_slices, weak_identity_rung

RTOL = 1e-12
PROPERTY = settings(max_examples=12, deadline=None)
dims = st.integers(min_value=8, max_value=17)  # even and odd; the grid floor is 8
seeds = st.integers(min_value=0, max_value=2**32 - 1)
LADDER = (4.0, 3.5, 3.0, 2.5, 2.0)  # in units of h


def _grid(shape):
    return make_grid(shape, (1.3, 0.9, 1.1)[: len(shape)])


def _phi(grid):
    return cutoff_region(grid, block_mask(grid, 0.35, 0.65), block_mask(grid, 0.1, 0.9))


def _trajectory(grid, seed, nt, dt=0.1):
    rng = np.random.default_rng(seed)
    snaps = tuple(
        Snapshot(grid, rng.standard_normal((grid.ndim, *grid.dims)), rng.standard_normal(grid.dims), k * dt)
        for k in range(nt)
    )
    return Trajectory(snaps, dt)


shapes = st.one_of(st.tuples(dims, dims), st.tuples(dims, dims, dims))


@PROPERTY
@given(shape=shapes, seed=seeds)
def test_scaling_probe_matches_per_rung_oracle(shape, seed):
    grid = _grid(shape)
    vel = np.random.default_rng(seed).standard_normal((grid.ndim, *grid.dims))
    phi = _phi(grid)
    eps = [c * grid.max_spacing for c in LADDER]
    got = scaling_probe(vel, 0.5, eps, phi=phi, grid=grid)
    want = scaling_probe_rungs(vel, eps, phi.values, grid, _probe_mask(grid, None))
    for k, (flux, sup_r, sup_g) in enumerate(want):
        assert abs(got.flux.values[k] - flux) <= RTOL * flux
        assert abs(got.stress_sup.values[k] - sup_r) <= RTOL * sup_r
        assert abs(got.grad_sup.values[k] - sup_g) <= RTOL * sup_g


@PROPERTY
@given(shape=shapes, seed=seeds, kappa=st.sampled_from([None, 0.2]))
def test_dr_sweep_matches_per_rung_oracle(shape, seed, kappa):
    grid = _grid(shape)
    traj = _trajectory(grid, seed, 3 if kappa is None else 6)
    t1, t2 = traj.t_range
    chain = full_box_chain(grid, eta=10.0, t_range=(t1, t2), tau=0.0)
    test = TestFunction(ChiWindow(t1, t2), _phi(grid))
    eps = [c * grid.max_spacing for c in LADDER]
    got = dr_convergence_sweep(traj, eps, test, 0.5, chain, kappa)
    for rep, e in zip(got.reports, eps):
        lhs, rhs, euler_term = weak_identity_rung(traj, test, e, chain, kappa)
        scale = max(abs(lhs), abs(rhs), abs(euler_term))
        assert abs(rep.lhs - lhs) <= RTOL * scale
        assert abs(rep.rhs - rhs) <= RTOL * scale
        assert abs(rep.euler_term - euler_term) <= RTOL * scale


@pytest.mark.parametrize("shape", [(12, 12), (9, 10, 11)])
def test_dr_sweep_euler_derivatives_do_not_grow_with_rungs(monkeypatch, shape):
    # the Euler residual and grad(phi) are built once per snapshot, not per rung;
    # the end snapshots, where chi and chi' vanish, build no Euler residual
    grid = _grid(shape)
    traj = _trajectory(grid, 0, 3)
    t1, t2 = traj.t_range
    chain = full_box_chain(grid, eta=10.0, t_range=(t1, t2), tau=0.0)
    test = TestFunction(ChiWindow(t1, t2), _phi(grid))
    calls = []

    def counting_deriv(f, axis, g):
        calls.append(axis)
        return deriv(f, axis, g)

    monkeypatch.setattr(energy_balance, "deriv", counting_deriv)
    counts = []
    for rungs in (LADDER[:4], LADDER):
        calls.clear()
        dr_convergence_sweep(traj, [c * grid.max_spacing for c in rungs], test, 0.5, chain)
        counts.append(len(calls))
    n = grid.ndim
    live = len(traj) - 2
    assert counts == [live * (n * n + n) + n] * 2


def _windowed(grid, traj, window):
    """The full-range chi window, or one over snapshots 2..5 of an 8-snapshot run."""
    t = traj.times
    chi = ChiWindow(t[0], t[-1]) if window == "full" else ChiWindow(t[2], t[5])
    return TestFunction(chi, _phi(grid))


@PROPERTY
@given(shape=shapes, seed=seeds, kappa=st.sampled_from([None, 0.2]), window=st.sampled_from(["full", "inner"]))
def test_dr_sweep_matches_all_slices_oracle_bitwise(shape, seed, kappa, window):
    # times where chi and chi' vanish are skipped; every output keeps its bits
    grid = _grid(shape)
    traj = _trajectory(grid, seed, 3 if (kappa, window) == (None, "full") else 8)
    chain = full_box_chain(grid, eta=10.0, t_range=traj.t_range, tau=0.0)
    test = _windowed(grid, traj, window)
    eps = [c * grid.max_spacing for c in LADDER]
    got = dr_convergence_sweep(traj, eps, test, 0.5, chain, kappa)
    want = weak_identity_all_slices(traj, test, eps, chain, kappa)
    for rep, ref in zip(got.reports, want):
        assert np.array([rep.lhs, rep.rhs, rep.euler_term, rep.budget]).tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("kappa, window", [(None, "full"), (None, "inner"), (0.2, "inner")])
@pytest.mark.parametrize("field", ["velocity", "pressure"])
def test_dr_sweep_never_hides_a_nan(kappa, window, field):
    # a NaN anywhere, a zero-weight time included, gives an error or a non-finite report
    grid = _grid((9, 10))
    clean = _trajectory(grid, 1, 8)
    chain = full_box_chain(grid, eta=10.0, t_range=clean.t_range, tau=0.0)
    test = _windowed(grid, clean, window)
    eps = [c * grid.max_spacing for c in LADDER]
    for k in range(len(clean)):
        snaps = list(clean.snapshots)
        data = {"velocity": snaps[k].velocity.copy(), "pressure": snaps[k].pressure.copy()}
        data[field][(0,) * data[field].ndim] = np.nan
        snaps[k] = Snapshot(grid, data["velocity"], data["pressure"], snaps[k].time)
        try:
            got = dr_convergence_sweep(Trajectory(tuple(snaps), clean.dt), eps, test, 0.5, chain, kappa)
        except PreconditionError as exc:
            assert "non-finite" in str(exc)
            continue
        assert all(not np.isfinite([r.lhs, r.rhs]).all() for r in got.reports)
        assert got.fit.passes is None


def test_dr_sweep_budget_keeps_a_nan():
    # the budget's max |u^eps| once dropped a NaN and read finite beside a NaN lhs and rhs
    grid = _grid((12, 12))
    clean = _trajectory(grid, 0, 3)
    snaps = list(clean.snapshots)
    vel = snaps[1].velocity.copy()
    vel[0, 5, 5] = np.nan
    snaps[1] = Snapshot(grid, vel, snaps[1].pressure, snaps[1].time)
    traj = Trajectory(tuple(snaps), clean.dt)
    chain = full_box_chain(grid, eta=10.0, t_range=traj.t_range, tau=0.0)
    got = dr_convergence_sweep(traj, [c * grid.max_spacing for c in LADDER], _windowed(grid, traj, "full"),
                               0.5, chain)
    for r in got.reports:
        assert np.isnan([r.lhs, r.rhs, r.budget]).all()


@pytest.mark.parametrize("shape", [(12, 12), (9, 10, 11)])
def test_dr_field_differentiates_interior_times_only(monkeypatch, shape):
    grid = _grid(shape)
    traj = _trajectory(grid, 0, 5)
    calls = []

    def counting_deriv(f, axis, g):
        calls.append(axis)
        return deriv(f, axis, g)

    monkeypatch.setattr(energy_balance, "deriv", counting_deriv)
    chain = full_box_chain(grid, eta=10.0, t_range=traj.t_range, tau=0.0)
    times, defect = dr_dissipation_field(traj, 3 * grid.max_spacing, chain)
    assert len(times) == len(defect) == len(traj) - 2
    assert len(calls) == (len(traj) - 2) * grid.ndim
