"""The transform-once epsilon-ladders against per-rung references."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oflux import energy_balance
from oflux.commutator import probe_mask, probe_rungs, scaling_probe
from oflux.energy_balance import (ChiWindow, TestFunction, _WeakIdentity, dr_convergence_sweep, dr_dissipation_field,
                                  dr_sweep_reports)
from oflux.errors import PreconditionError
from oflux.grids import Snapshot, Trajectory, deriv, make_grid, partial, partials
from oflux.mollify import block_mask, cutoff_region, full_box_chain
from oflux.pressure import solve_pressure_periodic
from oflux.synth import fractional_field

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
    want = scaling_probe_rungs(vel, eps, phi.values, grid, probe_mask(grid, None))
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
    chain = full_box_chain(grid, eta=10.0)
    test = TestFunction(ChiWindow(t1, t2), _phi(grid))
    eps = [c * grid.max_spacing for c in LADDER]
    got = dr_convergence_sweep(traj, eps, test, 0.5, chain, kappa)
    for rep, e in zip(got.reports, eps):
        lhs, rhs, euler_term = weak_identity_rung(traj, test, e, chain, kappa)
        scale = max(abs(lhs), abs(rhs), abs(euler_term))
        assert abs(rep.lhs - lhs) <= RTOL * scale
        assert abs(rep.rhs - rhs) <= RTOL * scale
        assert abs(rep.euler_term - euler_term) <= RTOL * scale


@PROPERTY
@given(shape=shapes, seed=seeds)
def test_dr_sweep_probe_equals_the_probe_alone(shape, seed):
    # the probe read off the weak identity's live slice is the probe of that snapshot, bit for bit,
    # and the identity's reports do not change with it
    grid = _grid(shape)
    traj = _trajectory(grid, seed, 3)
    chain = full_box_chain(grid, eta=10.0)
    test = TestFunction(ChiWindow(*traj.t_range), _phi(grid))
    eps = [c * grid.max_spacing for c in LADDER]
    reports, rungs = dr_sweep_reports(traj, eps, test, chain, probe_at=1)
    assert rungs == probe_rungs(traj[1], eps, test.phi)
    assert reports == dr_sweep_reports(traj, eps, test, chain)[0]


def test_dr_sweep_probe_is_none_where_the_identity_does_not_mollify_the_snapshot():
    grid = _grid((12, 12))
    chain = full_box_chain(grid, eta=10.0)
    eps = [c * grid.max_spacing for c in LADDER]
    traj = _trajectory(grid, 0, 3)
    test = TestFunction(ChiWindow(*traj.t_range), _phi(grid))
    assert dr_sweep_reports(traj, eps, test, chain, probe_at=0)[1] is None  # chi and chi' vanish there
    traj = _trajectory(grid, 0, 6)
    test = TestFunction(ChiWindow(*traj.t_range), _phi(grid))
    assert dr_sweep_reports(traj, eps, test, chain, kappa=0.2, probe_at=3)[1] is None  # smoothed in time


@pytest.mark.parametrize("shape", [(12, 12), (9, 10, 11)])
def test_dr_sweep_euler_derivatives_do_not_grow_with_rungs(monkeypatch, shape):
    # the Euler residual and grad(phi) are built once per snapshot, not per rung:
    # per live time p's gradient and, along each axis i, the n products that hold
    # u_i; grad(phi) once.  The end snapshots, where chi and chi' vanish, build no
    # Euler residual
    grid = _grid(shape)
    traj = _trajectory(grid, 0, 3)
    t1, t2 = traj.t_range
    chain = full_box_chain(grid, eta=10.0)
    test = TestFunction(ChiWindow(t1, t2), _phi(grid))
    stacks, axes = [], []

    def counting_partials(f, g):
        stacks.append(f.shape)
        return partials(f, g)

    def counting_partial(f, axis, g):
        axes.append((f.shape, axis))
        return partial(f, axis, g)

    monkeypatch.setattr(energy_balance, "partials", counting_partials)
    monkeypatch.setattr(energy_balance, "partial", counting_partial)
    counts = []
    for rungs in (LADDER[:4], LADDER):
        stacks.clear()
        axes.clear()
        dr_convergence_sweep(traj, [c * grid.max_spacing for c in rungs], test, 0.5, chain)
        counts.append((len(stacks), len(axes)))
    live = len(traj) - 2
    n = grid.ndim
    assert counts == [(live + 1, live * n * n)] * 2
    assert all(f == grid.dims for f, _ in axes)


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
    chain = full_box_chain(grid, eta=10.0)
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
    chain = full_box_chain(grid, eta=10.0)
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
    chain = full_box_chain(grid, eta=10.0)
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
    chain = full_box_chain(grid, eta=10.0)
    times, defect = dr_dissipation_field(traj, 3 * grid.max_spacing, chain)
    assert len(times) == len(defect) == len(traj) - 2
    assert len(calls) == (len(traj) - 2) * grid.ndim


def _peak_fields(fn, grid):
    """fn's result and its tracemalloc peak, in units of one scalar field."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / (np.prod(grid.dims) * 8.0)


def test_ladders_hold_few_fields_at_a_time():
    # diagnose's frozen 3-snapshot trajectory at 64^2 with its default ladder; these
    # ratios move by at most 1.1 fields between 64^2 and 256^2.  They read 16.5
    # (the weak identity's set-up), 11.3 (one of its rungs), 19.3 (the probe) and
    # 14.2 (the defect field).  Holding each rung's stress as the full symmetric
    # n x n tensor reads 13.1 for the rung and 20.3 for the probe; transforming the
    # set-up's groups as one stack reads 26.7, and the defect field's [u, p] as one
    # stack 24.4
    grid = make_grid((64, 64), (2 * np.pi, 2 * np.pi))
    vel = fractional_field(0.4, None, 0, grid).velocity
    traj = Trajectory(tuple(Snapshot(grid, vel, None, 0.1 * k) for k in range(3)), 0.1)
    traj = traj.map(lambda s: s.with_pressure(solve_pressure_periodic(s)))
    ladder = [m * grid.max_spacing for m in (18, 15, 12, 10, 8, 6, 5, 4)]
    phi = cutoff_region(grid, block_mask(grid, 0.3, 0.7), block_mask(grid, 0.1, 0.9))
    chain = full_box_chain(grid, eta=4.0 * max(ladder))
    test = TestFunction(ChiWindow(*traj.t_range), phi)
    identity, setup = _peak_fields(lambda: _WeakIdentity(traj, test, chain, None), grid)
    _, rung = _peak_fields(lambda: identity.report(ladder[-1]), grid)
    del identity
    _, probe = _peak_fields(lambda: scaling_probe(traj[1], 0.4, ladder, phi=phi), grid)
    _, field = _peak_fields(lambda: dr_dissipation_field(traj, max(ladder), chain), grid)
    assert setup <= 17.5
    assert rung <= 12.0
    assert probe <= 20.0
    assert field <= 15.0
