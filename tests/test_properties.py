"""Property tests over the package's mutual oracles and its file and hash formats."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oflux import fieldio
from oflux.commutator import commutator_stress, contraction_grad
from oflux.energy_balance import ChiWindow, TestFunction, weak_energy_identity
from oflux.errors import PreconditionError
from oflux.grids import Snapshot, Trajectory, deriv, make_grid, partials, wall_distance
from oflux.mollify import block_mask, cutoff_region, full_box_chain, make_mollifier, mollify_field, nested_regions
from oflux.reports import config_hash

from conftest import TWO_PI
from mollify_oracle import commutator_via_increments, convolve_stencil

RTOL = 1e-12
PROPERTY = settings(max_examples=20, deadline=None)
dims = st.integers(min_value=8, max_value=17)  # even and odd; the grid floor is 8
seeds = st.integers(min_value=0, max_value=2**32 - 1)
kinds = st.sampled_from([("periodic", "periodic"), ("periodic", "wall"), ("wall", "wall")])


def _case(nx, ny, kind, seed, c, ncomp):
    """Grid, random field, kernel at epsilon = c * h, and the margin-clear region."""
    grid = make_grid((nx, ny), (1.3, 0.9), kind)
    f = np.random.default_rng(seed).standard_normal((ncomp, nx, ny) if ncomp else (nx, ny))
    mol = make_mollifier(c * grid.max_spacing, grid)
    region = np.ones(grid.dims, dtype=bool)
    for a in range(grid.ndim):
        if grid.axis_kinds[a] == "wall":
            y = grid.axis_coords(a)
            near = (y < mol.epsilon) | (y > grid.extents[a] - mol.epsilon)
            region &= ~near.reshape([-1 if b == a else 1 for b in range(grid.ndim)])
    return grid, f, mol, region


@PROPERTY
@given(nx=dims, ny=dims, kind=kinds, seed=seeds, c=st.floats(2.0, 4.0), ncomp=st.sampled_from([0, 2]))
def test_mollify_matches_stencil_oracle(nx, ny, kind, seed, c, ncomp):
    grid, f, mol, region = _case(nx, ny, kind, seed, c, ncomp)
    got = mollify_field(f, mol, grid, region)
    want = convolve_stencil(f, mol, grid)
    # both are circular on every axis, so they agree on every node, not only on the region
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


@PROPERTY
@given(nx=dims, ny=dims, kind=kinds, seed=seeds, c=st.floats(2.0, 4.0))
def test_commutator_direct_matches_increments(nx, ny, kind, seed, c):
    grid, vel, mol, region = _case(nx, ny, kind, seed, c, 2)
    direct = commutator_stress(vel, mol, grid, region)
    increments = commutator_via_increments(vel, mol, grid, region)
    assert direct.shape == increments.shape == (3, nx, ny)  # R_00, R_01, R_11
    assert np.abs(direct - increments).max() <= RTOL * max(1.0, np.abs(vel).max() ** 2)


def _wall_plane_distance(grid):
    """Brute force: the distance from every node to the nearest node on a wall plane (inf if none)."""
    nodes = np.stack([np.ravel(m) for m in np.meshgrid(*[grid.axis_coords(a) for a in range(grid.ndim)],
                                                         indexing="ij")], axis=1)
    on_plane = np.zeros(grid.dims, dtype=bool)
    for a in range(grid.ndim):
        if grid.axis_kinds[a] == "wall":
            on_plane |= np.isin(np.arange(grid.dims[a]), (0, grid.dims[a] - 1)).reshape(
                [-1 if b == a else 1 for b in range(grid.ndim)])
    planes = nodes[on_plane.ravel()]
    if not len(planes):
        return np.full(grid.dims, np.inf)
    sq = ((nodes[:, None, :] - planes[None, :, :]) ** 2).sum(-1)
    return np.sqrt(sq.min(axis=1)).reshape(grid.dims)


def _walled_grid(data, ndim, walls):
    shape = data.draw(st.tuples(*[st.integers(8, 17 if ndim == 2 else 10)] * ndim))
    axes = data.draw(st.permutations(range(ndim)))[:walls]
    kinds = ["wall" if a in axes else "periodic" for a in range(ndim)]
    return make_grid(shape, data.draw(st.tuples(*[st.floats(0.5, 3.0)] * ndim)), kinds)


@PROPERTY
@given(shape=st.lists(dims, min_size=2, max_size=3),
       walls=st.lists(st.booleans(), min_size=3, max_size=3),
       lead=st.sampled_from([(), (2,), (3, 2)]),
       seed=seeds)
def test_partials_matches_deriv(shape, walls, lead, seed):
    # the stack-gradient route (real transforms) against the complex per-axis route
    kinds = ["wall" if w else "periodic" for w in walls[: len(shape)]]
    grid = make_grid(shape, (1.3, 0.9, 1.1)[: len(shape)], kinds)
    f = np.random.default_rng(seed).standard_normal((*lead, *shape))
    before = f.copy()
    got = list(partials(f, grid))
    assert [a for a, _ in got] == list(range(grid.ndim))
    assert np.array_equal(f, before)
    for a, g in got:
        want = deriv(f, a, grid)
        assert g.shape == f.shape
        for c in np.ndindex(*lead):
            assert np.abs(g[c] - want[c]).max() <= RTOL * np.abs(want[c]).max()


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("walls", [0, 1, 2])
@PROPERTY
@given(data=st.data())
def test_wall_distance_matches_brute_force(ndim, walls, data):
    grid = _walled_grid(data, ndim, walls)
    d = wall_distance(grid)
    assert d.ndim == grid.ndim and np.broadcast_shapes(d.shape, grid.dims) == grid.dims
    want = _wall_plane_distance(grid)
    if walls == 0:
        assert np.all(np.isinf(d))
    else:
        assert np.abs(np.broadcast_to(d, grid.dims) - want).max() <= 1e-12 * max(grid.extents)


@pytest.mark.parametrize("ndim", [2, 3])
@PROPERTY
@given(data=st.data(), lo=st.floats(0.2, 0.45), width=st.floats(0.05, 0.3), c=st.floats(0.5, 2.5))
def test_nested_regions_two_wall_axes_clearance(ndim, data, lo, width, c):
    # the chain needs 4 eta between the support and every wall plane, on either wall axis
    grid = _walled_grid(data, ndim, 2)
    support = block_mask(grid, lo, min(lo + width, 0.8))
    assume(support.any())
    clearance = _wall_plane_distance(grid)[support].min()
    eta = c * clearance / 4.0
    if c > 1.0 + 1e-9:
        with pytest.raises(PreconditionError, match="maximal feasible eta") as info:
            nested_regions(support, eta, grid)
        feasible = float(re.search(r"maximal feasible eta is (\S+)$", str(info.value)).group(1))
        assert feasible == pytest.approx(clearance / 4.0, rel=1e-5)
    elif c < 1.0 - 1e-9:
        chain = nested_regions(support, eta, grid)
        assert np.array_equal(chain.q3 & support, support)


@PROPERTY
@given(seed=seeds, dt=st.floats(1e-3, 1.0), chi=st.sampled_from([(0.0, 0.6), (-0.5, 0.5), (0.3, 1.0)]))
def test_flux_term_one_snapshot_trajectory_equals_snapshot(seed, dt, chi):
    # one snapshot has time weight 1 whatever dt is: the rhs is -chi(t) <R : grad(phi u)> at t
    grid = make_grid((16, 16), (TWO_PI, TWO_PI))
    rng = np.random.default_rng(seed)
    snap = Snapshot(grid, rng.standard_normal((2, 16, 16)), rng.standard_normal((16, 16)), 0.3)
    phi = cutoff_region(grid, block_mask(grid, 0.3, 0.7), block_mask(grid, 0.1, 0.9))
    test = TestFunction(ChiWindow(*chi), phi)
    chain = full_box_chain(grid, eta=10.0)
    mol = make_mollifier(2.5 * grid.max_spacing, grid)
    rep = weak_energy_identity(Trajectory((snap,), dt), test, mol.epsilon, chain)
    assert rep == weak_energy_identity(Trajectory((snap,), 1.0), test, mol.epsilon, chain)
    vel = snap.velocity
    alone = contraction_grad(commutator_stress(vel, mol, grid), mollify_field(vel, mol, grid), phi.values, grid)
    assert rep.rhs == pytest.approx(-float(test.chi(0.3)) * alone, rel=1e-9, abs=1e-12)


tag_values = st.one_of(
    st.booleans().map(np.bool_),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.text(max_size=8),
)


@settings(max_examples=25, deadline=None)
@given(tags=st.dictionaries(st.text(min_size=1, max_size=8), tag_values, max_size=4),
       kind=kinds, nx=dims, with_pressure=st.booleans(), seed=seeds)
def test_snapshot_and_tags_roundtrip(tmp_path_factory, tags, kind, nx, with_pressure, seed):
    grid = make_grid((nx, 9), (1.3, 0.9), kind)
    rng = np.random.default_rng(seed)
    snap = Snapshot(grid, rng.standard_normal((2, nx, 9)),
                    rng.standard_normal((nx, 9)) if with_pressure else None, 0.25, tags)
    path = fieldio.write_snapshot(tmp_path_factory.mktemp("rt") / "s.oflx", snap)
    back = fieldio.read_snapshot(path)
    assert back.grid == grid and back.time == snap.time
    assert np.array_equal(back.velocity, snap.velocity)
    assert (back.pressure is None) if not with_pressure else np.array_equal(back.pressure, snap.pressure)
    assert back.tags == {k: v.item() if isinstance(v, np.generic) else v for k, v in tags.items()}


@settings(max_examples=25, deadline=None)
@given(cfg=st.dictionaries(st.text(max_size=6), st.one_of(st.integers(), st.text(max_size=6)), max_size=6),
       seed=seeds)
def test_config_hash_ignores_key_order(cfg, seed):
    keys = list(cfg)
    np.random.default_rng(seed).shuffle(keys)
    assert config_hash({k: cfg[k] for k in keys}) == config_hash(cfg)
