"""Property tests over the package's mutual oracles and its file and hash formats."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oflux import fieldio
from oflux.commutator import commutator_stress, flux_term
from oflux.grids import Snapshot, Trajectory, make_grid
from oflux.mollify import block_mask, cutoff_region, make_mollifier, mollify_field
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
    direct = commutator_stress(vel, mol, grid, region).tensor
    increments = commutator_via_increments(vel, mol, grid, region).tensor
    assert np.abs(direct - increments).max() <= RTOL * max(1.0, np.abs(vel).max() ** 2)


@PROPERTY
@given(seed=seeds, dt=st.floats(1e-3, 1.0), chi=st.sampled_from([None, 0.5, "window"]))
def test_flux_term_one_snapshot_trajectory_equals_snapshot(seed, dt, chi):
    grid = make_grid((16, 16), (TWO_PI, TWO_PI))
    snap = Snapshot(grid, np.random.default_rng(seed).standard_normal((2, 16, 16)), None, 0.3)
    phi = cutoff_region(grid, block_mask(grid, 0.3, 0.7), block_mask(grid, 0.1, 0.9))
    mol = make_mollifier(2.5 * grid.max_spacing, grid)
    weight = (lambda t: 1.0 + t) if chi == "window" else chi
    alone = flux_term(snap, mol, chi=weight, phi=phi)
    assert flux_term(Trajectory((snap,), dt), mol, chi=weight, phi=phi) == alone


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
