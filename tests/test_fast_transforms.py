"""The one diagonal spectral solve against direct oracles: the tridiagonal
(Thomas) channel solves, the dense periodic 5-point stencil, the
complex-FFT periodic pressure solve, and the periodic solver step's spectral
finish against its stencil route (projection, the dense Crank-Nicolson solve
and the dense -<w, L w>)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oflux.grids import Snapshot, make_grid
from oflux.pressure import solve_channel_neumann, solve_pressure_periodic
from oflux.solver import _Diffuser, _Projector, _spectral_finish, project

from conftest import channel_grid
import tridiag_oracle as oracle

RTOL = 1e-12
dims = st.integers(min_value=8, max_value=17)  # even and odd; the grid floor is 8
seeds = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY = settings(max_examples=25, deadline=None)


def _close(got, want):
    return np.abs(got - want).max() <= RTOL * np.abs(want).max()


@PROPERTY
@given(nx=dims, ny=dims, seed=seeds)
def test_projection_matches_thomas(nx, ny, seed):
    grid = channel_grid(nx, ny, lx=1.7, ly=0.9)
    hx, hy = grid.spacing
    rhs = np.random.default_rng(seed).standard_normal((nx, ny - 1))
    q = _Projector(grid)(rhs)
    ref = oracle.project_solve(rhs, hx, hy)
    # both gauges fix only the additive constant
    assert _close(q - q.mean(), ref - ref.mean())


@PROPERTY
@given(nx=dims, ny=dims, seed=seeds, nu=st.floats(1e-4, 1.0), dt=st.floats(1e-4, 0.1))
def test_diffusion_matches_thomas(nx, ny, seed, nu, dt):
    grid = channel_grid(nx, ny, lx=2.3, ly=1.0)
    hx, hy = grid.spacing
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((nx, ny - 1))
    v = rng.standard_normal((nx, ny))
    v[:, 0] = v[:, -1] = 0.0
    un, vn = _Diffuser(grid, nu, dt).step(u, v)
    c = 0.5 * nu * dt
    assert _close(un, oracle.diffuse_u(u, c, hx, hy))
    assert _close(vn, oracle.diffuse_v(v, c, hx, hy))
    assert np.all(vn[:, 0] == 0.0) and np.all(vn[:, -1] == 0.0)


@PROPERTY
@given(nx=dims, ny=dims, seed=seeds)
def test_neumann_pressure_matches_thomas_2d(nx, ny, seed):
    grid = channel_grid(nx, ny, lx=3.1, ly=1.2)
    rng = np.random.default_rng(seed)
    source = rng.standard_normal((nx, ny))
    g_lo, g_hi = rng.standard_normal((2, nx))
    p = solve_channel_neumann(source, g_lo, g_hi, grid)
    assert _close(p, oracle.neumann_solve(source, g_lo, g_hi, grid))


@PROPERTY
@given(shape=st.tuples(dims, dims, dims), wall=st.integers(0, 2), seed=seeds)
def test_neumann_pressure_matches_thomas_3d(shape, wall, seed):
    kinds = ["periodic"] * 3
    kinds[wall] = "wall"
    grid = make_grid(shape, (2.0, 1.5, 1.0), kinds)
    rng = np.random.default_rng(seed)
    source = rng.standard_normal(shape)
    tangential = tuple(m for a, m in enumerate(shape) if a != wall)
    g_lo, g_hi = rng.standard_normal((2, *tangential))
    p = solve_channel_neumann(source, g_lo, g_hi, grid)
    assert _close(p, oracle.neumann_solve(source, g_lo, g_hi, grid))


def _box(nx, ny, lx, ly):
    return make_grid((nx, ny), (lx, ly))


@PROPERTY
@given(nx=dims, ny=dims, seed=seeds)
def test_periodic_projection_matches_dense_stencil(nx, ny, seed):
    grid = _box(nx, ny, 1.7, 0.9)
    hx, hy = grid.spacing
    rhs = np.random.default_rng(seed).standard_normal((nx, ny))
    q = _Projector(grid)(rhs)
    assert _close(q, oracle.periodic_project_solve(rhs, hx, hy))


@pytest.mark.parametrize("ndim", [2, 3])
@PROPERTY
@given(data=st.data(), seed=seeds)
def test_periodic_pressure_matches_complex_fft(ndim, data, seed):
    shape = data.draw(st.tuples(*[dims] * ndim))
    grid = make_grid(shape, (2.0, 1.5, 1.0)[:ndim])
    vel = np.random.default_rng(seed).standard_normal((ndim, *shape))
    p = solve_pressure_periodic(Snapshot(grid, vel))
    assert _close(p, oracle.periodic_pressure_solve(vel, grid))


@PROPERTY
@given(nx=dims, ny=dims, seed=seeds, nu=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)), dt=st.floats(1e-4, 0.1))
def test_periodic_spectral_finish_matches_stencil_route(nx, ny, seed, nu, dt):
    grid = _box(nx, ny, 1.9, 0.8)
    u, v = np.random.default_rng(seed).standard_normal((2, nx, ny))  # not divergence-free
    projector = _Projector(grid)
    uf, vf, diss, loss = _spectral_finish(grid, nu, dt, projector)(u, v)

    hx, hy = grid.spacing
    c = 0.5 * nu * dt
    u2, v2 = project(u, v, grid, projector)
    u3, v3 = oracle.periodic_diffuse(u2, c, hx, hy), oracle.periodic_diffuse(v2, c, hx, hy)
    want = nu * dt * oracle.periodic_gradient_norm_sq(0.5 * (u2 + u3), 0.5 * (v2 + v3), hx, hy)
    u4, v4 = project(u3, v3, grid, projector)
    assert _close(uf, u4) and _close(vf, v4)
    assert abs(diss - want) <= RTOL * want
    assert loss == 0.0
