"""Fast-transform channel solves against the tridiagonal (Thomas) oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oflux.grids import Domain, make_grid
from oflux.pressure import solve_channel_neumann
from oflux.solver import _Diffuser, _Projector

from conftest import channel_domain
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
    dom = channel_domain(nx, ny, lx=1.7, ly=0.9)
    hx, hy = dom.grid.spacing
    rhs = np.random.default_rng(seed).standard_normal((nx, ny - 1))
    q = _Projector(dom)(rhs)
    ref = oracle.project_solve(rhs, hx, hy)
    # both gauges fix only the additive constant
    assert _close(q - q.mean(), ref - ref.mean())


@PROPERTY
@given(nx=dims, ny=dims, seed=seeds, nu=st.floats(1e-4, 1.0), dt=st.floats(1e-4, 0.1))
def test_diffusion_matches_thomas(nx, ny, seed, nu, dt):
    dom = channel_domain(nx, ny, lx=2.3, ly=1.0)
    hx, hy = dom.grid.spacing
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((nx, ny - 1))
    v = rng.standard_normal((nx, ny))
    v[:, 0] = v[:, -1] = 0.0
    un, vn = _Diffuser(dom, nu, dt).step(u, v)
    c = 0.5 * nu * dt
    assert _close(un, oracle.diffuse_u(u, c, hx, hy))
    assert _close(vn, oracle.diffuse_v(v, c, hx, hy))
    assert np.all(vn[:, 0] == 0.0) and np.all(vn[:, -1] == 0.0)


@PROPERTY
@given(nx=dims, ny=dims, seed=seeds)
def test_neumann_pressure_matches_thomas_2d(nx, ny, seed):
    dom = channel_domain(nx, ny, lx=3.1, ly=1.2)
    rng = np.random.default_rng(seed)
    source = rng.standard_normal((nx, ny))
    g_lo, g_hi = rng.standard_normal((2, nx))
    p = solve_channel_neumann(source, g_lo, g_hi, dom)
    assert _close(p, oracle.neumann_solve(source, g_lo, g_hi, dom))


@PROPERTY
@given(shape=st.tuples(dims, dims, dims), wall=st.integers(0, 2), seed=seeds)
def test_neumann_pressure_matches_thomas_3d(shape, wall, seed):
    kinds = ["periodic"] * 3
    kinds[wall] = "wall"
    dom = Domain(make_grid(shape, (2.0, 1.5, 1.0), kinds), "channel")
    rng = np.random.default_rng(seed)
    source = rng.standard_normal(shape)
    tangential = tuple(m for a, m in enumerate(shape) if a != wall)
    g_lo, g_hi = rng.standard_normal((2, *tangential))
    p = solve_channel_neumann(source, g_lo, g_hi, dom)
    assert _close(p, oracle.neumann_solve(source, g_lo, g_hi, dom))
