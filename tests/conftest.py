import numpy as np
import pytest

from oflux.grids import Snapshot, Trajectory, make_grid
from oflux.synth import taylor_green

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="session")
def box64():
    return make_grid((64, 64), (TWO_PI, TWO_PI))


@pytest.fixture(scope="session")
def box128():
    return make_grid((128, 128), (TWO_PI, TWO_PI))


@pytest.fixture(scope="session")
def box256():
    return make_grid((256, 256), (TWO_PI, TWO_PI))


def channel_grid(nx=64, ny=65, lx=TWO_PI, ly=1.0):
    return make_grid((nx, ny), (lx, ly), ("periodic", "wall"))


def steady_tg_trajectory(grid, n_snaps=5, dt=0.1):
    """The steady (nu = 0) Taylor-Green field replicated over a time window."""
    base = taylor_green(grid, 0.0, 0.0)
    snaps = tuple(
        Snapshot(grid, base.velocity, base.pressure, i * dt, dict(base.tags))
        for i in range(n_snaps)
    )
    return Trajectory(snaps, dt)


def frozen_trajectory(snap, n_snaps=3, dt=0.1):
    snaps = tuple(
        Snapshot(snap.grid, snap.velocity, snap.pressure, i * dt, dict(snap.tags))
        for i in range(n_snaps)
    )
    return Trajectory(snaps, dt)


def stream_channel_field(grid):
    """Divergence-free channel field from the stream function sin(x) sin(pi y),
    with its exact Euler pressure (pi^2/4) cos 2x + (1/4) cos 2 pi y."""
    x, y = grid.meshes()
    u = np.pi * np.sin(x) * np.cos(np.pi * y)
    v = -np.cos(x) * np.sin(np.pi * y)
    p = (np.pi**2 / 4.0) * np.cos(2 * x) + 0.25 * np.cos(2 * np.pi * y)
    vel = np.stack([np.broadcast_to(u, grid.dims).copy(), np.broadcast_to(v, grid.dims).copy()])
    return Snapshot(grid, vel, np.broadcast_to(p, grid.dims).copy(), 0.0)
