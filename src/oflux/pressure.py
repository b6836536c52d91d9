"""Pressure recovery from velocity and pressure-regularity diagnostics.

Both solves apply ``grids.Diagonal``, the one diagonal spectral solve (the
wall closure's real-to-real transform, then ``rfft`` along the first
periodic axis and ``fft`` along the others).  The periodic one inverts
-Lap p = d_i d_j (u_i u_j) from one transform of the stack u_i u_j.  The
channel one solves the physical Neumann problem (dp/dn = -(u.grad u).n on
the walls) with spectral tangential derivatives and the second-order node
stencil across the walls, which the DCT-I diagonalizes; the zero mode's
right side is projected onto the solvable subspace.  The gauge is mean-zero
everywhere: domain mean on periodic boxes, interior-node mean on channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .commutator import quadratic_products, symmetric_pairs
from .grids import (WALL, Diagonal, Grid, Snapshot, Trajectory, deriv, deriv2, inverse_eigenvalues,
                    second_difference_eigenvalues, spectrum_wavenumbers, wall_distance)
from .mollify import CutoffField, cutoff_region
from .synth import holder_norm

IMPERMEABILITY_TOL = 1e-8  # largest |u.n| on a wall that the Neumann solve accepts

# ---------------------------------------------------------------------------
# periodic solve
# ---------------------------------------------------------------------------


def solve_pressure_periodic(snap: Snapshot) -> np.ndarray:
    """Spectral inversion of -Lap p = d_i d_j (u_i u_j) with zero-mean gauge."""
    grid = snap.grid
    if not grid.fully_periodic:
        raise PreconditionError("periodic pressure solve requires a fully periodic domain")
    ks = spectrum_wavenumbers(grid)
    mirror = spectrum_wavenumbers(grid, mirrored=True)
    k2 = sum(k * k for k in ks)
    neg_lap = Diagonal(grid.dims, k2)
    spectra = neg_lap.forward(quadratic_products(snap.velocity))
    # each product's symbol is the Hermitian-even part of -k_i k_j (doubled
    # off the diagonal): the part a real inverse transform sees
    src_hat = sum(-(0.5 if i == j else 1.0) * (ks[i] * ks[j] + mirror[i] * mirror[j]) * spectrum
                  for spectrum, (i, j) in zip(spectra, symmetric_pairs(grid.ndim)[0]))
    return neg_lap.inverse(src_hat * inverse_eigenvalues(k2))


# ---------------------------------------------------------------------------
# channel solve
# ---------------------------------------------------------------------------


def _advective_term(snap: Snapshot, comp: int) -> np.ndarray:
    """(u . grad) u_comp with the module's differencing rules."""
    grid = snap.grid
    out = np.zeros(grid.dims)
    for i in range(grid.ndim):
        out += snap.velocity[i] * deriv(snap.velocity[comp], i, grid)
    return out


def _channel_source(snap: Snapshot) -> np.ndarray:
    """d_i d_j (u_i u_j): spectral on periodic axes, FD (one-sided) on the wall axis."""
    grid = snap.grid
    n = grid.ndim
    src = np.zeros(grid.dims)
    for i in range(n):
        for j in range(i, n):
            prod = snap.velocity[i] * snap.velocity[j]
            if i == j:
                term = deriv2(prod, i, grid)
            else:
                first = deriv(prod, j, grid) if grid.axis_kinds[j] == WALL else deriv(prod, i, grid)
                other = i if grid.axis_kinds[j] == WALL else j
                term = deriv(first, other, grid)
                term = 2.0 * term
            src += term
    return src


def solve_channel_neumann(
    source: np.ndarray, g_lo: np.ndarray, g_hi: np.ndarray, grid: Grid
) -> np.ndarray:
    """Solve -Lap p = source with dp/dy = g_lo, g_hi on the two wall planes.

    ``g_lo``/``g_hi`` are the wall-axis derivative of p on the lower/upper
    plane (fields over the tangential axes).  The zero tangential mode's
    right side is projected to the solvable subspace; the returned field has
    zero interior-node mean.
    """
    w = grid.wall_axis
    ny = grid.dims[w]
    h = grid.spacing[w]

    # rows p'' + Lap_tangential p = -S, with the ghost-eliminated Neumann closures
    rhs = -np.asarray(source, dtype=float)
    rows = np.moveaxis(rhs, w, -1)  # a view: the wall rows are rows[..., 0] and rows[..., -1]
    rows[..., 0] += (2.0 / h) * np.asarray(g_lo, dtype=float)
    rows[..., -1] -= (2.0 / h) * np.asarray(g_hi, dtype=float)

    lam_y = second_difference_eigenvalues(0.5 * np.pi * np.arange(ny) / (ny - 1), h)
    lam = lam_y.reshape((ny,) + (1,) * (grid.ndim - 1 - w)) - sum(k * k for k in spectrum_wavenumbers(grid))
    # the zero mode's DCT-I coefficient is the trapezoid sum of the right
    # side: zeroing it is the projection onto the solvable subspace
    p = Diagonal(grid.dims, inverse_eigenvalues(lam), (w, "dct", 1))(rhs)
    return np.ascontiguousarray(p - np.moveaxis(p, w, -1)[..., 1:-1].mean())


def solve_pressure_channel(snap: Snapshot) -> np.ndarray:
    """Neumann pressure recovery on a channel; requires u.n = 0 on the walls."""
    grid = snap.grid
    w = grid.wall_axis
    un_max = float(np.abs(np.moveaxis(snap.velocity[w], w, -1)[..., [0, -1]]).max())
    if un_max > IMPERMEABILITY_TOL:
        raise PreconditionError(
            f"impermeability violated: max |u.n| on walls = {un_max:.3e} "
            f"exceeds {IMPERMEABILITY_TOL:.1e}; Neumann data would be inconsistent"
        )
    g = -np.moveaxis(_advective_term(snap, w), w, -1)  # the wall planes are g[..., 0] and g[..., -1]
    return solve_channel_neumann(_channel_source(snap), g[..., 0], g[..., -1], grid)


def fill_pressures(traj: Trajectory) -> Trajectory:
    """``traj`` with a pressure on every snapshot: a stored one is kept, a
    missing one is solved (periodic or channel, as the grid is)."""
    solve = solve_pressure_periodic if traj.grid.fully_periodic else solve_pressure_channel
    return traj.map(lambda s: s if s.pressure is not None else s.with_pressure(solve(s)))


# ---------------------------------------------------------------------------
# negative Sobolev norm
# ---------------------------------------------------------------------------


def negative_sobolev_norm(field: np.ndarray, beta: float, grid: Grid,
                          cutoff: CutoffField | None = None) -> float:
    """Spectrally weighted H^{-beta} norm: sqrt(sum (1+|k|^2)^-beta |f_hat|^2).

    The field is multiplied by the cutoff, extended periodically along
    periodic axes and odd-extended along a wall axis, and transformed with
    the volume normalization that makes beta = 0 reproduce the L^2 norm
    exactly.
    """
    if beta < 0:
        raise PreconditionError("beta must be nonnegative")
    f = np.array(field, dtype=float)
    if cutoff is not None:
        f = f * cutoff.values

    wall_axes = [a for a in range(grid.ndim) if grid.axis_kinds[a] == WALL]
    if len(wall_axes) > 1:
        raise PreconditionError("at most one wall axis is supported")
    extents = list(grid.extents)
    scale = 1.0
    if wall_axes:
        a = wall_axes[0]
        n = grid.dims[a]
        fm = np.moveaxis(f, a, -1)
        ext = np.concatenate([fm, -fm[..., -2:0:-1]], axis=-1)
        f = np.moveaxis(ext, -1, a)
        extents[a] = 2.0 * grid.extents[a]
        scale = 1.0 / np.sqrt(2.0)

    dims = f.shape
    vol = 1.0
    for L in extents:
        vol *= L
    npts = int(np.prod(dims))
    f_hat = np.fft.fftn(f) * (np.sqrt(vol) / npts)
    ks = np.meshgrid(
        *[2.0 * np.pi * np.fft.fftfreq(m, d=L / m) for m, L in zip(dims, extents)],
        indexing="ij",
        sparse=True,
    )
    k2 = sum(k * k for k in ks)
    weight = (1.0 + k2) ** (-beta)
    return scale * float(np.sqrt(np.sum(weight * np.abs(f_hat) ** 2)))


# ---------------------------------------------------------------------------
# interior Hölder comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InteriorHolderReport:
    pressure_holder: float
    velocity_holder_sq: float
    boundary_pressure_norm: float
    ratio: float | None
    degenerate: str | None
    alpha: float
    beta: float


def interior_holder_check(
    snap: Snapshot,
    chain,
    alpha: float,
    beta: float = 1.0,
    gamma: float | None = None,
    seed: int = 0,
) -> InteriorHolderReport:
    """Compare ||p||_{C^a(Q2)} against ||u||^2_{C^a(Qtilde)} plus the
    near-boundary H^{-beta} pressure norm, which is taken over the gamma-collar
    of a channel's walls and is 0 on a fully periodic grid.

    The constant in the underlying elliptic estimate is unquantified, so the
    ratio is a diagnostic to track across refinements, not a pass/fail.
    """
    if snap.pressure is None:
        raise PreconditionError("interior_holder_check requires a snapshot with pressure")
    if not (1.0 / 3.0 < alpha < 1.0):
        raise PreconditionError("alpha must lie in (1/3, 1)")
    grid = snap.grid
    p_norm = holder_norm(snap.pressure, alpha, region=chain.q2, grid=grid, seed=seed)
    u_norm = holder_norm(snap, alpha, region=chain.qtilde, seed=seed)
    if not grid.fully_periodic:
        if gamma is None:
            gamma = grid.extents[grid.wall_axis] / 8.0
        d = np.broadcast_to(wall_distance(grid), grid.dims)
        cf = cutoff_region(grid, d < gamma / 2.0, d < gamma)
        nsn = negative_sobolev_norm(snap.pressure, beta, grid, cutoff=cf)
    else:
        nsn = 0.0
    denom = u_norm**2 + nsn
    scale = float(np.abs(snap.velocity).max() + np.abs(snap.pressure).max())
    if denom < 1e-12 * max(1.0, scale) and p_norm < 1e-12 * max(1.0, scale):
        return InteriorHolderReport(p_norm, u_norm**2, nsn, None, "0/0 degenerate", alpha, beta)
    return InteriorHolderReport(p_norm, u_norm**2, nsn, p_norm / denom, None, alpha, beta)
