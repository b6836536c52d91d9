"""Direct-sum references for mollification and the commutator stress.

The package mollifies by FFT only; these are the stencil and increment
sums it must reproduce, kept as test oracles.  Both wrap with ``np.roll``,
so they are circular on every axis, like the FFT: on a wall axis the
wrapped terms reach only nodes within epsilon of a wall plane.  The node
distance to a set is referenced against ``scipy.ndimage`` on the mask tiled
three times along each periodic axis, and the package's closed-form box
distances against ``distance_to_set``, the exact separable transform of any
mask, which they match bit for bit.
"""

import numpy as np
from scipy import ndimage

from oflux.grids import PERIODIC, as_components
from oflux.mollify import Mollifier, make_mollifier, mollify_field


def convolve_stencil(f, mol, grid):
    """Direct stencil convolution; ``f`` may carry leading component axes."""
    vol = grid.cell_volume()
    out = np.zeros_like(f)
    lead = f.ndim - grid.ndim
    for o, w in zip(mol.offsets, mol.weights):
        if w == 0.0:
            continue
        shifted = np.roll(f, shift=tuple(o), axis=tuple(range(lead, f.ndim)))
        out += (w * vol) * shifted
    return out


def commutator_via_increments(u, mollifier, grid=None, region=None):
    """Increment form of the stress; equals commutator_stress in exact arithmetic.

    R = sum_o w_o h^n (delta_o u ox delta_o u) - (u - u^eps) ox (u - u^eps),
    delta_o u = u(x - o h) - u(x), as its rows R_ij, i <= j, row-major.
    """
    vel, grid = as_components(u, grid)
    mol = mollifier if isinstance(mollifier, Mollifier) else make_mollifier(float(mollifier), grid)
    n = grid.ndim
    vol = grid.cell_volume()
    iu, ju = np.triu_indices(n)
    t1 = np.zeros((len(iu), *grid.dims))
    axes = tuple(range(1, vel.ndim))
    for o, w in zip(mol.offsets, mol.weights):
        if w == 0.0:
            continue
        delta = np.roll(vel, shift=tuple(o), axis=axes) - vel
        t1 += (w * vol) * delta[iu] * delta[ju]
    ue = mollify_field(vel, mol, grid, region)
    fluct = vel - ue
    t1 -= fluct[iu] * fluct[ju]
    return t1


def distance_via_tiling(mask, grid):
    """Euclidean node distance to the True nodes: ``ndimage`` on the tiled mask, centre tile kept."""
    tiled = mask
    for a in range(grid.ndim):
        if grid.axis_kinds[a] == PERIODIC:
            tiled = np.concatenate([tiled] * 3, axis=a)
    dist = ndimage.distance_transform_edt(~tiled, sampling=grid.spacing)
    keep = tuple(slice(m, 2 * m) if kind == PERIODIC else slice(0, m)
                 for m, kind in zip(grid.dims, grid.axis_kinds))
    return dist[keep]


def distance_to_set(mask, grid):
    """Euclidean distance from every node to the nearest True node.

    Exact and separable.  A scan along axis 0 finds the nearest True node on
    each line; every later axis then takes, per node, the minimum over its
    line of (squared distance so far + (di h)^2).  Periodic axes measure di
    by the minimum image.  Squared distances are summed in axis order, so the
    values are those of the nearest node's offset (di_0 h_0)^2 + (di_1 h_1)^2
    + ... itself.
    """
    if not mask.any():
        return np.full(grid.dims, np.inf)
    sq = _axis0_distance_sq(mask, grid)
    for a in range(1, grid.ndim):
        sq = _add_axis_distance_sq(sq, a, grid)
    return np.sqrt(sq)


def _axis0_distance_sq(mask, grid):
    """Squared distance to the nearest True node on the same axis-0 line (inf if none)."""
    m = grid.dims[0]
    far = 3 * m  # beyond any in-line offset, also after a periodic wrap
    i = np.arange(m).reshape((m,) + (1,) * (grid.ndim - 1))
    before = np.maximum.accumulate(np.where(mask, i, -far), axis=0)  # last True at or before i
    after = np.minimum.accumulate(np.where(mask, i, far)[::-1], axis=0)[::-1]  # first True at or after i
    if grid.axis_kinds[0] == PERIODIC:  # wrap to the line's last / first True node
        before = np.where(before < 0, before[-1] - m, before)
        after = np.where(after >= m, after[0] + m, after)
    di = np.minimum(i - before, after - i)
    return np.where(mask.any(axis=0), (di * grid.spacing[0]) ** 2, np.inf)


def _add_axis_distance_sq(sq, axis, grid):
    """min over the line along ``axis`` of sq[k] + ((j - k) h)^2, at every node j."""
    m = grid.dims[axis]
    k = np.arange(m)
    di = np.abs(k[:, None] - k[None, :])
    if grid.axis_kinds[axis] == PERIODIC:
        di = np.minimum(di, m - di)
    step_sq = (di * grid.spacing[axis]) ** 2  # [j, k]
    lines = np.moveaxis(sq, axis, 0)
    flat = lines.reshape(m, -1)
    out = np.empty_like(flat)
    rows = max(1, (1 << 16) // flat.size)  # bounds the (rows, line, lines) candidate block
    for j in range(0, m, rows):
        out[j : j + rows] = (flat[None] + step_sq[j : j + rows, :, None]).min(axis=1)
    return np.moveaxis(out.reshape(lines.shape), 0, axis)
