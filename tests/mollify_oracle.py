"""Direct-sum references for mollification and the commutator stress.

The package mollifies by FFT only; these are the stencil and increment
sums it must reproduce, kept as test oracles.  Both wrap with ``np.roll``,
so they are circular on every axis, like the FFT: on a wall axis the
wrapped terms reach only nodes within epsilon of a wall plane.  The node
distance to a set is referenced against ``scipy.ndimage`` on the mask tiled
three times along each periodic axis.
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
