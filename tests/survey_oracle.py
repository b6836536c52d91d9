"""Python-loop references for the Hölder survey's offset bookkeeping.

The package groups shell offsets with numpy (a first-nonzero test for the
canonical half, ``np.unique`` over orbit keys).  These are the per-offset
loops that grouping replaced: offsets whose first nonzero component is
positive, and orbits keyed by the descending-sorted |o| on an isotropic grid
(|o| per axis otherwise), in key order, each keeping the offsets' order.
"""

import numpy as np

from oflux.synth import _shell_offsets


def canonical_half_loop(offsets):
    keep = np.zeros(len(offsets), dtype=bool)
    for i, o in enumerate(offsets):
        for c in o:
            if c > 0:
                keep[i] = True
                break
            if c < 0:
                break
    return offsets[keep]


def shell_orbits_loop(grid, r_lo, r_hi):
    offs = _shell_offsets(grid, r_lo, r_hi)
    groups = {}
    isotropic = len(set(grid.spacing)) == 1
    for o in offs:
        if isotropic:
            key = tuple(sorted((int(abs(c)) for c in o), reverse=True))
        else:
            key = tuple(int(abs(c)) for c in o)
        groups.setdefault(key, []).append(o)
    return [np.array(groups[k]) for k in sorted(groups)]
