"""Discrete mollifiers, cutoffs, and the nested-region bookkeeping.

The kernel profile is the standard radial bump exp(-1/(1-s^2)) on |s| < 1.
Kernels are sampled at node offsets and renormalized so that the discrete
sum times the cell volume is exactly one; this makes mollification exact on
constants and (by stencil symmetry) on affine fields.

Mollification has one route on every grid: the circular convolution with
the sampled kernel, applied by real FFT.  A field is transformed once
(``field_spectrum``); each radius then costs one multiply by that kernel's
transfer (``Mollifier.transfer``) and one inverse transform
(``mollify_spectrum``), so an epsilon-ladder never transforms its inputs
again.  ``mollify_field`` is that path applied to a single field.

Every mollified value is only ever evaluated on regions that keep an
epsilon-margin from wall planes, so no literal extension of the data is
needed: inside the margin the wrapped contributions never arrive, and the
cutoff-extended field and the raw field convolve identically.  The direct
stencil sum the FFT reproduces is kept with the tests as an oracle
(tests/mollify_oracle.py).

Nested regions and cutoffs measure node-to-set distances with an exact
separable Euclidean distance transform in numpy (minimum image on periodic
axes); a cutoff takes its ramp and its inner/outer gap from one transform.

Time has one mollifier, ``time_mollify``, for the weak identity's stacks;
``time_reach`` checks its radius against a trajectory before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .grids import PERIODIC, WALL, Grid, wall_distance

# ---------------------------------------------------------------------------
# bump profile and its normalized antiderivative
# ---------------------------------------------------------------------------


def bump(s):
    """exp(-1/(1-s^2)) for |s| < 1, zero elsewhere."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


_CDF_INTERVALS = 4096
_CDF_STEP = 2.0 / _CDF_INTERVALS


def _cdf_table():
    """Values and slopes of the normalized bump antiderivative at the nodes
    -1, -1 + step, ..., 1, and the bump's mass.

    Each node interval is integrated by 8-point Gauss-Legendre and the pieces
    are summed cumulatively; the slope at a node is the normalized bump.
    Cubic Hermite interpolation on this table is within 1e-13 of the exact
    antiderivative, and the build takes about a millisecond.
    """
    h = _CDF_STEP
    nodes = np.linspace(-1.0, 1.0, _CDF_INTERVALS + 1)
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    pieces = bump(mid[:, None] + (0.5 * h) * gl_x) @ (0.5 * h * gl_w)
    cumulative = np.concatenate([[0.0], np.cumsum(pieces)])
    mass = float(cumulative[-1])
    return cumulative / mass, bump(nodes) / mass, mass


_CDF_VALUES, _CDF_SLOPES, _BUMP_MASS = _cdf_table()


def bump_cdf(t):
    """Normalized bump antiderivative: exactly 0 at t <= -1, exactly 1 at t >= 1.

    Inside (-1, 1) it is the cubic Hermite interpolant of the precomputed
    table, clipped to [0, 1]: C^1, and within 1e-13 of the C-infinity
    antiderivative.
    """
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, 1.0, 0.0)
    inside = (t > -1.0) & (t < 1.0)
    h = _CDF_STEP
    pos = (t[inside] + 1.0) / h
    i = np.minimum(pos.astype(np.intp), _CDF_INTERVALS - 1)
    s = pos - i
    s2 = s * s
    s3 = s2 * s
    y0, y1 = _CDF_VALUES[i], _CDF_VALUES[i + 1]
    m0, m1 = h * _CDF_SLOPES[i], h * _CDF_SLOPES[i + 1]
    val = ((2.0 * s3 - 3.0 * s2 + 1.0) * y0 + (s3 - 2.0 * s2 + s) * m0
           + (3.0 * s2 - 2.0 * s3) * y1 + (s3 - s2) * m1)
    out[inside] = np.clip(val, 0.0, 1.0)
    return out


def smooth_ramp(t):
    """C-infinity monotone ramp: exactly 0 for t <= 0, exactly 1 for t >= 1."""
    return bump_cdf(2.0 * np.asarray(t, dtype=float) - 1.0)


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mollifier:
    """Radial kernel of support radius ``epsilon`` sampled on grid offsets.

    The stencil is the closed ball |offset| <= epsilon in physical units;
    the bump vanishes on the bounding sphere, so weights are zero exactly
    where |offset| >= epsilon.  After sampling, the weights are renormalized
    so that sum(weights) * cell_volume == 1.
    """

    epsilon: float
    spacing: tuple[float, ...]
    offsets: np.ndarray  # (k, ndim) int
    weights: np.ndarray  # (k,) float, renormalized

    def transfer(self, grid: Grid, region: np.ndarray | None = None) -> np.ndarray:
        """Half-spectrum (``rfftn``) of the kernel wrapped onto the grid.

        The wrap is circular on every axis.  With a ``region``, first checks
        that it keeps the epsilon-margin from the wall planes, where the
        wrapped contributions land.
        """
        _check_margin(grid, region, self.epsilon)
        return np.fft.rfftn(_kernel_grid(self, grid))


def make_mollifier(epsilon: float, grid: Grid) -> Mollifier:
    """Sample the bump kernel at node offsets within radius ``epsilon``."""
    h = grid.spacing
    hmax = max(h)
    if epsilon < 2.0 * hmax:
        raise PreconditionError(
            f"under-resolved kernel: epsilon={epsilon:g} below the 2h floor ({2 * hmax:g})"
        )
    reach = [int(np.floor(epsilon / ha + 1e-12)) for ha in h]
    axes = [np.arange(-r, r + 1) for r in reach]
    mesh = np.meshgrid(*axes, indexing="ij")
    offsets = np.stack([m.ravel() for m in mesh], axis=1)
    z = offsets * np.asarray(h)
    r = np.sqrt(np.sum(z * z, axis=1))
    keep = r <= epsilon * (1.0 + 1e-12)
    offsets = offsets[keep]
    w = bump(r[keep] / epsilon)
    vol = float(np.prod(h))
    w = w / (np.sum(w) * vol)
    return Mollifier(float(epsilon), tuple(h), offsets, w)


def _kernel_grid(mol: Mollifier, grid: Grid) -> np.ndarray:
    """Kernel weights wrapped onto the grid, times cell volume."""
    k = np.zeros(grid.dims)
    vol = grid.cell_volume()
    idx = tuple((mol.offsets[:, a] % grid.dims[a]) for a in range(grid.ndim))
    np.add.at(k, idx, mol.weights * vol)
    return k


def _check_margin(grid: Grid, region, epsilon: float):
    """Refuse region nodes closer than ``epsilon`` to a wall plane (periodic axes never violate)."""
    if region is None:
        region = np.ones(grid.dims, dtype=bool)
    bad = np.zeros(grid.dims, dtype=bool)
    for a in range(grid.ndim):
        if grid.axis_kinds[a] != WALL:
            continue
        y = grid.axis_coords(a)
        close = (y < epsilon) | (y > grid.extents[a] - epsilon)
        shape = [1] * grid.ndim
        shape[a] = grid.dims[a]
        bad |= close.reshape(shape)
    hits = [tuple(int(i) for i in row) for row in np.argwhere(region & bad)[:8]]
    if hits:
        raise PreconditionError(
            f"margin violation: {len(hits)}+ region nodes within epsilon={epsilon:g} "
            f"of a wall plane, e.g. {hits[:3]}"
        )


def field_spectrum(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Half-spectrum (``rfftn`` over the grid axes) of a real field.

    ``f`` may carry leading component axes, which the transform keeps.
    """
    lead = f.ndim - grid.ndim
    return np.fft.rfftn(f, axes=tuple(range(lead, f.ndim)))


def mollify_spectrum(spectrum: np.ndarray, transfer: np.ndarray, grid: Grid) -> np.ndarray:
    """Mollified field from its half-spectrum: one multiply and one inverse
    transform per leading component, each copied into one output, so only
    one component's intermediates are alive at a time."""
    lead = spectrum.shape[: spectrum.ndim - grid.ndim]
    out = np.empty(lead + grid.dims)
    for c in np.ndindex(lead):
        out[c] = np.fft.irfftn(spectrum[c] * transfer, s=grid.dims, axes=tuple(range(grid.ndim)))
    return out


def mollify_field(
    f: np.ndarray,
    mollifier: Mollifier,
    grid: Grid,
    region: np.ndarray | None = None,
) -> np.ndarray:
    """Convolve a field with the kernel; result is valid on ``region``.

    ``f`` may carry leading component axes.  This is the transform-once path
    applied to a single field: callers that mollify many fields at many
    radii keep ``field_spectrum`` and each radius's ``transfer`` instead.
    """
    return mollify_spectrum(field_spectrum(f, grid), mollifier.transfer(grid, region), grid)


# ---------------------------------------------------------------------------
# nested regions
# ---------------------------------------------------------------------------


_EDT_CHUNK = 1 << 16  # elements of the (rows, line, lines) candidate block per line pass


def _distance_to_set(mask: np.ndarray, grid: Grid) -> np.ndarray:
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


def _axis0_distance_sq(mask: np.ndarray, grid: Grid) -> np.ndarray:
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


def _add_axis_distance_sq(sq: np.ndarray, axis: int, grid: Grid) -> np.ndarray:
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
    rows = max(1, _EDT_CHUNK // flat.size)
    for j in range(0, m, rows):
        out[j : j + rows] = (flat[None] + step_sq[j : j + rows, :, None]).min(axis=1)
    return np.moveaxis(out.reshape(lines.shape), 0, axis)


def set_distance(a_mask: np.ndarray, b_mask: np.ndarray, grid: Grid) -> float:
    """min over a in A, b in B of |a - b| (periodic metric on periodic axes)."""
    if not a_mask.any() or not b_mask.any():
        return float("inf")
    d = _distance_to_set(b_mask, grid)
    return float(d[a_mask].min())


@dataclass(frozen=True)
class RegionChain:
    """Nested index sets Q3 sub Q2 sub Q1 sub Qtilde with margin ``eta``."""

    grid: Grid
    q3: np.ndarray
    q2: np.ndarray
    q1: np.ndarray
    qtilde: np.ndarray
    eta: float

    def __post_init__(self):
        if not self.q3.any():
            raise PreconditionError("Q3 must be nonempty")
        pairs = [(self.q3, self.q2), (self.q2, self.q1), (self.q1, self.qtilde)]
        for inner, outer in pairs:
            if np.any(inner & ~outer):
                raise PreconditionError("regions are not nested")
        tol = 1e-9 * self.eta
        for inner, outer in pairs:
            comp = ~outer
            if comp.any():
                gap = set_distance(inner, comp, self.grid)
                if gap < self.eta - tol:
                    raise PreconditionError(
                        f"region margins violated: set distance {gap:g} < eta={self.eta:g}"
                    )


def full_box_chain(grid: Grid, eta: float) -> RegionChain:
    """On a fully periodic grid every region may be the whole box."""
    if not grid.fully_periodic:
        raise PreconditionError("full-box chains require a fully periodic grid")
    full = np.ones(grid.dims, dtype=bool)
    return RegionChain(grid, full, full.copy(), full.copy(), full.copy(), eta)


def nested_regions(support: np.ndarray, eta: float, grid: Grid) -> RegionChain:
    """Grow the three nested regions outward from ``support`` by steps of ``eta``.

    Q_i is the set of nodes within i*eta of the support (rounding is outward:
    node inclusion uses the closed ball).  On wall axes the outermost margin
    must stay clear of the wall planes; otherwise the maximal feasible eta is
    reported.
    """
    if eta <= 0:
        raise PreconditionError("margin eta must be positive")
    support = np.asarray(support, dtype=bool)
    if support.shape != grid.dims:
        raise PreconditionError("support mask shape does not match the grid")
    if not support.any():
        raise PreconditionError("support must be nonempty")

    dist = _distance_to_set(support, grid)
    tol = 1e-12 * max(grid.extents)
    q3, q2, q1, qtilde = (dist <= i * eta + tol for i in range(1, 5))

    wall_d = wall_distance(grid)
    if np.isfinite(wall_d).any():
        clearance = float(np.broadcast_to(wall_d, grid.dims)[support].min())
        if clearance < 4 * eta:
            raise PreconditionError(
                "domain too small for margins: support sits "
                f"{clearance:g} from a wall; maximal feasible eta is {clearance / 4:g}"
            )
    return RegionChain(grid, q3, q2, q1, qtilde, eta)


# ---------------------------------------------------------------------------
# cutoff fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffField:
    """Scalar field in [0,1]: exactly 1 on its inner region, exactly 0 outside
    its outer one; ``width`` is the gap between the two."""

    values: np.ndarray
    width: float


def cutoff_region(grid: Grid, inner: np.ndarray, outer: np.ndarray) -> CutoffField:
    """Smooth transition from 1 on ``inner`` to 0 outside ``outer``.

    Built by composing the bump ramp with the node distance to the complement
    of ``outer``, normalized by the inner/complement gap.
    """
    inner = np.asarray(inner, dtype=bool)
    outer = np.asarray(outer, dtype=bool)
    if np.any(inner & ~outer):
        raise PreconditionError("inner region must be contained in outer region")
    if not inner.any():
        raise PreconditionError("inner region must be nonempty")
    comp = ~outer
    if not comp.any():
        return CutoffField(np.ones(grid.dims), float("inf"))
    d = _distance_to_set(comp, grid)
    gap = float(d[inner].min())  # the inner/complement set distance
    floor = 2.0 * min(grid.spacing)  # resolution along the transition direction
    if gap < floor:
        raise PreconditionError(
            f"zero-width transition: inner/outer gap {gap:g} is below 2h={floor:g}"
        )
    values = smooth_ramp(d / gap)
    values[inner] = 1.0
    values[comp] = 0.0
    return CutoffField(values, gap)


def block_mask(grid: Grid, lo_frac, hi_frac) -> np.ndarray:
    """Axis-aligned block over [lo, hi) index fractions (scalar or per-axis)."""
    lo = [lo_frac] * grid.ndim if np.isscalar(lo_frac) else list(lo_frac)
    hi = [hi_frac] * grid.ndim if np.isscalar(hi_frac) else list(hi_frac)
    mask = np.ones(grid.dims, dtype=bool)
    for a in range(grid.ndim):
        m = grid.dims[a]
        idx = np.arange(m)
        sel = (idx >= int(lo[a] * m)) & (idx < int(hi[a] * m))
        shape = [1] * grid.ndim
        shape[a] = m
        mask &= sel.reshape(shape)
    return mask


# ---------------------------------------------------------------------------
# time mollification
# ---------------------------------------------------------------------------


def time_reach(kappa: float, dt: float, n: float = math.inf) -> int:
    """Whole steps of ``dt`` within the time radius ``kappa``.

    A run of ``n`` samples must keep one sample at least that reach from
    either end.  Nothing is allocated, so a request is checked before any work.
    """
    if kappa < 2.0 * dt:
        raise PreconditionError(f"under-resolved time kernel: kappa={kappa:g} below 2*dt={2 * dt:g}")
    reach = math.floor(min(kappa / dt + 1e-12, n))  # n bounds a ratio that overflows
    if n - 2 * reach <= 0:
        raise PreconditionError("trajectory too short for the requested time radius")
    return reach


def time_kernel(kappa: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """1-D bump kernel sampled at step offsets, normalized to sum*dt == 1."""
    reach = time_reach(kappa, dt)
    m = np.arange(-reach, reach + 1)
    w = bump(np.abs(m * dt) / kappa)
    w = w / (np.sum(w) * dt)
    return m, w


def time_mollify(arrays, kappa: float, dt: float) -> tuple[range, list[np.ndarray]]:
    """Mollify a sequence of arrays ``dt`` apart in time with radius ``kappa``.

    Returns the retained indices, those at least one kernel reach from either
    end, and the smoothed array at each: sum_m w_m dt arrays[i - m].
    """
    reach = time_reach(kappa, dt, len(arrays))
    offs, w = time_kernel(kappa, dt)
    idx = range(reach, len(arrays) - reach)
    wdt = w * dt
    return idx, [sum(wm * arrays[i - m] for m, wm in zip(offs, wdt)) for i in idx]
