"""Grids, fields, and the basic calculus every diagnostic consumes.

Conventions
-----------
* Axes are indexed 0..n-1 (n = 2 or 3).  Velocity arrays have shape
  ``(n, *dims)``; scalar fields have shape ``dims``.  All arrays are C-order
  float64 and node-collocated.
* A periodic axis of extent L and ``m`` points has spacing ``L/m``; node
  ``m`` is identified with node 0 and is not stored.
* A wall axis of extent L and ``m`` points has spacing ``L/(m-1)``; nodes 0
  and ``m-1`` sit exactly on the two wall planes.
* The grid is the geometry: a fully periodic grid is a box, and a channel
  has exactly one wall axis (``Grid.wall_axis``).  The boundary enters only
  through the distance ``wall_distance`` and the normal ``wall_normal_sign``.
* Quadrature is trapezoidal everywhere: full weight on periodic axes, half
  weight on wall planes.
* Differentiation is spectral along periodic axes (Nyquist derivative set to
  zero, which keeps the operator antisymmetric) and second-order central
  along wall axes with one-sided closures on the wall planes.
* A stack's gradient goes through ``partials``, which yields one axis's
  derivative at a time on a real transform pair (``partial`` is one axis),
  so a caller never holds the whole n x n gradient.  ``deriv`` and
  ``deriv2`` serve single-axis callers on the complex transform pair, whose
  calls the benchmark's layer trace counts.

All types are immutable after construction; operations are pure functions,
and reductions use numpy's pairwise summation so results are reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import PreconditionError

PERIODIC = "periodic"
WALL = "wall"

_MIN_DIM = 8


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian lattice with per-axis periodicity flags."""

    dims: tuple[int, ...]
    extents: tuple[float, ...]
    axis_kinds: tuple[str, ...]

    def __post_init__(self):
        if not (2 <= len(self.dims) <= 3):
            raise PreconditionError("grid must have 2 or 3 axes")
        if len(self.extents) != len(self.dims) or len(self.axis_kinds) != len(self.dims):
            raise PreconditionError("dims, extents and axis_kinds must have equal length")
        for m in self.dims:
            if m < _MIN_DIM:
                raise PreconditionError(
                    f"grid too coarse for mollification: dims must be >= {_MIN_DIM}, got {m}"
                )
        for L in self.extents:
            if not L > 0:
                raise PreconditionError("grid extents must be strictly positive")
        for kind in self.axis_kinds:
            if kind not in (PERIODIC, WALL):
                raise PreconditionError(f"unknown axis kind {kind!r}")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def spacing(self) -> tuple[float, ...]:
        out = []
        for m, L, kind in zip(self.dims, self.extents, self.axis_kinds):
            out.append(L / m if kind == PERIODIC else L / (m - 1))
        return tuple(out)

    @property
    def max_spacing(self) -> float:
        return max(self.spacing)

    @property
    def label(self) -> str:
        """The dims as a request writes them, e.g. '128x129'."""
        return "x".join(map(str, self.dims))

    def axis_coords(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return h * np.arange(self.dims[axis])

    def meshes(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays, one per axis."""
        coords = [self.axis_coords(a) for a in range(self.ndim)]
        return list(np.meshgrid(*coords, indexing="ij", sparse=True))

    def cell_volume(self) -> float:
        v = 1.0
        for h in self.spacing:
            v *= h
        return v

    def quad_weights(self) -> np.ndarray:
        """Trapezoid weight array of shape ``dims`` (includes cell volume)."""
        w = np.array(1.0)
        for a in range(self.ndim):
            wa = np.full(self.dims[a], self.spacing[a])
            if self.axis_kinds[a] == WALL:
                wa[0] *= 0.5
                wa[-1] *= 0.5
            shape = [1] * self.ndim
            shape[a] = self.dims[a]
            w = w * wa.reshape(shape)
        return w

    def wavenumbers(self, axis: int) -> np.ndarray:
        if self.axis_kinds[axis] != PERIODIC:
            raise PreconditionError("wavenumbers are defined on periodic axes only")
        m = self.dims[axis]
        return 2.0 * np.pi * np.fft.fftfreq(m, d=self.extents[axis] / m)

    @property
    def fully_periodic(self) -> bool:
        return all(k == PERIODIC for k in self.axis_kinds)

    @property
    def wall_axis(self) -> int:
        """The channel's one wall axis, which carries the boundary normal."""
        walls = [a for a, kind in enumerate(self.axis_kinds) if kind == WALL]
        if len(walls) != 1:
            raise PreconditionError(f"no boundary normal: a channel has exactly one wall axis, "
                                    f"this grid has {len(walls)}")
        return walls[0]


def make_grid(
    dims: Sequence[int],
    extents: Sequence[float],
    axis_kinds: Sequence[str] | str = PERIODIC,
) -> Grid:
    """Build a grid; ``axis_kinds`` may be a single kind applied to all axes."""
    if isinstance(axis_kinds, str):
        axis_kinds = [axis_kinds] * len(dims)
    return Grid(tuple(int(m) for m in dims), tuple(float(L) for L in extents), tuple(axis_kinds))


def wall_distance(grid: Grid) -> np.ndarray:
    """Distance min(y, L - y) to the nearest wall plane, minimized over the
    wall axes; broadcastable to ``grid.dims`` and inf on a grid without walls."""
    d = np.full((1,) * grid.ndim, np.inf)
    for a in range(grid.ndim):
        if grid.axis_kinds[a] == WALL:
            y = grid.axis_coords(a).reshape([-1 if b == a else 1 for b in range(grid.ndim)])
            d = np.minimum(d, np.minimum(y, grid.extents[a] - y))
    return d


def wall_normal_sign(grid: Grid) -> np.ndarray:
    """Sign s such that the outward normal at the nearest wall is s e_wall,
    broadcastable to ``grid.dims``.

    The nearest wall of a point at wall coordinate y is the lower plane when
    y <= L/2 (ties resolve to the lower wall), whose outward normal points in
    -e_wall; the upper plane has outward normal +e_wall.
    """
    a = grid.wall_axis
    s = np.where(grid.axis_coords(a) <= 0.5 * grid.extents[a], -1.0, 1.0)
    return s.reshape([-1 if b == a else 1 for b in range(grid.ndim)])


@dataclass(frozen=True)
class Snapshot:
    """Velocity (and optional pressure) sampled on grid nodes at one time."""

    grid: Grid
    velocity: np.ndarray
    pressure: np.ndarray | None = None
    time: float = 0.0
    tags: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.velocity, dtype=float)
        object.__setattr__(self, "velocity", v)
        if v.shape != (self.grid.ndim, *self.grid.dims):
            raise PreconditionError(
                f"velocity shape {v.shape} does not match grid ({self.grid.ndim}, {self.grid.dims})"
            )
        if self.pressure is not None:
            p = np.asarray(self.pressure, dtype=float)
            if p.shape != self.grid.dims:
                raise PreconditionError("pressure shape does not match grid")
            object.__setattr__(self, "pressure", p)

    def with_pressure(self, pressure: np.ndarray) -> "Snapshot":
        return Snapshot(self.grid, self.velocity, pressure, self.time, dict(self.tags))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly spaced snapshots of one evolving field."""

    snapshots: tuple[Snapshot, ...]
    dt: float

    def __post_init__(self):
        snaps = tuple(self.snapshots)
        object.__setattr__(self, "snapshots", snaps)
        if len(snaps) < 1:
            raise PreconditionError("trajectory needs at least one snapshot")
        grid = snaps[0].grid
        for s in snaps[1:]:
            if s.grid != grid:
                raise PreconditionError(
                    f"snapshot at t={s.time:g} is on another grid than the first snapshot: {s.grid} vs {grid}"
                )
        times = np.array([s.time for s in snaps])
        if len(snaps) > 1:
            steps = np.diff(times)
            if not np.allclose(steps, self.dt, rtol=0.0, atol=1e-10 * max(1.0, abs(self.dt))):
                raise PreconditionError("snapshot times must form an arithmetic progression with step dt")
        if self.dt <= 0 and len(snaps) > 1:
            raise PreconditionError("dt must be positive")

    @property
    def grid(self) -> Grid:
        return self.snapshots[0].grid

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])

    @property
    def t_range(self) -> tuple[float, float]:
        return self.snapshots[0].time, self.snapshots[-1].time

    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, i) -> Snapshot:
        return self.snapshots[i]

    def map(self, f: Callable[[Snapshot], Snapshot]) -> "Trajectory":
        return Trajectory(tuple(f(s) for s in self.snapshots), self.dt)


# ---------------------------------------------------------------------------
# discrete calculus
# ---------------------------------------------------------------------------


def _spectral_deriv(f: np.ndarray, axis: int, grid: Grid, array_axis: int) -> np.ndarray:
    k = grid.wavenumbers(axis)
    m = grid.dims[axis]
    if m % 2 == 0:
        k = k.copy()
        k[m // 2] = 0.0  # antisymmetric operator: drop the Nyquist derivative
    shape = [1] * f.ndim
    shape[array_axis] = m
    fh = np.fft.fft(f, axis=array_axis)
    return np.fft.ifft(1j * k.reshape(shape) * fh, axis=array_axis).real


def _wall_deriv(f: np.ndarray, axis: int, grid: Grid, array_axis: int) -> np.ndarray:
    h = grid.spacing[axis]
    out = np.empty_like(f)
    fm = np.moveaxis(f, array_axis, 0)
    om = np.moveaxis(out, array_axis, 0)
    om[1:-1] = (fm[2:] - fm[:-2]) / (2.0 * h)
    om[0] = (-3.0 * fm[0] + 4.0 * fm[1] - fm[2]) / (2.0 * h)
    om[-1] = (3.0 * fm[-1] - 4.0 * fm[-2] + fm[-3]) / (2.0 * h)
    return out


def deriv(f: np.ndarray, axis: int, grid: Grid) -> np.ndarray:
    """First derivative of a scalar field along one axis.

    The field may carry leading component axes; ``axis`` counts grid axes.
    """
    lead = f.ndim - grid.ndim
    ax = axis + lead
    if grid.axis_kinds[axis] == PERIODIC:
        return _spectral_deriv(f, axis, grid, ax)
    return _wall_deriv(f, axis, grid, ax)


def partial(f: np.ndarray, axis: int, grid: Grid) -> np.ndarray:
    """d_axis f on real transforms.

    ``f`` may carry leading component axes; ``axis`` counts grid axes.  A
    periodic axis is one ``rfft``, a multiply by i k and one ``irfft``; a
    wall axis takes ``deriv``'s stencil.  On an even side i k times the real
    Nyquist coefficient is imaginary, which ``irfft`` discards, so the
    Nyquist derivative is 0 as in ``deriv``.
    """
    ax = axis + f.ndim - grid.ndim
    if grid.axis_kinds[axis] != PERIODIC:
        return _wall_deriv(f, axis, grid, ax)
    m = grid.dims[axis]
    ik = 2j * np.pi * np.fft.rfftfreq(m, d=grid.extents[axis] / m)
    fh = np.fft.rfft(f, axis=ax)
    fh *= ik.reshape([-1 if b == ax else 1 for b in range(f.ndim)])
    return np.fft.irfft(fh, n=m, axis=ax)


def partials(f: np.ndarray, grid: Grid) -> Iterator[tuple[int, np.ndarray]]:
    """(a, d_a f) for a = 0..n-1 by ``partial``, one axis at a time."""
    for a in range(grid.ndim):
        yield a, partial(f, a, grid)


def deriv2(f: np.ndarray, axis: int, grid: Grid) -> np.ndarray:
    """Second derivative along one axis (central, one-sided on wall planes)."""
    lead = f.ndim - grid.ndim
    ax = axis + lead
    if grid.axis_kinds[axis] == PERIODIC:
        k = grid.wavenumbers(axis)
        shape = [1] * f.ndim
        shape[ax] = grid.dims[axis]
        fh = np.fft.fft(f, axis=ax)
        return np.fft.ifft(-(k.reshape(shape) ** 2) * fh, axis=ax).real
    h = grid.spacing[axis]
    out = np.empty_like(f)
    fm = np.moveaxis(f, ax, 0)
    om = np.moveaxis(out, ax, 0)
    om[1:-1] = (fm[2:] - 2.0 * fm[1:-1] + fm[:-2]) / h**2
    om[0] = (2.0 * fm[0] - 5.0 * fm[1] + 4.0 * fm[2] - fm[3]) / h**2
    om[-1] = (2.0 * fm[-1] - 5.0 * fm[-2] + 4.0 * fm[-3] - fm[-4]) / h**2
    return out


def second_difference_eigenvalues(phase: np.ndarray, h: float) -> np.ndarray:
    """Eigenvalues -(2 sin(phase) / h)^2 of the 3-point second difference.

    For mode k, ``phase`` is pi k / m on m periodic points (FFT).  On a wall
    axis each closure has its real-to-real transform (Schumann & Sweet 1988):
    pi k / (2(m-1)) on m nodes with ghost-eliminated Neumann rows (DCT-I),
    pi k / (2m) on m cells with even ghosts (DCT-II), pi (k+1) / (2m) on m
    cells with odd ghosts (DST-II), pi (k+1) / (2(m+1)) on m faces between
    zero walls (DST-I).
    """
    return -((2.0 * np.sin(phase) / h) ** 2)


# ---------------------------------------------------------------------------
# real-to-real transforms
# ---------------------------------------------------------------------------
#
# DCT-I, DCT-II, DST-I and DST-II along one axis in the unnormalised
# convention of FFTPACK, m = length of the axis:
#
#   DCT-I   y[k] = x[0] + (-1)^k x[m-1] + 2 sum_{0<n<m-1} x[n] cos(pi k n / (m-1))
#   DCT-II  y[k] = 2 sum_n x[n] cos(pi k (2n+1) / (2m))
#   DST-I   y[k] = 2 sum_n x[n] sin(pi (k+1)(n+1) / (m+1))
#   DST-II  y[k] = 2 sum_n x[n] sin(pi (k+1)(2n+1) / (2m))
#
# and the inverses that undo them exactly.  The type-I transforms are the
# real FFT of the even (odd) extension of length 2(m-1) (2(m+1)) and their
# own inverses up to that length.  DCT-II is Makhoul's (1980) m-point real
# FFT of the even-then-reversed-odd reordering; DST-II is the DCT-II of the
# sign-alternated input, read backwards.  Intermediates are written in place,
# which keeps a solver step's allocations few.


@functools.lru_cache(maxsize=None)
def _quarter_twiddles(m: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i pi k / (2m)) for k = 0..m//2 (DCT-II) and half its conjugate (inverse)."""
    t = np.exp(-0.5j * np.pi * np.arange(m // 2 + 1) / m)
    inv = 0.5 * np.conj(t)
    t.flags.writeable = inv.flags.writeable = False
    return t, inv


def _dct1(x):
    return np.fft.rfft(np.concatenate([x, x[..., -2:0:-1]], axis=-1), axis=-1).real


def _dst1(x):
    m = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * m + 2,))
    ext[..., 1 : m + 1] = x
    np.negative(x[..., ::-1], out=ext[..., m + 2 :])
    return -np.fft.rfft(ext, axis=-1)[..., 1 : m + 1].imag


def _dct2(x, flip=False):
    """DCT-II along the last axis; with ``flip`` the DST-II, which is the
    DCT-II of the sign-alternated input read backwards."""
    m = x.shape[-1]
    half = (m + 1) // 2
    v = np.empty(x.shape)
    v[..., :half] = x[..., ::2]
    if flip:
        np.negative(x[..., 1::2][..., ::-1], out=v[..., half:])
    else:
        v[..., half:] = x[..., 1::2][..., ::-1]
    w = np.fft.rfft(v, axis=-1)
    w *= _quarter_twiddles(m)[0]
    h = w.shape[-1]
    y = np.empty(x.shape)
    out = y[..., ::-1] if flip else y
    np.multiply(w.real, 2.0, out=out[..., :h])
    np.multiply(w.imag[..., m - h : 0 : -1], -2.0, out=out[..., h:])  # y[m-k] = -2 Im(w[k])
    return y


def _idct2(y, flip=False):
    """Inverse of ``_dct2(., flip)``: rebuild Makhoul's half spectrum, one inverse real FFT."""
    m = y.shape[-1]
    half = (m + 1) // 2
    if flip:
        y = y[..., ::-1]
    h = m // 2 + 1
    w = np.empty(y.shape[:-1] + (h,), dtype=complex)
    w.real = y[..., :h]
    w.imag[..., 0] = 0.0  # the mirror of y[0] is y[m] = 0
    np.negative(y[..., : m - h : -1], out=w.imag[..., 1:])  # w[k] ~ y[k] - i y[m-k]
    w *= _quarter_twiddles(m)[1]
    v = np.fft.irfft(w, n=m, axis=-1)
    x = np.empty(y.shape)
    x[..., ::2] = v[..., :half]
    if flip:
        np.negative(v[..., : half - 1 : -1], out=x[..., 1::2])
    else:
        x[..., 1::2] = v[..., : half - 1 : -1]
    return x


def _r2r(x, axis: int, kind: int, one, two):
    if kind not in (1, 2):
        raise PreconditionError(f"real-to-real transform type must be 1 or 2, got {kind}")
    x = np.moveaxis(np.asarray(x, dtype=float), axis, -1)
    return np.moveaxis((one if kind == 1 else two)(x), -1, axis)


def dct(x: np.ndarray, kind: int, axis: int = -1) -> np.ndarray:
    """DCT-I (``kind`` 1, needs at least 2 points) or DCT-II (``kind`` 2) along ``axis``."""
    return _r2r(x, axis, kind, _dct1, _dct2)


def idct(x: np.ndarray, kind: int, axis: int = -1) -> np.ndarray:
    """Inverse of ``dct(x, kind, axis)``."""
    return _r2r(x, axis, kind, lambda y: _dct1(y) / (2 * (y.shape[-1] - 1)), _idct2)


def dst(x: np.ndarray, kind: int, axis: int = -1) -> np.ndarray:
    """DST-I (``kind`` 1) or DST-II (``kind`` 2) along ``axis``."""
    return _r2r(x, axis, kind, _dst1, lambda y: _dct2(y, flip=True))


def idst(x: np.ndarray, kind: int, axis: int = -1) -> np.ndarray:
    """Inverse of ``dst(x, kind, axis)``."""
    return _r2r(x, axis, kind, lambda y: _dst1(y) / (2 * (y.shape[-1] + 1)), lambda y: _idct2(y, flip=True))


# ---------------------------------------------------------------------------
# the diagonal spectral solve
# ---------------------------------------------------------------------------

class Diagonal:
    """w -> T^-1 (mult * T w): every Poisson and Helmholtz solve of the package.

    T acts on the trailing axes, of real shape ``dims`` (leading axes are
    kept): the closure's real-to-real transform along the wall axis named by
    ``wall = (axis, "dct" | "dst", type)``, then ``rfft`` along the first
    periodic axis (the half spectrum), then ``fft`` along the others.  A
    real ``mult`` even under k -> -k gives the real part of the complex solve.
    """

    def __init__(self, dims, mult, wall=None):
        self.dims, self.mult, self.wall = tuple(dims), mult, wall
        n = len(self.dims)
        periodic = [a - n for a in range(n) if wall is None or a != wall[0]]  # counted from the end
        self._axes = periodic[1:] + periodic[:1]  # rfftn takes its real transform along the last axis
        self._shape = [self.dims[a] for a in self._axes]

    def _closure(self, w, which):
        if self.wall is None:
            return w
        axis, name, kind = self.wall
        # the module's names are read per call, so a rebinding of them (the layer trace's) applies
        transform = {"dct": (dct, idct), "dst": (dst, idst)}[name][which]
        return transform(w, kind, axis - len(self.dims))

    def forward(self, w: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(self._closure(w, 0), axes=self._axes)

    def inverse(self, wh: np.ndarray) -> np.ndarray:
        return self._closure(np.fft.irfftn(wh, s=self._shape, axes=self._axes), 1)

    def __call__(self, w: np.ndarray) -> np.ndarray:
        wh = self.forward(w)
        wh *= self.mult
        return self.inverse(wh)


def spectrum_wavenumbers(grid: Grid, mirrored: bool = False) -> list[np.ndarray]:
    """Per axis, the broadcastable wavenumbers of ``Diagonal``'s spectrum on
    ``grid`` (0 on a wall axis).  With ``mirrored`` each mode holds the
    wavenumber of its mirror -k, which is k at an even axis's Nyquist mode."""
    first = grid.axis_kinds.index(PERIODIC)
    out = []
    for a, m in enumerate(grid.dims):
        k = grid.wavenumbers(a) if grid.axis_kinds[a] == PERIODIC else np.zeros(1)
        k = np.roll(k[::-1], 1) if mirrored else k  # k[-i mod m]
        k = k[: m // 2 + 1] if a == first else k
        out.append(k.reshape([-1 if b == a else 1 for b in range(grid.ndim)]))
    return out


def inverse_eigenvalues(lam: np.ndarray) -> np.ndarray:
    """1 / lam, and 0 on a zero eigenvalue: the mean-zero gauge of a singular solve."""
    return np.divide(1.0, lam, out=np.zeros_like(lam), where=lam != 0)


def divergence(snapshot: Snapshot) -> np.ndarray:
    """Discrete divergence of the velocity field."""
    grid = snapshot.grid
    out = np.zeros(grid.dims)
    for a in range(grid.ndim):
        out += deriv(snapshot.velocity[a], a, grid)
    return out


def as_components(u, grid: Grid | None):
    """(components, grid) of a Snapshot, or of a bare array on ``grid``.

    A bare scalar field (shape ``dims``) becomes a single component.
    """
    if isinstance(u, Snapshot):
        return u.velocity, u.grid
    if grid is None:
        raise PreconditionError("grid is required when passing a bare array")
    arr = np.asarray(u, dtype=float)
    if arr.shape == grid.dims:
        arr = arr[np.newaxis]
    return arr, grid


def integrate(f: np.ndarray, grid: Grid) -> float:
    """Trapezoid quadrature of a scalar field over the domain."""
    return float(np.sum(f * grid.quad_weights()))


def energy(snapshot: Snapshot) -> float:
    """Kinetic energy 0.5 * ||u||^2 over the domain (trapezoid quadrature)."""
    return 0.5 * integrate(np.sum(snapshot.velocity**2, axis=0), snapshot.grid)


def trapezoid_time_weights(n: int, dt: float) -> np.ndarray:
    """Trapezoid weights of ``n`` samples ``dt`` apart; a lone sample weighs 1."""
    if n == 1:
        return np.ones(1)
    w = np.full(n, dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def discretization_budget(grid: Grid, dt: float, umax: float) -> float:
    """The crude (h^2 + dt^2) max(1, |u|)^3 |Omega| scale of a balance residual; NaN if |u| is."""
    return (grid.max_spacing**2 + dt**2) * float(np.maximum(1.0, umax)) ** 3 * math.prod(grid.extents)


def loglog_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line through (log x, log y): slope, r^2, rms log-residual."""
    lx = np.log(x)
    ly = np.log(y)
    slope, icpt = np.polyfit(lx, ly, 1)
    ss_res = float(np.sum((ly - (slope * lx + icpt)) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2, float(np.sqrt(ss_res / len(lx)))
