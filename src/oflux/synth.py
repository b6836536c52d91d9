"""Synthetic velocity/pressure fields with known regularity, plus Hölder probes.

Generators are deterministic: the same (seed, grid, parameters) produce
bit-identical snapshots.  Hölder estimation uses max-type structure
functions (sup of increments over node pairs), matching the sup-norm
character of the C^{0,alpha} hypotheses the diagnostics test.  A region
(an axis-aligned box) or a wall restricts the base nodes of each offset to
a product of one node set per axis; on a fully periodic grid with no region
every node qualifies, so an offset costs one roll, an in-place difference
and square, and a max, with no index built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .grids import PERIODIC, Grid, Snapshot, as_components, box_axes, loglog_fit

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def shear_flow(U, W, t: float, grid: Grid) -> Snapshot:
    """DiPerna-Majda-type shear field u = (U(x2), 0, W(x1 - t U(x2), x2)).

    ``U`` and ``W`` are analytic closures evaluable at arbitrary points; the
    construction is intrinsically 3D.  The speed |u|^2 = U^2 + W^2 composed
    with a volume-preserving shift, so the energy is stationary in time.
    """
    if grid.ndim != 3:
        raise PreconditionError("shear flows are intrinsically 3D; got a 2D grid")
    if not grid.fully_periodic:
        raise PreconditionError("shear flows require a fully periodic grid")
    x1, x2, _ = grid.meshes()
    u1 = np.broadcast_to(U(x2), grid.dims).astype(float)
    u2 = np.zeros(grid.dims)
    u3 = np.broadcast_to(W(x1 - t * U(x2), x2), grid.dims).astype(float)
    v = np.stack([u1.copy(), u2, u3.copy()])
    tags = {
        "generator": {"kind": "shear", "t": t},
        "divergence_free": 1e-12,
        "energy_stationary": True,
    }
    return Snapshot(grid, v, None, t, tags)


def taylor_green(grid: Grid, t: float = 0.0, nu: float = 0.0) -> Snapshot:
    """Viscous Taylor-Green vortex on the 2-pi periodic box, with pressure.

    u = e^{-2 nu t} (sin x cos y, -cos x sin y)
    p = e^{-4 nu t} (cos 2x + cos 2y) / 4

    The pressure sign makes (u, p) satisfy the momentum balance
    u_t + (u.grad)u + grad p = nu Lap u exactly; at nu = 0 the field is a
    steady Euler solution.
    """
    if grid.ndim != 2 or not grid.fully_periodic:
        raise PreconditionError("Taylor-Green requires a 2D fully periodic grid")
    for L in grid.extents:
        if abs(L - TWO_PI) > 1e-9:
            raise PreconditionError("Taylor-Green requires extent 2*pi per axis")
    x, y = grid.meshes()
    decay = np.exp(-2.0 * nu * t)
    u = decay * np.sin(x) * np.cos(y)
    v = -decay * np.cos(x) * np.sin(y)
    p = decay * decay * (np.cos(2 * x) + np.cos(2 * y)) / 4.0
    vel = np.stack([np.broadcast_to(u, grid.dims).copy(), np.broadcast_to(v, grid.dims).copy()])
    pr = np.broadcast_to(p, grid.dims).copy()
    tags = {
        "generator": {"kind": "taylor_green", "nu": nu, "t": t},
        "divergence_free": 1e-12,
    }
    return Snapshot(grid, vel, pr, t, tags)


def _hermitian_phases(rng, dims) -> np.ndarray:
    """Uniform phases theta with theta(-k) = -theta(k) (self-conjugate modes 0).

    Drawing on a canonical half-space and mirroring keeps every Fourier mode
    at its exact prescribed magnitude after the inverse transform.
    """
    raw = rng.uniform(0.0, TWO_PI, size=dims)
    signed = np.meshgrid(
        *[(np.arange(m) + m // 2) % m - m // 2 for m in dims], indexing="ij", sparse=True
    )
    canonical = np.zeros(dims, dtype=bool)
    undecided = np.ones(dims, dtype=bool)
    for s in signed:
        canonical |= undecided & (s > 0)
        undecided &= s == 0  # keeps only modes whose leading components vanish
    half = np.where(canonical, raw, 0.0)
    rev = half
    for a in range(len(dims)):
        rev = np.roll(np.flip(rev, axis=a), 1, axis=a)
    return half - rev


def fractional_field(alpha: float, cutoff: int | None, seed: int, grid: Grid) -> Snapshot:
    """Random divergence-free field with target Hölder exponent ``alpha``.

    Fourier synthesis with coefficient magnitude |k|^-(alpha + n/2), uniform
    phases from the seeded generator, componentwise removal of the
    longitudinal (k-parallel) part, zero mean, and unit RMS normalization.
    """
    if not (0.0 < alpha < 1.0):
        raise PreconditionError(f"alpha must lie in (0,1), got {alpha}")
    if not grid.fully_periodic:
        raise PreconditionError("fractional fields require a fully periodic grid")
    if cutoff is None:
        cutoff = min(grid.dims) // 2 - 1
    if cutoff < 1:
        raise PreconditionError("spectral cutoff must be at least 1")
    n = grid.ndim
    ks = np.meshgrid(*[grid.wavenumbers(a) for a in range(n)], indexing="ij", sparse=True)
    k2 = sum(k * k for k in ks)
    kmag = np.sqrt(k2)
    # integer mode magnitude relative to the box: |k| * L / (2 pi)
    mode_mag = kmag * min(grid.extents) / TWO_PI

    rng = np.random.default_rng(seed)
    phases = np.stack([_hermitian_phases(rng, grid.dims) for _ in range(n)])
    with np.errstate(divide="ignore"):
        amp = np.where(kmag > 0, kmag, 1.0) ** (-(alpha + n / 2.0))
    amp = np.where((kmag > 0) & (mode_mag <= cutoff + 1e-9), amp, 0.0)
    spec = amp * np.exp(1j * phases)

    # remove the longitudinal part: u_hat -= k (k . u_hat) / |k|^2
    kdotu = sum(ks[a] * spec[a] for a in range(n))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_k2 = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
    for a in range(n):
        spec[a] = spec[a] - ks[a] * kdotu * inv_k2

    vel = np.stack([np.fft.ifftn(spec[a]).real for a in range(n)])
    rms = np.sqrt(np.mean(np.sum(vel * vel, axis=0)))
    if rms > 0:
        vel = vel / rms
    tags = {
        "generator": {"kind": "fractional", "alpha": alpha, "cutoff": int(cutoff), "seed": int(seed)},
        "divergence_free": 1e-12,
        "zero_mean": 1e-13,
    }
    return Snapshot(grid, vel, None, 0.0, tags)


# ---------------------------------------------------------------------------
# Hölder estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolderEstimate:
    exponent: float
    seminorm: float
    r2: float
    degenerate: str | None = None


_MAX_OFFSETS_PER_RUNG = 48


def _canonical_half(offsets: np.ndarray) -> np.ndarray:
    """Keep one of each antipodal offset pair (first nonzero component > 0)."""
    first = np.argmax(offsets != 0, axis=1)
    return offsets[offsets[np.arange(len(offsets)), first] > 0]


def _shell_offsets(grid: Grid, r_lo: float, r_hi: float) -> np.ndarray:
    """Integer offsets with r_lo <= |o*h| < r_hi (canonical half).

    Offsets spanning fewer than two cells along their dominant axis are
    excluded: such increments measure discretization, not the field.
    """
    h = np.asarray(grid.spacing)
    reach = [min(int(np.ceil(r_hi / ha)), m - 1) for ha, m in zip(h, grid.dims)]
    axes = [np.arange(-r, r + 1) for r in reach]
    mesh = np.meshgrid(*axes, indexing="ij")
    offs = np.stack([m.ravel() for m in mesh], axis=1)
    r = np.sqrt(np.sum((offs * h) ** 2, axis=1))
    sel = (r >= r_lo - 1e-12) & (r < r_hi - 1e-12) & (np.abs(offs).max(axis=1) >= 2)
    return _canonical_half(offs[sel])


def _shell_orbits(grid: Grid, r_lo: float, r_hi: float) -> list[np.ndarray]:
    """Shell offsets grouped into orbits under axis permutation and sign flips.

    Sampling whole orbits keeps the survey exactly equivariant under axis
    permutations of the field (the orbit keys do not depend on axis order,
    so the anisotropic-spacing case simply yields singleton-like orbits).
    """
    offs = _shell_offsets(grid, r_lo, r_hi)
    if len(offs) == 0:
        return []
    keys = np.abs(offs)
    if len(set(grid.spacing)) == 1:
        keys = -np.sort(-keys, axis=1)  # descending, so orbits ignore axis order
    _, orbit, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    order = np.argsort(orbit.ravel(), kind="stable")  # offsets keep their order inside an orbit
    return np.split(offs[order], np.cumsum(counts)[:-1])


def _valid_bases(grid: Grid, box, offset):
    """The base nodes x whose pair (x, x - o*h) lies in the region's box and
    inside the walls, as the index of the product of one node set per axis;
    None when every node qualifies (a fully periodic grid, no region)."""
    if box is None and grid.fully_periodic:
        return None
    sets = []
    for a in range(grid.ndim):
        m, o = grid.dims[a], int(offset[a])
        ok = np.ones(m, dtype=bool) if box is None else box[a] & np.roll(box[a], o)
        if grid.axis_kinds[a] != PERIODIC:
            idx = np.arange(m)
            ok &= (idx - o >= 0) & (idx - o < m)
        sets.append(ok)
    return np.ix_(*sets)


def _offset_max_increment(vel: np.ndarray, offset, valid=None) -> float:
    """Max Euclidean increment |u(x) - u(x - o*h)| over the base nodes that
    ``valid`` indexes (every node when None), which must hold at least one."""
    diff = np.roll(vel, shift=tuple(offset), axis=tuple(range(1, vel.ndim)))
    np.subtract(vel, diff, out=diff)
    np.square(diff, out=diff)
    diff2 = diff[0]
    for comp in diff[1:]:  # components in axis order, as a sum over axis 0 adds them
        diff2 += comp
    return float(np.sqrt((diff2 if valid is None else diff2[valid]).max()))


MIN_RUNGS = 4  # the exponent fit needs this many rungs


def separation_ladder(grid: Grid, region: np.ndarray | None = None) -> tuple[list[tuple[float, float]], float]:
    """The survey's rungs, as shells [r_lo, r_hi), and the smallest extent of
    the box ``region`` (of the grid when None), from the grid alone.

    Rungs start at the 2h increment floor and grow by sqrt(2) while they stay
    below a quarter of the extent; the region is checked first.
    """
    return _ladder(grid, None if region is None else box_axes(region, grid))


def _ladder(grid: Grid, box) -> tuple[list[tuple[float, float]], float]:
    """``separation_ladder`` of the per-axis node sets ``box``, which must span 4 nodes along every axis."""
    extent = min(grid.extents)
    if box is not None:
        if not all(s.any() for s in box):
            raise PreconditionError("region is empty")
        spans = np.array([np.flatnonzero(s)[-1] - np.flatnonzero(s)[0] + 1 for s in box])
        if spans.min() < 4:
            raise PreconditionError("region smaller than 4 nodes per axis")
        extent = float(min(spans * np.asarray(grid.spacing)))
    r_cap = 0.25 * extent * (1.0 + 1e-12)
    shells = []
    r = 2.0 * min(grid.spacing)
    while r < r_cap:
        shells.append((r, min(r * np.sqrt(2.0), r_cap)))
        r *= np.sqrt(2.0)
    return shells, extent


def _increment_survey(vel: np.ndarray, grid: Grid, region: np.ndarray | None, seed: int):
    """Stratified sample of max increments over the separation ladder.

    The smallest admissible shell (separations from 2h) is exhaustive; larger
    shells are sampled orbit-wise with the seeded generator.  Returns
    per-offset (r_eff, s_max) points, per-rung (r, S) maxima in increasing r
    (the shells are disjoint), and the region's smallest extent.
    """
    box = None if region is None else box_axes(region, grid)
    shells, extent = _ladder(grid, box)
    rng = np.random.default_rng(seed)
    points = []  # (r_eff, s)
    rung_points = []  # (r at argmax, rung max)
    hvec = np.asarray(grid.spacing)
    for j, (r_lo, r_hi) in enumerate(shells):
        orbits = _shell_orbits(grid, r_lo, r_hi)
        if not orbits:
            continue
        if j > 0:
            orbit_cap = max(1, _MAX_OFFSETS_PER_RUNG // max(1, len(orbits[0])))
            if len(orbits) > orbit_cap:
                pick = rng.choice(len(orbits), size=orbit_cap, replace=False)
                orbits = [orbits[i] for i in np.sort(pick)]
        best_s, best_r = -1.0, None
        for orbit in orbits:
            for o in orbit:
                r_eff = float(np.sqrt(np.sum((o * hvec) ** 2)))
                valid = _valid_bases(grid, box, o)
                if valid is not None and any(ix.size == 0 for ix in valid):
                    continue
                s = _offset_max_increment(vel, o, valid)
                points.append((r_eff, s))
                if s > best_s:
                    best_s, best_r = s, r_eff
        if best_r is not None:
            rung_points.append((best_r, best_s))
    if not points:
        raise PreconditionError("no admissible node pairs in the region")
    return np.array(points), np.array(rung_points), extent


def _seminorm(points: np.ndarray, alpha: float) -> float:
    """sup s / r^alpha over the survey's (r_eff, s_max) points."""
    return float((points[:, 1] / points[:, 0] ** alpha).max())


def holder_norm(
    field: Snapshot | np.ndarray,
    alpha: float,
    region: np.ndarray | None = None,
    grid: Grid | None = None,
    seed: int = 0,
) -> float:
    """Discrete Hölder seminorm: sup |u(x)-u(y)| / |x-y|^alpha over sampled pairs."""
    if not (0.0 < alpha <= 1.0):
        raise PreconditionError("alpha must lie in (0,1]")
    vel, grid = as_components(field, grid)
    return _seminorm(_increment_survey(vel, grid, region, seed)[0], alpha)


# Fitting beyond ~1/16 of the region extent probes the saturation range of
# the largest modes rather than local regularity, so the exponent fit is
# capped there (widened if needed to keep four rungs).
_FIT_WINDOW_FRACTION = 1.0 / 16.0


def estimate_holder_exponent(
    field: Snapshot | np.ndarray,
    region: np.ndarray | None = None,
    grid: Grid | None = None,
    seed: int = 0,
    fit_window: tuple[float, float] | None = None,
) -> HolderEstimate:
    """Least-squares slope of log S(r) against log r over the separation ladder.

    S(r) is the max sampled increment per rung of the dyadic ladder; the
    slope is clamped to [0, 1], and the seminorm is read from the same survey
    at that exponent.  A field with fewer than 2 resolvable increments in the
    fit is flagged degenerate, with exponent 1.  ``fit_window`` restricts the
    fit to a separation range (e.g. the scale window of a companion
    mollification ladder); by default the fit is capped at the saturation
    guard.
    """
    vel, grid = as_components(field, grid)
    points, rung_pts, extent = _increment_survey(vel, grid, region, seed)
    if len(rung_pts) < MIN_RUNGS:
        raise PreconditionError(f"separation ladder has {len(rung_pts)} rungs; need at least {MIN_RUNGS}")
    r = rung_pts[:, 0]
    live = rung_pts[:, 1] > 1e-13 * max(float(np.abs(vel).max()), 1.0)
    if fit_window is not None:
        inside = (r >= fit_window[0] * (1.0 - 1e-12)) & (r <= fit_window[1] * (1.0 + 1e-12))
        if live.any() and inside.sum() < MIN_RUNGS:  # zero increments are reported first
            raise PreconditionError(f"fit window covers fewer than {MIN_RUNGS} ladder rungs")
    else:
        in_window = r <= _FIT_WINDOW_FRACTION * extent * (1.0 + 1e-12)
        inside = np.arange(len(r)) < max(MIN_RUNGS, int(in_window.sum()))
    fit = rung_pts[inside & live]
    if len(fit) < 2:
        return HolderEstimate(1.0, _seminorm(points, 1.0), 1.0, "degenerate: zero increments")
    slope, r2, _ = loglog_fit(fit[:, 0], fit[:, 1])
    exponent = float(np.clip(slope, 0.0, 1.0))
    return HolderEstimate(exponent, _seminorm(points, exponent), r2)
