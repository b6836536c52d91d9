"""Mollification commutator stress and its scaling diagnostics.

The stored orientation is R = (u otimes u)^eps - u^eps otimes u^eps
everywhere; contraction_grad contracts exactly this stress against grad(phi u^eps).
R is symmetric, so it is stored as its n(n+1)/2 distinct entries R_ij,
i <= j, in the products' order of ``quadratic_products``: one row per pair,
shape (n(n+1)/2, *dims).  ``symmetric_pairs`` is the one place that order
is decided; R_ji is read from the row of R_ij.
The increment route

    R = int rho_eps(y) (delta_y u otimes delta_y u) dy
        - (u - u^eps) otimes (u - u^eps),   delta_y u = u(x-y) - u(x)

is algebraically identical in the discrete algebra (same kernel samples,
same quadrature); it is kept with the tests as a mutual oracle for the
direct route (tests/mollify_oracle.py).

The direct route transforms u and the products u_i u_j once each, apart;
each radius is then one multiply by its kernel transfer and two inverse
transforms, one per group: u^eps, which the stress and the contraction
share, then (u otimes u)^eps, from which u^eps_i u^eps_j is subtracted in
place to give the stress.  ``scaling_probe`` keeps both spectra for its
whole ladder.  A rung then streams grad(phi u^eps) through
``grids.partials``, one component and one axis at a time, so it never holds
more than one derivative field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .grids import Grid, Snapshot, as_components, integrate, loglog_fit, partials
from .mollify import CutoffField, Mollifier, field_spectrum, make_mollifier, mollify_spectrum

# ---------------------------------------------------------------------------
# symmetric pair fields: one row per pair (i, j), i <= j, shape (n(n+1)/2, *dims)
# ---------------------------------------------------------------------------


def symmetric_pairs(n: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The products' order: the pairs (i, j), i <= j, row-major, and the n x n
    table of their rows, where row[i, j] == row[j, i]."""
    iu, ju = np.triu_indices(n)
    row = np.empty((n, n), dtype=int)
    row[iu, ju] = row[ju, iu] = np.arange(len(iu))
    return list(zip(iu.tolist(), ju.tolist())), row


def quadratic_products(vel: np.ndarray) -> np.ndarray:
    """u_i u_j in the products' order: shape (n(n+1)/2, *dims)."""
    pairs, _ = symmetric_pairs(len(vel))
    return np.stack([vel[i] * vel[j] for i, j in pairs])


def stress_from(products_eps: np.ndarray, ue: np.ndarray) -> np.ndarray:
    """R from mollified products and u^eps: u^eps_i u^eps_j is subtracted from
    ``products_eps`` in place, which is returned, still in the products' order."""
    pairs, _ = symmetric_pairs(len(ue))
    for k, (i, j) in enumerate(pairs):
        products_eps[k] -= ue[i] * ue[j]
    return products_eps


def _velocity_spectrum(vel: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Half-spectra of u and of the products u_i u_j (i <= j), transformed apart."""
    return field_spectrum(vel, grid), field_spectrum(quadratic_products(vel), grid)


def _mollified_stress(spectrum: tuple[np.ndarray, np.ndarray], mol: Mollifier, grid: Grid,
                      region: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The stress and u^eps at one radius: u^eps, then the products, each
    inverse-transformed on its own so their intermediates are never alive together."""
    transfer = mol.transfer(grid, region)
    u_hat, q_hat = spectrum
    ue = mollify_spectrum(u_hat, transfer, grid)
    return stress_from(mollify_spectrum(q_hat, transfer, grid), ue), ue


def _as_mollifier(mollifier: Mollifier | float, grid: Grid) -> Mollifier:
    return mollifier if isinstance(mollifier, Mollifier) else make_mollifier(float(mollifier), grid)


def commutator_stress(
    u: Snapshot | np.ndarray,
    mollifier: Mollifier | float,
    grid: Grid | None = None,
    region: np.ndarray | None = None,
) -> np.ndarray:
    """(u otimes u)^eps - u^eps otimes u^eps, valid on ``region``: its rows R_ij,
    i <= j, in the products' order, shape (n(n+1)/2, *dims)."""
    vel, grid = as_components(u, grid)
    mol = _as_mollifier(mollifier, grid)
    return _mollified_stress(_velocity_spectrum(vel, grid), mol, grid, region)[0]


# ---------------------------------------------------------------------------
# flux term
# ---------------------------------------------------------------------------


def _phi_values(phi, grid):
    if isinstance(phi, CutoffField):
        return phi.values
    arr = np.asarray(phi, dtype=float)
    if arr.shape != grid.dims:
        raise PreconditionError("phi shape does not match the grid")
    return arr


def contraction_grad(stress: np.ndarray, ue: np.ndarray, phi, grid: Grid) -> float:
    """integral of R : grad(phi u^eps) over the box (trapezoid quadrature);
    ``stress`` is in the products' order."""
    pv = _phi_values(phi, grid)
    _, row = symmetric_pairs(grid.ndim)
    total = np.zeros(grid.dims)
    for j in range(grid.ndim):
        for i, g in partials(pv * ue[j], grid):
            g *= stress[row[i, j]]
            total += g
    return integrate(total, grid)


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeFit:
    quantity: str
    epsilons: tuple[float, ...]
    values: tuple[float, ...]
    slope: float
    r2: float
    predicted_slope: float
    passes: bool | None  # None when r2 < 0.9 (not assessable)
    note: str = ""


SLOPE_TOLERANCE = 0.15
R2_GATE = 0.9
RMS_LOG_GATE = 0.05  # fallback for flat curves, where r^2 loses meaning
PROBES_PER_AXIS = 16  # the sup statistics' sublattice takes about this many points per axis


def epsilon_ladder(epsilons, grid: Grid) -> list[float]:
    """An epsilon ladder in decreasing order: at least 4 distinct rungs, each at or above the 2h floor."""
    eps = sorted((float(e) for e in epsilons), reverse=True)
    if len(eps) < 4 or len(set(eps)) < len(eps):
        raise PreconditionError(f"need at least 4 distinct ladder rungs, got {eps}")
    floor = 2.0 * grid.max_spacing
    if eps[-1] < floor:
        raise PreconditionError(f"rungs {[e for e in eps if e < floor]} below the 2h floor {floor:g}")
    return eps


def fit_loglog(epsilons, values, predicted: float, quantity: str) -> SlopeFit:
    """Least-squares log-log fit with the pass rule slope >= predicted - 0.15.

    The slope is asserted when r^2 >= 0.9, or when the rms log-residual is
    below 5% (a nearly scale-flat curve has vanishing log-variance, so r^2
    alone would spuriously reject an excellent fit); otherwise, and whenever
    a value is NaN or infinite, passes = None.
    """
    eps = np.asarray(epsilons, dtype=float)
    vals = np.asarray(values, dtype=float)
    if len(eps) < 4:
        raise PreconditionError("need at least 4 ladder rungs for a slope fit")
    if not np.all(np.diff(eps) < 0):
        raise PreconditionError("epsilon ladder must be strictly decreasing")
    bad = ~np.isfinite(vals)
    if bad.any():
        return SlopeFit(quantity, tuple(eps), tuple(vals), float("nan"), 0.0, predicted, None,
                        f"{int(bad.sum())} non-finite rungs")
    live = vals > 0
    note = ""
    if live.sum() < 4:
        return SlopeFit(quantity, tuple(eps), tuple(vals), float("nan"), 0.0, predicted, None,
                        "fewer than 4 positive rungs")
    if not live.all():
        note = f"{int((~live).sum())} nonpositive rungs dropped"
    slope, r2, rms = loglog_fit(eps[live], vals[live])
    assessable = r2 >= R2_GATE or rms <= RMS_LOG_GATE
    if r2 < R2_GATE and rms <= RMS_LOG_GATE:
        note = (note + "; " if note else "") + f"flat curve: rms log-residual {rms:.3f}"
    passes = bool(slope >= predicted - SLOPE_TOLERANCE) if assessable else None
    return SlopeFit(quantity, tuple(eps), tuple(vals), slope, r2, predicted, passes, note)


def monotone_within_10pct(values) -> bool:
    """Ladder rule: no rung exceeds its predecessor by more than 10%."""
    v = list(values)
    return all(v[k + 1] <= v[k] * 1.10 for k in range(len(v) - 1))


@dataclass(frozen=True)
class ScalingProbeResult:
    alpha: float
    flux: SlopeFit
    stress_sup: SlopeFit
    grad_sup: SlopeFit

    @property
    def fits(self) -> tuple[SlopeFit, SlopeFit, SlopeFit]:
        return (self.flux, self.stress_sup, self.grad_sup)


def _probe_mask(grid: Grid, region: np.ndarray | None) -> np.ndarray:
    """Fixed strided sublattice used for sup statistics.

    Taking the sup over a fixed probe set keeps the number of effectively
    independent samples the same on every ladder rung, so the fitted slope
    tracks the growth exponent instead of the extreme-value inflation that a
    whole-grid max picks up as epsilon shrinks.
    """
    mask = np.zeros(grid.dims, dtype=bool)
    sel = tuple(slice(None, None, max(1, m // PROBES_PER_AXIS)) for m in grid.dims)
    mask[sel] = True
    if region is not None:
        mask &= region
        if not mask.any():
            mask = region.copy()
    return mask


def _probe_rung(spectrum, mol, grid, region, pv, probe, wts) -> tuple[float, float, float]:
    """One rung's flux integral, sup |R| and sup |grad(phi u^eps)|; its fields die on return."""
    stress, ue = _mollified_stress(spectrum, mol, grid, region)
    _, row = symmetric_pairs(grid.ndim)
    contraction = np.zeros(grid.dims)
    grad_sq = np.zeros(grid.dims)
    for j in range(grid.ndim):
        for i, g in partials(pv * ue[j], grid):
            rg = stress[row[i, j]] * g
            contraction += np.abs(rg, out=rg)
            grad_sq += np.multiply(g, g, out=g)
    return (float(np.sum(contraction * wts)), float(np.abs(stress[:, probe]).max()),
            float(np.sqrt(grad_sq[probe].max())))


def scaling_probe(
    u: Snapshot | np.ndarray,
    alpha: float,
    epsilons,
    phi,
    grid: Grid | None = None,
    region: np.ndarray | None = None,
) -> ScalingProbeResult:
    """Probe the three mollification-scaling laws over an epsilon ladder.

    Per rung this measures the absolute flux integral  int |R : grad(phi u^eps)| dx
    (the quantity the commutator estimate bounds by eps^(3a-1)), and the sups
    of |R_eps| and |grad(phi u^eps)| over a fixed probe sublattice; the three
    log-log fits carry the predicted exponents 3*alpha-1, 2*alpha, alpha-1.
    """
    vel, grid = as_components(u, grid)
    eps = epsilon_ladder(epsilons, grid)
    pv = _phi_values(phi, grid)
    probe = _probe_mask(grid, region)
    wts = grid.quad_weights()
    spectrum = _velocity_spectrum(vel, grid)
    rungs = [_probe_rung(spectrum, make_mollifier(e, grid), grid, region, pv, probe, wts) for e in eps]
    flux_vals, sup_r, sup_g = zip(*rungs)
    return ScalingProbeResult(
        alpha,
        fit_loglog(eps, flux_vals, 3.0 * alpha - 1.0, "flux"),
        fit_loglog(eps, sup_r, 2.0 * alpha, "stress_sup"),
        fit_loglog(eps, sup_g, alpha - 1.0, "grad_sup"),
    )
