"""Boundary cutoffs, shell fluxes, the global energy balance, and verdicts.

The wall cutoff is psi_eta(x) = step(d(x)/eta) with the C-infinity step that
is 0 below 1/4 and 1 above 1/2, so grad psi_eta is supported exactly on the
shell eta/4 < d(x) < eta/2 and is returned analytically via the chain rule
on the distance function (never by differencing).

Shell quadrature classifies nodes by their exact distance against the open
shell bounds; every shell node carries full trapezoid weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .commutator import monotone_within_10pct
from .grids import (Grid, Snapshot, Trajectory, discretization_budget, energy, integrate,
                    trapezoid_time_weights, wall_distance, wall_normal_sign)
from .mollify import _BUMP_MASS, bump, bump_cdf, cutoff_region
from .pressure import negative_sobolev_norm
from .reports import Verdict, verdict
from .synth import MIN_RUNGS, estimate_holder_exponent, separation_ladder

# ---------------------------------------------------------------------------
# the smooth step
# ---------------------------------------------------------------------------

INTERIOR_MARGIN = 0.25  # the verdict's Hölder survey keeps points this fraction of the width off the walls
MODULUS_TOL = 1e-8  # an envelope intercept within this of 0 counts as vanishing


def smooth_step(s):
    """C-infinity monotone step: 0 for s < 1/4, 1 for s > 1/2.

    Built from the normalized integral of the standard bump rescaled to the
    transition interval (1/4, 1/2).
    """
    s = np.asarray(s, dtype=float)
    t = (s - 0.375) / 0.125  # map (1/4, 1/2) onto (-1, 1)
    return bump_cdf(t)


def smooth_step_deriv(s):
    """Derivative of smooth_step; supported exactly in [1/4, 1/2]."""
    s = np.asarray(s, dtype=float)
    t = (s - 0.375) / 0.125
    return bump(t) / (_BUMP_MASS * 0.125)


# ---------------------------------------------------------------------------
# shells and cutoffs
# ---------------------------------------------------------------------------


def check_shell(grid: Grid, eta: float) -> None:
    """Refuse a boundary shell eta/4 < d < eta/2 that reaches the half-width
    or holds fewer than 3 grid planes."""
    half = 0.5 * grid.extents[grid.wall_axis]
    if not (0.0 < eta < half * (1.0 - 1e-12)):
        raise PreconditionError(
            f"shell scale must satisfy 0 < eta < half-width; got eta={eta:g}, half-width={half:g}"
        )
    d = wall_distance(grid)
    planes = int(np.sum((d > eta / 4.0) & (d < eta / 2.0)))
    if planes < 3:
        raise PreconditionError(
            f"shell under-resolved: only {planes} grid planes fall in "
            f"(eta/4, eta/2) = ({eta / 4:g}, {eta / 2:g}); need >= 3"
        )


def shell_ladder(etas, grid: Grid) -> list[float]:
    """An eta ladder in decreasing order, at least 3 scales, each an admissible shell."""
    etas = sorted((float(e) for e in etas), reverse=True)
    if len(etas) < 3:
        raise PreconditionError("need a ladder of at least 3 admissible eta values")
    for e in etas:
        check_shell(grid, e)
    return etas


def shell_mask(grid: Grid, eta: float) -> np.ndarray:
    d = np.broadcast_to(wall_distance(grid), grid.dims)
    return (d > eta / 4.0) & (d < eta / 2.0)


def boundary_cutoff(grid: Grid, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """psi_eta = step(d/eta) and its analytic gradient field.

    grad psi_eta = -(1/eta) step'(d/eta) n(sigma(x)); only the wall-axis
    component is nonzero on a channel.
    """
    check_shell(grid, eta)
    d = np.broadcast_to(wall_distance(grid), grid.dims)
    psi = smooth_step(d / eta)
    grad = np.zeros((grid.ndim, *grid.dims))
    grad[grid.wall_axis] = -(1.0 / eta) * smooth_step_deriv(d / eta) * wall_normal_sign(grid)
    return psi, grad


def _bernoulli_normal_flux(snap: Snapshot) -> np.ndarray:
    """(|u|^2/2 + p) u . n(sigma(x)) on the grid (signed)."""
    if snap.pressure is None:
        raise PreconditionError("shell diagnostics require pressure")
    ke = 0.5 * np.sum(snap.velocity**2, axis=0)
    un = snap.velocity[snap.grid.wall_axis] * wall_normal_sign(snap.grid)
    return (ke + snap.pressure) * un


def shell_flux(traj: Trajectory | Snapshot, eta: float) -> float:
    """Phi_eta = (1/eta) int_t int_{eta/4 < d < eta/2} |(|u|^2/2 + p) u.n| dx dt."""
    if isinstance(traj, Snapshot):
        traj = Trajectory((traj,), 1.0)
    check_shell(traj.grid, eta)
    mask = shell_mask(traj.grid, eta)
    vol = traj.grid.cell_volume()
    wts = trapezoid_time_weights(len(traj), traj.dt)
    total = 0.0
    for snap, w in zip(traj.snapshots, wts):
        dens = np.abs(_bernoulli_normal_flux(snap))
        total += w * float(dens[mask].sum()) * vol
    return float(total / eta)


# ---------------------------------------------------------------------------
# global balance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalBalanceReport:
    e1: float
    e2: float
    boundary_term: float
    residual: float
    budget: float
    eta: float


def global_balance(traj: Trajectory, eta: float, t1: float, t2: float) -> GlobalBalanceReport:
    """Discrete form of the cutoff energy balance between two snapshot times.

    e_i = int |u(t_i)|^2/2 psi_eta dx;  boundary_term integrates the signed
    normal Bernoulli flux against (1/eta) step'(d/eta);  the residual
    (e2 - e1) + boundary_term vanishes for conserving fields.
    """
    grid = traj.grid
    times = traj.times
    i1 = int(np.argmin(np.abs(times - t1)))
    i2 = int(np.argmin(np.abs(times - t2)))
    if abs(times[i1] - t1) > 1e-9 or abs(times[i2] - t2) > 1e-9:
        raise PreconditionError("t1 and t2 must be snapshot times")
    if i2 <= i1:
        raise PreconditionError("t1 must precede t2")

    if grid.fully_periodic:
        psi = np.ones(grid.dims)
        e1 = energy(traj.snapshots[i1])
        e2 = energy(traj.snapshots[i2])
        bt = 0.0
    else:
        psi, grad = boundary_cutoff(grid, eta)
        e1 = 0.5 * integrate(np.sum(traj.snapshots[i1].velocity ** 2, axis=0) * psi, grid)
        e2 = 0.5 * integrate(np.sum(traj.snapshots[i2].velocity ** 2, axis=0) * psi, grid)
        kernel = -grad[grid.wall_axis] * wall_normal_sign(grid)  # (1/eta) step'(d/eta), +0.0 off the shell
        del grad
        sub = traj.snapshots[i1 : i2 + 1]
        bt = 0.0
        for snap, w in zip(sub, trapezoid_time_weights(len(sub), traj.dt)):
            dens = _bernoulli_normal_flux(snap) * kernel
            bt += w * integrate(dens, grid)
    residual = (e2 - e1) + bt
    umax = float(np.max([np.abs(s.velocity).max() for s in traj.snapshots[i1 : i2 + 1]]))  # keeps a NaN
    budget = discretization_budget(grid, traj.dt, umax)
    return GlobalBalanceReport(float(e1), float(e2), float(bt), float(residual), budget, float(eta))


# ---------------------------------------------------------------------------
# verdict logic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConservationVerdict:
    verdict: Verdict
    flux_ladder: tuple[tuple[float, float], ...]  # (eta, Phi_eta)
    flux_trend_ok: bool
    alpha_estimate: float
    alpha_ok: bool
    pressure_norm: float
    pressure_norm_finite: bool
    energy_drift: float
    energy_ok: bool
    failed: tuple[str, ...] = ()
    notes: dict = field(default_factory=dict)


def interior_region(grid: Grid) -> np.ndarray:
    """The nodes of the verdict's interior Hölder survey: at least
    ``INTERIOR_MARGIN`` of the channel width off the walls."""
    return np.broadcast_to(wall_distance(grid), grid.dims) >= INTERIOR_MARGIN * grid.extents[grid.wall_axis]


def check_interior(grid: Grid) -> None:
    """Refuse a channel whose ``interior_region`` is too thin for the
    verdict's Hölder survey, whose separation ladder needs ``MIN_RUNGS`` rungs."""
    shells, _ = separation_ladder(grid, interior_region(grid))
    if len(shells) < MIN_RUNGS:
        raise PreconditionError(f"the interior Hölder survey on the {grid.label} grid has "
                                f"{len(shells)} separation rungs, it needs at least {MIN_RUNGS}; use a finer grid")


def flux_trend_ok(values) -> bool:
    """Ladder policy: monotone within 10% and final <= 1/4 of initial."""
    v = list(values)
    if len(v) < 3:
        return False
    if v[0] <= 0:
        return True  # identically zero flux is trivially vanishing
    return monotone_within_10pct(v) and v[-1] <= 0.25 * v[0]


def conservation_verdict(
    traj: Trajectory,
    etas,
    beta: float = 1.0,
    gamma: float | None = None,
    energy_tol: float = 1e-6,
    seed: int = 0,
) -> ConservationVerdict:
    """Evaluate the global-conservation hypotheses on a shell ladder.

    Checks (a) the Phi_eta ladder trend, (b) interior Hölder exponent > 1/3,
    (c) finiteness of the near-boundary H^-beta pressure norm, (d) relative
    energy constancy between the first and last snapshot times.
    """
    grid = traj.grid
    etas = shell_ladder(etas, grid)
    if any(snap.pressure is None for snap in traj.snapshots):
        raise PreconditionError("conservation_verdict requires pressure on every snapshot")
    check_interior(grid)  # before the ladder pays for any shell flux

    ladder = [(e, shell_flux(traj, e)) for e in etas]
    trend = flux_trend_ok([v for _, v in ladder])

    est = estimate_holder_exponent(traj.snapshots[len(traj) // 2], region=interior_region(grid), seed=seed)
    alpha_ok = bool(est.exponent > 1.0 / 3.0)

    if gamma is None:
        gamma = 0.5 * max(etas)
    d = np.broadcast_to(wall_distance(grid), grid.dims)
    cf = cutoff_region(grid, d < gamma / 2.0, d < gamma)
    pn = 0.0
    for snap in traj.snapshots:
        pn = float(np.maximum(pn, negative_sobolev_norm(snap.pressure, beta, grid, cutoff=cf)))  # keeps a NaN
    pn_finite = bool(np.isfinite(pn))

    e_first = energy(traj.snapshots[0])
    e_last = energy(traj.snapshots[-1])
    drift = abs(e_last - e_first) / max(e_first, 1e-300)
    energy_ok = bool(drift <= energy_tol or e_first == 0.0)

    failed = []
    if not trend:
        failed.append("shell-flux: normal Bernoulli flux does not vanish along the ladder")
    if not alpha_ok:
        failed.append(f"interior-regularity: Hölder exponent {est.exponent:.3f} <= 1/3")
    if not pn_finite:
        failed.append("near-boundary-pressure: H^-beta norm not finite")

    key = "boundary.hypotheses_fail" if failed else "boundary.conserved" if energy_ok else "boundary.not_conserved"
    return ConservationVerdict(
        verdict(key, reasons="; ".join(failed)),
        tuple((e, v) for e, v in ladder),
        trend,
        est.exponent,
        alpha_ok,
        pn,
        pn_finite,
        float(drift),
        energy_ok,
        tuple(failed),
        {"beta": beta, "gamma": gamma, "energy_tol": energy_tol},
    )


# ---------------------------------------------------------------------------
# modulus of continuity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModulusReport:
    bound_m: float
    distances: tuple[float, ...]
    envelope: tuple[float, ...]
    intercept: float
    slope: float
    vanishing: bool
    tolerance: float


def modulus_check(traj: Trajectory, gamma: float) -> ModulusReport:
    """Near-wall modulus diagnostics.

    Reports M = max over the gamma-collar of |u| + |p|, the empirical
    envelope omega(d) = max |u.n| per distance class, and whether a linear
    fit through the three nearest-wall classes extrapolates to ~0 at d = 0.
    """
    grid = traj.grid
    a = grid.wall_axis
    if not (0.0 < gamma < 0.5 * grid.extents[a]):
        raise PreconditionError("gamma must be below the channel half-width")
    d = np.broadcast_to(wall_distance(grid), grid.dims)
    collar = d < gamma
    sgn = wall_normal_sign(grid)

    m_val = 0.0
    dvals = np.unique(np.round(d[collar], 12))
    dvals = dvals[dvals > 0]
    env = np.zeros(len(dvals))
    for snap in traj.snapshots:
        if snap.pressure is None:
            raise PreconditionError("modulus_check requires pressure")
        speed = np.sqrt(np.sum(snap.velocity**2, axis=0))
        m_val = float(np.maximum(m_val, (speed + np.abs(snap.pressure))[collar].max()))  # keeps a NaN
        un = np.abs(snap.velocity[a] * sgn)
        for k, dv in enumerate(dvals):
            cls = collar & (np.abs(d - dv) < 1e-12)
            if cls.any():
                env[k] = np.maximum(env[k], un[cls].max())
    if len(dvals) < 3:
        raise PreconditionError("collar holds fewer than 3 distance classes")
    x = dvals[:3]
    y = env[:3]
    slope, intercept = np.polyfit(x, y, 1)
    vanishing = bool(abs(intercept) <= MODULUS_TOL)
    return ModulusReport(
        m_val, tuple(float(v) for v in dvals), tuple(float(v) for v in env),
        float(intercept), float(slope), vanishing, MODULUS_TOL,
    )
