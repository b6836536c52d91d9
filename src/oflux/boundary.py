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

from .errors import PreconditionError, UnderResolvedError
from .commutator import monotone_within_10pct
from .grids import (Domain, Snapshot, Trajectory, discretization_budget, energy, integrate,
                    trapezoid_time_weights, wall_distance)
from .mollify import _BUMP_MASS, bump, bump_cdf, cutoff_region
from .pressure import negative_sobolev_norm
from .synth import estimate_holder_exponent

# ---------------------------------------------------------------------------
# the smooth step
# ---------------------------------------------------------------------------

_STEP_LO = 0.25
_STEP_HI = 0.5


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


@dataclass(frozen=True)
class ShellSpec:
    """Admissibility record for the boundary shell eta/4 < d < eta/2."""

    eta: float
    plane_count: int

    @classmethod
    def build(cls, domain: Domain, eta: float) -> "ShellSpec":
        half = 0.5 * domain.channel_width
        if not (0.0 < eta < half * (1.0 - 1e-12)):
            raise PreconditionError(
                f"shell scale must satisfy 0 < eta < half-width; got eta={eta:g}, half-width={half:g}"
            )
        d = wall_distance(domain.grid)
        planes = int(np.sum((d > eta / 4.0) & (d < eta / 2.0)))
        if planes < 3:
            raise UnderResolvedError(
                f"shell under-resolved: only {planes} grid planes fall in "
                f"(eta/4, eta/2) = ({eta / 4:g}, {eta / 2:g}); need >= 3"
            )
        return cls(float(eta), planes)


def shell_ladder(etas, domain: Domain) -> list[float]:
    """An eta ladder in decreasing order, at least 3 scales, each an admissible shell."""
    etas = sorted((float(e) for e in etas), reverse=True)
    if len(etas) < 3:
        raise PreconditionError("need a ladder of at least 3 admissible eta values")
    for e in etas:
        ShellSpec.build(domain, e)
    return etas


def shell_mask(domain: Domain, eta: float) -> np.ndarray:
    d = domain.distance_field()
    return (d > eta / 4.0) & (d < eta / 2.0)


def boundary_cutoff(domain: Domain, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """psi_eta = step(d/eta) and its analytic gradient field.

    grad psi_eta = -(1/eta) step'(d/eta) n(sigma(x)); only the wall-axis
    component is nonzero on a channel.
    """
    ShellSpec.build(domain, eta)
    grid = domain.grid
    d = domain.distance_field()
    psi = smooth_step(d / eta)
    sgn = domain.normal_sign_field()
    grad = np.zeros((grid.ndim, *grid.dims))
    grad[domain.wall_axis] = -(1.0 / eta) * smooth_step_deriv(d / eta) * sgn
    return psi, grad


def _bernoulli_normal_flux(snap: Snapshot, domain: Domain) -> np.ndarray:
    """(|u|^2/2 + p) u . n(sigma(x)) on the grid (signed)."""
    if snap.pressure is None:
        raise PreconditionError("shell diagnostics require pressure")
    ke = 0.5 * np.sum(snap.velocity**2, axis=0)
    un = snap.velocity[domain.wall_axis] * domain.normal_sign_field()
    return (ke + snap.pressure) * un


def shell_flux(traj: Trajectory | Snapshot, eta: float, domain: Domain) -> float:
    """Phi_eta = (1/eta) int_t int_{eta/4 < d < eta/2} |(|u|^2/2 + p) u.n| dx dt."""
    ShellSpec.build(domain, eta)
    if isinstance(traj, Snapshot):
        traj = Trajectory((traj,), 1.0)
    mask = shell_mask(domain, eta)
    vol = domain.grid.cell_volume()
    wts = trapezoid_time_weights(len(traj), traj.dt)
    total = 0.0
    for snap, w in zip(traj.snapshots, wts):
        dens = np.abs(_bernoulli_normal_flux(snap, domain))
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

    def as_dict(self) -> dict:
        return {
            "e1": self.e1,
            "e2": self.e2,
            "boundary_term": self.boundary_term,
            "residual": self.residual,
            "budget": self.budget,
            "eta": self.eta,
        }


def global_balance(traj: Trajectory, eta: float, t1: float, t2: float, domain: Domain) -> GlobalBalanceReport:
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

    if domain.geometry == "periodic":
        psi = np.ones(grid.dims)
        e1 = energy(traj.snapshots[i1])
        e2 = energy(traj.snapshots[i2])
        bt = 0.0
    else:
        psi, _ = boundary_cutoff(domain, eta)
        e1 = 0.5 * integrate(np.sum(traj.snapshots[i1].velocity ** 2, axis=0) * psi, grid)
        e2 = 0.5 * integrate(np.sum(traj.snapshots[i2].velocity ** 2, axis=0) * psi, grid)
        d = domain.distance_field()
        kernel = (1.0 / eta) * smooth_step_deriv(d / eta)
        sub = traj.snapshots[i1 : i2 + 1]
        bt = 0.0
        for snap, w in zip(sub, trapezoid_time_weights(len(sub), traj.dt)):
            dens = _bernoulli_normal_flux(snap, domain) * kernel
            bt += w * integrate(dens, grid)
    residual = (e2 - e1) + bt
    umax = float(np.max([np.abs(s.velocity).max() for s in traj.snapshots[i1 : i2 + 1]]))  # keeps a NaN
    budget = discretization_budget(grid, traj.dt, umax)
    return GlobalBalanceReport(float(e1), float(e2), float(bt), float(residual), budget, float(eta))


# ---------------------------------------------------------------------------
# verdict logic
# ---------------------------------------------------------------------------

VERDICT_CONSERVED = "hypotheses consistent and energy conserved"
VERDICT_NOT_CONSERVED = (
    "hypotheses consistent and energy NOT conserved (flag: discretization or hypothesis failure)"
)


@dataclass(frozen=True)
class ConservationVerdict:
    verdict: str
    exit_code: int
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

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "exit_code": self.exit_code,
            "flux_ladder": [list(x) for x in self.flux_ladder],
            "flux_trend_ok": self.flux_trend_ok,
            "alpha_estimate": self.alpha_estimate,
            "alpha_ok": self.alpha_ok,
            "pressure_norm": self.pressure_norm,
            "pressure_norm_finite": self.pressure_norm_finite,
            "energy_drift": self.energy_drift,
            "energy_ok": self.energy_ok,
            "failed": list(self.failed),
            "notes": self.notes,
        }


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
    domain: Domain,
    beta: float = 1.0,
    gamma: float | None = None,
    energy_tol: float = 1e-6,
    interior_margin: float = 0.25,
    seed: int = 0,
) -> ConservationVerdict:
    """Evaluate the global-conservation hypotheses on a shell ladder.

    Checks (a) the Phi_eta ladder trend, (b) interior Hölder exponent > 1/3,
    (c) finiteness of the near-boundary H^-beta pressure norm, (d) relative
    energy constancy between the first and last snapshot times.
    """
    etas = shell_ladder(etas, domain)
    grid = traj.grid

    ladder = [(e, shell_flux(traj, e, domain)) for e in etas]
    trend = flux_trend_ok([v for _, v in ladder])

    d = domain.distance_field()
    interior = d >= interior_margin * domain.channel_width
    est = estimate_holder_exponent(traj.snapshots[len(traj) // 2], region=interior, seed=seed)
    alpha_ok = bool(est.exponent > 1.0 / 3.0)

    if gamma is None:
        gamma = 0.5 * max(etas)
    cf = cutoff_region(grid, d < gamma / 2.0, d < gamma)
    pn = 0.0
    for snap in traj.snapshots:
        if snap.pressure is None:
            raise PreconditionError("conservation_verdict requires pressure on every snapshot")
        pn = float(np.maximum(pn, negative_sobolev_norm(snap.pressure, beta, grid, cutoff=cf).value))  # keeps a NaN
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

    if failed:
        verdict = "hypotheses fail (" + "; ".join(failed) + ")"
        code = 3
    elif energy_ok:
        verdict = VERDICT_CONSERVED
        code = 0
    else:
        verdict = VERDICT_NOT_CONSERVED
        code = 2
    return ConservationVerdict(
        verdict,
        code,
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

    def as_dict(self) -> dict:
        return {
            "bound_m": self.bound_m,
            "distances": list(self.distances),
            "envelope": list(self.envelope),
            "intercept": self.intercept,
            "slope": self.slope,
            "vanishing": self.vanishing,
            "tolerance": self.tolerance,
        }


def modulus_check(traj: Trajectory, gamma: float, domain: Domain, tol: float = 1e-8) -> ModulusReport:
    """Near-wall modulus diagnostics.

    Reports M = max over the gamma-collar of |u| + |p|, the empirical
    envelope omega(d) = max |u.n| per distance class, and whether a linear
    fit through the three nearest-wall classes extrapolates to ~0 at d = 0.
    """
    if not (0.0 < gamma < 0.5 * domain.channel_width):
        raise PreconditionError("gamma must be below the channel half-width")
    grid = traj.grid
    d = domain.distance_field()
    collar = d < gamma
    sgn = domain.normal_sign_field()
    a = domain.wall_axis

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
    vanishing = bool(abs(intercept) <= tol)
    return ModulusReport(
        m_val, tuple(float(v) for v in dvals), tuple(float(v) for v in env),
        float(intercept), float(slope), vanishing, tol,
    )
