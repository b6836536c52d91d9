"""The interior weak energy identity and the local dissipation defect.

At finite smoothing radii the identity reads

    int |u|^2/2 d_t(chi phi) + (|u|^2/2 + p) u . grad(chi phi) dx dt
        = - int chi(t) <R : grad(phi u)> dt,

with every field (eps, kappa)-mollified and R = (u ox u)^eps - u^eps ox u^eps
in the toolkit's stored orientation.  For exact discrete solutions both
sides agree to round-off; their common magnitude is the conservation defect
at scale eps, which vanishes at the commutator rate eps^(3 alpha - 1) for
fields with alpha > 1/3.

The time window chi is a closed-form raised cosine so its derivative is
analytic; snapshots are only finite-differenced inside the pointwise defect
field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commutator import CommutatorStress, SlopeFit, contraction_grad, fit_loglog, monotone_within_10pct
from .errors import PreconditionError
from .grids import Trajectory, deriv, discretization_budget, integrate, trapezoid_time_weights
from .mollify import (
    CutoffField,
    RegionChain,
    make_mollifier,
    mollify_field,
    time_kernel,
)

# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChiWindow:
    """Raised-cosine time weight, compactly supported on [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise PreconditionError("chi window must have positive length")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        s = (t - self.a) / (self.b - self.a)
        val = 0.5 * (1.0 - np.cos(2.0 * np.pi * s))
        return np.where((s > 0) & (s < 1), val, 0.0)

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        s = (t - self.a) / (self.b - self.a)
        val = (np.pi / (self.b - self.a)) * np.sin(2.0 * np.pi * s)
        return np.where((s > 0) & (s < 1), val, 0.0)


@dataclass(frozen=True)
class TestFunction:
    """chi(t) * phi(x) with phi supported in the chain's innermost region."""

    __test__ = False  # not a pytest class, despite the domain name

    chi: ChiWindow
    phi: CutoffField

    def validate(self, chain: RegionChain):
        if np.any((self.phi.values > 0) & ~chain.q3):
            raise PreconditionError("phi must be supported inside Q3")
        if chain.t_range is not None and chain.tau > 0:
            lo, hi = chain.time_window(3)
            if self.chi.a < lo - 1e-12 or self.chi.b > hi + 1e-12:
                raise PreconditionError("chi support must lie inside (t1+3tau, t2-3tau)")


# ---------------------------------------------------------------------------
# (eps, kappa) smoothing of the trajectory and its quadratic products
# ---------------------------------------------------------------------------


def _smooth_fields(traj: Trajectory, epsilon: float, kappa: float | None, chain: RegionChain):
    """Return times, u^{e,k}, p^{e,k} and (u ox u)^{e,k} on the retained window."""
    grid = traj.grid
    # the eta/2 margin binds only when Q2 has a real complement to stay away from
    if (~chain.q2).any() and epsilon > 0.5 * chain.eta:
        raise PreconditionError(f"epsilon={epsilon:g} exceeds eta/2={0.5 * chain.eta:g}")
    mol = make_mollifier(epsilon, grid)
    n = grid.ndim
    iu, ju = np.triu_indices(n)
    vels = [s.velocity for s in traj.snapshots]
    prs = [s.pressure for s in traj.snapshots]
    if any(p is None for p in prs):
        raise PreconditionError("weak energy identity requires pressure on every snapshot")
    prods = [np.stack([v[i] * v[j] for i, j in zip(iu, ju)]) for v in vels]

    # raw Euler residual E = d_t u + div(u ox u) + grad p per snapshot
    # (central time differences, one-sided at the window ends)
    euler = []
    nt = len(traj)
    for k in range(nt):
        if nt == 1:
            dudt = np.zeros_like(vels[0])
        elif k == 0:
            dudt = (vels[1] - vels[0]) / traj.dt
        elif k == nt - 1:
            dudt = (vels[-1] - vels[-2]) / traj.dt
        else:
            dudt = (vels[k + 1] - vels[k - 1]) / (2.0 * traj.dt)
        e = dudt.copy()
        for j in range(n):
            for i in range(n):
                e[j] += deriv(vels[k][i] * vels[k][j], i, grid)
            e[j] += deriv(prs[k], j, grid)
        euler.append(e)

    if kappa is None or len(traj) == 1:
        idx = list(range(len(traj)))
        v_t, p_t, q_t, e_t = vels, prs, prods, euler
    else:
        if chain.tau > 0 and kappa > 0.5 * chain.tau:
            raise PreconditionError(f"kappa={kappa:g} exceeds tau/2={0.5 * chain.tau:g}")
        offs, w = time_kernel(kappa, traj.dt)
        reach = int(offs.max())
        if len(traj) - 2 * reach <= 0:
            raise PreconditionError("trajectory too short for the requested time radius")
        idx = list(range(reach, len(traj) - reach))
        wdt = w * traj.dt

        def tconv(arrays, i):
            return sum(wm * arrays[i - m] for m, wm in zip(offs, wdt))

        v_t = [tconv(vels, i) for i in idx]
        p_t = [tconv(prs, i) for i in idx]
        q_t = [tconv(prods, i) for i in idx]
        e_t = [tconv(euler, i) for i in idx]

    region = chain.q2
    times = np.array([traj.snapshots[i].time for i in idx])
    u_sm = [mollify_field(v, mol, grid, region) for v in v_t]
    p_sm = [mollify_field(p, mol, grid, region) for p in p_t]
    q_sm = [mollify_field(q, mol, grid, region) for q in q_t]
    e_sm = [mollify_field(e, mol, grid, region) for e in e_t]
    return times, u_sm, p_sm, q_sm, e_sm, mol, (iu, ju)


def _stress_from(q_sm, u, iu, ju, grid):
    n = grid.ndim
    tensor = np.empty((n, n, *grid.dims))
    for k, (i, j) in enumerate(zip(iu, ju)):
        r = q_sm[k] - u[i] * u[j]
        tensor[i, j] = r
        if i != j:
            tensor[j, i] = r
    return tensor


# ---------------------------------------------------------------------------
# the identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyBalanceReport:
    lhs: float
    rhs: float
    residual: float
    epsilon: float
    kappa: float | None
    budget: float
    euler_term: float = 0.0  # <d_t u + div(u ox u) + grad p, Psi>; ~0 for solutions
    flux_by_time: tuple[float, ...] = ()

    @property
    def algebra_defect(self) -> float:
        """residual + euler_term: the pure discretization part of the identity."""
        return self.residual + self.euler_term

    def as_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "epsilon": self.epsilon,
            "kappa": self.kappa,
            "budget": self.budget,
            "euler_term": self.euler_term,
            "algebra_defect": self.algebra_defect,
        }


def weak_energy_identity(
    traj: Trajectory,
    test: TestFunction,
    epsilon: float,
    chain: RegionChain,
    kappa: float | None = None,
) -> EnergyBalanceReport:
    """Evaluate both sides of the mollified weak energy identity.

    lhs integrates |u|^2/2 d_t(chi phi) + (|u|^2/2 + p) u . grad(chi phi);
    rhs is the commutator flux side (orientation fixed so lhs == rhs for
    exact solutions); residual = lhs - rhs comes with a crude h^2 + dt^2
    discretization budget.
    """
    test.validate(chain)
    grid = traj.grid
    times, u_sm, p_sm, q_sm, e_sm, mol, (iu, ju) = _smooth_fields(traj, epsilon, kappa, chain)
    pv = test.phi.values
    gphi = np.stack([deriv(pv, a, grid) for a in range(grid.ndim)])
    wts = trapezoid_time_weights(len(times), traj.dt)
    chi = test.chi(times)
    dchi = test.chi.deriv(times)

    lhs = 0.0
    euler_term = 0.0
    fluxes = []
    umax = 0.0
    for k, t in enumerate(times):
        u = u_sm[k]
        ke = 0.5 * np.sum(u * u, axis=0)
        bern = ke + p_sm[k]
        adv = sum(u[a] * gphi[a] for a in range(grid.ndim))
        lhs += wts[k] * (dchi[k] * integrate(pv * ke, grid) + chi[k] * integrate(bern * adv, grid))
        euler_term += wts[k] * chi[k] * integrate(np.sum(e_sm[k] * (pv * u), axis=0), grid)
        stress = _stress_from(q_sm[k], u, iu, ju, grid)
        f = contraction_grad(CommutatorStress(stress, epsilon, chain.q2), u, pv, grid)
        fluxes.append(f)
        umax = max(umax, float(np.abs(u).max()))

    rhs = -float(np.sum(wts * chi * np.asarray(fluxes)))
    residual = lhs - rhs
    dt_term = traj.dt if (kappa is not None and len(traj) > 1) else 0.0
    budget = discretization_budget(grid, dt_term, umax)
    return EnergyBalanceReport(
        float(lhs), rhs, float(residual), float(epsilon), kappa, float(budget),
        float(euler_term), tuple(fluxes),
    )


# ---------------------------------------------------------------------------
# pointwise defect field
# ---------------------------------------------------------------------------


def dr_dissipation_field(
    traj: Trajectory, epsilon: float, chain: RegionChain
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise defect D_eps = -[d_t(|u|^2/2) + div((|u|^2/2 + p) u)] with all
    fields eps-mollified; time derivative by second-order central differences.

    Returns (interior snapshot times, defect array of shape (nt-2, *dims)).
    """
    if len(traj) < 3:
        raise PreconditionError("defect field needs at least 3 snapshots for time differencing")
    grid = traj.grid
    mol = make_mollifier(epsilon, grid)
    region = chain.q2
    kes, divs = [], []
    for s in traj.snapshots:
        if s.pressure is None:
            raise PreconditionError("defect field requires pressure on every snapshot")
        u = mollify_field(s.velocity, mol, grid, region)
        p = mollify_field(s.pressure, mol, grid, region)
        ke = 0.5 * np.sum(u * u, axis=0)
        flux = (ke + p) * u
        divs.append(sum(deriv(flux[a], a, grid) for a in range(grid.ndim)))
        kes.append(ke)
    out = []
    for k in range(1, len(traj) - 1):
        ddt = (kes[k + 1] - kes[k - 1]) / (2.0 * traj.dt)
        out.append(-(ddt + divs[k]))
    return traj.times[1:-1], np.stack(out)


# ---------------------------------------------------------------------------
# epsilon sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DrSweepResult:
    fit: SlopeFit
    alpha: float
    verdict: str
    reports: tuple[EnergyBalanceReport, ...]

    def as_dict(self) -> dict:
        return {"fit": self.fit.as_dict(), "alpha": self.alpha, "verdict": self.verdict}


def dr_convergence_sweep(
    traj: Trajectory,
    epsilons,
    test: TestFunction,
    alpha: float,
    chain: RegionChain,
    kappa: float | None = None,
) -> DrSweepResult:
    """Fit the weak-identity magnitude |rhs(eps)| over a decreasing ladder.

    Verdict is "consistent with conservation" when the fitted slope reaches
    3*alpha - 1 - 0.15 and the values decrease monotonically within 10%;
    for alpha <= 1/3 no conservation claim is made and the sweep reports
    "non-vanishing/inconclusive".
    """
    eps = sorted((float(e) for e in epsilons), reverse=True)
    if len(eps) < 4:
        raise PreconditionError("need at least 4 admissible ladder rungs")
    reports = tuple(weak_energy_identity(traj, test, e, chain, kappa) for e in eps)
    values = [abs(r.rhs) for r in reports]
    predicted = 3.0 * alpha - 1.0
    fit = fit_loglog(eps, values, predicted, "weak_residual")
    if predicted <= 0.0:
        verdict = (
            "non-vanishing/inconclusive: predicted slope 3*alpha-1 = "
            f"{predicted:.3f} <= 0 (alpha <= 1/3: no conservation claim)"
        )
    else:
        ok = fit.passes is True and monotone_within_10pct(values)
        if ok:
            verdict = "consistent with conservation"
        elif fit.passes is None:
            verdict = f"not assessable: fit r2={fit.r2:.3f} below 0.9"
        else:
            verdict = "not consistent: defect does not vanish at the predicted rate"
    return DrSweepResult(fit, float(alpha), verdict, reports)
