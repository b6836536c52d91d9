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

Only the kernel depends on eps.  The identity is therefore split into a
set-up that builds and transforms everything else once per snapshot (the
products, the Euler residual, grad phi) and a per-eps step of one kernel
multiply per snapshot; ``weak_energy_identity`` is the set-up plus one eps,
and ``dr_convergence_sweep`` the set-up plus every rung.  A rung
inverse-transforms each snapshot's stack by groups, u, p, E and u_i u_j,
each used and released before the next (the products right after the
stress is formed), and streams grad(phi u^eps) one axis at a time, so it
holds a handful of fields rather than the whole mollified stack.  The
set-up's gradients (E's and grad phi) go through ``grids.partials`` too.  A
time radius kappa is applied by ``mollify.time_mollify``.  A retained time
where chi and chi' both vanish (the end snapshots of an un-smoothed run with
chi spanning the trajectory) adds exactly 0 to both sides, so only its
velocity is transformed and mollified, for the discretization budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commutator import (SlopeFit, contraction_grad, fit_loglog, monotone_within_10pct, quadratic_products,
                         stress_from)
from .errors import PreconditionError
from .grids import Grid, Trajectory, deriv, discretization_budget, integrate, partials, trapezoid_time_weights
from .mollify import (
    CutoffField,
    RegionChain,
    field_spectrum,
    make_mollifier,
    mollify_spectrum,
    time_mollify,
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


class _WeakIdentity:
    """The identity split into epsilon-independent set-up and per-epsilon work.

    Set-up, once: the pressure and chi/phi checks, grad(phi), and per retained
    time the half-spectrum of the stack [u, p, u_i u_j (i <= j), E], where
    E = d_t u + div(u ox u) + grad p is the raw Euler residual (central time
    differences, one-sided at the window ends).  With kappa set, the stack is
    kappa-mollified in time before it is transformed.  Each ``report(eps)``
    then costs, per retained time, one kernel multiply and one inverse
    transform per group of the stack (u, p, E, u_i u_j, in that order), plus
    the stress, grad(phi u^eps) and the sums.

    A retained time where chi and chi' both vanish adds exactly 0 to lhs, rhs
    and the Euler term, so only its u is transformed and mollified, for the
    budget's max |u^eps|; without kappa its Euler residual is never built.
    Such a dead time must hold finite data, since a NaN there would no longer
    reach the sums.
    """

    def __init__(self, traj: Trajectory, test: TestFunction, chain: RegionChain,
                 kappa: float | None):
        test.validate(chain)
        if any(s.pressure is None for s in traj.snapshots):
            raise PreconditionError("weak energy identity requires pressure on every snapshot")
        grid = traj.grid
        n = grid.ndim
        nt = len(traj)
        self.time_smoothed = kappa is not None and nt > 1
        if self.time_smoothed:
            idx, stacks = time_mollify([self._stack(traj, k) for k in range(nt)], kappa, traj.dt)
        else:
            idx = range(nt)
        self.traj, self.test, self.chain, self.kappa = traj, test, chain, kappa
        self.times = np.array([traj.snapshots[i].time for i in idx])
        self.live = (test.chi(self.times) != 0) | (test.chi.deriv(self.times) != 0)
        if not self.time_smoothed:  # built one at a time as they are transformed
            stacks = (self._stack(traj, k, live) for k, live in zip(idx, self.live))
        self.spectra = [field_spectrum(f if live else self._dead(f, t)[:n], grid)
                        for f, live, t in zip(stacks, self.live, self.times)]
        self.gphi = np.stack([g for _, g in partials(test.phi.values, grid)])

    @staticmethod
    def _dead(stack: np.ndarray, time: float) -> np.ndarray:
        """``stack`` at a dead time, once it is checked finite."""
        if not np.isfinite(stack).all():
            raise PreconditionError(f"non-finite field values at t={time:g}, where chi and chi' vanish")
        return stack

    @staticmethod
    def _stack(traj: Trajectory, k: int, live: bool = True) -> np.ndarray:
        """[u, p, u_i u_j, E] at snapshot k; [u, p] alone at a dead time."""
        grid = traj.grid
        vels = [s.velocity for s in traj.snapshots]
        if not live:
            return np.concatenate([vels[k], traj.snapshots[k].pressure[np.newaxis]])
        nt = len(traj)
        if nt == 1:
            dudt = np.zeros_like(vels[0])
        elif k == 0:
            dudt = (vels[1] - vels[0]) / traj.dt
        elif k == nt - 1:
            dudt = (vels[-1] - vels[-2]) / traj.dt
        else:
            dudt = (vels[k + 1] - vels[k - 1]) / (2.0 * traj.dt)
        u, p = vels[k], traj.snapshots[k].pressure
        q = quadratic_products(u)
        e = _euler_residual(dudt, q, p, grid)
        return np.concatenate([u, p[np.newaxis], q, e])

    def _slice(self, k: int, transfer: np.ndarray, epsilon: float):
        """Time k's max |u^eps| and, at a live time, its four integrals
        (phi |u|^2/2, (|u|^2/2 + p) u . grad phi, E . phi u, R : grad(phi u));
        its fields die on return."""
        grid, pv = self.traj.grid, self.test.phi.values
        n = grid.ndim
        spectrum = self.spectra[k]
        u = mollify_spectrum(spectrum[:n], transfer, grid)
        umax = np.abs(u).max()
        if not self.live[k]:
            return umax, None
        ke = 0.5 * np.sum(u * u, axis=0)
        bern = ke + mollify_spectrum(spectrum[n], transfer, grid)
        adv = sum(u[a] * self.gphi[a] for a in range(n))
        kinetic, transport = integrate(pv * ke, grid), integrate(bern * adv, grid)
        del ke, bern, adv
        euler = integrate(np.sum(mollify_spectrum(spectrum[-n:], transfer, grid) * (pv * u), axis=0), grid)
        stress = stress_from(mollify_spectrum(spectrum[n + 1:-n], transfer, grid), u, epsilon, self.chain.q2)
        return umax, (kinetic, transport, euler, contraction_grad(stress, u, pv, grid))

    def report(self, epsilon: float) -> EnergyBalanceReport:
        traj, chain, kappa = self.traj, self.chain, self.kappa
        # the eta/2 margin binds only when Q2 has a real complement to stay away from
        if (~chain.q2).any() and epsilon > 0.5 * chain.eta:
            raise PreconditionError(f"epsilon={epsilon:g} exceeds eta/2={0.5 * chain.eta:g}")
        if self.time_smoothed and chain.tau > 0 and kappa > 0.5 * chain.tau:
            raise PreconditionError(f"kappa={kappa:g} exceeds tau/2={0.5 * chain.tau:g}")
        grid = traj.grid
        transfer = make_mollifier(epsilon, grid).transfer(grid, chain.q2)
        wts = trapezoid_time_weights(len(self.times), traj.dt)
        chi = self.test.chi(self.times)
        dchi = self.test.chi.deriv(self.times)

        lhs = 0.0
        euler_term = 0.0
        fluxes = np.zeros(len(self.times))  # a dead time's zero keeps the sum's order
        umax = 0.0
        for k in range(len(self.spectra)):
            umax_k, sums = self._slice(k, transfer, epsilon)
            umax = np.maximum(umax, umax_k)  # keeps a NaN, which max() would drop
            if sums is None:
                continue
            kinetic, transport, euler, fluxes[k] = sums
            lhs += wts[k] * (dchi[k] * kinetic + chi[k] * transport)
            euler_term += wts[k] * chi[k] * euler

        rhs = -float(np.sum(wts * chi * fluxes))
        residual = lhs - rhs
        budget = discretization_budget(grid, traj.dt if self.time_smoothed else 0.0, umax)
        return EnergyBalanceReport(
            float(lhs), rhs, float(residual), float(epsilon), kappa, float(budget), float(euler_term),
        )


def _euler_residual(dudt: np.ndarray, q: np.ndarray, p: np.ndarray, grid: Grid) -> np.ndarray:
    """E_j = d_t u_j + sum_i d_i(u_i u_j) + d_j p, accumulated into ``dudt``.

    ``q`` holds the products u_i u_j (i <= j) of ``quadratic_products``.  The
    products and p are differentiated as separate stacks, one axis at a time.
    """
    n = grid.ndim
    slot = {pair: k for k, pair in enumerate(zip(*np.triu_indices(n)))}
    for i, g in partials(q, grid):
        for j in range(n):
            dudt[j] += g[slot[min(i, j), max(i, j)]]
    for j, g in partials(p, grid):
        dudt[j] += g
    return dudt


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
    discretization budget.  This is the set-up of ``dr_convergence_sweep``
    followed by a single rung.
    """
    return _WeakIdentity(traj, test, chain, kappa).report(epsilon)


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
    n = grid.ndim
    transfer = make_mollifier(epsilon, grid).transfer(grid, chain.q2)
    if any(s.pressure is None for s in traj.snapshots):
        raise PreconditionError("defect field requires pressure on every snapshot")
    kes, divs = [], []
    for k, s in enumerate(traj.snapshots):
        stack = np.concatenate([s.velocity, s.pressure[np.newaxis]])
        smooth = mollify_spectrum(field_spectrum(stack, grid), transfer, grid)
        u, p = smooth[:n], smooth[n]
        ke = 0.5 * np.sum(u * u, axis=0)
        kes.append(ke)
        if 0 < k < len(traj) - 1:  # the end times only feed the time differences
            flux = (ke + p) * u
            divs.append(sum(deriv(flux[a], a, grid) for a in range(n)))
    out = []
    for k in range(1, len(traj) - 1):
        ddt = (kes[k + 1] - kes[k - 1]) / (2.0 * traj.dt)
        out.append(-(ddt + divs[k - 1]))
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
    "non-vanishing/inconclusive".  The epsilon-independent set-up of the
    identity runs once; each rung is one kernel multiply per retained time.
    """
    eps = sorted((float(e) for e in epsilons), reverse=True)
    if len(eps) < 4:
        raise PreconditionError("need at least 4 admissible ladder rungs")
    identity = _WeakIdentity(traj, test, chain, kappa)
    reports = tuple(identity.report(e) for e in eps)
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
