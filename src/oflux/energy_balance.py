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
set-up that builds and transforms everything else once per snapshot and a
per-eps step of one kernel multiply per snapshot; ``weak_energy_identity``
is the set-up plus one eps, and ``dr_sweep_reports`` the set-up plus
every rung, which ``fit_dr_sweep`` fits at an alpha (the two composed
are ``dr_convergence_sweep``).  The set-up keeps each snapshot's
half-spectra by group, u, p,
u_i u_j and the Euler residual E, each transformed as soon as it is built,
so no stack of all of them is ever formed; the products are released once
E is formed.  A rung inverse-transforms the groups in the order u, p, E,
u_i u_j, each used and released before the next (the products right after
the stress is formed), and streams grad(phi u^eps) one axis at a time, so
it holds a handful of fields rather than every mollified group.  The
set-up's gradients (E's and grad phi) go through ``grids.partial`` and
``grids.partials`` too.  A time radius kappa is applied group by group by
``mollify.time_mollify``, before the transforms.  A retained time
where chi and chi' both vanish (the end snapshots of an un-smoothed run with
chi spanning the trajectory) adds exactly 0 to both sides, so only its
velocity is transformed and mollified, for the discretization budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commutator import (ProbeRungs, SlopeFit, contraction_grad, epsilon_ladder, fit_loglog, monotone_within_10pct,
                         probe_mask, probe_row, quadratic_products, stress_from, symmetric_pairs)
from .errors import PreconditionError
from .grids import (Grid, Trajectory, deriv, discretization_budget, integrate, partial, partials,
                    trapezoid_time_weights)
from .mollify import (
    CutoffField,
    RegionChain,
    field_spectrum,
    make_mollifier,
    mollify_spectrum,
    time_mollify,
)
from .reports import Verdict, verdict

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
    euler_term: float  # <d_t u + div(u ox u) + grad p, Psi>; ~0 for solutions
    algebra_defect: float  # residual + euler_term: the pure discretization part of the identity


class _WeakIdentity:
    """The identity split into epsilon-independent set-up and per-epsilon work.

    Set-up, once: the pressure and chi/phi checks, grad(phi), and per retained
    time the half-spectra of four groups, u, p, u_i u_j (i <= j) and E, where
    E = d_t u + div(u ox u) + grad p is the raw Euler residual (central time
    differences, one-sided at the window ends).  Each group is transformed
    as soon as it is built, and the products are released once E is formed.
    With kappa set, every snapshot's groups are built first and each group is
    kappa-mollified in time before it is transformed.  Each ``report(eps)``
    then costs, per retained time, one kernel multiply and one inverse
    transform per group (u, p, E, u_i u_j, in that order), plus the stress,
    grad(phi u^eps) and the sums.

    A retained time where chi and chi' both vanish adds exactly 0 to lhs, rhs
    and the Euler term, so only its u is transformed and mollified, for the
    budget's max |u^eps|; without kappa its Euler residual is never built.
    Such a dead time must hold finite u and p, since a NaN there would no
    longer reach the sums.

    With ``probe_at``, a snapshot index, each rung also measures the scaling
    probe of that snapshot (``commutator.probe_rungs`` with phi and no
    region) from the stress and u^eps it forms there, when it forms them
    from the snapshot as it is: at a live time, without kappa.  Otherwise
    ``probe_at`` is None.
    """

    def __init__(self, traj: Trajectory, test: TestFunction, chain: RegionChain,
                 kappa: float | None, probe_at: int | None = None):
        test.validate(chain)
        if any(s.pressure is None for s in traj.snapshots):
            raise PreconditionError("weak energy identity requires pressure on every snapshot")
        grid = traj.grid
        nt = len(traj)
        self.time_smoothed = kappa is not None and nt > 1
        if self.time_smoothed:
            built = [list(self._groups(traj, k)) for k in range(nt)]
            columns = [time_mollify(column, kappa, traj.dt) for column in zip(*built)]
            del built
            idx, groups = columns[0][0], zip(*(smoothed for _, smoothed in columns))
        else:
            idx = range(nt)
        self.traj, self.test, self.chain, self.kappa = traj, test, chain, kappa
        self.times = np.array([traj.snapshots[i].time for i in idx])
        self.live = (test.chi(self.times) != 0) | (test.chi.deriv(self.times) != 0)
        if not self.time_smoothed:  # each group built as it is transformed
            groups = (self._groups(traj, k, live) for k, live in zip(idx, self.live))
        self.spectra = [self._spectra(g, live, t, grid) for g, live, t in zip(groups, self.live, self.times)]
        self.gphi = np.stack([g for _, g in partials(test.phi.values, grid)])
        shared = probe_at is not None and not self.time_smoothed and self.live[probe_at]
        self.probe_at = probe_at if shared else None
        self.probe = probe_mask(grid) if shared else None

    @staticmethod
    def _groups(traj: Trajectory, k: int, live: bool = True):
        """Yield u, p, u_i u_j and E at snapshot k, each as it is built; u and
        p alone at a dead time."""
        snap = traj.snapshots[k]
        u, p = snap.velocity, snap.pressure
        yield u
        yield p
        if not live:
            return
        q = quadratic_products(u)
        yield q
        e = _euler_residual(_time_derivative(traj, k), q, p, traj.grid)
        del q  # the products die once E is formed and the consumer moves on
        yield e

    @staticmethod
    def _spectra(groups, live: bool, time: float, grid: Grid) -> list[np.ndarray]:
        """Each group's half-spectrum; at a dead time u's alone, once u and p
        are checked finite."""
        if live:
            return [field_spectrum(g, grid) for g in groups]
        u, p, *_ = groups
        if not (np.isfinite(u).all() and np.isfinite(p).all()):
            raise PreconditionError(f"non-finite field values at t={time:g}, where chi and chi' vanish")
        return [field_spectrum(u, grid)]

    def _slice(self, k: int, transfer: np.ndarray, epsilon: float):
        """Time k's max |u^eps|, at a live time its four integrals
        (phi |u|^2/2, (|u|^2/2 + p) u . grad phi, E . phi u, R : grad(phi u)),
        and at ``probe_at`` the probe's row; its fields die on return."""
        grid, pv = self.traj.grid, self.test.phi.values
        n = grid.ndim
        u_hat, *rest = self.spectra[k]
        u = mollify_spectrum(u_hat, transfer, grid)
        umax = np.abs(u).max()
        if not self.live[k]:
            return umax, None, None
        p_hat, q_hat, e_hat = rest
        ke = 0.5 * np.sum(u * u, axis=0)
        bern = ke + mollify_spectrum(p_hat, transfer, grid)
        adv = sum(u[a] * self.gphi[a] for a in range(n))
        kinetic, transport = integrate(pv * ke, grid), integrate(bern * adv, grid)
        del ke, bern, adv
        euler = integrate(np.sum(mollify_spectrum(e_hat, transfer, grid) * (pv * u), axis=0), grid)
        stress = stress_from(mollify_spectrum(q_hat, transfer, grid), u)
        if k != self.probe_at:
            return umax, (kinetic, transport, euler, contraction_grad(stress, u, pv, grid)), None
        flux, row = probe_row(stress, u, pv, grid, self.probe)
        return umax, (kinetic, transport, euler, flux), row

    def report(self, epsilon: float) -> EnergyBalanceReport:
        return self.rung(epsilon)[0]

    def rung(self, epsilon: float) -> tuple[EnergyBalanceReport, tuple[float, float, float] | None]:
        """The report at ``epsilon`` and the probe's row there (None without ``probe_at``)."""
        traj, chain, kappa = self.traj, self.chain, self.kappa
        # the eta/2 margin binds only when Q2 has a real complement to stay away from
        if (~chain.q2).any() and epsilon > 0.5 * chain.eta:
            raise PreconditionError(f"epsilon={epsilon:g} exceeds eta/2={0.5 * chain.eta:g}")
        grid = traj.grid
        transfer = make_mollifier(epsilon, grid).transfer(grid, chain.q2)
        wts = trapezoid_time_weights(len(self.times), traj.dt)
        chi = self.test.chi(self.times)
        dchi = self.test.chi.deriv(self.times)

        lhs = 0.0
        euler_term = 0.0
        fluxes = np.zeros(len(self.times))  # a dead time's zero keeps the sum's order
        umax = 0.0
        row = None
        for k in range(len(self.spectra)):
            umax_k, sums, row_k = self._slice(k, transfer, epsilon)
            umax = np.maximum(umax, umax_k)  # keeps a NaN, which max() would drop
            if row_k is not None:
                row = row_k
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
            float(residual) + float(euler_term),
        ), row


def _time_derivative(traj: Trajectory, k: int) -> np.ndarray:
    """d_t u at snapshot k: central differences, one-sided at the ends, 0 on one snapshot."""
    vels = [s.velocity for s in traj.snapshots]
    nt = len(traj)
    if nt == 1:
        return np.zeros_like(vels[0])
    if k == 0:
        return (vels[1] - vels[0]) / traj.dt
    if k == nt - 1:
        return (vels[-1] - vels[-2]) / traj.dt
    return (vels[k + 1] - vels[k - 1]) / (2.0 * traj.dt)


def _euler_residual(dudt: np.ndarray, q: np.ndarray, p: np.ndarray, grid: Grid) -> np.ndarray:
    """E_j = d_t u_j + sum_i d_i(u_i u_j) + d_j p, accumulated into ``dudt``.

    ``q`` holds the products u_i u_j in the order of ``quadratic_products``.
    Along axis i only the n products that hold u_i are differentiated, one at
    a time; p's gradient streams one axis at a time.
    """
    n = grid.ndim
    _, row = symmetric_pairs(n)
    for i in range(n):
        for j in range(n):
            dudt[j] += partial(q[row[i, j]], i, grid)
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
        u = mollify_spectrum(field_spectrum(s.velocity, grid), transfer, grid)
        ke = 0.5 * np.sum(u * u, axis=0)
        kes.append(ke)
        if 0 < k < len(traj) - 1:  # the end times only feed the time differences
            flux = (ke + mollify_spectrum(field_spectrum(s.pressure, grid), transfer, grid)) * u
            divs.append(sum(deriv(flux[a], a, grid) for a in range(n)))
            del flux
    out = np.empty((len(traj) - 2, *grid.dims))
    for k in range(1, len(traj) - 1):
        ddt = (kes[k + 1] - kes[k - 1]) / (2.0 * traj.dt)
        out[k - 1] = -(ddt + divs[k - 1])
    return traj.times[1:-1], out


# ---------------------------------------------------------------------------
# epsilon sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DrSweepResult:
    fit: SlopeFit
    alpha: float
    verdict: Verdict
    reports: tuple[EnergyBalanceReport, ...]


def dr_sweep_reports(
    traj: Trajectory,
    epsilons,
    test: TestFunction,
    chain: RegionChain,
    kappa: float | None = None,
    probe_at: int | None = None,
) -> tuple[tuple[EnergyBalanceReport, ...], ProbeRungs | None]:
    """The weak identity at every rung of the decreasing ladder: the
    epsilon-independent set-up once, then one kernel multiply per retained
    time per rung.  ``fit_dr_sweep`` fits them at an alpha.

    With ``probe_at``, a snapshot index, the scaling probe's rungs of that
    snapshot come along, measured from the identity's own mollified fields
    there, equal to ``commutator.probe_rungs(snapshot, epsilons, test.phi)``;
    None when kappa smooths those fields or chi and chi' vanish there."""
    eps = epsilon_ladder(epsilons, traj.grid)
    identity = _WeakIdentity(traj, test, chain, kappa, probe_at)
    reports, rows = zip(*(identity.rung(e) for e in eps))
    return reports, None if identity.probe_at is None else ProbeRungs(tuple(eps), *zip(*rows))


def fit_dr_sweep(reports, alpha: float) -> DrSweepResult:
    """The log-log fit of |rhs(eps)| over the rungs' reports, and its verdict at ``alpha``."""
    eps = [r.epsilon for r in reports]
    values = [abs(r.rhs) for r in reports]
    predicted = 3.0 * alpha - 1.0
    fit = fit_loglog(eps, values, predicted, "weak_residual")
    if predicted <= 0.0:
        key = "weak_identity.no_claim"
    elif fit.passes is True and monotone_within_10pct(values):
        key = "weak_identity.consistent"
    else:
        key = "weak_identity.not_assessable" if fit.passes is None else "weak_identity.not_consistent"
    return DrSweepResult(fit, float(alpha), verdict(key, predicted=predicted, r2=fit.r2), tuple(reports))


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
    "non-vanishing/inconclusive".  The rungs (``dr_sweep_reports``) need no
    alpha, only the fit (``fit_dr_sweep``) does.
    """
    return fit_dr_sweep(dr_sweep_reports(traj, epsilons, test, chain, kappa)[0], alpha)
