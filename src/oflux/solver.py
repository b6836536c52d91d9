"""Incompressible Navier-Stokes solver (2D periodic box / 2D channel).

MAC staggered layout internally; node-collocated snapshots on output.  A
step is Heun's method on the skew-symmetric advection (half divergence +
half advective form, so the inviscid core conserves kinetic energy) with a
projection after the first stage; the second stage's predictor goes to the
geometry's finish: projection, Crank-Nicolson diffusion, projection.  The
solves apply ``grids.Diagonal``, the one diagonal spectral solve: in the
channel the wall closure's DCT-II (projection), DST-II (u) or DST-I (v)
across the walls, then on both geometries ``rfft`` along x (the half
spectrum) and, on the box, ``fft`` along y.

The channel's finish makes its three solves in turn (the walls break their
commutation); the diffuser and the gradient norm serve it alone.  On the
periodic box the MAC divergence, gradient and 5-point Laplacian are
circulant and commute, so the finish is one symbol amp * P on one spectrum
of (u, v); the last projection, a no-op there, drops out.  The tests keep
the box's stencil route as the finish's reference.

Energy audit: with the plain staggered inner product, the CN half-step
removes exactly nu*dt*||grad m||^2 (m the CN midpoint; on the box read off
the finish's spectrum by Parseval) per step and the projection is
orthogonal, so the recorded cumulative dissipation makes

    kinetic(t) + cumulative_dissipation(t) - kinetic(0) <= (RK2 drift)

a discrete Leray-Hopf inequality up to the (third-order, sign-indefinite
but tiny) time-integration drift of the advection stages.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .boundary import flux_trend_ok, shell_flux, shell_ladder
from .errors import PreconditionError
from .grids import (Diagonal, Domain, Snapshot, Trajectory, divergence, inverse_eigenvalues,
                    second_difference_eigenvalues)
from .pressure import solve_pressure_channel

# ---------------------------------------------------------------------------
# configuration and state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    domain: Domain
    nu: float
    dt: float
    t_end: float
    initial: Snapshot
    cfl_limit: float = 0.5
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.domain.grid.ndim != 2:
            raise PreconditionError("the solver is 2D only")
        if self.domain.geometry == "channel" and self.domain.wall_axis != 1:
            raise PreconditionError("channel solver expects the wall axis to be axis 1")
        if not (0.0 < self.cfl_limit <= 0.5):
            raise PreconditionError("cfl_limit must lie in (0, 0.5]")
        if not np.all(np.isfinite([self.nu, self.dt, self.t_end])):
            raise PreconditionError(
                f"nu, dt and t_end must be finite, got nu={self.nu}, dt={self.dt}, t_end={self.t_end}"
            )
        if self.nu < 0 or self.dt <= 0 or self.t_end <= 0:
            raise PreconditionError("nu must be >= 0 and dt, t_end > 0")
        if self.snapshot_stride < 1:
            raise PreconditionError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")


class CFLViolation(PreconditionError):
    def __init__(self, message, admissible_dt):
        super().__init__(message)
        self.admissible_dt = admissible_dt


@dataclass
class MacState:
    """Staggered fields: u at x-faces, v at y-faces, on cell grids."""

    u: np.ndarray
    v: np.ndarray
    t: float


def _geometry(domain: Domain):
    """(nx, ncy, hx, hy): cells across x and y (the channel's lie between its
    wall nodes) and the spacings."""
    grid = domain.grid
    ncy = grid.dims[1] - 1 if domain.geometry == "channel" else grid.dims[1]
    return grid.dims[0], ncy, grid.spacing[0], grid.spacing[1]


# ---------------------------------------------------------------------------
# discrete operators
# ---------------------------------------------------------------------------


def _divergence(u, v, domain: Domain):
    nx, ncy, hx, hy = _geometry(domain)
    dux = (np.roll(u, -1, axis=0) - u) / hx
    if domain.geometry == "periodic":
        dvy = (np.roll(v, -1, axis=1) - v) / hy
    else:
        dvy = (v[:, 1:] - v[:, :-1]) / hy
    return dux + dvy


def _grad_correct(u, v, q, domain: Domain):
    """Subtract the staggered gradient of q from (u, v)."""
    nx, ncy, hx, hy = _geometry(domain)
    u = u - (q - np.roll(q, 1, axis=0)) / hx
    if domain.geometry == "periodic":
        v = v - (q - np.roll(q, 1, axis=1)) / hy
    else:
        v = v.copy()
        v[:, 1:-1] -= (q[:, 1:] - q[:, :-1]) / hy
    return u, v


def _laplacian_eigenvalues(domain: Domain, phase_y) -> np.ndarray:
    """5-point Laplacian eigenvalues on ``Diagonal``'s spectrum: the real-FFT
    half of the periodic x modes plus the y eigenvalues at ``phase_y``."""
    nx, ncy, hx, hy = _geometry(domain)
    lam_x = second_difference_eigenvalues(np.pi * np.arange(nx // 2 + 1) / nx, hx)
    return lam_x[:, None] + second_difference_eigenvalues(phase_y, hy)[None, :]


class _Projector(Diagonal):
    """Inverse Laplacian of the MAC projection (channel: homogeneous Neumann,
    DCT-II); the mean mode is zeroed, which is the compatibility gauge."""

    def __init__(self, domain: Domain):
        nx, ncy, hx, hy = _geometry(domain)
        periodic = domain.geometry == "periodic"
        lam = _laplacian_eigenvalues(domain, (1.0 if periodic else 0.5) * np.pi * np.arange(ncy) / ncy)
        super().__init__((nx, ncy), inverse_eigenvalues(lam), None if periodic else (1, "dct", 2))


def project(u, v, domain: Domain, projector: _Projector):
    q = projector(_divergence(u, v, domain))
    return _grad_correct(u, v, q, domain)


def _ghost_u(u, domain: Domain):
    """u with one ghost layer in y (no-slip: mirror-negated across the wall)."""
    if domain.geometry == "periodic":
        return np.concatenate([u[:, -1:], u, u[:, :1]], axis=1)
    return np.concatenate([-u[:, :1], u, -u[:, -1:]], axis=1)


def advection(u, v, domain: Domain):
    """Energy-conserving convective terms (du, dv) = -div(u w) on the MAC grid.

    Centered-average fluxes make the operator skew-symmetric on the
    discretely divergence-free subspace: the energy production telescopes to
    the interpolated cell divergence, which the projection keeps at zero, so
    the inviscid core neither creates nor destroys kinetic energy.
    """
    nx, ncy, hx, hy = _geometry(domain)
    per = domain.geometry == "periodic"

    ug = _ghost_u(u, domain)  # (nx, ncy+2)
    if per:
        vg = np.concatenate([v, v[:, :1]], axis=1)  # y-faces j = 0..ncy
    else:
        vg = v  # includes both wall faces (zero there)

    # the corner flux u v on the (nx, ncy+1) corner lattice serves both components
    v_corner = 0.5 * (vg + np.roll(vg, 1, axis=0))  # x-avg of v at corners
    u_corner = 0.5 * (ug[:, :-1] + ug[:, 1:])  # y-avg of u at corners
    fxy = v_corner * u_corner

    # --- u-component: control volumes around x-faces ------------------------
    u_c = 0.5 * (u + np.roll(u, -1, axis=0))  # at cell centers
    fxx = u_c * u_c
    du = -((fxx - np.roll(fxx, 1, axis=0)) / hx + (fxy[:, 1:] - fxy[:, :-1]) / hy)

    # --- v-component: control volumes around y-faces ------------------------
    if per:
        g = fxy[:, :-1]  # corner j sits below face j; face ncy wraps to face 0
        v_c = 0.5 * (v + np.roll(v, -1, axis=1))  # at cell centers
        fyy = v_c * v_c
        dv = -((np.roll(g, -1, axis=0) - g) / hx + (fyy - np.roll(fyy, 1, axis=1)) / hy)
    else:
        g = fxy[:, 1:-1]  # the interior corners, level with the interior faces
        v_c = 0.5 * (v[:, :-1] + v[:, 1:])  # at cell centers (nx, ncy)
        fyy = v_c * v_c
        dv = np.zeros_like(v)
        dv[:, 1:-1] = -((np.roll(g, -1, axis=0) - g) / hx + (fyy[:, 1:] - fyy[:, :-1]) / hy)

    return du, dv


# ---------------------------------------------------------------------------
# diffusion (Crank-Nicolson)
# ---------------------------------------------------------------------------


def _crank_nicolson(c: float, lam: np.ndarray) -> np.ndarray:
    """The factor (1 + c lam) / (1 - c lam) of a Crank-Nicolson step on an eigenmode lam of L."""
    return (1.0 + c * lam) / (1.0 - c * lam)


class _Diffuser:
    """The channel's Crank-Nicolson step (I - cL) w' = (I + cL) w with
    c = nu dt / 2: u sees no-slip ghosts (-u0, DST-II), v lives on the
    interior faces with the wall faces held at zero (DST-I)."""

    def __init__(self, domain: Domain, nu: float, dt: float):
        self.c = c = 0.5 * nu * dt
        nx, ncy, hx, hy = _geometry(domain)
        amp = _crank_nicolson(c, _laplacian_eigenvalues(domain, 0.5 * np.pi * np.arange(1, ncy + 1) / ncy))
        self.u = Diagonal((nx, ncy), amp, (1, "dst", 2))
        self.v = Diagonal((nx, ncy - 1), amp[:, :-1], (1, "dst", 1))  # v's phases are u's but the last

    def step(self, u, v):
        if self.c == 0.0:
            return u, v
        vn = np.zeros_like(v)
        vn[:, 1:-1] = self.v(v[:, 1:-1])
        return self.u(u), vn


# ---------------------------------------------------------------------------
# energy bookkeeping
# ---------------------------------------------------------------------------


def kinetic_energy(u, v, domain: Domain) -> float:
    nx, ncy, hx, hy = _geometry(domain)
    return 0.5 * hx * hy * (float(np.sum(u * u)) + float(np.sum(v * v)))


def gradient_norm_sq(u, v, domain: Domain) -> float:
    """||grad u||^2 in the channel's staggered inner product, exactly -<w, L w>
    (periodic in x; the no-slip ghosts and zero wall faces across y)."""
    nx, ncy, hx, hy = _geometry(domain)
    vol = hx * hy
    total = 0.0
    total += float(np.sum((np.roll(u, -1, axis=0) - u) ** 2)) / hx**2
    total += float(np.sum((np.roll(v, -1, axis=0) - v) ** 2)) / hx**2
    total += float(np.sum((u[:, 1:] - u[:, :-1]) ** 2)) / hy**2
    total += 2.0 * float(np.sum(u[:, 0] ** 2) + np.sum(u[:, -1] ** 2)) / hy**2
    total += float(np.sum((v[:, 1:] - v[:, :-1]) ** 2)) / hy**2
    return vol * total


# ---------------------------------------------------------------------------
# node <-> MAC resampling
# ---------------------------------------------------------------------------


def _spectral_shift(f: np.ndarray, axis: int, frac: float) -> np.ndarray:
    """Shift a periodic field by ``frac`` cells along ``axis`` (exact for
    band-limited fields; ``irfft`` reads the real part of the Nyquist mode,
    which keeps real Nyquist content cosine-symmetric)."""
    m = f.shape[axis]
    phase = np.exp(2j * np.pi * np.arange(m // 2 + 1) * frac / m)
    phase = phase.reshape([-1 if a == axis else 1 for a in range(f.ndim)])
    return np.fft.irfft(np.fft.rfft(f, axis=axis) * phase, n=m, axis=axis)


def nodes_to_mac(snap: Snapshot, domain: Domain) -> MacState:
    un, vn = snap.velocity[0], snap.velocity[1]
    if domain.geometry == "periodic":
        u = _spectral_shift(un, 1, 0.5)
        v = _spectral_shift(vn, 0, 0.5)
    else:
        wall_max = float(np.abs(snap.velocity[:, :, [0, -1]]).max())
        if wall_max > 1e-10:
            raise PreconditionError(f"channel runs require no-slip initial data; max |u| on walls = {wall_max:.3e}")
        u = 0.5 * (un[:, :-1] + un[:, 1:])
        v = 0.5 * (vn + np.roll(vn, -1, axis=0))
        v[:, 0] = v[:, -1] = 0.0
    return MacState(u, v, snap.time)


def mac_to_nodes(state: MacState, domain: Domain, tags: dict | None = None) -> Snapshot:
    grid = domain.grid
    u, v = state.u, state.v
    if domain.geometry == "periodic":
        un = _spectral_shift(u, 1, -0.5)
        vn = _spectral_shift(v, 0, -0.5)
    else:
        un = np.zeros(grid.dims)
        un[:, 1:-1] = 0.5 * (u[:, :-1] + u[:, 1:])
        vn = 0.5 * (v + np.roll(v, 1, axis=0))
        vn[:, 0] = vn[:, -1] = 0.0
    probe = Snapshot(grid, np.stack([un, vn]), None, state.t)
    div = float(np.abs(divergence(probe)).max())
    out_tags = dict(tags or {})
    out_tags["divergence_free"] = div * 1.5 + 1e-15
    out_tags["impermeable"] = domain.geometry == "channel"
    return Snapshot(grid, probe.velocity, None, state.t, out_tags)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DissipationSeries:
    times: np.ndarray
    kinetic_energy: np.ndarray
    cumulative_dissipation: np.ndarray
    leray_residual: np.ndarray

    def rows(self):
        return zip(*(getattr(self, f.name).tolist() for f in fields(self)))


def whole_steps(t: float, dt: float, name: str = "t_end") -> int:
    """The number of steps of size dt that end at t (at least one)."""
    n = int(round(t / dt))
    if n < 1 or abs(n * dt - t) > 1e-9 * max(1.0, t):
        raise PreconditionError(f"{name} must be an integer number of steps")
    return n


def _check_finite(u, v, cfg: SolverConfig, t: float) -> float:
    """max |u|, |v| of the state at time t; a non-finite one raises, naming the step it enters."""
    umax = float(np.max([np.abs(u).max(), np.abs(v).max()]))  # NaN propagates
    if not np.isfinite(umax):
        k = int(round(t / cfg.dt)) + 1
        raise PreconditionError(f"non-finite velocity entering step {k} (t={t:g}): max |u| = {umax}")
    return umax


def _check_cfl(u, v, cfg: SolverConfig, t: float):
    nx, ncy, hx, hy = _geometry(cfg.domain)
    hmin = min(hx, hy)
    umax = max(_check_finite(u, v, cfg, t), 1e-300)
    adv_dt = cfg.cfl_limit * hmin / umax
    dif_dt = 0.25 * hmin**2 / cfg.nu if cfg.nu > 0 else float("inf")
    admissible = min(adv_dt, dif_dt)
    if cfg.dt > admissible * (1.0 + 1e-9):
        raise CFLViolation(
            f"CFL violation at t={t:g}: dt={cfg.dt:g} exceeds admissible {admissible:g} "
            f"(advective {adv_dt:g}, diffusive {dif_dt:g})",
            admissible,
        )


def _stencil_finish(domain: Domain, nu: float, dt: float, projector: _Projector):
    """The channel's finish: project, Crank-Nicolson, project, each a solve of
    its own.  It returns (u, v, dissipation, loss of the second projection)."""
    diffuser = _Diffuser(domain, nu, dt)

    def finish(u, v):
        u2, v2 = project(u, v, domain, projector)
        u3, v3 = diffuser.step(u2, v2)
        diss = nu * dt * gradient_norm_sq(0.5 * (u2 + u3), 0.5 * (v2 + v3), domain) if nu > 0 else 0.0
        e_before = kinetic_energy(u3, v3, domain)
        u4, v4 = project(u3, v3, domain, projector)
        return u4, v4, diss, e_before - kinetic_energy(u4, v4, domain)

    return finish


def _spectral_finish(domain: Domain, nu: float, dt: float, projector: _Projector):
    """The periodic box's finish amp * P, in the projector's transform (x
    halved, y whole).  P subtracts g q^, q^ = (d . w^) / lam (the projector's
    mult), with the forward difference d = (e^{i theta} - 1) / h and the
    backward one g = -conj(d).  The dissipation nu dt <m, -L m> at the CN
    midpoint m^ = (1 + amp) / 2 * P w^ is read off by Parseval; the last
    projection removes nothing."""
    nx, ny, hx, hy = _geometry(domain)
    kx = np.arange(nx // 2 + 1)[:, None]
    theta_x, theta_y = 2.0 * np.pi * kx / nx, 2.0 * np.pi * np.arange(ny) / ny
    d = ((np.exp(1j * theta_x) - 1.0) / hx, (np.exp(1j * theta_y) - 1.0) / hy)
    g = [-np.conj(d_a) for d_a in d]
    lam = _laplacian_eigenvalues(domain, 0.5 * theta_y)
    amp = _crank_nicolson(0.5 * nu * dt, lam)
    # Parseval: sum |f|^2 over the cells is sum |f^|^2 over the whole spectrum / (nx ny); a half-
    # spectrum x mode stands for its mirror -kx too, except kx = 0 and an even nx's Nyquist mode
    weight = np.where((kx == 0) | (2 * kx == nx), 1.0, 2.0)
    dissipation = nu * dt * hx * hy / (nx * ny) * weight * -lam * (0.5 * (1.0 + amp)) ** 2

    def finish(u, v):
        wh = projector.forward(np.stack([u, v]))
        q = (d[0] * wh[0] + d[1] * wh[1]) * projector.mult
        wh[0] -= g[0] * q
        wh[1] -= g[1] * q
        diss = float(np.sum(dissipation * (wh.real**2 + wh.imag**2)))
        wh *= amp
        u, v = projector.inverse(wh)
        return u, v, diss, 0.0

    return finish


_FINISH = {"periodic": _spectral_finish, "channel": _stencil_finish}


def step(state: MacState, cfg: SolverConfig, projector=None, finish=None):
    """One time step; returns (state, dissipation_increment, projection_loss)."""
    dom = cfg.domain
    if projector is None:
        projector = _Projector(dom)
    if finish is None:
        finish = _FINISH[dom.geometry](dom, cfg.nu, cfg.dt, projector)
    u, v = state.u, state.v
    dt = cfg.dt
    _check_cfl(u, v, cfg, state.t)

    du1, dv1 = advection(u, v, dom)
    u1, v1 = project(u + dt * du1, v + dt * dv1, dom, projector)
    du2, dv2 = advection(u1, v1, dom)
    u3, v3, diss, proj_loss = finish(u + 0.5 * dt * (du1 + du2), v + 0.5 * dt * (dv1 + dv2))
    return MacState(u3, v3, state.t + dt), diss, proj_loss


def run(cfg: SolverConfig):
    """Integrate to t_end; returns (node Trajectory, DissipationSeries)."""
    dom = cfg.domain
    projector = _Projector(dom)
    finish = _FINISH[dom.geometry](dom, cfg.nu, cfg.dt, projector)
    state = nodes_to_mac(cfg.initial, dom)
    u, v = project(state.u, state.v, dom, projector)
    state = MacState(u, v, 0.0)

    n_steps = whole_steps(cfg.t_end, cfg.dt)
    e0 = kinetic_energy(state.u, state.v, dom)
    rows = [(0.0, e0, 0.0, 0.0)]  # t, E, cumulative dissipation, Leray residual
    tags = dict(cfg.initial.tags)
    tags["nu"] = cfg.nu
    snaps = [mac_to_nodes(state, dom, tags)]
    acc = 0.0
    for k in range(1, n_steps + 1):
        state, diss, _ = step(state, cfg, projector, finish)
        state = MacState(state.u, state.v, k * cfg.dt)
        acc += diss
        e = kinetic_energy(state.u, state.v, dom)
        rows.append((k * cfg.dt, e, acc, e + acc - e0))
        if k % cfg.snapshot_stride == 0:  # a final partial stride takes no snapshot
            snaps.append(mac_to_nodes(state, dom, tags))
    _check_finite(state.u, state.v, cfg, state.t)  # the last state enters no step, so _check_cfl never sees it
    series = DissipationSeries(*(np.array(col) for col in zip(*rows)))
    return Trajectory(tuple(snaps), cfg.dt * cfg.snapshot_stride), series


def truncate(traj: Trajectory, series: DissipationSeries, n_steps: int):
    """The (trajectory, series) of a run as if its t_end were ``n_steps * dt``.

    A step depends neither on t_end nor on the snapshots taken, so these are
    the floats a run stopped there returns: series entries 0..n_steps and the
    snapshots at stride multiples up to n_steps.
    """
    t = series.times[n_steps]
    head = DissipationSeries(*(getattr(series, f.name)[: n_steps + 1] for f in fields(series)))
    return Trajectory(tuple(s for s in traj.snapshots if s.time <= t), traj.dt), head


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DissipationSweepReport:
    rows: tuple  # (nu, value, resolved)
    verdict: str
    flagged: tuple

    def as_dict(self) -> dict:
        return {
            "rows": [list(r) for r in self.rows],
            "verdict": self.verdict,
            "flagged": [list(r) for r in self.flagged],
        }


def dissipation_report(swept, domain: Domain, dt: float, t_star: float) -> DissipationSweepReport:
    """nu -> nu * int_0^{t*} ||grad u||^2 over a decreasing viscosity ladder.

    ``swept`` holds (nu, DissipationSeries) pairs of runs with step dt that
    reach t_star; the value is read at step t_star / dt.  Channel entries
    whose boundary layer sqrt(nu t*) is thinner than 4 wall cells are
    flagged under-resolved and excluded from the trend verdict.
    """
    n_star = whole_steps(t_star, dt, "t_star")
    swept = sorted(((float(nu), series) for nu, series in swept), key=lambda p: -p[0])
    if not swept:
        raise PreconditionError("empty viscosity ladder")
    hy = domain.grid.spacing[1]
    rows = []
    flagged = []
    for nu, series in swept:
        if n_star >= len(series.times):
            raise PreconditionError(f"t_star={t_star:g} lies past the end of the nu={nu:g} run")
        value = float(series.cumulative_dissipation[n_star])
        resolved = True
        if domain.geometry == "channel" and np.sqrt(nu * t_star) < 4.0 * hy:
            resolved = False
        rows.append((nu, value, resolved))
        if not resolved:
            flagged.append((nu, value))
    live = [(n, v) for n, v, ok in rows if ok]
    if len(live) < 2:
        verdict = "inconclusive: fewer than 2 resolved entries"
    else:
        vals = [v for _, v in live]
        decreasing = all(vals[k + 1] < vals[k] for k in range(len(vals) - 1))
        if decreasing and vals[-1] <= 0.5 * vals[0]:
            verdict = "vanishing-dissipation trend consistent"
        else:
            verdict = "dissipation does not vanish along the ladder"
    return DissipationSweepReport(tuple(rows), verdict, tuple(flagged))


def dissipation_sweep(cfg: SolverConfig, nus, t_star: float) -> DissipationSweepReport:
    """Run ``cfg`` to t_star at every viscosity in ``nus`` and report the
    dissipation ladder (see ``dissipation_report``)."""
    swept = [(nu, run(replace(cfg, nu=nu, t_end=t_star))[1]) for nu in nus]
    return dissipation_report(swept, cfg.domain, cfg.dt, t_star)


@dataclass(frozen=True)
class ViscousFluxReport:
    etas: tuple
    nus: tuple
    flux: tuple  # flux[i][j] = Phi_{eta_i}(nu_j)
    extrapolated: tuple
    eta_trend_ok: bool
    verdict: str

    def as_dict(self) -> dict:
        return {
            "etas": list(self.etas),
            "nus": list(self.nus),
            "flux": [list(r) for r in self.flux],
            "extrapolated": list(self.extrapolated),
            "eta_trend_ok": self.eta_trend_ok,
            "verdict": self.verdict,
        }


def viscous_flux_criterion(runs, etas, domain: Domain) -> ViscousFluxReport:
    """Shell-flux matrix Phi_eta(nu) over solver runs, with the nu -> 0
    Richardson extrapolation (linear, two smallest viscosities) and the
    ladder-trend verdict on the extrapolated values.

    ``runs`` is a list of (nu, trajectory); pressures are re-solved from the
    node snapshots so diagnostics use the Bernoulli pressure of the momentum
    balance, not the projector's internal pseudo-pressure.
    """
    if domain.geometry != "channel":
        raise PreconditionError("viscous flux criterion requires channel geometry")
    if len(runs) < 2:
        raise PreconditionError("need at least 2 viscosities")
    etas = shell_ladder(etas, domain)
    runs = sorted(runs, key=lambda r: -r[0])
    nus = [nu for nu, _ in runs]

    with_p = []
    for nu, traj in runs:
        snaps = []
        for s in traj.snapshots:
            rep = solve_pressure_channel(s, domain)
            snaps.append(s.with_pressure(rep.pressure))
        with_p.append(Trajectory(tuple(snaps), traj.dt))

    flux = []
    for eta in etas:
        flux.append(tuple(shell_flux(tr, eta, domain) for tr in with_p))
    nu1, nu2 = nus[-2], nus[-1]  # two smallest
    extrap = []
    for row in flux:
        f1, f2 = row[-2], row[-1]
        f0 = (nu1 * f2 - nu2 * f1) / (nu1 - nu2)
        extrap.append(max(0.0, float(f0)))
    trend = flux_trend_ok(extrap)
    verdict = (
        "boundary flux vanishes along the shell ladder (nu -> 0 extrapolation)"
        if trend
        else "boundary flux does NOT vanish along the shell ladder"
    )
    return ViscousFluxReport(
        tuple(etas), tuple(nus), tuple(flux), tuple(extrap), bool(trend), verdict
    )
