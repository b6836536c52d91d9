"""Incompressible Navier-Stokes solver (2D periodic box / 2D channel).

MAC staggered layout internally; node-collocated snapshots on output.
The advection operator uses the skew-symmetric (half divergence + half
advective) form so the inviscid core conserves kinetic energy; diffusion is
Crank-Nicolson and the pressure projection enforces the MAC divergence to
round-off.  Both are diagonal in a fast-transform basis: the 2D FFT on the
box; in the channel an FFT along the walls and, across them, the DCT-II
(projection), DST-II (u) or DST-I (v) of the wall closure.

Energy audit: with the plain staggered inner product, the CN half-step
removes exactly nu*dt*||grad m||^2 (m the CN midpoint) per step and the
projection is orthogonal, so the recorded cumulative dissipation makes

    kinetic(t) + cumulative_dissipation(t) - kinetic(0) <= (RK2 drift)

a discrete Leray-Hopf inequality up to the (third-order, sign-indefinite
but tiny) time-integration drift of the advection stages.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.fft as sfft

from .boundary import flux_trend_ok, shell_flux
from .errors import PreconditionError
from .grids import Domain, Grid, Snapshot, Trajectory, divergence, second_difference_eigenvalues
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
    grid = domain.grid
    nx = grid.dims[0]
    hx = grid.spacing[0]
    hy = grid.spacing[1]
    if domain.geometry == "periodic":
        ncy = grid.dims[1]
        nvy = ncy  # v faces wrap
    else:
        ncy = grid.dims[1] - 1
        nvy = grid.dims[1]  # includes both wall faces
    return nx, ncy, nvy, hx, hy


# ---------------------------------------------------------------------------
# discrete operators
# ---------------------------------------------------------------------------


def _divergence(u, v, domain: Domain):
    nx, ncy, nvy, hx, hy = _geometry(domain)
    dux = (np.roll(u, -1, axis=0) - u) / hx
    if domain.geometry == "periodic":
        dvy = (np.roll(v, -1, axis=1) - v) / hy
    else:
        dvy = (v[:, 1:] - v[:, :-1]) / hy
    return dux + dvy


def _grad_correct(u, v, q, domain: Domain):
    """Subtract the staggered gradient of q from (u, v)."""
    nx, ncy, nvy, hx, hy = _geometry(domain)
    u = u - (q - np.roll(q, 1, axis=0)) / hx
    if domain.geometry == "periodic":
        v = v - (q - np.roll(q, 1, axis=1)) / hy
    else:
        v = v.copy()
        v[:, 1:-1] -= (q[:, 1:] - q[:, :-1]) / hy
    return u, v


class _Diagonal:
    """w -> T^-1 (mult * T w) for a transform T that diagonalizes a MAC
    operator: the 2D FFT on the box; in the channel the real FFT in x after
    the real-to-real transform ``r2r = (forward, inverse, type)`` in y."""

    def __init__(self, mult, r2r=None):
        self.mult = mult
        self.r2r = r2r

    def __call__(self, w):
        if self.r2r is None:
            return np.fft.ifft2(np.fft.fft2(w) * self.mult).real
        fwd, inv, kind = self.r2r
        wh = sfft.rfft(fwd(w, type=kind, axis=1), axis=0) * self.mult
        return inv(sfft.irfft(wh, n=w.shape[0], axis=0), type=kind, axis=1)


def _laplacian_eigenvalues(domain: Domain, phase_y) -> np.ndarray:
    """5-point Laplacian eigenvalues: periodic x modes (the real-FFT half in
    the channel) plus the y eigenvalues at ``phase_y``."""
    nx, ncy, nvy, hx, hy = _geometry(domain)
    lam_x = second_difference_eigenvalues(np.pi * np.arange(nx) / nx, hx)
    if domain.geometry == "channel":
        lam_x = lam_x[: nx // 2 + 1]
    return lam_x[:, None] + second_difference_eigenvalues(phase_y, hy)[None, :]


class _Projector(_Diagonal):
    """Inverse Laplacian of the MAC projection (channel: homogeneous Neumann,
    DCT-II); the mean mode is zeroed, which is the compatibility gauge."""

    def __init__(self, domain: Domain):
        nx, ncy, nvy, hx, hy = _geometry(domain)
        if domain.geometry == "periodic":
            lam = _laplacian_eigenvalues(domain, np.pi * np.arange(ncy) / ncy)
            r2r = None
        else:
            lam = _laplacian_eigenvalues(domain, 0.5 * np.pi * np.arange(ncy) / ncy)
            r2r = (sfft.dct, sfft.idct, 2)
        lam[0, 0] = 1.0
        inv_lam = 1.0 / lam
        inv_lam[0, 0] = 0.0
        super().__init__(inv_lam, r2r)


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
    nx, ncy, nvy, hx, hy = _geometry(domain)
    per = domain.geometry == "periodic"

    ug = _ghost_u(u, domain)  # (nx, ncy+2)
    if per:
        vg = np.concatenate([v, v[:, :1]], axis=1)  # y-faces j = 0..ncy
    else:
        vg = v  # includes both wall faces (zero there)

    # --- u-component: control volumes around x-faces ------------------------
    u_c = 0.5 * (u + np.roll(u, -1, axis=0))  # at cell centers
    fxx = u_c * u_c
    v_corner = 0.5 * (vg + np.roll(vg, 1, axis=0))  # x-avg of v at corners
    u_corner = 0.5 * (ug[:, :-1] + ug[:, 1:])  # y-avg of u at corners (nx, ncy+1)
    fxy = v_corner * u_corner
    du = -((fxx - np.roll(fxx, 1, axis=0)) / hx + (fxy[:, 1:] - fxy[:, :-1]) / hy)

    # --- v-component: control volumes around y-faces ------------------------
    if per:
        u_cor = 0.5 * (np.roll(u, 1, axis=1) + u)  # y-avg of u at corners
        v_cor = 0.5 * (np.roll(v, 1, axis=0) + v)  # x-avg of v at corners
        g_cor = u_cor * v_cor
        v_c = 0.5 * (v + np.roll(v, -1, axis=1))  # at cell centers
        fyy = v_c * v_c
        dv = -(
            (np.roll(g_cor, -1, axis=0) - g_cor) / hx
            + (fyy - np.roll(fyy, 1, axis=1)) / hy
        )
    else:
        vi = v[:, 1:-1]
        u_cor = 0.5 * (u[:, :-1] + u[:, 1:])  # at interior corners (nx, ncy-1)
        v_cor = 0.5 * (np.roll(vi, 1, axis=0) + vi)
        g_cor = u_cor * v_cor
        v_c = 0.5 * (v[:, :-1] + v[:, 1:])  # at cell centers (nx, ncy)
        fyy = v_c * v_c
        dv = np.zeros_like(v)
        dv[:, 1:-1] = -(
            (np.roll(g_cor, -1, axis=0) - g_cor) / hx + (fyy[:, 1:] - fyy[:, :-1]) / hy
        )

    return du, dv



# ---------------------------------------------------------------------------
# diffusion (Crank-Nicolson)
# ---------------------------------------------------------------------------


class _Diffuser:
    """Crank-Nicolson step (I - cL) w' = (I + cL) w with c = nu dt / 2, i.e.
    the factor (1 + c lam) / (1 - c lam) on each eigenmode of L.  Channel:
    u sees no-slip ghosts (-u0, DST-II), v lives on the interior faces with
    the wall faces held at zero (DST-I)."""

    def __init__(self, domain: Domain, nu: float, dt: float):
        self.domain = domain
        self.c = c = 0.5 * nu * dt
        nx, ncy, nvy, hx, hy = _geometry(domain)

        def amp(lam):
            return (1.0 + c * lam) / (1.0 - c * lam)

        if domain.geometry == "periodic":
            self.u = self.v = _Diagonal(amp(_laplacian_eigenvalues(domain, np.pi * np.arange(ncy) / ncy)))
        else:
            phase = 0.5 * np.pi * np.arange(1, ncy + 1) / ncy
            self.u = _Diagonal(amp(_laplacian_eigenvalues(domain, phase)), (sfft.dst, sfft.idst, 2))
            self.v = _Diagonal(amp(_laplacian_eigenvalues(domain, phase[:-1])), (sfft.dst, sfft.idst, 1))

    def step(self, u, v):
        if self.c == 0.0:
            return u, v
        if self.domain.geometry == "periodic":
            return self.u(u), self.v(v)
        vn = np.zeros_like(v)
        vn[:, 1:-1] = self.v(v[:, 1:-1])
        return self.u(u), vn


# ---------------------------------------------------------------------------
# energy bookkeeping
# ---------------------------------------------------------------------------


def kinetic_energy(u, v, domain: Domain) -> float:
    nx, ncy, nvy, hx, hy = _geometry(domain)
    return 0.5 * hx * hy * (float(np.sum(u * u)) + float(np.sum(v * v)))


def gradient_norm_sq(u, v, domain: Domain) -> float:
    """||grad u||^2 in the staggered inner product, exactly -<w, L w>."""
    nx, ncy, nvy, hx, hy = _geometry(domain)
    vol = hx * hy
    total = 0.0
    # x-differences (periodic in x always)
    total += float(np.sum((np.roll(u, -1, axis=0) - u) ** 2)) / hx**2
    total += float(np.sum((np.roll(v, -1, axis=0) - v) ** 2)) / hx**2
    if domain.geometry == "periodic":
        total += float(np.sum((np.roll(u, -1, axis=1) - u) ** 2)) / hy**2
        total += float(np.sum((np.roll(v, -1, axis=1) - v) ** 2)) / hy**2
    else:
        total += float(np.sum((u[:, 1:] - u[:, :-1]) ** 2)) / hy**2
        total += 2.0 * float(np.sum(u[:, 0] ** 2) + np.sum(u[:, -1] ** 2)) / hy**2
        total += float(np.sum((v[:, 1:] - v[:, :-1]) ** 2)) / hy**2
    return vol * total


# ---------------------------------------------------------------------------
# node <-> MAC resampling
# ---------------------------------------------------------------------------


def _spectral_shift(f: np.ndarray, axis: int, frac: float, grid: Grid) -> np.ndarray:
    """Shift a periodic field by ``frac`` cells along ``axis`` (exact for
    band-limited fields; real Nyquist content is kept cosine-symmetric)."""
    m = f.shape[axis]
    k = np.fft.fftfreq(m, d=1.0 / m)
    phase = np.exp(2j * np.pi * k * frac / m)
    if m % 2 == 0:
        phase[m // 2] = np.cos(2.0 * np.pi * k[m // 2] * frac / m)
    shape = [1] * f.ndim
    shape[axis] = m
    return np.fft.ifft(np.fft.fft(f, axis=axis) * phase.reshape(shape), axis=axis).real


def nodes_to_mac(snap: Snapshot, domain: Domain) -> MacState:
    grid = snap.grid
    un, vn = snap.velocity[0], snap.velocity[1]
    if domain.geometry == "periodic":
        u = _spectral_shift(un, 1, 0.5, grid)
        v = _spectral_shift(vn, 0, 0.5, grid)
    else:
        wall_max = max(
            float(np.abs(snap.velocity[:, :, 0]).max()),
            float(np.abs(snap.velocity[:, :, -1]).max()),
        )
        if wall_max > 1e-10:
            raise PreconditionError(
                f"channel runs require no-slip initial data; max |u| on walls = {wall_max:.3e}"
            )
        u = 0.5 * (un[:, :-1] + un[:, 1:])
        v = 0.5 * (vn + np.roll(vn, -1, axis=0))
        v[:, 0] = 0.0
        v[:, -1] = 0.0
    return MacState(u, v, snap.time)


def mac_to_nodes(state: MacState, domain: Domain, tags: dict | None = None) -> Snapshot:
    grid = domain.grid
    u, v = state.u, state.v
    if domain.geometry == "periodic":
        un = _spectral_shift(u, 1, -0.5, grid)
        vn = _spectral_shift(v, 0, -0.5, grid)
    else:
        ny = grid.dims[1]
        un = np.zeros(grid.dims)
        un[:, 1:-1] = 0.5 * (u[:, :-1] + u[:, 1:])
        vn = 0.5 * (v + np.roll(v, 1, axis=0))
        vn[:, 0] = 0.0
        vn[:, -1] = 0.0
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
        for k in range(len(self.times)):
            yield (
                float(self.times[k]),
                float(self.kinetic_energy[k]),
                float(self.cumulative_dissipation[k]),
                float(self.leray_residual[k]),
            )


def whole_steps(t: float, dt: float, name: str = "t_end") -> int:
    """The number of steps of size dt that end at t (at least one)."""
    n = int(round(t / dt))
    if n < 1 or abs(n * dt - t) > 1e-9 * max(1.0, t):
        raise PreconditionError(f"{name} must be an integer number of steps")
    return n


def _check_cfl(u, v, cfg: SolverConfig, t: float):
    nx, ncy, nvy, hx, hy = _geometry(cfg.domain)
    hmin = min(hx, hy)
    umax = float(np.max([np.abs(u).max(), np.abs(v).max()]))  # NaN propagates
    if not np.isfinite(umax):
        k = int(round(t / cfg.dt)) + 1
        raise PreconditionError(f"non-finite velocity entering step {k} (t={t:g}): max |u| = {umax}")
    umax = max(umax, 1e-300)
    adv_dt = cfg.cfl_limit * hmin / umax
    dif_dt = 0.25 * hmin**2 / cfg.nu if cfg.nu > 0 else float("inf")
    admissible = min(adv_dt, dif_dt)
    if cfg.dt > admissible * (1.0 + 1e-9):
        raise CFLViolation(
            f"CFL violation at t={t:g}: dt={cfg.dt:g} exceeds admissible {admissible:g} "
            f"(advective {adv_dt:g}, diffusive {dif_dt:g})",
            admissible,
        )


def step(state: MacState, cfg: SolverConfig, projector=None, diffuser=None):
    """One time step; returns (state, dissipation_increment, projection_loss)."""
    if projector is None:
        projector = _Projector(cfg.domain)
    if diffuser is None:
        diffuser = _Diffuser(cfg.domain, cfg.nu, cfg.dt)
    u, v = state.u, state.v
    dom = cfg.domain
    dt = cfg.dt
    _check_cfl(u, v, cfg, state.t)

    du1, dv1 = advection(u, v, dom)
    u1, v1 = project(u + dt * du1, v + dt * dv1, dom, projector)
    du2, dv2 = advection(u1, v1, dom)
    u2, v2 = project(u + 0.5 * dt * (du1 + du2), v + 0.5 * dt * (dv1 + dv2), dom, projector)

    if cfg.nu > 0:
        u3, v3 = diffuser.step(u2, v2)
        mu, mv = 0.5 * (u2 + u3), 0.5 * (v2 + v3)
        diss = cfg.nu * dt * gradient_norm_sq(mu, mv, dom)
    else:
        u3, v3 = u2, v2
        diss = 0.0
    e_before = kinetic_energy(u3, v3, dom)
    u4, v4 = project(u3, v3, dom, projector)
    proj_loss = e_before - kinetic_energy(u4, v4, dom)
    return MacState(u4, v4, state.t + dt), diss, proj_loss


def run(cfg: SolverConfig):
    """Integrate to t_end; returns (node Trajectory, DissipationSeries)."""
    dom = cfg.domain
    projector = _Projector(dom)
    diffuser = _Diffuser(dom, cfg.nu, cfg.dt)
    state = nodes_to_mac(cfg.initial, dom)
    u, v = project(state.u, state.v, dom, projector)
    state = MacState(u, v, 0.0)

    n_steps = whole_steps(cfg.t_end, cfg.dt)
    times = [0.0]
    e0 = kinetic_energy(state.u, state.v, dom)
    energies = [e0]
    cum = [0.0]
    leray = [0.0]
    tags = dict(cfg.initial.tags)
    tags["nu"] = cfg.nu
    snaps = [mac_to_nodes(state, dom, tags)]
    snap_times = [0.0]
    acc = 0.0
    for k in range(1, n_steps + 1):
        state, diss, _ = step(state, cfg, projector, diffuser)
        state = MacState(state.u, state.v, k * cfg.dt)
        acc += diss
        e = kinetic_energy(state.u, state.v, dom)
        times.append(k * cfg.dt)
        energies.append(e)
        cum.append(acc)
        leray.append(e + acc - e0)
        if k % cfg.snapshot_stride == 0 or k == n_steps:
            snaps.append(mac_to_nodes(state, dom, tags))
            snap_times.append(k * cfg.dt)
    series = DissipationSeries(
        np.array(times), np.array(energies), np.array(cum), np.array(leray)
    )
    stride_dt = cfg.dt * cfg.snapshot_stride
    uniform = all(
        abs((snap_times[i + 1] - snap_times[i]) - stride_dt) < 1e-9
        for i in range(len(snap_times) - 1)
    )
    if not uniform:  # final partial stride: drop the duplicate tail snapshot
        snaps = snaps[:-1]
    traj = Trajectory(tuple(snaps), stride_dt)
    return traj, series


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
    etas = sorted((float(e) for e in etas), reverse=True)
    if len(etas) < 3:
        raise PreconditionError("need at least 3 shells")
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
