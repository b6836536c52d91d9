"""Direct reference solves for the operators the package applies as one
diagonal spectral solve (``oflux.grids.Diagonal``), kept as test oracles.

Channel: the tridiagonal (Thomas) stencil assemblies the fast transforms
replace, an FFT along the periodic axes and then one tridiagonal system per
tangential mode.  Periodic box: the dense 5-point stencil solved with
``numpy.linalg`` (the projection, the Crank-Nicolson step and the gradient
norm -<w, L w> that the solver's spectral finish reproduces), and the
pressure solve on the complex FFT, one ``fftn`` per product u_i u_j, whose
real part the real transforms reproduce.

Also the solver's MAC stencils in their ``np.roll`` forms, which the
roll-free stencils reproduce bit for bit: the advection with the corner flux
u v formed twice, once per momentum component; the cell divergence; the
gradient correction; the channel's gradient norm; and the channel's
node <-> MAC resampling.
"""

import numpy as np


def thomas_solve(lower, diag, upper, rhs):
    """Vectorized Thomas algorithm along the last axis (no pivoting)."""
    n = rhs.shape[-1]
    c = np.zeros_like(rhs)
    d = np.zeros_like(rhs)
    c[..., 0] = upper[..., 0] / diag[..., 0]
    d[..., 0] = rhs[..., 0] / diag[..., 0]
    for j in range(1, n):
        denom = diag[..., j] - lower[..., j - 1] * c[..., j - 1]
        if j < n - 1:
            c[..., j] = upper[..., j] / denom
        d[..., j] = (rhs[..., j] - lower[..., j - 1] * d[..., j - 1]) / denom
    x = np.zeros_like(rhs)
    x[..., -1] = d[..., -1]
    for j in range(n - 2, -1, -1):
        x[..., j] = d[..., j] - c[..., j] * x[..., j + 1]
    return x


def lap_x(w, hx):
    """Periodic 3-point second difference along axis 0."""
    return (np.roll(w, -1, 0) - 2 * w + np.roll(w, 1, 0)) / hx**2


def lap_y_u(u, hy):
    """Wall-axis second difference of u on cells, no-slip ghost = -u0."""
    out = np.empty_like(u)
    out[:, 1:-1] = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / hy**2
    out[:, 0] = (u[:, 1] - 3.0 * u[:, 0]) / hy**2
    out[:, -1] = (u[:, -2] - 3.0 * u[:, -1]) / hy**2
    return out


def lap_y_v(v, hy):
    """Wall-axis second difference of v on faces; the wall rows stay 0."""
    out = np.zeros_like(v)
    out[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / hy**2
    return out


def _periodic_eigs(nx, hx):
    return -((2.0 * np.sin(np.pi * np.arange(nx) / nx) / hx) ** 2)


def _tridiag(shape, main, off):
    diag = np.empty(shape, dtype=complex)
    diag[...] = main
    lower = np.full(shape[:-1] + (shape[-1] - 1,), off, dtype=complex)
    return lower, diag, lower.copy()


def project_solve(rhs, hx, hy):
    """MAC projection Poisson solve on cells, homogeneous Neumann in y.

    The x-zero mode's right side loses its mean and its first cell is pinned
    to 0, so the result is fixed up to that gauge."""
    lam_x = _periodic_eigs(rhs.shape[0], hx)
    rhs_h = np.fft.fft(rhs, axis=0)
    rhs_h[0] -= rhs_h[0].mean()
    lower, diag, upper = _tridiag(rhs_h.shape, -2.0 / hy**2, 1.0 / hy**2)
    diag += lam_x[:, None]
    diag[:, 0] += 1.0 / hy**2  # Neumann closure: ghost = first cell
    diag[:, -1] += 1.0 / hy**2
    diag[0, 0] = 1.0
    upper[0, 0] = 0.0
    rhs_h[0, 0] = 0.0
    return np.fft.ifft(thomas_solve(lower, diag, upper, rhs_h), axis=0).real


def diffuse_u(u, c, hx, hy):
    """Crank-Nicolson (I - cL) u' = (I + cL) u with no-slip ghosts."""
    lam_x = _periodic_eigs(u.shape[0], hx)
    rhs = np.fft.fft(u + c * (lap_x(u, hx) + lap_y_u(u, hy)), axis=0)
    lower, diag, upper = _tridiag(rhs.shape, 1.0 + 2.0 * c / hy**2, -c / hy**2)
    diag -= c * lam_x[:, None]
    diag[:, 0] += c / hy**2
    diag[:, -1] += c / hy**2
    return np.fft.ifft(thomas_solve(lower, diag, upper, rhs), axis=0).real


def diffuse_v(v, c, hx, hy):
    """Crank-Nicolson step for v on the interior faces, walls held at 0."""
    lam_x = _periodic_eigs(v.shape[0], hx)
    rhs = np.fft.fft(v + c * (lap_x(v, hx) + lap_y_v(v, hy)), axis=0)[:, 1:-1]
    lower, diag, upper = _tridiag(rhs.shape, 1.0 + 2.0 * c / hy**2, -c / hy**2)
    diag -= c * lam_x[:, None]
    out = np.zeros_like(v)
    out[:, 1:-1] = np.fft.ifft(thomas_solve(lower, diag, upper, rhs), axis=0).real
    return out


def neumann_solve(source, g_lo, g_hi, grid):
    """Node Neumann solve of -Lap p = source, dp/dy = g_lo, g_hi on the walls
    (spectral tangential Laplacian), with interior-node mean zero."""
    w = grid.wall_axis
    ny = grid.dims[w]
    h = grid.spacing[w]
    per_axes = [a for a in range(grid.ndim) if a != w]

    f = np.moveaxis(source, w, -1)
    tangential = tuple(range(f.ndim - 1))
    rhs = -np.fft.fftn(f, axes=tangential)
    rhs[..., 0] += (2.0 / h) * np.fft.fftn(g_lo)
    rhs[..., -1] -= (2.0 / h) * np.fft.fftn(g_hi)
    kper = np.meshgrid(*[grid.wavenumbers(a) for a in per_axes], indexing="ij", sparse=True)
    k2 = np.broadcast_to(sum(k * k for k in kper), rhs.shape[:-1])

    lower, diag, upper = _tridiag(rhs.shape, -2.0 / h**2, 1.0 / h**2)
    diag -= k2[..., None]
    upper[..., 0] = 2.0 / h**2
    lower[..., -1] = 2.0 / h**2

    # zero tangential mode: project onto the solvable subspace, pin p_0
    zero = (0,) * (rhs.ndim - 1)
    wts = np.ones(ny)
    wts[0] = wts[-1] = 0.5
    rhs[zero] -= np.sum(wts * rhs[zero]) / np.sum(wts)
    rhs[zero + (0,)] = 0.0
    diag[zero + (0,)] = 1.0
    upper[zero + (0,)] = 0.0

    p = np.fft.ifftn(thomas_solve(lower, diag, upper, rhs), axes=tangential).real
    p = np.moveaxis(p, -1, w)
    interior = [slice(None)] * grid.ndim
    interior[w] = slice(1, -1)
    return p - p[tuple(interior)].mean()


def periodic_laplacian(nx, ny, hx, hy):
    """Dense periodic 5-point Laplacian on an nx x ny cell grid (C order)."""

    def second_difference(m, h):
        eye = np.eye(m)
        return (np.roll(eye, 1, axis=1) - 2.0 * eye + np.roll(eye, -1, axis=1)) / h**2

    return np.kron(second_difference(nx, hx), np.eye(ny)) + np.kron(np.eye(nx), second_difference(ny, hy))


def periodic_project_solve(rhs, hx, hy):
    """Mean-zero solution of L q = rhs - mean(rhs): the least-squares
    minimum-norm solution, since L's null space is the constants."""
    lap = periodic_laplacian(*rhs.shape, hx, hy)
    return np.linalg.lstsq(lap, rhs.ravel(), rcond=None)[0].reshape(rhs.shape)


def periodic_diffuse(w, c, hx, hy):
    """Crank-Nicolson (I - cL) w' = (I + cL) w on the periodic box."""
    cl = c * periodic_laplacian(*w.shape, hx, hy)
    eye = np.eye(w.size)
    return np.linalg.solve(eye - cl, (eye + cl) @ w.ravel()).reshape(w.shape)


def periodic_gradient_norm_sq(u, v, hx, hy):
    """-<w, L w> in the staggered inner product, w = (u, v) on the periodic box."""
    lap = periodic_laplacian(*u.shape, hx, hy)
    return -hx * hy * sum(float(w.ravel() @ (lap @ w.ravel())) for w in (u, v))


def periodic_pressure_solve(velocity, grid):
    """-Lap p = d_i d_j (u_i u_j) on the complex FFT, zero-mean gauge."""
    n = grid.ndim
    ks = np.meshgrid(*[grid.wavenumbers(a) for a in range(n)], indexing="ij", sparse=True)
    k2 = sum(k * k for k in ks)
    src = np.zeros(grid.dims, dtype=complex)
    for i in range(n):
        for j in range(i, n):
            term = (1j * ks[i]) * (1j * ks[j]) * np.fft.fftn(velocity[i] * velocity[j])
            src += term if i == j else 2.0 * term
    p_hat = np.where(k2 > 0, src / np.where(k2 > 0, k2, 1.0), 0.0)
    return np.fft.ifftn(p_hat).real


def advection(u, v, grid):
    """MAC convective terms (du, dv) = -div(u w), the corner flux computed
    separately for the u and the v equation."""
    hx, hy = grid.spacing
    if grid.fully_periodic:
        ug = np.concatenate([u[:, -1:], u, u[:, :1]], axis=1)
        vg = np.concatenate([v, v[:, :1]], axis=1)
    else:
        ug = np.concatenate([-u[:, :1], u, -u[:, -1:]], axis=1)
        vg = v

    u_c = 0.5 * (u + np.roll(u, -1, axis=0))
    fxx = u_c * u_c
    v_corner = 0.5 * (vg + np.roll(vg, 1, axis=0))
    u_corner = 0.5 * (ug[:, :-1] + ug[:, 1:])
    fxy = v_corner * u_corner
    du = -((fxx - np.roll(fxx, 1, axis=0)) / hx + (fxy[:, 1:] - fxy[:, :-1]) / hy)

    if grid.fully_periodic:
        u_cor = 0.5 * (np.roll(u, 1, axis=1) + u)
        v_cor = 0.5 * (np.roll(v, 1, axis=0) + v)
        g_cor = u_cor * v_cor
        v_c = 0.5 * (v + np.roll(v, -1, axis=1))
        fyy = v_c * v_c
        dv = -((np.roll(g_cor, -1, axis=0) - g_cor) / hx + (fyy - np.roll(fyy, 1, axis=1)) / hy)
    else:
        vi = v[:, 1:-1]
        u_cor = 0.5 * (u[:, :-1] + u[:, 1:])
        v_cor = 0.5 * (np.roll(vi, 1, axis=0) + vi)
        g_cor = u_cor * v_cor
        v_c = 0.5 * (v[:, :-1] + v[:, 1:])
        fyy = v_c * v_c
        dv = np.zeros_like(v)
        dv[:, 1:-1] = -((np.roll(g_cor, -1, axis=0) - g_cor) / hx + (fyy[:, 1:] - fyy[:, :-1]) / hy)
    return du, dv


def divergence(u, v, grid):
    """The MAC cell divergence (forward differences of u along x, v along y)."""
    hx, hy = grid.spacing
    dux = (np.roll(u, -1, axis=0) - u) / hx
    if grid.fully_periodic:
        dvy = (np.roll(v, -1, axis=1) - v) / hy
    else:
        dvy = (v[:, 1:] - v[:, :-1]) / hy
    return dux + dvy


def grad_correct(u, v, q, grid):
    """(u, v) minus the staggered (backward-difference) gradient of q; the
    channel's wall faces keep their values."""
    hx, hy = grid.spacing
    u = u - (q - np.roll(q, 1, axis=0)) / hx
    if grid.fully_periodic:
        v = v - (q - np.roll(q, 1, axis=1)) / hy
    else:
        v = v.copy()
        v[:, 1:-1] -= (q[:, 1:] - q[:, :-1]) / hy
    return u, v


def gradient_norm_sq(u, v, grid):
    """The channel's ||grad w||^2 in the staggered inner product, term by term."""
    hx, hy = grid.spacing
    total = 0.0
    total += float(np.sum((np.roll(u, -1, axis=0) - u) ** 2)) / hx**2
    total += float(np.sum((np.roll(v, -1, axis=0) - v) ** 2)) / hx**2
    total += float(np.sum((u[:, 1:] - u[:, :-1]) ** 2)) / hy**2
    total += 2.0 * float(np.sum(u[:, 0] ** 2) + np.sum(u[:, -1] ** 2)) / hy**2
    total += float(np.sum((v[:, 1:] - v[:, :-1]) ** 2)) / hy**2
    return hx * hy * total


def channel_to_mac(un, vn):
    """Channel nodes -> MAC faces: u averaged across y onto the cells, v across x
    onto the y-faces, with the wall faces zeroed."""
    u = 0.5 * (un[:, :-1] + un[:, 1:])
    v = 0.5 * (vn + np.roll(vn, -1, axis=0))
    v[:, 0] = v[:, -1] = 0.0
    return u, v


def channel_to_nodes(u, v):
    """MAC faces -> channel nodes, the inverse averages, walls held at zero."""
    un = np.zeros(v.shape)
    un[:, 1:-1] = 0.5 * (u[:, :-1] + u[:, 1:])
    vn = 0.5 * (v + np.roll(v, 1, axis=0))
    vn[:, 0] = vn[:, -1] = 0.0
    return un, vn
