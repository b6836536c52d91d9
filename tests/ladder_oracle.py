"""Per-rung references for the epsilon-ladders.

The package transforms each snapshot once and applies every rung as one
kernel multiply.  These references redo everything on every rung instead:
each field is mollified on its own with ``mollify_field`` (u twice, once for
the stress and once for the contraction), and the weak identity rebuilds the
products and the Euler residual for every epsilon.  They share only
``mollify_field``, ``deriv`` and the quadrature with the package.

``weak_identity_all_slices`` is the transform-once identity as it was before
it skipped the times where chi and chi' vanish: every retained time gets its
full stack and every sum, in the package's order of operations, so the
package must match it bitwise.  It checks which times are summed, not the
derivative, so it takes its gradients (E's and grad phi) by the package's
stack-gradient route, ``partials``, and inverse-transforms each stack whole.
"""

import numpy as np

from oflux.commutator import contraction_grad, quadratic_products, stress_from
from oflux.grids import deriv, discretization_budget, integrate, partials, trapezoid_time_weights
from oflux.mollify import field_spectrum, make_mollifier, mollify_field, mollify_spectrum, time_kernel, time_mollify


def _products(vel):
    n = len(vel)
    return {(i, j): vel[i] * vel[j] for i in range(n) for j in range(i, n)}


def _row(i, j, n):
    """The row of the pair (i, j) or (j, i) among the pairs i <= j, row-major."""
    i, j = min(i, j), max(i, j)
    return i * n - i * (i - 1) // 2 + j - i


def _stress(products, ue, mol, grid, region):
    """(u_i u_j)^eps - u^eps_i u^eps_j, each product mollified on its own, in
    the order of ``products``: the pairs i <= j, row-major."""
    return np.stack([mollify_field(q, mol, grid, region) - ue[i] * ue[j] for (i, j), q in products.items()])


def scaling_probe_rungs(vel, epsilons, pv, grid, probe, region=None):
    """Per rung: (flux integral of |R : grad(phi u^eps)|, sup |R|, sup |grad(phi u^eps)|)."""
    out = []
    for e in sorted(epsilons, reverse=True):
        mol = make_mollifier(e, grid)
        stress = _stress(_products(vel), mollify_field(vel, mol, grid, region), mol, grid, region)
        ue = mollify_field(vel, mol, grid, region)
        contraction = np.zeros(grid.dims)
        grad_sq = np.zeros(grid.dims)
        for j in range(grid.ndim):
            pj = pv * ue[j]
            for i in range(grid.ndim):
                g = deriv(pj, i, grid)
                contraction += np.abs(stress[_row(i, j, grid.ndim)] * g)
                grad_sq += g * g
        out.append((
            float(np.sum(contraction * grid.quad_weights())),
            float(np.abs(stress[:, probe]).max()),
            float(np.sqrt(grad_sq[probe].max())),
        ))
    return out


def _time_derivatives(traj):
    vels = [s.velocity for s in traj.snapshots]
    nt = len(traj)
    out = []
    for k in range(nt):
        if nt == 1:
            out.append(np.zeros_like(vels[0]))
        elif k == 0:
            out.append((vels[1] - vels[0]) / traj.dt)
        elif k == nt - 1:
            out.append((vels[-1] - vels[-2]) / traj.dt)
        else:
            out.append((vels[k + 1] - vels[k - 1]) / (2.0 * traj.dt))
    return out


def _euler_residuals(traj):
    """E_j = d_t u_j + sum_i d_i(u_i u_j) + d_j p, one ``deriv`` per term."""
    grid = traj.grid
    out = []
    for s, e in zip(traj.snapshots, _time_derivatives(traj)):
        for j in range(grid.ndim):
            for i in range(grid.ndim):
                e[j] += deriv(s.velocity[i] * s.velocity[j], i, grid)
            e[j] += deriv(s.pressure, j, grid)
        out.append(e)
    return out


def _euler_residuals_by_partials(traj):
    """The same E, each term from ``partials``, summed in the same order."""
    grid = traj.grid
    out = []
    for s, e in zip(traj.snapshots, _time_derivatives(traj)):
        products = {(i, j): s.velocity[i] * s.velocity[j] for i in range(grid.ndim) for j in range(grid.ndim)}
        grads = {key: dict(partials(q, grid)) for key, q in products.items()}
        grad_p = dict(partials(s.pressure, grid))
        for j in range(grid.ndim):
            for i in range(grid.ndim):
                e[j] += grads[i, j][i]
            e[j] += grad_p[j]
        out.append(e)
    return out


def weak_identity_rung(traj, test, epsilon, chain, kappa=None):
    """(lhs, rhs, euler_term) of the weak identity at one epsilon, from scratch."""
    grid = traj.grid
    n = grid.ndim
    mol = make_mollifier(epsilon, grid)
    vels = [s.velocity for s in traj.snapshots]
    prs = [s.pressure for s in traj.snapshots]
    euler = _euler_residuals(traj)
    prods = [_products(v) for v in vels]
    idx = list(range(len(traj)))
    if kappa is not None and len(traj) > 1:
        offs, w = time_kernel(kappa, traj.dt)
        reach = int(offs.max())
        idx = idx[reach:len(traj) - reach]

        def tconv(arrays):
            return [sum(wm * traj.dt * arrays[i - m] for m, wm in zip(offs, w)) for i in idx]

        vels, prs, euler = tconv(vels), tconv(prs), tconv(euler)
        smoothed = {key: tconv([q[key] for q in prods]) for key in prods[0]}
        prods = [{key: smoothed[key][k] for key in smoothed} for k in range(len(idx))]
    region = chain.q2
    times = np.array([traj.snapshots[i].time for i in idx])
    pv = test.phi.values
    gphi = [deriv(pv, a, grid) for a in range(n)]
    wts = trapezoid_time_weights(len(times), traj.dt)
    chi, dchi = test.chi(times), test.chi.deriv(times)
    lhs = euler_term = 0.0
    fluxes = []
    for k in range(len(times)):
        u = mollify_field(vels[k], mol, grid, region)
        p = mollify_field(prs[k], mol, grid, region)
        e = mollify_field(euler[k], mol, grid, region)
        stress = _stress(prods[k], u, mol, grid, region)
        ke = 0.5 * np.sum(u * u, axis=0)
        adv = sum(u[a] * gphi[a] for a in range(n))
        lhs += wts[k] * (dchi[k] * integrate(pv * ke, grid) + chi[k] * integrate((ke + p) * adv, grid))
        euler_term += wts[k] * chi[k] * integrate(np.sum(e * (pv * u), axis=0), grid)
        total = np.zeros(grid.dims)
        for j in range(n):
            for i in range(n):
                total += stress[_row(i, j, n)] * deriv(pv * u[j], i, grid)
        fluxes.append(integrate(total, grid))
    rhs = -float(np.sum(wts * chi * np.asarray(fluxes)))
    return float(lhs), rhs, float(euler_term)


def weak_identity_all_slices(traj, test, epsilons, chain, kappa=None):
    """(lhs, rhs, euler_term, budget) per epsilon, every retained time summed."""
    grid = traj.grid
    n = grid.ndim
    stacks = [np.concatenate([s.velocity, s.pressure[np.newaxis], quadratic_products(s.velocity), e])
              for s, e in zip(traj.snapshots, _euler_residuals_by_partials(traj))]
    smoothed = kappa is not None and len(traj) > 1
    idx = range(len(traj))
    if smoothed:
        idx, stacks = time_mollify(stacks, kappa, traj.dt)
    times = np.array([traj.snapshots[i].time for i in idx])
    spectra = [field_spectrum(f, grid) for f in stacks]
    pv = test.phi.values
    gphi = np.stack([g for _, g in partials(pv, grid)])
    wts = trapezoid_time_weights(len(times), traj.dt)
    chi, dchi = test.chi(times), test.chi.deriv(times)
    out = []
    for epsilon in epsilons:
        transfer = make_mollifier(epsilon, grid).transfer(grid, chain.q2)
        lhs = euler_term = umax = 0.0
        fluxes = []
        for k, spectrum in enumerate(spectra):
            smooth = mollify_spectrum(spectrum, transfer, grid)
            u, p, q, e = smooth[:n], smooth[n], smooth[n + 1:-n], smooth[-n:]
            ke = 0.5 * np.sum(u * u, axis=0)
            adv = sum(u[a] * gphi[a] for a in range(n))
            lhs += wts[k] * (dchi[k] * integrate(pv * ke, grid) + chi[k] * integrate((ke + p) * adv, grid))
            euler_term += wts[k] * chi[k] * integrate(np.sum(e * (pv * u), axis=0), grid)
            fluxes.append(contraction_grad(stress_from(q, u), u, pv, grid))
            umax = np.maximum(umax, np.abs(u).max())
        rhs = -float(np.sum(wts * chi * np.asarray(fluxes)))
        budget = discretization_budget(grid, traj.dt if smoothed else 0.0, umax)
        out.append((float(lhs), rhs, float(euler_term), float(budget)))
    return out
