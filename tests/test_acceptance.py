"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from oflux.boundary import conservation_verdict, global_balance, shell_flux
from oflux.cli import main as cli_main
from oflux.commutator import commutator_stress, scaling_probe
from oflux.energy_balance import ChiWindow, TestFunction, dr_convergence_sweep, weak_energy_identity
from oflux.grids import Snapshot, Trajectory, energy, make_grid, wall_distance, wall_normal_sign
from oflux.mollify import block_mask, cutoff_region, full_box_chain, make_mollifier
from oflux.pressure import solve_pressure_channel, solve_pressure_periodic
from oflux.solver import SolverConfig, dissipation_sweep, run
from oflux.synth import estimate_holder_exponent, fractional_field, shear_flow, taylor_green

from conftest import TWO_PI, channel_grid, steady_tg_trajectory, stream_channel_field
from mollify_oracle import commutator_via_increments

# every solver run executed by this suite registers its worst Leray residual
LERAY_LOG: list[float] = []


def _run_logged(cfg):
    traj, series = run(cfg)
    LERAY_LOG.append(float(series.leray_residual.max()))
    return traj, series


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1. commutator identity --------------------------------------------------


def test_criterion_01_commutator_identity():
    g = make_grid((128, 128), (TWO_PI, TWO_PI))
    h = g.max_spacing
    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):
        alpha = float(rng.uniform(0.25, 0.75))
        seed = int(rng.integers(0, 10_000))
        eps = float(rng.uniform(2.0, 12.0)) * h
        lo = float(rng.uniform(0.05, 0.3))
        hi = float(rng.uniform(0.6, 0.95))
        region = block_mask(g, lo, hi)
        f = fractional_field(alpha, None, seed, g)
        mol = make_mollifier(eps, g)
        a = commutator_stress(f, mol, region=region)
        b = commutator_via_increments(f, mol, region=region)
        diff = float(np.abs((a - b)[:, region]).max())
        worst = max(worst, diff)
    elapsed = time.time() - t0
    _report(1, worst <= 1e-12 and elapsed <= 30.0,
            f"20 randomized cases, max path difference {worst:.2e} (<= 1e-12), {elapsed:.1f}s (<= 30s)")


# -- 2. scaling exponents ----------------------------------------------------

LADDER_CELLS = (18, 15, 12, 10, 8, 6, 5, 4)


def _probe_phi(grid):
    return cutoff_region(grid, block_mask(grid, 0.3, 0.7), block_mask(grid, 0.1, 0.9))


def test_criterion_02_scaling_exponents(box256):
    t0 = time.time()
    h = box256.max_spacing
    ladder = [m * h for m in LADDER_CELLS]
    window = (min(ladder), 2.0 * max(ladder))
    phi = _probe_phi(box256)
    failures = []
    for alpha in (0.4, 0.6):
        for seed in (1, 2, 3):
            f = fractional_field(alpha, None, seed, box256)
            # the probe takes alpha from the exponent estimator, windowed
            # to the ladder's scale range
            ahat = estimate_holder_exponent(f, fit_window=window).exponent
            res = scaling_probe(f, ahat, ladder, phi=phi)
            for fit in res.fits:
                ok = fit.slope >= fit.predicted_slope - 0.15 and fit.r2 >= 0.9
                if not ok:
                    failures.append((alpha, seed, fit.quantity, round(fit.slope, 3), round(fit.r2, 3)))
    elapsed = time.time() - t0
    _report(2, not failures and elapsed <= 180.0,
            f"18 fits (2 alphas x 3 seeds x 3 laws) all within 0.15 of prediction with r2 >= 0.9, "
            f"{elapsed:.1f}s (<= 180s); failures: {failures}")


# -- 3. Onsager threshold behavior -------------------------------------------


def _frozen_with_pressure(grid, alpha, seed):
    f = fractional_field(alpha, None, seed, grid)
    p = solve_pressure_periodic(f)
    snaps = tuple(Snapshot(grid, f.velocity, p, 0.1 * i) for i in range(3))
    return Trajectory(snaps, 0.1)


def test_criterion_03_onsager_threshold(box256):
    h = box256.max_spacing
    ladder = [m * h for m in LADDER_CELLS]
    chain = full_box_chain(box256, eta=10.0)
    test = TestFunction(ChiWindow(0.0, 0.2), _probe_phi(box256))
    oks, details = [], []
    for seed in (1, 2, 3):
        traj = _frozen_with_pressure(box256, 0.6, seed)
        res = dr_convergence_sweep(traj, ladder, test, 0.6, chain)
        ok = res.verdict == "consistent with conservation" and res.fit.slope >= 0.65
        oks.append(ok)
        details.append(f"a=0.6 s={seed}: slope={res.fit.slope:.2f}")
    for seed in (1, 2):
        traj = _frozen_with_pressure(box256, 0.25, seed)
        res = dr_convergence_sweep(traj, ladder, test, 0.25, chain)
        oks.append(res.verdict.startswith("non-vanishing/inconclusive"))
        details.append(f"a=0.25 s={seed}: {res.verdict.split(':')[0]}")
    _report(3, all(oks), "; ".join(details))


# -- 4. pressure oracle -------------------------------------------------------


def test_criterion_04_pressure_oracle(box64):
    snap = taylor_green(box64)
    err = float(np.abs(solve_pressure_periodic(snap) - snap.pressure).max())

    errs = {}
    for n in (33, 65, 129):
        grid = channel_grid(n - 1, n)
        s = stream_channel_field(grid)
        exact = s.pressure - s.pressure[:, 1:-1].mean()
        errs[n] = float(np.abs(solve_pressure_channel(s) - exact).max())
    o1 = float(np.log2(errs[33] / errs[65]))
    o2 = float(np.log2(errs[65] / errs[129]))
    _report(4, err <= 1e-10 and o1 >= 1.7 and o2 >= 1.7,
            f"Taylor-Green max error {err:.2e} (<= 1e-10); channel MMS orders {o1:.2f}, {o2:.2f} (>= 1.7)")


# -- 5. exact steady Euler weak identity --------------------------------------


def test_criterion_05_steady_weak_identity():
    sym_phi = lambda g: cutoff_region(g, block_mask(g, 0.35, 0.65), block_mask(g, 0.2, 0.8))
    asym_phi = lambda g: cutoff_region(
        g,
        block_mask(g, (0.18, 0.40), (0.48, 0.72)),
        block_mask(g, (0.06, 0.28), (0.60, 0.86)),
    )
    chi = ChiWindow(0.0, 0.4)
    vals = {}
    for n in (64, 128):
        g = make_grid((n, n), (TWO_PI, TWO_PI))
        traj = steady_tg_trajectory(g)
        chain = full_box_chain(g, eta=10.0)
        vals[n] = weak_energy_identity(traj, TestFunction(chi, asym_phi(g)), 8 * g.max_spacing, chain)
    g = make_grid((128, 128), (TWO_PI, TWO_PI))
    traj = steady_tg_trajectory(g)
    chain = full_box_chain(g, eta=10.0)
    rep = weak_energy_identity(traj, TestFunction(chi, sym_phi(g)), 8 * g.max_spacing, chain)
    order = float(np.log2(abs(vals[64].lhs) / abs(vals[128].lhs)))
    ok = (
        abs(rep.lhs) <= 1e-6
        and abs(rep.residual) <= 1e-6
        and order >= 1.7
        and abs(vals[64].residual) <= 1e-6
        and abs(vals[128].residual) <= 1e-6
    )
    _report(5, ok,
            f"|lhs|={abs(rep.lhs):.2e}, |residual|={abs(rep.residual):.2e} (<= 1e-6 at 128^2); "
            f"lhs refinement order {order:.2f} (>= 1.7)")


# -- 6. shear-flow stationarity ----------------------------------------------


def test_criterion_06_shear_stationarity():
    g = make_grid((32, 32, 32), (TWO_PI, TWO_PI, TWO_PI))
    U = lambda s: np.sin(s)
    W = lambda a, b: np.cos(a) * (1.0 + 0.5 * np.sin(b))
    e0 = energy(shear_flow(U, W, 0.0, g))
    worst = 0.0
    for t in np.linspace(0.0, 9.0, 10):
        worst = max(worst, abs(energy(shear_flow(U, W, float(t), g)) - e0) / e0)
    _report(6, worst <= 1e-12, f"relative energy drift over 10 sample times {worst:.2e} (<= 1e-12)")


# -- 7. global balance and the leak flip --------------------------------------


def test_criterion_07_global_balance():
    grid = channel_grid(128, 129)
    snap = stream_channel_field(grid)
    traj = Trajectory(
        tuple(Snapshot(snap.grid, snap.velocity, snap.pressure, 0.1 * i) for i in range(3)), 0.1
    )
    h = grid.spacing[1]
    bal = global_balance(traj, 56 * h, 0.0, 0.2)

    _, y = grid.meshes()
    prof = np.sin(np.pi * y) ** 2
    d = np.broadcast_to(wall_distance(grid), grid.dims)
    sgn = wall_normal_sign(grid)
    leak = np.where(d < 0.3, 0.1 * sgn, 0.0)
    u2 = np.stack([np.broadcast_to(prof, grid.dims).copy(), leak])
    traj2 = Trajectory(
        tuple(Snapshot(grid, u2, np.ones(grid.dims), 0.1 * i) for i in range(3)), 0.1
    )
    v2 = conservation_verdict(traj2, [56 * h, 28 * h, 14 * h])
    flipped = "shell-flux" in v2.verdict and v2.verdict.startswith("hypotheses fail")
    _report(7, abs(bal.residual) <= 1e-6 and flipped,
            f"steady balance residual {abs(bal.residual):.2e} (<= 1e-6); "
            f"0.1 wall-normal leak -> {v2.verdict.split('(')[0].strip()}")


# -- 8. shell-flux decay --------------------------------------------------------


def test_criterion_08_shell_flux_decay():
    grid = channel_grid(128, 129, ly=1.0)
    h = grid.spacing[1]
    d = np.broadcast_to(wall_distance(grid), grid.dims)
    sgn = wall_normal_sign(grid)
    u = np.stack([np.zeros(grid.dims), d * sgn])  # u.n = d, Bernoulli = 1
    ke = 0.5 * np.sum(u**2, axis=0)
    snap = Snapshot(grid, u, 1.0 - ke, 0.0)
    etas = [56 * h, 28 * h, 14 * h]  # a 4x ladder
    vals = [shell_flux(snap, e) for e in etas]
    monotone = all(vals[i + 1] <= vals[i] * 1.10 for i in range(len(vals) - 1))
    quarter = vals[-1] <= 0.25 * vals[0]
    _report(8, monotone and quarter,
            f"Phi ladder {['%.3e' % v for v in vals]}: monotone within 10%={monotone}, "
            f"final/initial={vals[-1] / vals[0]:.3f} (<= 0.25)")


# -- 9. Leray-Hopf inequality and the viscous budget ---------------------------


def test_criterion_09_leray_hopf_budget():
    g = make_grid((64, 64), (TWO_PI, TWO_PI))
    cfg = SolverConfig(0.01, 0.005, 1.0, taylor_green(g, 0.0, 0.01), snapshot_stride=50)
    _, series = _run_logged(cfg)
    e0 = series.kinetic_energy[0]
    budget = e0 * (1.0 - np.exp(-4 * 0.01 * 1.0))
    rel = abs(series.cumulative_dissipation[-1] - budget) / budget
    _report(9, rel <= 0.01 and series.leray_residual.max() <= 1e-8,
            f"cumulative dissipation within {rel:.3%} of the analytic budget (<= 1%); "
            f"run leray residual max {series.leray_residual.max():.2e} (<= 1e-8)")


# -- 10. dissipation sweep ------------------------------------------------------


def test_criterion_10_dissipation_sweep():
    g = make_grid((128, 128), (TWO_PI, TWO_PI))
    cfg = SolverConfig(1e-2, 0.005, 0.5, taylor_green(g, 0.0, 1e-2), snapshot_stride=100)
    rep = dissipation_sweep(cfg, [1e-2, 3e-3, 1e-3], 0.5)
    vals = [r[1] for r in rep.rows]
    decreasing = all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))
    halved = vals[-1] <= 0.5 * vals[0]

    # channel entries with thin boundary layers are flagged, never asserted
    gridc = channel_grid(64, 65)
    x, y = gridc.meshes()
    prof = np.sin(np.pi * y) ** 2
    u0 = np.ascontiguousarray(np.broadcast_to(prof, gridc.dims) + 0.05 * np.sin(2 * x) * prof)
    init = Snapshot(gridc, np.stack([u0, np.zeros(gridc.dims)]))
    cfgc = SolverConfig(1e-2, 0.0025, 0.2, init, snapshot_stride=40)
    repc = dissipation_sweep(cfgc, [1e-2, 1e-4], 0.2)
    flags_ok = all(
        resolved == (np.sqrt(nu * 0.2) >= 4 * gridc.spacing[1])
        for nu, _, resolved in repc.rows
    ) and len(repc.flagged) >= 1
    _report(10, decreasing and halved and flags_ok,
            f"periodic sweep {['%.3e' % v for v in vals]} strictly decreasing, "
            f"final/initial={vals[-1] / vals[0]:.2f} (<= 0.5); channel flags honest={flags_ok}")


# -- leray residual across every suite run (second half of criterion 9) --------


def test_criterion_09b_leray_every_run():
    # channel run for good measure, then check the full log
    gridc = channel_grid(64, 65)
    _, y = gridc.meshes()
    prof = np.sin(np.pi * y) ** 2
    init = Snapshot(gridc, np.stack([np.broadcast_to(prof, gridc.dims).copy(), np.zeros(gridc.dims)]))
    _run_logged(SolverConfig(0.01, 0.0025, 0.25, init, snapshot_stride=25))

    g = make_grid((128, 128), (TWO_PI, TWO_PI))
    f = fractional_field(0.9, 4, 3, g)
    init2 = Snapshot(g, 0.25 * f.velocity)
    _run_logged(SolverConfig(0.0, 0.002, 0.5, init2, snapshot_stride=250))

    worst = max(LERAY_LOG)
    _report(9, worst <= 1e-8,
            f"leray_residual <= +1e-8 for every solver run in the suite (worst {worst:.2e}, {len(LERAY_LOG)} runs)")


# -- 11. determinism -------------------------------------------------------------


def _collect_bytes(directory):
    out = {}
    for p in sorted(Path(directory).rglob("*")):
        if p.is_file():
            out[str(p.relative_to(directory))] = p.read_bytes()
    return out


def test_criterion_11_determinism(tmp_path):
    checks = []

    def twice(label, args_fn):
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / f"{label}_{tag}"
            code = cli_main(args_fn(out))
            assert code in (0, 2), f"{label} exited {code}"
            outs.append(_collect_bytes(out))
        checks.append((label, outs[0] == outs[1]))

    twice("gen", lambda out: [
        "gen", "--kind", "fractional", "--alpha", "0.4", "--seed", "7",
        "--grid", "128x128", "--out", str(out),
    ])
    gen_dir = tmp_path / "gen_r1"
    twice("diagnose", lambda out: [
        "diagnose", "--in", str(gen_dir / "field.oflx"), "--out", str(out), "--seed", "0",
    ])
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "geometry": "periodic",
        "grid": "64x64",
        "initial": {"kind": "taylor-green", "nu": 0.01},
        "nus": [1e-2, 3e-3],
        "dt": 0.01,
        "t_end": 0.1,
        "t_star": 0.1,
        "snapshot_stride": 5,
    }))
    twice("sweep", lambda out: ["sweep", "--config", str(cfg), "--out", str(out)])
    ok = all(same for _, same in checks)
    _report(11, ok, "bit-identical outputs across reruns: " + ", ".join(f"{l}={s}" for l, s in checks))
