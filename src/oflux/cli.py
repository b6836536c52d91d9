"""Command-line surface: gen, diagnose, boundary, sweep, report.

Configuration comes from an optional JSON file (--config) with flag
overrides; unknown keys are rejected with their location.  Every command
writes a manifest (tool version, config hash, seeds) next to its outputs
and is byte-deterministic for a fixed config and seed.

Exit codes: 0 completed with positive verdicts, 2 completed with a negative
verdict, 3 hypothesis or precondition failure, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, PreconditionError, ToolkitError
from . import fieldio
from .grids import Domain, Grid, Snapshot, Trajectory, make_grid
from .mollify import block_mask, cutoff_region, full_box_chain, time_reach
from .synth import estimate_holder_exponent, fractional_field, holder_norm, shear_flow, taylor_green
from .pressure import solve_pressure_channel, solve_pressure_periodic
from .commutator import scaling_probe
from .energy_balance import ChiWindow, TestFunction, dr_convergence_sweep, dr_dissipation_field
from .boundary import conservation_verdict, global_balance, modulus_check, shell_ladder
from .solver import SolverConfig, dissipation_report, run, truncate, viscous_flux_criterion, whole_steps
from .reports import config_hash, write_csv, write_json, write_manifest

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_NEGATIVE = 2
EXIT_PRECONDITION = 3


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

_SCHEMAS = {
    "gen": {
        "kind": str,
        "grid": str,
        "extent": str,
        "alpha": float,
        "cutoff": int,
        "seed": int,
        "nu": float,
        "t": float,
        "u_amp": float,
        "w_amp": float,
        "out": str,
    },
    "diagnose": {
        "input": str,
        "out": str,
        "epsilons": list,
        "alpha": (str, float),
        "seed": int,
        "phi_inner": float,
        "phi_outer": float,
        "kappa": float,
    },
    "boundary": {
        "input": str,
        "out": str,
        "etas": list,
        "gamma": float,
        "beta": float,
        "energy_tol": float,
        "seed": int,
    },
    "sweep": {
        "out": str,
        "geometry": str,
        "grid": str,
        "extent": str,
        "initial": dict,
        "nus": list,
        "dt": float,
        "t_end": float,
        "t_star": float,
        "snapshot_stride": int,
        "cfl_limit": float,
        "etas": list,
        "seed": int,
    },
    "report": {"input": str},
}


def _read_object(path, error=PreconditionError) -> dict:
    """The JSON object stored in ``path``; raises ``error`` naming the file
    when it cannot be read, the JSON is invalid or its top level is not an
    object."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # missing, a directory, unreadable
        raise error(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise error(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise error(f"{path}: top level must be an object")
    return obj


def _load_config(command: str, path: str | None, overrides: dict) -> dict:
    cfg = _read_object(path, ConfigError) if path else {}
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    schema = _SCHEMAS[command]
    _check_types(cfg, schema, command)
    env_out = os.environ.get("OFLUX_OUTPUT_DIR")
    if env_out and "out" in schema and "out" not in cfg:
        cfg["out"] = env_out
    return cfg


def _check_types(cfg: dict, schema: dict, where: str) -> None:
    """Reject keys outside ``schema``, values of another type (integers
    widen to floats) and non-finite floats; errors name the config path
    ``where``."""
    for key, val in cfg.items():
        if key not in schema:
            raise ConfigError(f"unknown key at {where}.{key}")
        want = schema[key]
        kinds = want if isinstance(want, tuple) else (want,)
        if float in kinds and isinstance(val, int) and not isinstance(val, bool):
            try:
                cfg[key] = float(val)
            except OverflowError as exc:
                raise ConfigError(f"{where}.{key}: expected a finite number, got an integer "
                                  "too large for a float") from exc
        elif not isinstance(val, kinds):
            raise ConfigError(f"{where}.{key}: expected {want}, got {type(val).__name__}")
        elif isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"{where}.{key}: expected a finite number, got {val}")


def _seed(cfg: dict, where: str) -> int:
    """The request's seed; numpy's generators take none below 0."""
    seed = int(cfg.get("seed", 0))
    if seed < 0:
        raise ConfigError(f"{where}.seed: must be >= 0, got {seed}")
    return seed


def _parse_dims(text: str, name: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"{name}: expected like '256x256', got {text!r}") from exc
    return dims


def _parse_extents(text: str | None, ndim: int, name: str, default=2.0 * np.pi):
    if text is None:
        return (default,) * ndim
    parts = text.lower().split("x")
    if len(parts) != ndim:
        raise ConfigError(f"{name}: expected {ndim} extents")
    return tuple(_floats(parts, name))


def _floats(values, name) -> list[float]:
    try:
        out = [float(v) for v in values]
    except OverflowError as exc:
        raise ConfigError(f"{name}: expected finite numbers, got an integer too large for a float") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: expected numbers, got {values!r}") from exc
    if not all(math.isfinite(v) for v in out):
        raise ConfigError(f"{name}: expected finite numbers, got {values!r}")
    return out


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _build_generated(cfg: dict, where: str = "gen") -> Snapshot:
    """The generator's snapshot; ``where`` is the config path named in errors."""
    kind = cfg.get("kind")
    if kind is None:
        raise ConfigError(f"{where}.kind is required")
    seed = _seed(cfg, where)
    if kind == "fractional":
        dims = _parse_dims(cfg.get("grid", "256x256"), f"{where}.grid")
        extents = _parse_extents(cfg.get("extent"), len(dims), f"{where}.extent")
        grid = make_grid(dims, extents)
        alpha = cfg.get("alpha")
        if alpha is None:
            raise ConfigError(f"{where}.alpha is required for fractional fields")
        if not (0.0 < alpha < 1.0):
            raise ConfigError(f"{where}.alpha: must lie in (0,1), got {alpha}")
        return fractional_field(alpha, cfg.get("cutoff"), seed, grid)
    if kind == "taylor-green":
        dims = _parse_dims(cfg.get("grid", "64x64"), f"{where}.grid")
        grid = make_grid(dims, (2.0 * np.pi,) * len(dims))
        nu = float(cfg.get("nu", 0.0))
        if not nu >= 0.0:  # a negative viscosity gives a field that grows in time
            raise ConfigError(f"{where}.nu: must be >= 0, got {nu}")
        return taylor_green(grid, float(cfg.get("t", 0.0)), nu)
    if kind == "shear":
        dims = _parse_dims(cfg.get("grid", "32x32x32"), f"{where}.grid")
        extents = _parse_extents(cfg.get("extent"), len(dims), f"{where}.extent")
        grid = make_grid(dims, extents)
        ua = float(cfg.get("u_amp", 1.0))
        wa = float(cfg.get("w_amp", 1.0))
        U = lambda s: ua * np.sin(s)
        W = lambda a, b: wa * np.cos(a) * (1.0 + 0.5 * np.sin(b))
        return shear_flow(U, W, float(cfg.get("t", 0.0)), grid)
    raise ConfigError(f"{where}.kind: unknown generator {kind!r}")


def cmd_gen(cfg: dict) -> int:
    out = cfg.get("out")
    if not out:
        raise ConfigError("gen.out is required (or set OFLUX_OUTPUT_DIR)")
    snap = _build_generated(cfg)
    path = Path(out)
    if path.suffix != ".oflx":
        path = path / "field.oflx"
    fieldio.write_snapshot(path, snap)
    write_manifest(path.parent, cfg, seeds=[_seed(cfg, "gen")])
    print(f"gen: wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def _default_ladder(grid: Grid) -> list[float]:
    h = grid.max_spacing
    return [m * h for m in (18, 15, 12, 10, 8, 6, 5, 4)]


def _diag_phi(grid: Grid, inner_frac: float, outer_frac: float):
    lo_i = 0.5 - inner_frac / 2.0
    lo_o = 0.5 - outer_frac / 2.0
    return cutoff_region(grid, block_mask(grid, lo_i, 1.0 - lo_i), block_mask(grid, lo_o, 1.0 - lo_o))


def cmd_diagnose(cfg: dict) -> int:
    if "input" not in cfg:
        raise ConfigError("diagnose.input is required")
    out = Path(cfg.get("out") or ".")
    seed = _seed(cfg, "diagnose")
    if "epsilons" in cfg and not cfg["epsilons"]:
        raise ConfigError("diagnose.epsilons: empty ladder")
    phi_inner, phi_outer = float(cfg.get("phi_inner", 0.4)), float(cfg.get("phi_outer", 0.8))
    if not 0.0 < phi_inner < phi_outer <= 1.0:
        raise ConfigError("diagnose.phi_inner, diagnose.phi_outer: need 0 < phi_inner < phi_outer <= 1, "
                          f"got {phi_inner} and {phi_outer}")
    data = fieldio.load_input(cfg["input"])
    kappa = cfg.get("kappa")
    if kappa is not None and isinstance(data, Trajectory) and len(data) >= 3:
        time_reach(kappa, data.dt, len(data))  # a reach past the trajectory is refused, not allocated

    snap = data.snapshots[len(data) // 2] if isinstance(data, Trajectory) else data
    grid = snap.grid
    if not grid.fully_periodic:
        raise PreconditionError("diagnose currently probes fully periodic fields")
    scale = float(np.abs(snap.velocity).max())
    ladder = _floats(cfg["epsilons"], "diagnose.epsilons") if "epsilons" in cfg else _default_ladder(grid)
    floor = 2.0 * grid.max_spacing
    bad = [e for e in ladder if e < floor]
    if bad:
        admissible = [e for e in ladder if e >= floor]
        raise PreconditionError(
            f"under-resolved epsilon request: rungs {bad} below the 2h floor {floor:g}; "
            f"admissible ladder: {admissible or _default_ladder(grid)}"
        )
    phi = _diag_phi(grid, phi_inner, phi_outer)

    if scale < 1e-14:
        rows = [(e, 0.0, 0.0, 0.0) for e in sorted(ladder, reverse=True)]
        write_csv(out / "scaling.csv", ["epsilon", "flux", "sup_R", "sup_grad"], rows)
        summary = {"verdict": "degenerate: zero field (all probes vanish)", "alpha": None, "fits": []}
        write_json(out / "summary.json", summary)
        write_manifest(out, cfg, seeds=[seed])
        print("diagnose: zero field, all probes vanish")
        return EXIT_OK

    alpha_cfg = cfg.get("alpha", "auto")
    if alpha_cfg == "auto":
        window = (min(ladder), 2.0 * max(ladder))
        est = estimate_holder_exponent(snap, seed=seed, fit_window=window)
        alpha = est.exponent
        alpha_source = {"estimated": True, "r2": est.r2, "window": list(window)}
    else:
        alpha = _floats([alpha_cfg], "diagnose.alpha")[0]
        alpha_source = {"estimated": False}
    probe = scaling_probe(snap, alpha, ladder, phi=phi)
    # an estimate's seminorm is holder_norm at its exponent over the same survey;
    # holder_norm still serves an explicit alpha, a degenerate estimate and alpha = 0 (rejected)
    if alpha_cfg == "auto" and est.degenerate is None and alpha > 0:
        seminorm = est.seminorm
    else:
        seminorm = holder_norm(snap, alpha, seed=seed)
    rows = list(zip(probe.flux.epsilons, probe.flux.values, probe.stress_sup.values, probe.grad_sup.values))
    write_csv(out / "scaling.csv", ["epsilon", "flux", "sup_R", "sup_grad"], rows)
    fits = [f.as_dict() for f in probe.fits]
    verdicts = [f.passes for f in probe.fits]
    summary = {
        "alpha": alpha,
        "alpha_source": alpha_source,
        "holder_seminorm": seminorm,
        "fits": fits,
    }

    exit_code = EXIT_OK
    if any(v is False for v in verdicts):
        summary["verdict"] = "scaling exponents below prediction"
        exit_code = EXIT_NEGATIVE
    elif any(v is None for v in verdicts):
        summary["verdict"] = "not assessable: a fit has r2 < 0.9"
        exit_code = EXIT_NEGATIVE
    else:
        summary["verdict"] = "scaling exponents consistent with the commutator estimates"

    if isinstance(data, Trajectory) and len(data) >= 3:
        traj = data
        if any(s.pressure is None for s in traj.snapshots):
            traj = traj.map(lambda s: s.with_pressure(solve_pressure_periodic(s).pressure))
        t1, t2 = traj.t_range
        chain = full_box_chain(grid, eta=4.0 * max(ladder), t_range=(t1, t2), tau=0.0)
        chi = ChiWindow(t1, t2)
        test = TestFunction(chi, phi)
        sweep = dr_convergence_sweep(traj, ladder, test, alpha, chain, kappa)
        rep = sweep.reports[0]
        summary["weak_identity"] = rep.as_dict()
        summary["dr_sweep"] = sweep.as_dict()
        dtimes, defect = dr_dissipation_field(traj, max(ladder), chain)
        for k, tv in enumerate(dtimes):
            fieldio.write_scalar_field(
                out / f"defect_{k:04d}.oflx", grid, defect[k], float(tv),
                name="dissipation_defect", tags={"epsilon": max(ladder)},
            )
        write_csv(
            out / "dr_sweep.csv",
            ["epsilon", "weak_lhs", "weak_rhs", "identity_residual"],
            [(r.epsilon, r.lhs, r.rhs, r.residual) for r in sweep.reports],
        )
        if sweep.verdict.startswith("not consistent"):
            exit_code = max(exit_code, EXIT_NEGATIVE)

    write_json(out / "summary.json", summary)
    write_manifest(out, cfg, seeds=[seed])
    print(f"diagnose: {summary['verdict']}")
    for f in probe.fits:
        print(
            f"  {f.quantity}: slope={f.slope:.3f} predicted={f.predicted_slope:.3f} "
            f"r2={f.r2:.3f} passes={f.passes}"
        )
    return exit_code


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------


def cmd_boundary(cfg: dict) -> int:
    if "input" not in cfg:
        raise ConfigError("boundary.input is required")
    out = Path(cfg.get("out") or ".")
    seed = _seed(cfg, "boundary")
    tol = float(cfg.get("energy_tol", 1e-6))
    if not tol >= 0.0:
        raise ConfigError(f"boundary.energy_tol: must be >= 0, got {tol}")
    data = fieldio.load_input(cfg["input"])
    traj = data if isinstance(data, Trajectory) else Trajectory((data,), 1.0)
    grid = traj.grid
    if grid.fully_periodic:
        raise PreconditionError("boundary diagnostics require a channel trajectory")
    domain = Domain(grid, "channel")
    if any(s.pressure is None for s in traj.snapshots):
        traj = traj.map(lambda s: s.with_pressure(solve_pressure_channel(s, domain).pressure))
    h = grid.spacing[domain.wall_axis]
    etas = _floats(cfg["etas"], "boundary.etas") if "etas" in cfg else [56 * h, 28 * h, 14 * h]
    gamma = float(cfg.get("gamma", 0.25 * domain.channel_width))
    beta = float(cfg.get("beta", 1.0))

    verdict = conservation_verdict(traj, etas, domain, beta=beta, gamma=gamma, energy_tol=tol, seed=seed)
    bal = global_balance(traj, max(etas), traj.times[0], traj.times[-1], domain)
    mod = modulus_check(traj, gamma, domain)

    write_csv(out / "ladder.csv", ["eta", "phi_eta"], [(e, v) for e, v in verdict.flux_ladder])
    write_csv(
        out / "modulus.csv",
        ["distance", "envelope"],
        list(zip(mod.distances, mod.envelope)),
    )
    write_json(
        out / "verdict.json",
        {"verdict": verdict.as_dict(), "global_balance": bal.as_dict(), "modulus": mod.as_dict()},
    )
    write_manifest(out, cfg, seeds=[seed])
    print(f"boundary: {verdict.verdict}")
    print(f"  energy drift: {verdict.energy_drift:.3e}; balance residual: {bal.residual:.3e}")
    print(f"  modulus intercept: {mod.intercept:.3e} (vanishing: {mod.vanishing})")
    return verdict.exit_code


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(cfg: dict) -> int:
    out = Path(cfg.get("out") or ".")
    seed = _seed(cfg, "sweep")
    for key in ("nus", "dt", "t_end"):
        if key not in cfg:
            raise ConfigError(f"sweep.{key} is required")
    geometry = cfg.get("geometry", "periodic")
    if geometry not in ("periodic", "channel"):
        raise ConfigError(f"sweep.geometry: expected 'periodic' or 'channel', got {geometry!r}")
    dims = _parse_dims(cfg.get("grid", "128x128"), "sweep.grid")
    if geometry == "channel":
        extents = _parse_extents(cfg.get("extent", "6.283185307179586x1.0"), len(dims), "sweep.extent")
        grid = make_grid(dims, extents, ("periodic", "wall"))
        domain = Domain(grid, "channel")
    else:
        extents = _parse_extents(cfg.get("extent"), len(dims), "sweep.extent")
        grid = make_grid(dims, extents)
        domain = Domain(grid, "periodic")

    init_cfg = dict(cfg.get("initial", {"kind": "taylor-green"}))
    # the sweep writes the initial state nowhere, so a generator's "out" is not accepted
    _check_types(init_cfg, {k: v for k, v in _SCHEMAS["gen"].items() if k != "out"}, "sweep.initial")
    init_cfg.setdefault("grid", "x".join(str(m) for m in dims))
    if geometry == "channel" and init_cfg.get("kind") == "poiseuille":
        _seed(init_cfg, "sweep.initial")  # the profile draws no random numbers; the range holds alike
        x, y = grid.meshes()
        prof = np.sin(np.pi * y / grid.extents[1]) ** 2
        pert = 0.05 * np.sin(2 * x) * prof
        u0 = np.ascontiguousarray(np.broadcast_to(prof, grid.dims) + pert)
        initial = Snapshot(grid, np.stack([u0, np.zeros(grid.dims)]))
    else:
        initial = _build_generated(init_cfg, "sweep.initial")
        if initial.grid.dims != grid.dims:
            raise ConfigError("sweep.initial grid does not match sweep.grid")

    nus = sorted(_floats(cfg["nus"], "sweep.nus"), reverse=True)
    if not nus:
        raise ConfigError("sweep.nus: empty viscosity ladder")
    if nus[-1] < 0.0:
        raise ConfigError(f"sweep.nus: viscosities must be >= 0, got {nus[-1]}")
    etas = None  # the shell ladder is checked before any integration
    if "etas" in cfg:
        if geometry != "channel" or len(nus) < 2:
            raise ConfigError("sweep.etas: the shell-flux criterion needs a channel geometry and at least "
                              f"2 viscosities, got a {geometry} sweep with {len(nus)}")
        try:
            etas = shell_ladder(_floats(cfg["etas"], "sweep.etas"), domain)
        except PreconditionError as exc:
            raise ConfigError(f"sweep.etas: {exc}") from exc
    dt = float(cfg["dt"])
    t_end = float(cfg["t_end"])
    t_star = float(cfg.get("t_star", t_end))
    # built first so dt is checked before the step counts divide by it
    base = SolverConfig(domain, nus[0], dt, max(t_end, t_star), initial, float(cfg.get("cfl_limit", 0.5)))
    n_end = whole_steps(t_end, dt, "t_end")
    whole_steps(t_star, dt, "t_star")  # rejected before any integration
    base = replace(base, snapshot_stride=int(cfg.get("snapshot_stride", max(1, n_end // 8))))

    # One run per nu to max(t_end, t_star): the dissipation is read at t_star,
    # trajectories and series are cut at t_end.  Every nu is integrated before
    # any file is written, so a failing run leaves no partial output.
    swept = []
    runs = []
    kept = []
    for nu in nus:
        traj, series = run(replace(base, nu=nu))
        swept.append((nu, series))
        traj, series = truncate(traj, series, n_end)
        runs.append((nu, traj))
        kept.append(series)
    sweep_rep = dissipation_report(swept, domain, dt, t_star)
    write_csv(out / "dissipation.csv", ["nu", "dissipation", "resolved"], sweep_rep.rows)

    # the gate covers every integrated step, up to t_star as well as t_end
    worst_leray = float(np.max([series.leray_residual.max() for _, series in swept]))  # keeps a NaN
    for (nu, traj), series in zip(runs, kept):
        write_csv(
            out / f"series_nu{nu:g}.csv",
            ["t", "E", "cumulative_dissipation", "leray_residual"],
            series.rows(),
        )
        fieldio.write_trajectory(out / f"traj_nu{nu:g}", traj, tags={"nu": nu})
    summary = {
        "dissipation_sweep": sweep_rep.as_dict(),
        "max_leray_residual": worst_leray,
        "leray_ok": bool(worst_leray <= 1e-8),
    }
    exit_code = EXIT_OK if sweep_rep.verdict.startswith("vanishing") else EXIT_NEGATIVE
    if etas is not None:
        vrep = viscous_flux_criterion(runs, etas, domain)
        summary["viscous_flux"] = vrep.as_dict()
        write_csv(
            out / "viscous_flux.csv",
            ["eta"] + [f"nu={nu:g}" for nu in vrep.nus] + ["extrapolated"],
            [
                (vrep.etas[i], *vrep.flux[i], vrep.extrapolated[i])
                for i in range(len(vrep.etas))
            ],
        )
        if not vrep.eta_trend_ok:
            exit_code = max(exit_code, EXIT_NEGATIVE)
    write_json(out / "verdict.json", summary)
    write_manifest(out, cfg, seeds=[seed])
    print(f"sweep: {sweep_rep.verdict}; max leray residual {worst_leray:.2e}")
    return exit_code


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(cfg: dict) -> int:
    if "input" not in cfg:
        raise ConfigError("report.input is required")
    indir = Path(cfg["input"])
    manifest_path = indir / "manifest.json"
    if not manifest_path.exists():
        raise PreconditionError(f"{indir}: no manifest.json")
    manifest = _read_object(manifest_path)
    config_sha = manifest.get("config_sha256", "")
    if not isinstance(config_sha, str):
        raise PreconditionError(f"{manifest_path}: config_sha256 must be a string, "
                                f"got {type(config_sha).__name__}")
    print(f"report: {indir} (oflux {manifest.get('version')}, config {config_sha[:12]})")
    config_path = indir / "config.json"
    if config_path.exists():
        stored = _read_object(config_path)
        if config_hash(stored) != config_sha:
            print("  WARNING: config hash mismatch")
            return EXIT_PRECONDITION
    code = EXIT_OK
    for name in ("summary.json", "verdict.json"):
        p = indir / name
        if not p.exists():
            continue
        payload = _read_object(p)
        for key, val in payload.items():
            if isinstance(val, dict) and "verdict" in val:
                print(f"  {key}: {val['verdict']}")
                if isinstance(val.get("exit_code"), int):
                    code = max(code, val["exit_code"])
            elif key == "verdict":
                print(f"  {key}: {val}")
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override file values")
    p.add_argument("--out", help="output directory (or OFLUX_OUTPUT_DIR)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="oflux", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate synthetic fields")
    _add_common(g)
    g.add_argument("--kind", choices=["fractional", "taylor-green", "shear"])
    g.add_argument("--grid")
    g.add_argument("--extent")
    g.add_argument("--alpha", type=float)
    g.add_argument("--cutoff", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--nu", type=float)
    g.add_argument("--t", type=float)

    d = sub.add_parser("diagnose", help="scaling probes and the weak energy identity")
    _add_common(d)
    d.add_argument("--in", dest="input")
    d.add_argument("--alpha")
    d.add_argument("--epsilons", help="comma-separated ladder")
    d.add_argument("--seed", type=int)

    b = sub.add_parser("boundary", help="shell fluxes, global balance, verdict")
    _add_common(b)
    b.add_argument("--in", dest="input")
    b.add_argument("--etas", help="comma-separated ladder")
    b.add_argument("--gamma", type=float)
    b.add_argument("--beta", type=float)

    s = sub.add_parser("sweep", help="viscosity sweep with the NS solver")
    _add_common(s)
    s.add_argument("--nus", help="comma-separated viscosities")
    s.add_argument("--dt", type=float)
    s.add_argument("--t-end", dest="t_end", type=float)
    s.add_argument("--t-star", dest="t_star", type=float)

    r = sub.add_parser("report", help="summarize an existing report directory")
    r.add_argument("--in", dest="input")
    r.add_argument("--config", help="unused; accepted for symmetry")
    return ap


def _overrides(args) -> dict:
    skip = {"command", "config"}
    out = {}
    for key, val in vars(args).items():
        if key in skip or val is None:
            continue
        if key in ("epsilons", "etas", "nus") and isinstance(val, str):
            val = _floats(val.split(","), f"{args.command}.{key}")
        if key == "alpha" and isinstance(val, str) and val != "auto":
            val = _floats([val], f"{args.command}.alpha")[0]
        out[key] = val
    return out


_COMMANDS = {
    "gen": cmd_gen,
    "diagnose": cmd_diagnose,
    "boundary": cmd_boundary,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.command, args.config, _overrides(args))
        return _COMMANDS[args.command](cfg)
    except (ConfigError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
