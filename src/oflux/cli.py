"""Command-line surface: gen, diagnose, boundary, sweep, report.

A request is an optional JSON object (--config) under flags: each key of
the command's table (``_SCHEMAS``) that is not an object is the flag
--<key>, with hyphens for underscores and --in for "input".  Every request
value, from a flag's text or from the file, is held to its key's type and
range; an unknown key is rejected with its location.  Every command writes
a manifest (tool version, config hash, seeds) next to its outputs and is
byte-deterministic for a fixed config and seed.

Exit codes: 0 completed with positive verdicts, 2 completed with a negative
verdict, 3 hypothesis or precondition failure, 1 internal error.  A refused
request (a malformed command line, a value outside its key's range, an
input the command cannot use) exits 3 and writes nothing.  A completed
command exits with the largest code among its verdicts (``reports.VERDICTS``,
README "Exit codes") and stores it as "exit_code" in the report it writes,
a verdict's 3 included; ``report`` returns it.
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import reprlib
import select
import shutil
import signal
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# Every command reads a request, makes a grid and writes reports; each command imports the rest of
# what it needs itself, so `gen` loads none of the probe, pressure, boundary or solver modules.
from .errors import PreconditionError
from . import fieldio
from .grids import Grid, Snapshot, Trajectory, make_grid
from .reports import config_hash, exit_code, read_object, verdict, write_csv, write_json, write_manifest

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PRECONDITION = 3


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

# Each range a number, or each rung of a ladder, may be held to: its text and its test.
_RANGES = {
    "> 0": lambda x: x > 0,
    ">= 0": lambda x: x >= 0,
    ">= 1": lambda x: x >= 1,
    "in (0, 1)": lambda x: 0 < x < 1,
    "in (0, 1]": lambda x: 0 < x <= 1,
    "in (0, 0.5]": lambda x: 0 < x <= 0.5,
}


@dataclass(frozen=True)
class Key:
    """One request key: its type, its range and whether every request needs it.

    ``kind`` is str (a non-empty string), int, float (a finite number; an
    integer widens to one), list (a ladder: a non-empty list of finite
    numbers, widened alike) or a nested schema, such as ``sweep.initial``'s.
    A number, and each rung, must pass the ``_RANGES`` test named by
    ``range``; ``words`` are the strings the key takes (a str key without
    words takes any).
    """

    kind: type | dict
    range: str = ""
    words: tuple[str, ...] = ()
    required: bool = False

    def range_text(self) -> str:
        return " or ".join(filter(None, [self.range, *map(repr, self.words)]))

    def check(self, val, name: str):
        """``val``, widened to a float for a float key, if it has the key's
        type and range; otherwise a PreconditionError naming ``name``."""
        if isinstance(self.kind, dict):
            if not isinstance(val, dict):
                raise PreconditionError(f"{name}: expected an object, got {type(val).__name__}")
            _check(dict(val), self.kind, name)  # on a copy: the config echo keeps the object as given
            return val
        if self.kind is list:
            if not (isinstance(val, list) and val):
                raise PreconditionError(f"{name}: expected a non-empty list of numbers, got {reprlib.repr(val)}")
            return [Key(float, self.range).check(x, name) for x in val]
        if self.kind is str or isinstance(val, str) and self.words:
            if not (isinstance(val, str) and val):
                raise PreconditionError(f"{name}: expected a non-empty string, got {reprlib.repr(val)}")
            if self.words and val not in self.words:
                raise PreconditionError(f"{name}: must be {self.range_text()}, got {val!r}")
            return val
        if isinstance(val, bool) or not isinstance(val, (int, float) if self.kind is float else int):
            raise PreconditionError(f"{name}: expected {self.kind.__name__}, got {reprlib.repr(val)}")
        if self.kind is float:
            if not abs(val) <= sys.float_info.max:  # NaN, infinite, or an integer past the largest float
                raise PreconditionError(f"{name}: expected a finite number, got {reprlib.repr(val)}")
            val = float(val)
        if self.range and not _RANGES[self.range](val):
            raise PreconditionError(f"{name}: must be {self.range_text()}, got {reprlib.repr(val)}")
        return val


_GEN = {
    "kind": Key(str, words=("fractional", "taylor-green", "shear"), required=True),
    "grid": Key(str),
    "extent": Key(str),
    "alpha": Key(float, "in (0, 1)"),
    "cutoff": Key(int, ">= 1"),
    "seed": Key(int, ">= 0"),
    "nu": Key(float, ">= 0"),  # a negative viscosity gives a field that grows in time
    "t": Key(float),
    "u_amp": Key(float),
    "w_amp": Key(float),
    "out": Key(str, required=True),
}
_GEN_DIMS = {"fractional": "256x256", "taylor-green": "64x64", "shear": "32x32x32"}  # a grid's default, by kind
# A sweep's initial field lives on the sweep's grid, so it takes no grid keys; shear
# fields are 3D and the solver is 2D, so neither that kind nor its amplitudes.
_INITIAL = {"kind": Key(str, words=("fractional", "taylor-green", "poiseuille"), required=True)} | {
    k: _GEN[k] for k in ("alpha", "cutoff", "seed", "nu", "t")}
_SCHEMAS = {
    "gen": _GEN,
    "diagnose": {
        "input": Key(str, required=True),
        "out": Key(str),
        "epsilons": Key(list, "> 0"),
        "alpha": Key(float, "in (0, 1]", words=("auto",)),
        "seed": Key(int, ">= 0"),
        "phi_inner": Key(float, "in (0, 1)"),
        "phi_outer": Key(float, "in (0, 1]"),
        "kappa": Key(float, "> 0"),
    },
    "boundary": {
        "input": Key(str, required=True),
        "out": Key(str),
        "etas": Key(list, "> 0"),
        "gamma": Key(float, "> 0"),
        "beta": Key(float, ">= 0"),
        "energy_tol": Key(float, ">= 0"),
        "seed": Key(int, ">= 0"),
    },
    "sweep": {
        "out": Key(str),
        "geometry": Key(str, words=("periodic", "channel")),
        "grid": Key(str),
        "extent": Key(str),
        "initial": Key(_INITIAL),
        "nus": Key(list, ">= 0", required=True),
        "dt": Key(float, "> 0", required=True),
        "t_end": Key(float, "> 0", required=True),
        "t_star": Key(float, "> 0"),
        "snapshot_stride": Key(int, ">= 1"),
        "cfl_limit": Key(float, "in (0, 0.5]"),
        "etas": Key(list, "> 0"),
        "seed": Key(int, ">= 0"),
    },
    "report": {"input": Key(str, required=True)},
}


def _load_config(command: str, path: str | None, flags: dict) -> dict:
    """The request: the --config object under the flags, with "out" from
    OFLUX_OUTPUT_DIR when neither sets it, held to the command's schema."""
    cfg = read_object(path) if path else {}
    cfg.update({key: _from_flag(text, _SCHEMAS[command][key]) for key, text in flags.items()})
    if os.environ.get("OFLUX_OUTPUT_DIR") and "out" in _SCHEMAS[command]:
        cfg.setdefault("out", os.environ["OFLUX_OUTPUT_DIR"])
    _check(cfg, _SCHEMAS[command], command)
    return cfg


def _from_flag(text: str, spec: Key):
    """A flag's text as its key's kind: a ladder split at commas, an int or a
    float parsed, a string or a word as given.  Text that does not parse stays
    text, so ``Key.check`` refuses it as it refuses that string in a config."""
    if spec.kind is list:
        return [_from_flag(rung, Key(float)) for rung in text.split(",")]
    if spec.kind is str or text in spec.words:
        return text
    try:
        return spec.kind(text)
    except ValueError:
        return text


def _check(cfg: dict, schema: dict, where: str) -> None:
    """Hold ``cfg`` to ``schema``: no unknown key, every value of its key's
    type and range (integers widen to floats in place), every required key
    present.  Errors name the config path ``where``."""
    for key, val in cfg.items():
        if key not in schema:
            raise PreconditionError(f"unknown key at {where}.{key}")
        cfg[key] = schema[key].check(val, f"{where}.{key}")
    for key, spec in schema.items():
        if spec.required and key not in cfg:
            raise PreconditionError(f"{where}.{key} is required")


def _parse_dims(text: str, name: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.lower().split("x"))
    except ValueError as exc:
        raise PreconditionError(f"{name}: expected like '256x256', got {text!r}") from exc


def _parse_extents(text: str | None, ndim: int, name: str):
    if text is None:
        return (2.0 * np.pi,) * ndim
    parts = text.lower().split("x")
    if len(parts) != ndim:
        raise PreconditionError(f"{name}: expected {ndim} extents")
    try:
        extents = tuple(float(t) for t in parts)
    except ValueError as exc:
        raise PreconditionError(f"{name}: expected numbers, got {text!r}") from exc
    if not all(math.isfinite(v) for v in extents):
        raise PreconditionError(f"{name}: expected finite numbers, got {text!r}")
    return extents


def _request_grid(cfg: dict, where: str, dims: str, channel: bool = False) -> Grid:
    """The request's one grid: its "grid" dims (default ``dims``) by its
    "extent" (default 2*pi per axis, or 2*pi by 1 across a channel), periodic
    on every axis or, for a channel, periodic by wall.  Errors name ``where``."""
    shape = _parse_dims(cfg.get("grid", dims), f"{where}.grid")
    extents = _parse_extents(cfg.get("extent", "6.283185307179586x1.0" if channel else None), len(shape),
                             f"{where}.extent")
    return make_grid(shape, extents, ("periodic", "wall") if channel else "periodic")


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------


class _Workers:
    """Calls run in forked child processes, at most one per CPU this process
    may use at a time (``limit``), each result pickled back through a pipe.

    ``submit`` starts a call, or queues it while ``limit`` children run;
    ``results`` returns every call's result in submission order.  A failed
    call raises there once every earlier call has returned: a worker's
    PreconditionError again with its text, any other failure (an exception,
    a death by signal) as a RuntimeError.  Leaving the ``with`` block kills
    and reaps every child still running, on every exit path.  Children are
    forked, so they start with the imported package and their arguments,
    none of it pickled.
    """

    def __init__(self):
        self.limit = len(os.sched_getaffinity(0))
        self._calls = []  # (fn, args) in submission order; the first _started of them have a child
        self._started = 0
        self._running = {}  # read end of a child's pipe -> (index, pid, bytes read so far)
        self._done = {}  # index -> (wait status, bytes read)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for fd, (_, pid, _) in self._running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
        self._running.clear()

    def submit(self, fn, *args) -> None:
        self._calls.append((fn, args))
        self._start()

    def results(self) -> list:
        out = []
        for k in range(len(self._calls)):
            while k not in self._done:
                self._wait()
            out.append(_outcome(*self._done.pop(k)))
        return out

    def _start(self) -> None:
        while self._started < len(self._calls) and len(self._running) < self.limit:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _child(w, *self._calls[self._started])
            os.close(w)
            self._running[r] = (self._started, pid, bytearray())
            self._started += 1

    def _wait(self) -> None:
        """Read what the children wrote; reap each one whose pipe closed and
        start a queued call in its place."""
        ready, _, _ = select.select(list(self._running), [], [])
        for fd in ready:
            k, pid, buf = self._running[fd]
            chunk = os.read(fd, 1 << 16)
            if chunk:
                buf += chunk
                continue
            os.close(fd)
            del self._running[fd]
            self._done[k] = (os.waitpid(pid, 0)[1], bytes(buf))
        self._start()


def _child(w: int, fn, args) -> None:
    """In a forked child: run ``fn(*args)``, pickle its outcome into the pipe
    ``w`` and end the process.  Every exception, an interrupt included, becomes
    the outcome, and the child ends with ``os._exit``: it must never unwind into
    the parent's frames or run its exit handlers."""
    code = 1
    try:
        try:
            outcome = ("result", fn(*args))
        except PreconditionError as exc:
            outcome = ("refusal", str(exc))
        except BaseException as exc:
            outcome = ("error", f"{type(exc).__name__}: {exc}")
        with os.fdopen(w, "wb") as fh:
            pickle.dump(outcome, fh)
        code = 0
    finally:
        os._exit(code)


def _outcome(status: int, payload: bytes):
    """A reaped child's result, or its failure raised."""
    if os.WIFSIGNALED(status):
        raise RuntimeError(f"a worker process died by signal {os.WTERMSIG(status)}")
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("a worker process ended without a result")
    kind, value = pickle.loads(payload)  # written by the child above
    if kind == "refusal":
        raise PreconditionError(value)
    if kind == "error":
        raise RuntimeError(f"in a worker process: {value}")
    return value


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _build_generated(cfg: dict, grid: Grid, where: str) -> Snapshot:
    """The generated snapshot of kind ``cfg["kind"]`` on ``grid``; errors name
    the config path ``where``, a generator's refusal of the grid included."""
    from .synth import fractional_field, shear_flow, taylor_green

    kind = cfg["kind"]
    if kind == "fractional" and "alpha" not in cfg:
        raise PreconditionError(f"{where}.alpha is required for fractional fields")
    if kind == "poiseuille" and grid.axis_kinds != ("periodic", "wall"):
        raise PreconditionError(f"{where}.kind: 'poiseuille' is a channel profile, the grid is periodic")
    try:
        if kind == "fractional":
            return fractional_field(cfg["alpha"], cfg.get("cutoff"), cfg.get("seed", 0), grid)
        if kind == "taylor-green":
            return taylor_green(grid, float(cfg.get("t", 0.0)), float(cfg.get("nu", 0.0)))
        if kind == "poiseuille":  # a no-slip channel profile with a small streamwise wave
            x, y = grid.meshes()
            prof = np.sin(np.pi * y / grid.extents[1]) ** 2
            u0 = np.ascontiguousarray(np.broadcast_to(prof, grid.dims) + 0.05 * np.sin(2 * x) * prof)
            return Snapshot(grid, np.stack([u0, np.zeros(grid.dims)]))
        ua = float(cfg.get("u_amp", 1.0))  # shear
        wa = float(cfg.get("w_amp", 1.0))
        U = lambda s: ua * np.sin(s)
        W = lambda a, b: wa * np.cos(a) * (1.0 + 0.5 * np.sin(b))
        return shear_flow(U, W, float(cfg.get("t", 0.0)), grid)
    except PreconditionError as exc:
        raise PreconditionError(f"{where}: {exc}") from exc


def cmd_gen(cfg: dict) -> int:
    """Generate a synthetic field."""
    snap = _build_generated(cfg, _request_grid(cfg, "gen", _GEN_DIMS[cfg["kind"]]), "gen")
    path = Path(cfg["out"])
    if path.suffix != ".oflx":
        path = path / "field.oflx"
    fieldio.write_snapshot(path, snap)
    write_manifest(path.parent, cfg, seeds=[cfg.get("seed", 0)])
    print(f"gen: wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def _default_ladder(grid: Grid) -> list[float]:
    h = grid.max_spacing
    return [m * h for m in (18, 15, 12, 10, 8, 6, 5, 4)]


def _diag_phi(grid: Grid, inner_frac: float, outer_frac: float):
    from .mollify import block_mask, cutoff_region

    lo_i = 0.5 - inner_frac / 2.0
    lo_o = 0.5 - outer_frac / 2.0
    try:
        return cutoff_region(grid, block_mask(grid, lo_i, 1.0 - lo_i), block_mask(grid, lo_o, 1.0 - lo_o))
    except PreconditionError as exc:
        raise PreconditionError(f"diagnose.phi_inner, diagnose.phi_outer: {exc}") from exc


def _diag_holder(snap: Snapshot, alpha, seed: int, window: tuple[float, float]):
    """The Hölder exponent (``alpha``, estimated when "auto"), its source and
    the seminorm at it, from one increment survey."""
    from .synth import estimate_holder_exponent, holder_norm

    if alpha != "auto":
        return alpha, {"estimated": False}, holder_norm(snap, alpha, seed=seed)
    try:
        est = estimate_holder_exponent(snap, seed=seed, fit_window=window)
    except PreconditionError as exc:
        raise PreconditionError(f"diagnose.alpha: 'auto' cannot estimate the Hölder exponent on the "
                                f"{snap.grid.label} grid ({exc}); an explicit alpha runs") from exc
    return est.exponent, {"estimated": True, "r2": est.r2, "window": list(window)}, est.seminorm


def _diag_weak_identity(data: Trajectory, ladder: list[float], phi, kappa: float | None):
    """The weak identity's reports over the ladder, the probe's rungs of the
    middle snapshot where the identity measures them (else None), and the
    defect field at the largest rung, with every pressure solved; only a
    trajectory loads their modules."""
    from .energy_balance import ChiWindow, TestFunction, dr_dissipation_field, dr_sweep_reports
    from .mollify import full_box_chain
    from .pressure import fill_pressures

    traj = fill_pressures(data)
    chain = full_box_chain(traj.grid, eta=4.0 * max(ladder))
    test = TestFunction(ChiWindow(*traj.t_range), phi)
    reports, rungs = dr_sweep_reports(traj, ladder, test, chain, kappa, probe_at=len(traj) // 2)
    return reports, rungs, dr_dissipation_field(traj, max(ladder), chain)


def cmd_diagnose(cfg: dict) -> int:
    """Scaling probes and the weak energy identity."""
    from .commutator import epsilon_ladder, fit_probe, probe_rungs
    from .mollify import time_reach

    out = Path(cfg.get("out", "."))
    seed = cfg.get("seed", 0)
    phi_inner, phi_outer = cfg.get("phi_inner", 0.4), cfg.get("phi_outer", 0.8)
    if not phi_inner < phi_outer:
        raise PreconditionError("diagnose.phi_inner, diagnose.phi_outer: need phi_inner < phi_outer, "
                                f"got {phi_inner} and {phi_outer}")
    data = fieldio.load_input(cfg["input"])
    frames = len(data) if isinstance(data, Trajectory) else 1  # the weak identity runs on 3 or more
    kappa = cfg.get("kappa")
    if kappa is not None and frames < 3:
        raise PreconditionError(f"diagnose.kappa: the time radius smooths the weak identity, which needs a "
                                f"trajectory of at least 3 snapshots; {cfg['input']} holds {frames}")
    if kappa is not None:
        try:
            time_reach(kappa, data.dt, frames)  # a reach past the trajectory is refused, not allocated
        except PreconditionError as exc:
            raise PreconditionError(f"diagnose.kappa: {exc}") from exc

    snap = data.snapshots[len(data) // 2] if isinstance(data, Trajectory) else data
    grid = snap.grid
    if not grid.fully_periodic:
        raise PreconditionError("diagnose currently probes fully periodic fields")
    try:
        ladder = epsilon_ladder(cfg["epsilons"] if "epsilons" in cfg else _default_ladder(grid), grid)
    except PreconditionError as exc:  # the default ladder is always admissible
        admissible = sorted({e for e in cfg["epsilons"] if e >= 2.0 * grid.max_spacing}, reverse=True)
        raise PreconditionError(f"diagnose.epsilons: {exc}; admissible ladder: "
                                f"{admissible if len(admissible) >= 4 else _default_ladder(grid)}") from exc
    phi = _diag_phi(grid, phi_inner, phi_outer)  # a cutoff the grid cannot hold is refused for every field

    if float(np.abs(snap.velocity).max()) < 1e-14:
        rows = [(e, 0.0, 0.0, 0.0) for e in ladder]
        write_csv(out / "scaling.csv", ["epsilon", "flux", "sup_R", "sup_grad"], rows)
        zero = verdict("probe.zero_field")
        write_json(out / "summary.json", {"verdict": zero, "alpha": None, "fits": [], "exit_code": zero.code})
        write_manifest(out, cfg, seeds=[seed])
        print("diagnose: zero field, all probes vanish")
        return zero.code

    # Only the fits need alpha, so the Hölder survey runs in a worker while this process measures
    # every rung of the probe and of the weak identity, and the defect field.  On a trajectory the
    # weak identity measures the probe on the same snapshot from the fields it mollifies anyway.
    from . import synth  # noqa: F401  (loaded once, before the fork: the worker inherits it, `pressure` reuses it)

    with _Workers() as workers:
        workers.submit(_diag_holder, snap, cfg.get("alpha", "auto"), seed, (min(ladder), 2.0 * max(ladder)))
        reports, rungs, dissipation = _diag_weak_identity(data, ladder, phi, kappa) if frames >= 3 else (None,) * 3
        if rungs is None:
            rungs = probe_rungs(snap, ladder, phi)
        [(alpha, alpha_source, seminorm)] = workers.results()

    probe = fit_probe(rungs, alpha)
    rows = list(zip(probe.flux.epsilons, probe.flux.values, probe.stress_sup.values, probe.grad_sup.values))
    write_csv(out / "scaling.csv", ["epsilon", "flux", "sup_R", "sup_grad"], rows)
    passes = [f.passes for f in probe.fits]
    verdicts = [verdict("probe.below_prediction" if False in passes else
                        "probe.not_assessable" if None in passes else "probe.consistent")]
    summary = {
        "alpha": alpha,
        "alpha_source": alpha_source,
        "holder_seminorm": seminorm,
        "fits": probe.fits,
        "verdict": verdicts[0],
    }

    if reports is not None:
        from .energy_balance import fit_dr_sweep

        dtimes, defect = dissipation
        sweep = fit_dr_sweep(reports, alpha)
        summary["weak_identity"] = sweep.reports[0]
        summary["dr_sweep"] = {"fit": sweep.fit, "alpha": sweep.alpha, "verdict": sweep.verdict}
        verdicts.append(sweep.verdict)
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

    summary["exit_code"] = exit_code(verdicts)
    write_json(out / "summary.json", summary)
    write_manifest(out, cfg, seeds=[seed])
    print(f"diagnose: {summary['verdict']}")
    for f in probe.fits:
        print(
            f"  {f.quantity}: slope={f.slope:.3f} predicted={f.predicted_slope:.3f} "
            f"r2={f.r2:.3f} passes={f.passes}"
        )
    return summary["exit_code"]


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------


def cmd_boundary(cfg: dict) -> int:
    """Shell fluxes, global balance, verdict."""
    from .boundary import check_interior, conservation_verdict, global_balance, modulus_check, shell_ladder
    from .pressure import fill_pressures

    out = Path(cfg.get("out", "."))
    seed = cfg.get("seed", 0)
    traj = fieldio.load_input(cfg["input"])
    if not isinstance(traj, Trajectory) or len(traj) < 2:
        raise PreconditionError(f"boundary.input: {cfg['input']} holds one snapshot; at least 2 snapshots are needed")
    grid = traj.grid
    if grid.fully_periodic:
        raise PreconditionError("boundary diagnostics require a channel trajectory")
    w = grid.wall_axis
    h = grid.spacing[w]
    try:
        etas = shell_ladder(cfg.get("etas", [56 * h, 28 * h, 14 * h]), grid)
    except PreconditionError as exc:
        if "etas" in cfg:
            raise PreconditionError(f"boundary.etas: {exc}") from exc
        raise PreconditionError(f"boundary.etas: the default ladder [56h, 28h, 14h] needs about 114 points "
                                f"across the channel, the {grid.label} grid has "
                                f"{grid.dims[w]} ({exc}); give etas explicitly") from exc
    gamma = cfg.get("gamma", 0.25 * grid.extents[w])
    if not gamma < 0.5 * grid.extents[w]:
        raise PreconditionError(f"boundary.gamma: the collar must be below the channel half-width "
                                f"{0.5 * grid.extents[w]:g}, got {gamma:g}")
    try:
        check_interior(grid)
    except PreconditionError as exc:
        raise PreconditionError(f"boundary.input: {exc}") from exc
    traj = fill_pressures(traj)

    cons = conservation_verdict(traj, etas, beta=cfg.get("beta", 1.0), gamma=gamma,
                                energy_tol=cfg.get("energy_tol", 1e-6), seed=seed)
    bal = global_balance(traj, max(etas), traj.times[0], traj.times[-1])
    mod = modulus_check(traj, gamma)

    write_csv(out / "ladder.csv", ["eta", "phi_eta"], [(e, v) for e, v in cons.flux_ladder])
    write_csv(
        out / "modulus.csv",
        ["distance", "envelope"],
        list(zip(mod.distances, mod.envelope)),
    )
    code = cons.verdict.code
    write_json(out / "verdict.json", {"verdict": cons, "global_balance": bal, "modulus": mod, "exit_code": code})
    write_manifest(out, cfg, seeds=[seed])
    print(f"boundary: {cons.verdict}")
    print(f"  energy drift: {cons.energy_drift:.3e}; balance residual: {bal.residual:.3e}")
    print(f"  modulus intercept: {mod.intercept:.3e} (vanishing: {mod.vanishing})")
    return code


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_run(cfg: SolverConfig, n_end: int, etas, staging: Path):
    """One viscosity of a sweep, in a worker process: integrate ``cfg``, write
    the run's series and trajectory cut at step ``n_end`` into ``staging``, and
    return the whole DissipationSeries with the run's shell-flux row (None
    without ``etas``).  The trajectory never leaves the worker."""
    from .pressure import fill_pressures
    from .solver import run, shell_flux_row, truncate

    nu = cfg.nu
    traj, series = run(cfg)
    traj, kept = truncate(traj, series, n_end)
    row = None
    if etas is not None:  # solved once for the criterion and stored in traj_nu* for `boundary`:
        # diagnostics use the Bernoulli pressure of the momentum balance, not the projector's
        traj = fill_pressures(traj)
        row = shell_flux_row(nu, traj, etas)
    write_csv(staging / f"series_nu{nu:g}.csv", ["t", "E", "cumulative_dissipation", "leray_residual"],
              kept.rows())
    fieldio.write_trajectory(staging / f"traj_nu{nu:g}", traj, tags={"nu": nu})
    return series, row


def cmd_sweep(cfg: dict) -> int:
    """Viscosity sweep with the NS solver."""
    from .boundary import shell_ladder
    from .solver import SolverConfig, dissipation_report, viscous_flux_criterion, whole_steps

    out = Path(cfg.get("out", "."))
    geometry = cfg.get("geometry", "periodic")
    grid = _request_grid(cfg, "sweep", "128x128", channel=geometry == "channel")
    initial = _build_generated(cfg.get("initial", {"kind": "taylor-green"}), grid, "sweep.initial")

    nus = sorted(cfg["nus"], reverse=True)
    labels = {f"{nu:g}" for nu in nus}  # each names its run's output files
    if len(labels) < len(nus):
        raise PreconditionError("sweep.nus: the viscosities must differ in the 6 significant digits that name "
                                f"their output files, got {reprlib.repr(cfg['nus'])}")
    etas = None  # the shell ladder is checked before any integration
    if "etas" in cfg:
        if geometry != "channel" or len(nus) < 2:
            raise PreconditionError("sweep.etas: the shell-flux criterion needs a channel geometry and at least "
                                    f"2 viscosities, got a {geometry} sweep with {len(nus)}")
        try:
            etas = shell_ladder(cfg["etas"], grid)
        except PreconditionError as exc:
            raise PreconditionError(f"sweep.etas: {exc}") from exc
    dt, t_end = cfg["dt"], cfg["t_end"]
    t_star = cfg.get("t_star", t_end)
    n_end = whole_steps(t_end, dt, "t_end")
    whole_steps(t_star, dt, "t_star")  # rejected before any integration
    base = SolverConfig(nus[0], dt, max(t_end, t_star), initial, cfg.get("cfl_limit", 0.5),
                        cfg.get("snapshot_stride", max(1, n_end // 8)))

    # One run per nu to max(t_end, t_star), each in a worker process (``_sweep_run``): the
    # dissipation is read at t_star, trajectories and series are cut at t_end.  Workers write into a
    # staging directory on out's filesystem; its files move into out only after every run succeeded
    # and every criterion was evaluated, so a failing run leaves no output.
    anchor = next(p for p in (out.absolute(), *out.absolute().parents) if p.is_dir())
    staging = Path(tempfile.mkdtemp(prefix=".oflux-sweep-", dir=anchor))
    try:
        with _Workers() as workers:
            for nu in nus:
                workers.submit(_sweep_run, replace(base, nu=nu), n_end, etas, staging)
            results = workers.results()  # the largest failing nu raises, as a serial loop would
        swept = [(nu, series) for nu, (series, _) in zip(nus, results)]
        rows = [(nu, row) for nu, (_, row) in zip(nus, results)]
        sweep_rep = dissipation_report(swept, grid, dt, t_star)
        vrep = None if etas is None else viscous_flux_criterion(rows, etas)
        write_csv(out / "dissipation.csv", ["nu", "dissipation", "resolved"], sweep_rep.rows)
        for src in sorted(staging.rglob("*")):  # a directory sorts before its files
            dst = out / src.relative_to(staging)
            if src.is_dir():
                dst.mkdir(exist_ok=True)
            else:
                os.replace(src, dst)
    finally:
        shutil.rmtree(staging, ignore_errors=True)

    # the gate covers every integrated step, up to t_star as well as t_end
    worst_leray = float(np.max([series.leray_residual.max() for _, series in swept]))  # keeps a NaN
    leray_ok = bool(worst_leray <= 1e-8)
    verdicts = [sweep_rep.verdict] + ([] if leray_ok else [verdict("leray.fails")])
    summary = {
        "dissipation_sweep": sweep_rep,
        "max_leray_residual": worst_leray,
        "leray_ok": leray_ok,
    }
    if vrep is not None:
        summary["viscous_flux"] = vrep
        verdicts.append(vrep.verdict)
        write_csv(
            out / "viscous_flux.csv",
            ["eta"] + [f"nu={nu:g}" for nu in vrep.nus] + ["extrapolated"],
            [
                (vrep.etas[i], *vrep.flux[i], vrep.extrapolated[i])
                for i in range(len(vrep.etas))
            ],
        )
    summary["exit_code"] = exit_code(verdicts)
    write_json(out / "verdict.json", summary)
    write_manifest(out, cfg, seeds=[cfg.get("seed", 0)])
    print(f"sweep: {sweep_rep.verdict}; max leray residual {worst_leray:.2e}"
          + ("" if leray_ok else f" {verdict('leray.fails')}"))
    return summary["exit_code"]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(cfg: dict) -> int:
    """Summarize an existing report directory."""
    indir = Path(cfg["input"])
    manifest_path = indir / "manifest.json"
    manifest = read_object(manifest_path)
    config_sha = manifest.get("config_sha256", "")
    if not isinstance(config_sha, str):
        raise PreconditionError(f"{manifest_path}: config_sha256 must be a string, "
                                f"got {type(config_sha).__name__}")
    print(f"report: {indir} (oflux {manifest.get('version')}, config {config_sha[:12]})")
    config_path = indir / "config.json"
    if config_path.exists():
        stored = read_object(config_path)
        if config_hash(stored) != config_sha:
            print("  WARNING: config hash mismatch")
            return EXIT_PRECONDITION
    code = EXIT_OK
    for name in ("summary.json", "verdict.json"):
        p = indir / name
        if not p.exists():
            continue
        payload = read_object(p)
        for key, val in payload.items():
            if isinstance(val, dict) and "verdict" in val:
                print(f"  {key}: {val['verdict']}")
            elif key == "verdict":
                print(f"  {key}: {val}")
        stored = payload.get("exit_code")
        if type(stored) is not int:  # a bool is not a code
            raise PreconditionError(f"{p}: the command's exit_code must be an integer, got {reprlib.repr(stored)}")
        code = max(code, stored)
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_METAVARS = {str: "TEXT", int: "INT", float: "NUMBER", list: "N,N,..."}


def build_parser() -> argparse.ArgumentParser:
    """A subcommand per ``_SCHEMAS`` entry and a flag per key that is not an
    object, its value left as text for ``_from_flag``; --config is the one
    flag outside the table."""
    ap = argparse.ArgumentParser(prog="oflux", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command, help=_COMMANDS[command].__doc__, argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)  # a flag is a whole key: --cut is not --cutoff
        p.add_argument("--config", metavar="FILE", help="JSON request file; flags override its values")
        for key, spec in schema.items():
            if not isinstance(spec.kind, dict):
                p.add_argument("--in" if key == "input" else "--" + key.replace("_", "-"), dest=key,
                               metavar=_METAVARS[spec.kind],
                               help="; ".join(filter(None, [spec.range_text(), "required" if spec.required else ""])))
    return ap


_COMMANDS = {
    "gen": cmd_gen,
    "diagnose": cmd_diagnose,
    "boundary": cmd_boundary,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def main(argv=None) -> int:
    try:
        flags = vars(build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse printed a usage error, or the help (code 0)
        return EXIT_PRECONDITION if exc.code else EXIT_OK
    command = flags.pop("command")
    try:
        cfg = _load_config(command, flags.pop("config", None), flags)
        return _COMMANDS[command](cfg)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def __getattr__(name: str):
    # ``cli.run`` reads as ``solver.run``, loading the solver on first read: the benchmark's
    # layer-trace test reaches the solver's entry point through cli.
    if name == "run":
        from .solver import run

        return run
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
