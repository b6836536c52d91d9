"""The benchmark's workloads: inputs, CLI command lines and output checks.

Each workload is a sequence of real ``oflux`` CLI commands.  The workload
seed sets the fractional-field phases and the ``seed`` every command
receives (by flag where the command has one, by its ``--config`` file
otherwise); the solver's initial fields are analytic, so the seed does not
change the sweeps' inputs.

Run as a script this writes a workload's inputs; it is the benchmark's
set-up step and runs in a fresh interpreter that imports the package, as
every command does:

    python3 perfbench/workloads.py --workload probe-fractional --seed 0 --dir DIR
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

# Why each workload was chosen is stated in BENCHMARK.json.
WORKLOADS = ("probe-fractional", "sweep-periodic", "sweep-channel")
# Workloads whose stored reference holds on every seed: the solver's initial
# fields are analytic, and the seed only drives boundary's interior Holder
# survey.  The reference leaves its exponent out and keeps the verdict
# string, which was the same on every seed tried.
SEED_FREE = ("sweep-periodic", "sweep-channel")
COMMAND_NAMES = ("gen", "diagnose_field", "diagnose_traj", "sweep", "boundary")
# Exit codes of a completed command: 0 positive verdict, 2 negative verdict.
# Which one a diagnose gives depends on the seed's field, so a run records
# the codes of its first pass; reference.json records them for its seeds.
COMPLETED = (0, 2)

H_CHANNEL = 1.0 / 128  # wall-normal spacing of the 128x129 unit-height channel
ETAS = [28 * H_CHANNEL, 14 * H_CHANNEL, 7 * H_CHANNEL]

SWEEP_CONFIGS = {
    # the README sweep config, verbatim
    "sweep-periodic": {
        "geometry": "periodic",
        "grid": "128x128",
        "initial": {"kind": "taylor-green", "nu": 0.01},
        "nus": [1e-2, 3e-3, 1e-3],
        "dt": 0.005,
        "t_end": 0.5,
        "t_star": 0.5,
        "snapshot_stride": 25,
    },
    # 50 steps per run with a snapshot every 5 keeps the 11 snapshots per run
    # that viscous_flux_criterion and boundary work on, at half the solver
    # time of t_end = 0.1, so a run fits enough passes for a steady median.
    "sweep-channel": {
        "geometry": "channel",
        "grid": "128x129",
        "initial": {"kind": "poiseuille"},
        "nus": [1e-2, 5e-3],
        "dt": 0.001,
        "t_end": 0.05,
        "t_star": 0.05,
        "snapshot_stride": 5,
        "etas": ETAS,
    },
}


@dataclass(frozen=True)
class Command:
    name: str  # metric stem, e.g. "diagnose_traj" reports diagnose_traj_s
    argv: tuple[str, ...]  # arguments after ``python -m oflux.cli``
    out: str  # the command's output path, relative to the checkout root


def commands(workload: str, seed: int, inp: str, out: str) -> list[Command]:
    """The command lines of one pass; paths are relative to the checkout root."""
    s = str(seed)
    if workload == "probe-fractional":
        gen = f"{out}/gen"
        return [
            Command("gen", ("gen", "--kind", "fractional", "--alpha", "0.4", "--grid", "256x256",
                            "--seed", s, "--out", gen), gen),
            Command("diagnose_field", ("diagnose", "--in", f"{gen}/field.oflx", "--seed", s,
                                       "--out", f"{out}/diagnose_field"), f"{out}/diagnose_field"),
            Command("diagnose_traj", ("diagnose", "--in", f"{inp}/traj", "--seed", s,
                                      "--out", f"{out}/diagnose_traj"), f"{out}/diagnose_traj"),
        ]
    sweep = Command("sweep", ("sweep", "--config", f"{inp}/sweep.json", "--out", f"{out}/sweep"),
                    f"{out}/sweep")
    if workload == "sweep-periodic":
        return [sweep]
    if workload == "sweep-channel":
        etas = ",".join(repr(e) for e in ETAS)
        return [sweep, Command(
            "boundary",
            ("boundary", "--config", f"{inp}/boundary.json", "--in", f"{out}/sweep/traj_nu0.005",
             "--etas", etas, "--out", f"{out}/boundary"),
            f"{out}/boundary",
        )]
    raise ValueError(f"unknown workload {workload!r}")


def useful_steps(workload: str) -> int:
    """Solver steps a sweep needs: sum over nu of round(max(t_end, t_star) / dt)."""
    cfg = SWEEP_CONFIGS.get(workload)
    if cfg is None:
        return 0
    return len(cfg["nus"]) * round(max(cfg["t_end"], cfg["t_star"]) / cfg["dt"])


def write_inputs(workload: str, seed: int, inp: Path) -> None:
    """Write the files a workload's commands read (the set-up step)."""
    import oflux.cli  # noqa: F401  (every command pays this import; so does set-up)

    inp.mkdir(parents=True, exist_ok=True)
    if workload == "probe-fractional":
        # criterion 03's frozen trajectory, without pressure: diagnose solves it
        import numpy as np
        from oflux import fieldio
        from oflux.grids import Snapshot, Trajectory, make_grid
        from oflux.synth import fractional_field

        grid = make_grid((256, 256), (2.0 * np.pi, 2.0 * np.pi))
        f = fractional_field(0.4, None, seed, grid)
        snaps = tuple(Snapshot(grid, f.velocity, None, 0.1 * i) for i in range(3))
        fieldio.write_trajectory(inp / "traj", Trajectory(snaps, 0.1))
        return
    cfg = dict(SWEEP_CONFIGS[workload], seed=seed)
    (inp / "sweep.json").write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    if workload == "sweep-channel":
        (inp / "boundary.json").write_text(json.dumps({"seed": seed}) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _finite_leaves(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite_leaves(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_leaves(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def gate_failures(cmd: Command, root: Path) -> list[str]:
    """Breaks of the gates the package itself states, for one command's output."""
    out = root / cmd.out
    try:
        if cmd.argv[0] == "gen":
            return [] if (out / "field.oflx").is_file() else ["gen: no field.oflx"]
        if cmd.argv[0] == "diagnose":
            fits = _load(out / "summary.json").get("fits", [])
            ok = len(fits) == 3 and all(
                math.isfinite(f["slope"]) and math.isfinite(f["r2"]) for f in fits
            )
            return [] if ok else [f"{cmd.name}: summary.json lacks three finite fits"]
        if cmd.argv[0] == "sweep":
            v = _load(out / "verdict.json")
            res = v.get("max_leray_residual")
            ok = v.get("leray_ok") is True and isinstance(res, float) and res <= 1e-8
            return [] if ok else [f"{cmd.name}: Leray-Hopf gate failed ({res})"]
        if cmd.argv[0] == "boundary":
            v = _load(out / "verdict.json")
            ok = _finite_leaves(v.get("verdict")) and _finite_leaves(v.get("global_balance"))
            return [] if ok else [f"{cmd.name}: non-finite verdict or balance"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{cmd.name}: unreadable output ({type(exc).__name__}: {exc})"]
    return []


def key_values(cmd: Command, root: Path) -> dict:
    """Verdict strings and key numbers of one command's output, flattened."""
    out = root / cmd.out
    vals: dict = {}
    if cmd.argv[0] == "diagnose":
        s = _load(out / "summary.json")
        vals["verdict"] = s["verdict"]
        vals["alpha"] = s["alpha"]
        for f in s["fits"]:
            vals[f"slope.{f['quantity']}"] = f["slope"]
        if "dr_sweep" in s:
            vals["dr_sweep.verdict"] = s["dr_sweep"]["verdict"]
            vals["dr_sweep.slope"] = s["dr_sweep"]["fit"]["slope"]
            vals["dr_sweep.values"] = s["dr_sweep"]["fit"]["values"]
    elif cmd.argv[0] == "sweep":
        v = _load(out / "verdict.json")
        vals["verdict"] = v["dissipation_sweep"]["verdict"]
        vals["dissipation_rows"] = v["dissipation_sweep"]["rows"]
        if "viscous_flux" in v:
            vals["viscous_flux.verdict"] = v["viscous_flux"]["verdict"]
            vals["viscous_flux.flux"] = v["viscous_flux"]["flux"]
    elif cmd.argv[0] == "boundary":
        v = _load(out / "verdict.json")["verdict"]
        vals["verdict"] = v["verdict"]
        vals["flux_ladder"] = v["flux_ladder"]
    return vals


def mismatches(got, want, where: str = "", rel: float = 1e-9) -> list[str]:
    """Differences between two key-value trees; floats compare to ``rel``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}.{k}", rel)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{where}[{i}]", rel)]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if math.isclose(got, want, rel_tol=rel, abs_tol=0.0) else [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def _main(argv: list[str]) -> int:
    import argparse

    ap = argparse.ArgumentParser(description="write one workload's inputs")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args(argv)
    write_inputs(args.workload, args.seed, Path(args.dir))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
