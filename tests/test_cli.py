import json
import os
import signal
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oflux import boundary, cli, commutator, fieldio, pressure, solver, synth
from oflux.cli import main
from oflux.errors import PreconditionError
from oflux.grids import Snapshot, Trajectory, make_grid, wall_distance, wall_normal_sign
from oflux.reports import canonical_json, config_hash, write_csv
from oflux.solver import SolverConfig, dissipation_sweep, run
from oflux.synth import fractional_field, taylor_green

from conftest import TWO_PI, channel_grid


def _read_all_bytes(directory):
    out = {}
    for p in sorted(Path(directory).rglob("*")):
        if p.is_file():
            out[str(p.relative_to(directory))] = p.read_bytes()
    return out


def _logged(real, log: Path):
    """``real``, appending a line to ``log`` at each call: a sweep's worker
    processes share no memory with the test, but they append to one file."""
    def logged(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write("call\n")
        return real(*args, **kwargs)

    return logged


def _calls(log: Path) -> int:
    return len(log.read_text().splitlines()) if log.exists() else 0


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["gen", "--kind", "fractional", "--alpha", "0.4", "--seed", "7", "--grid", "64x64"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _read_all_bytes(a) == _read_all_bytes(b)


def test_gen_taylor_green_matches_oracle(tmp_path):
    out = tmp_path / "tg"
    assert main(["gen", "--kind", "taylor-green", "--nu", "0.01", "--t", "0.5",
                 "--grid", "64x64", "--out", str(out)]) == 0
    snap = fieldio.read_snapshot(out / "field.oflx")
    oracle = taylor_green(snap.grid, 0.5, 0.01)
    assert np.array_equal(snap.velocity, oracle.velocity)
    assert snap.pressure is not None


def test_gen_invalid_alpha_exit_code(tmp_path, capsys):
    code = main(["gen", "--kind", "fractional", "--alpha", "1.4", "--grid", "64x64",
                 "--out", str(tmp_path)])
    assert code == 3
    assert "alpha" in capsys.readouterr().err


def test_gen_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "taylor-green", "bogus": 1}))
    code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "gen.bogus" in capsys.readouterr().err


def test_config_roundtrip_bytes(tmp_path):
    # parse -> canonical serialize is byte-stable
    cfg = {"kind": "fractional", "alpha": 0.4, "seed": 7, "grid": "64x64"}
    text = canonical_json(cfg)
    again = canonical_json(json.loads(text))
    assert text == again
    out = tmp_path / "o"
    main(["gen", "--config", _write(tmp_path, cfg), "--out", str(out)])
    echoed = json.loads((out / "config.json").read_text())
    assert config_hash(echoed) == json.loads((out / "manifest.json").read_text())["config_sha256"]


def _write(tmp_path, cfg):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def test_diagnose_smooth_field(tmp_path):
    gen_out = tmp_path / "g"
    main(["gen", "--kind", "fractional", "--alpha", "0.5", "--cutoff", "2", "--seed", "3",
          "--grid", "128x128", "--out", str(gen_out)])
    diag_out = tmp_path / "d"
    code = main(["diagnose", "--in", str(gen_out / "field.oflx"), "--out", str(diag_out)])
    assert code == 0
    summary = json.loads((diag_out / "summary.json").read_text())
    flux_fit = next(f for f in summary["fits"] if f["quantity"] == "flux")
    assert flux_fit["slope"] >= 1.8
    assert (diag_out / "scaling.csv").exists()


def test_diagnose_zero_field(tmp_path):
    from oflux.grids import Snapshot, make_grid

    g = make_grid((64, 64), (TWO_PI, TWO_PI))
    z = Snapshot(g, np.zeros((2, *g.dims)))
    fieldio.write_snapshot(tmp_path / "z.oflx", z)
    code = main(["diagnose", "--in", str(tmp_path / "z.oflx"), "--out", str(tmp_path / "dz")])
    assert code == 0
    summary = json.loads((tmp_path / "dz" / "summary.json").read_text())
    assert summary["verdict"].startswith("degenerate")


def test_diagnose_under_resolved_ladder(tmp_path, capsys):
    gen_out = tmp_path / "g"
    main(["gen", "--kind", "fractional", "--alpha", "0.5", "--seed", "1",
          "--grid", "64x64", "--out", str(gen_out)])
    code = main(["diagnose", "--in", str(gen_out / "field.oflx"),
                 "--out", str(tmp_path / "d"), "--epsilons", "0.4,0.3,0.2,0.01"])
    assert code == 3
    assert "admissible ladder" in capsys.readouterr().err


@pytest.mark.parametrize("epsilons", ["0.6,0.6,0.5,0.4,0.3", "0.6,0.5,0.4"], ids=["repeated rung", "3 rungs"])
def test_diagnose_bad_ladder_exits_before_any_probe(tmp_path, monkeypatch, capsys, epsilons):
    grid = make_grid((64, 64), (TWO_PI, TWO_PI))
    field = fieldio.write_snapshot(tmp_path / "f.oflx", fractional_field(0.4, None, 0, grid))
    monkeypatch.setattr(synth, "estimate_holder_exponent", lambda *a, **k: pytest.fail("the survey ran"))
    monkeypatch.setattr(commutator, "probe_rungs", lambda *a, **k: pytest.fail("a probe ran"))
    out = tmp_path / "d"
    assert main(["diagnose", "--in", str(field), "--epsilons", epsilons, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "diagnose.epsilons" in err and "admissible ladder" in err and "internal error" not in err
    assert _no_output(out)


def test_boundary_command_steady_and_leak(tmp_path):
    grid = channel_grid(128, 129)
    _, y = grid.meshes()
    prof = np.sin(np.pi * y) ** 2
    u = np.stack([np.broadcast_to(prof, grid.dims).copy(), np.zeros(grid.dims)])
    p = np.zeros(grid.dims)
    traj = Trajectory(tuple(Snapshot(grid, u, p, 0.1 * i) for i in range(3)), 0.1)
    tdir = tmp_path / "steady"
    fieldio.write_trajectory(tdir, traj)
    code = main(["boundary", "--in", str(tdir), "--out", str(tmp_path / "bs")])
    assert code == 0
    verdict = json.loads((tmp_path / "bs" / "verdict.json").read_text())
    assert verdict["exit_code"] == 0

    d = np.broadcast_to(wall_distance(grid), grid.dims)
    sgn = wall_normal_sign(grid)
    leak = np.where(d < 0.3, 0.1 * sgn, 0.0)
    u2 = np.stack([np.broadcast_to(prof, grid.dims).copy(), leak])
    p2 = np.ones(grid.dims)
    traj2 = Trajectory(tuple(Snapshot(grid, u2, p2, 0.1 * i) for i in range(3)), 0.1)
    tdir2 = tmp_path / "leak"
    fieldio.write_trajectory(tdir2, traj2)
    code2 = main(["boundary", "--in", str(tdir2), "--out", str(tmp_path / "bl")])
    assert code2 == 3


def test_sweep_reproducible_bytes(tmp_path):
    cfg = {
        "geometry": "periodic",
        "grid": "64x64",
        "initial": {"kind": "taylor-green", "nu": 0.01},
        "nus": [1e-2, 3e-3],
        "dt": 0.01,
        "t_end": 0.1,
        "t_star": 0.1,
        "snapshot_stride": 5,
    }
    outs = []
    for tag in ("s1", "s2"):
        out = tmp_path / tag
        assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        outs.append(_read_all_bytes(out))
    assert outs[0] == outs[1]
    names = set(outs[0])
    assert "dissipation.csv" in names and "verdict.json" in names
    assert any(n.startswith("series_nu") for n in names)


def test_report_command(tmp_path, capsys):
    gen_out = tmp_path / "g"
    main(["gen", "--kind", "taylor-green", "--grid", "64x64", "--out", str(gen_out)])
    code = main(["report", "--in", str(gen_out)])
    assert code == 0
    assert "oflux" in capsys.readouterr().out


def test_report_detects_tampered_config(tmp_path):
    gen_out = tmp_path / "g"
    main(["gen", "--kind", "taylor-green", "--grid", "64x64", "--out", str(gen_out)])
    cfg_path = gen_out / "config.json"
    payload = json.loads(cfg_path.read_text())
    payload["t"] = 9.9
    cfg_path.write_text(canonical_json(payload))
    assert main(["report", "--in", str(gen_out)]) == 3


def test_report_returns_the_code_the_command_exited_with(tmp_path, capsys):
    sweep_cfg = {"grid": "16x16", "nus": [0.01], "dt": 0.01, "t_end": 0.05}
    assert main(["sweep", "--config", _write(tmp_path, sweep_cfg), "--out", str(tmp_path / "s")]) == 2
    assert main(["report", "--in", str(tmp_path / "s")]) == 2  # "inconclusive: fewer than 2 resolved entries"
    gen_out = tmp_path / "g"
    assert main(["gen", "--kind", "fractional", "--alpha", "0.2", "--grid", "64x64", "--out", str(gen_out)]) == 0
    diag_out = tmp_path / "d"
    assert main(["diagnose", "--in", str(gen_out / "field.oflx"), "--alpha", "0.9", "--out", str(diag_out)]) == 2
    assert main(["report", "--in", str(diag_out)]) == 2  # "scaling exponents below prediction"

    summary = json.loads((diag_out / "summary.json").read_text())
    del summary["exit_code"]
    for stored in ({}, {"exit_code": True}, {"exit_code": "2"}):
        (diag_out / "summary.json").write_text(json.dumps(summary | stored))
        capsys.readouterr()
        assert main(["report", "--in", str(diag_out)]) == 3
        err = capsys.readouterr().err
        assert "summary.json" in err and "exit_code" in err and "internal error" not in err


def test_boundary_refuses_a_single_snapshot_before_any_solve(tmp_path, monkeypatch, capsys):
    grid = channel_grid(32, 129)
    _, y = grid.meshes()
    u = np.stack([np.broadcast_to(np.sin(np.pi * y) ** 2, grid.dims), np.zeros(grid.dims)])
    fieldio.write_snapshot(tmp_path / "one.oflx", Snapshot(grid, u))  # no pressure: the command would solve it
    monkeypatch.setattr(pressure, "solve_pressure_channel", lambda s: pytest.fail("the pressure was solved"))
    out = tmp_path / "b"
    assert main(["boundary", "--in", str(tmp_path / "one.oflx"), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "boundary.input" in err and "at least 2 snapshots" in err and "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["0.5", "0.6"])
def test_boundary_gamma_past_the_half_width_exits_before_any_solve(tmp_path, monkeypatch, capsys, gamma):
    grid = channel_grid(16, 65)  # unit height: the half-width is 0.5
    _, y = grid.meshes()
    u = np.stack([np.broadcast_to(np.sin(np.pi * y) ** 2, grid.dims), np.zeros(grid.dims)])
    traj = Trajectory(tuple(Snapshot(grid, u, None, 0.1 * i) for i in range(3)), 0.1)
    fieldio.write_trajectory(tmp_path / "traj", traj)
    solves = []
    monkeypatch.setattr(pressure, "solve_pressure_channel", lambda s: solves.append(s.time))
    monkeypatch.setattr(boundary, "conservation_verdict", lambda *a, **k: pytest.fail("the verdict ran"))
    out = tmp_path / "b"
    argv = ["boundary", "--in", str(tmp_path / "traj"), "--etas", "0.4,0.3,0.2", "--gamma", gamma, "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "boundary.gamma" in err and "half-width" in err and "internal error" not in err
    assert solves == [] and _no_output(out)


def test_boundary_too_small_an_interior_exits_before_any_solve(tmp_path, monkeypatch, capsys):
    # 17 interior planes of 33: the Hölder survey's ladder has 3 rungs
    grid = channel_grid(32, 33)
    _, y = grid.meshes()
    u = np.stack([np.broadcast_to(np.sin(np.pi * y) ** 2, grid.dims), np.zeros(grid.dims)])
    traj = Trajectory(tuple(Snapshot(grid, u, None, 0.1 * i) for i in range(3)), 0.1)
    fieldio.write_trajectory(tmp_path / "traj", traj)
    monkeypatch.setattr(pressure, "solve_pressure_channel", lambda s: pytest.fail("the pressure was solved"))
    monkeypatch.setattr(boundary, "shell_flux", lambda *a: pytest.fail("a shell flux ran"))
    out = tmp_path / "b"
    assert main(["boundary", "--in", str(tmp_path / "traj"), "--etas", "0.4,0.3,0.2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "boundary.input" in err and "32x33" in err and "3 separation rungs" in err
    assert _no_output(out)


def test_boundary_solves_only_the_missing_pressure(tmp_path, monkeypatch):
    grid = channel_grid(16, 65)
    _, y = grid.meshes()
    u = np.stack([np.broadcast_to(np.sin(np.pi * y) ** 2, grid.dims), np.zeros(grid.dims)])
    stored = np.random.default_rng(1).standard_normal((3, *grid.dims))
    snaps = [Snapshot(grid, u, None if i == 1 else stored[i], 0.1 * i) for i in range(3)]
    fieldio.write_trajectory(tmp_path / "traj", Trajectory(tuple(snaps), 0.1))
    solved, seen = [], []
    real_solve, real_verdict = pressure.solve_pressure_channel, boundary.conservation_verdict

    def counting_solve(snap):
        solved.append(snap.time)
        return real_solve(snap)

    def capturing_verdict(traj, *args, **kwargs):
        seen.append(traj)
        return real_verdict(traj, *args, **kwargs)

    monkeypatch.setattr(pressure, "solve_pressure_channel", counting_solve)
    monkeypatch.setattr(boundary, "conservation_verdict", capturing_verdict)
    argv = ["boundary", "--in", str(tmp_path / "traj"), "--etas", "0.4,0.3,0.2", "--out", str(tmp_path / "b")]
    assert main(argv) in (0, 2)
    assert solved == [0.1]
    got = seen[0].snapshots
    assert got[0].pressure.tobytes() == stored[0].tobytes() and got[2].pressure.tobytes() == stored[2].tobytes()
    assert got[1].pressure.tobytes() == real_solve(snaps[1]).tobytes()


def _channel_sweep_with_etas(tmp_path, monkeypatch):
    """Run the small channel sweep with the shell criterion; return its output
    directory and the log of the channel pressure solves (``_logged``)."""
    cfg = {"geometry": "channel", "grid": "16x65", "initial": {"kind": "poiseuille"},
           "nus": [1e-2, 5e-3], "dt": 0.001, "t_end": 0.005, "etas": [0.4, 0.3, 0.2]}
    log = tmp_path / "solves.log"
    monkeypatch.setattr(pressure, "solve_pressure_channel", _logged(pressure.solve_pressure_channel, log))
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) in (0, 2)
    return out, log


def test_channel_sweep_solves_each_pressure_once_and_boundary_reads_it(tmp_path, monkeypatch):
    out, log = _channel_sweep_with_etas(tmp_path, monkeypatch)
    trajs = [fieldio.load_input(out / f"traj_nu{nu:g}") for nu in (1e-2, 5e-3)]
    assert all(s.pressure is not None for traj in trajs for s in traj.snapshots)
    assert _calls(log) == sum(len(traj) for traj in trajs)  # each written snapshot once per nu
    log.unlink()
    assert main(["boundary", "--in", str(out / "traj_nu0.005"), "--etas", "0.4,0.3,0.2",
                 "--out", str(tmp_path / "b")]) in (0, 2)
    assert _calls(log) == 0


def test_boundary_bytes_do_not_depend_on_a_stored_pressure(tmp_path, monkeypatch):
    out, _ = _channel_sweep_with_etas(tmp_path, monkeypatch)
    stored = fieldio.load_input(out / "traj_nu0.005")
    bare = stored.map(lambda s: Snapshot(s.grid, s.velocity, None, s.time, s.tags))
    fieldio.write_trajectory(tmp_path / "bare", bare, tags={"nu": 0.005})
    for name, traj in (("stored", out / "traj_nu0.005"), ("bare", tmp_path / "bare")):
        assert main(["boundary", "--in", str(traj), "--etas", "0.4,0.3,0.2", "--out", str(tmp_path / name)]) in (0, 2)
    for name in ("verdict.json", "ladder.csv", "modulus.csv"):
        assert (tmp_path / "stored" / name).read_bytes() == (tmp_path / "bare" / name).read_bytes()


def test_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("OFLUX_OUTPUT_DIR", str(tmp_path / "envout"))
    code = main(["gen", "--kind", "taylor-green", "--grid", "64x64"])
    assert code == 0
    assert (tmp_path / "envout" / "field.oflx").exists()


def test_diagnose_trajectory_runs_dr_sweep(tmp_path):
    from oflux.grids import Snapshot, Trajectory, make_grid
    from oflux.pressure import solve_pressure_periodic
    from oflux.synth import fractional_field

    g = make_grid((64, 64), (TWO_PI, TWO_PI))
    f = fractional_field(0.6, None, 2, g)
    p = solve_pressure_periodic(f)
    traj = Trajectory(tuple(Snapshot(g, f.velocity, p, 0.1 * i) for i in range(3)), 0.1)
    tdir = tmp_path / "traj"
    fieldio.write_trajectory(tdir, traj)
    out = tmp_path / "diag"
    code = main(["diagnose", "--in", str(tdir), "--out", str(out)])
    assert code in (0, 2)
    summary = json.loads((out / "summary.json").read_text())
    assert "dr_sweep" in summary
    assert (out / "dr_sweep.csv").exists()


def test_malformed_epsilon_list_exit_code(tmp_path, capsys):
    gen_out = tmp_path / "g"
    main(["gen", "--kind", "taylor-green", "--grid", "64x64", "--out", str(gen_out)])
    code = main(["diagnose", "--in", str(gen_out / "field.oflx"), "--out", str(tmp_path / "d"),
                 "--epsilons", "1,x"])
    assert code == 3
    err = capsys.readouterr().err
    assert "diagnose.epsilons" in err and "internal error" not in err


def test_malformed_alpha_and_nus_exit_code(tmp_path, capsys):
    gen_out = tmp_path / "g"
    main(["gen", "--kind", "taylor-green", "--grid", "64x64", "--out", str(gen_out)])
    assert main(["diagnose", "--in", str(gen_out / "field.oflx"), "--alpha", "half"]) == 3
    cfg = _write(tmp_path, {"input": str(gen_out / "field.oflx"), "alpha": "half"})
    assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")]) == 3
    assert main(["sweep", "--nus", "0.01,", "--dt", "0.01", "--t-end", "0.1"]) == 3
    assert "internal error" not in capsys.readouterr().err


def test_malformed_extent_exit_code(tmp_path, capsys):
    code = main(["gen", "--kind", "fractional", "--alpha", "0.4", "--grid", "64x64",
                 "--extent", "1xfoo", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "gen.extent" in err and "internal error" not in err


def test_sweep_non_finite_initial_state_exit_code(tmp_path, capsys):
    cfg = {
        "geometry": "periodic",
        "grid": "32x32",
        "initial": {"kind": "taylor-green", "t": float("nan")},  # NaN decay factor
        "nus": [1e-2, 3e-3],
        "dt": 0.01,
        "t_end": 0.1,
    }
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    assert "sweep.initial.t" in capsys.readouterr().err
    assert not out.exists()


def test_gen_non_finite_time_exit_code(tmp_path, capsys):
    code = main(["gen", "--kind", "taylor-green", "--t", "nan", "--grid", "16x16",
                 "--out", str(tmp_path / "g")])
    assert code == 3
    assert "gen.t" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_gen_non_finite_extent_exit_code(tmp_path, capsys):
    code = main(["gen", "--kind", "fractional", "--alpha", "0.4", "--grid", "16x16",
                 "--extent", "1xinf", "--out", str(tmp_path / "g")])
    assert code == 3
    assert "gen.extent" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


_SMALL_PERIODIC_SWEEP = {
    "geometry": "periodic",
    "grid": "32x32",
    "initial": {"kind": "taylor-green", "nu": 0.01},
    "nus": [1e-2, 3e-3],
    "dt": 0.01,
    "t_end": 0.1,
}


@pytest.mark.parametrize("flag, key", [(["--nus", "1e-2,nan"], "sweep.nus"), (["--dt", "nan"], "sweep.dt")])
def test_sweep_non_finite_flag_exit_code(tmp_path, capsys, flag, key):
    out = tmp_path / "s"
    code = main(["sweep", "--config", _write(tmp_path, _SMALL_PERIODIC_SWEEP), "--out", str(out)] + flag)
    assert code == 3
    err = capsys.readouterr().err
    assert key in err and "internal error" not in err
    assert not out.exists()


def test_sweep_non_finite_config_value_exit_code(tmp_path, capsys):
    cfg = dict(_SMALL_PERIODIC_SWEEP, t_star=float("nan"))  # written as the JSON token NaN
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "sweep.t_star" in err and "internal error" not in err
    assert not out.exists()


def _small_sweep(geometry):
    """A CLI sweep config on a small grid with its initial state."""
    if geometry == "periodic":
        cfg = dict(_SMALL_PERIODIC_SWEEP, t_end=0.2, snapshot_stride=4)  # t_end on a snapshot
        grid = make_grid((32, 32), (TWO_PI, TWO_PI))
        return cfg, taylor_green(grid, 0.0, 0.01)
    cfg = {"geometry": "channel", "grid": "32x33", "initial": {"kind": "poiseuille"},
           "nus": [2e-2, 1e-2], "dt": 0.005, "t_end": 0.1, "snapshot_stride": 3}  # t_end between snapshots
    grid = channel_grid(32, 33, ly=1.0)
    x, y = grid.meshes()
    prof = np.sin(np.pi * y / grid.extents[1]) ** 2
    u0 = np.ascontiguousarray(np.broadcast_to(prof, grid.dims) + 0.05 * np.sin(2 * x) * prof)
    return cfg, Snapshot(grid, np.stack([u0, np.zeros(grid.dims)]))


@pytest.mark.parametrize("ratio", [0.65, 1.0, 1.5], ids=["t_star<t_end", "t_star=t_end", "t_star>t_end"])
@pytest.mark.parametrize("geometry", ["periodic", "channel"])
def test_sweep_integrates_each_viscosity_once(tmp_path, monkeypatch, geometry, ratio):
    cfg, _ = _small_sweep(geometry)
    cfg["t_star"] = ratio * cfg["t_end"]
    log = tmp_path / "steps.log"
    monkeypatch.setattr(solver, "step", _logged(solver.step, log))
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "s")]) in (0, 2)
    steps = round(max(cfg["t_end"], cfg["t_star"]) / cfg["dt"])
    assert _calls(log) == len(cfg["nus"]) * steps


@pytest.mark.parametrize("ratio", [0.65, 1.5], ids=["t_star<t_end", "t_star>t_end"])
@pytest.mark.parametrize("geometry", ["periodic", "channel"])
def test_sweep_outputs_match_separate_runs(tmp_path, geometry, ratio):
    cfg, initial = _small_sweep(geometry)
    t_star = cfg["t_star"] = ratio * cfg["t_end"]
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) in (0, 2)
    base = SolverConfig(cfg["nus"][0], cfg["dt"], cfg["t_end"], initial,
                        snapshot_stride=cfg["snapshot_stride"])

    rows = json.loads((out / "verdict.json").read_text())["dissipation_sweep"]["rows"]
    assert rows == [list(r) for r in dissipation_sweep(base, cfg["nus"], t_star).rows]
    for nu, value, _ in rows:
        assert value == run(replace(base, nu=nu, t_end=t_star))[1].cumulative_dissipation[-1]

    ref = tmp_path / "ref"
    for nu in cfg["nus"]:
        traj, series = run(replace(base, nu=nu))
        fieldio.write_trajectory(ref / f"traj_nu{nu:g}", traj, tags={"nu": nu})
        write_csv(ref / f"series_nu{nu:g}.csv", ["t", "E", "cumulative_dissipation", "leray_residual"],
                  series.rows())
    written = _read_all_bytes(out)
    expected = _read_all_bytes(ref)
    assert {k: written[k] for k in expected} == expected
    assert sorted(k for k in written if k.startswith(("traj_", "series_"))) == sorted(expected)


def test_sweep_t_star_off_the_step_grid_exit_code(tmp_path, capsys):
    cfg = dict(_SMALL_PERIODIC_SWEEP, t_star=0.125)
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    assert "t_star must be an integer number of steps" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_failure_after_t_star_writes_nothing(tmp_path, monkeypatch, capsys):
    cfg = dict(_SMALL_PERIODIC_SWEEP, t_star=0.05)
    real_step = solver.step

    def failing_step(state, scfg, *args):
        if scfg.nu == min(cfg["nus"]) and state.t > cfg["t_star"]:
            raise PreconditionError("CFL violation (injected)")
        return real_step(state, scfg, *args)

    monkeypatch.setattr(solver, "step", failing_step)
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    assert "injected" in capsys.readouterr().err
    assert not out.exists()


def _cpus(monkeypatch, n):
    """Make the sweep see ``n`` available CPUs; return how many workers each of its worker sets may run at once."""
    sizes = []

    class Recording(cli._Workers):
        def __init__(self):
            super().__init__()
            sizes.append(self.limit)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(cli, "_Workers", Recording)
    return sizes


@pytest.mark.parametrize("geometry", ["periodic", "channel"])
def test_sweep_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, geometry):
    if geometry == "periodic":
        cfg = dict(_SMALL_PERIODIC_SWEEP, nus=[1e-2, 3e-3, 1e-3], snapshot_stride=5)
    else:
        cfg = {"geometry": "channel", "grid": "16x65", "initial": {"kind": "poiseuille"},
               "nus": [1e-2, 5e-3, 2.5e-3], "dt": 0.001, "t_end": 0.005, "etas": [0.4, 0.3, 0.2]}
    outs = []
    for n in (1, 2):
        with monkeypatch.context() as m:
            sizes = _cpus(m, n)
            out = tmp_path / f"w{n}"
            assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) in (0, 2)
        assert sizes == [n]
        outs.append(_read_all_bytes(out))
    assert outs[0] == outs[1]
    assert {k for k in outs[0] if k.startswith("series_")} == {f"series_nu{nu:g}.csv" for nu in cfg["nus"]}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "w1", "w2"]  # no staging left


def test_sweep_failing_in_two_workers_names_the_larger_viscosity(tmp_path, monkeypatch, capsys):
    cfg = dict(_SMALL_PERIODIC_SWEEP, nus=[1e-2, 3e-3, 1e-3])
    real_step = solver.step

    def failing_step(state, scfg, *args):  # the smaller viscosity fails first
        if scfg.nu == 1e-3 or scfg.nu == 3e-3 and state.t > 0.05:
            raise PreconditionError(f"CFL violation at nu={scfg.nu:g} (injected)")
        return real_step(state, scfg, *args)

    monkeypatch.setattr(solver, "step", failing_step)
    sizes = _cpus(monkeypatch, 3)
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    assert sizes == [3]
    err = capsys.readouterr().err
    assert "nu=0.003 (injected)" in err and "nu=0.001" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]  # no out, no staging directory
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped


def _record(log: Path, k: int, size: int):
    """Log this call's start and end around a short sleep; return ``size`` bytes tagged with ``k``."""
    with open(log, "a") as fh:
        fh.write(f"start {k}\n")
    time.sleep(0.05)
    with open(log, "a") as fh:
        fh.write(f"end {k}\n")
    return k, bytes(size)


def _refuse(k: int):
    raise PreconditionError(f"call {k} refused (injected)")


@pytest.mark.parametrize("limit", [1, 2, 3])
def test_workers_keep_submission_order_and_their_limit(tmp_path, monkeypatch, limit):
    log = tmp_path / "calls.log"
    sizes = [1 << 20, 10, 3 << 16, 0, 1]  # results past a pipe's buffer included
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(limit)))
    with cli._Workers() as workers:
        for k, size in enumerate(sizes):
            workers.submit(_record, log, k, size)
        assert workers.results() == [(k, bytes(size)) for k, size in enumerate(sizes)]
    running = peak = 0
    for line in log.read_text().splitlines():  # a call starts only after a worker's slot was freed
        running += 1 if line.startswith("start") else -1
        peak = max(peak, running)
    assert peak <= limit and running == 0


def test_workers_raise_the_first_failure_in_submission_order(tmp_path, monkeypatch):
    log = tmp_path / "calls.log"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(PreconditionError, match=r"^call 1 refused \(injected\)$"):
        with cli._Workers() as workers:
            workers.submit(_record, log, 0, 0)
            workers.submit(_refuse, 1)
            workers.submit(_refuse, 2)
            workers.results()
    assert "end 0" in log.read_text()


@pytest.mark.parametrize("key", ["t_end", "nus"])
def test_sweep_integer_too_large_for_a_float_exit_code(tmp_path, capsys, key):
    huge = 10**400
    cfg = dict(_SMALL_PERIODIC_SWEEP, **{key: huge if key == "t_end" else [1e-2, huge]})
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"sweep.{key}" in err and "internal error" not in err
    assert not out.exists()


def test_sweep_config_integer_past_the_digit_limit_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"nus": [0.01], "dt": 0.01, "t_end": ' + "1" * 5000 + "}")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == 3
    assert "internal error" not in capsys.readouterr().err


def test_sweep_leray_gate_covers_steps_past_t_end(tmp_path):
    cfg = dict(_SMALL_PERIODIC_SWEEP, t_end=0.13, t_star=0.2)
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) in (0, 2)
    _, initial = _small_sweep("periodic")
    worst = max(
        float(run(SolverConfig(nu, cfg["dt"], cfg["t_star"], initial))[1].leray_residual.max())
        for nu in cfg["nus"]
    )
    assert json.loads((out / "verdict.json").read_text())["max_leray_residual"] == worst


def test_sweep_failed_leray_gate_exits_2(tmp_path, capsys):
    # a rough fractional field on 16^2 leaves a residual of about 2e-6, above the 1e-8 gate
    cfg = dict(_SMALL_PERIODIC_SWEEP, grid="16x16", initial={"kind": "fractional", "alpha": 0.5}, nus=[1e-2, 1e-3])
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["leray_ok"] is False and verdict["max_leray_residual"] > 1e-8
    assert "Leray-Hopf gate" in capsys.readouterr().out


def test_sweep_initial_on_another_box_exit_code(tmp_path, capsys):
    # the initial field is generated on the sweep's 4 x 4 box, and Taylor-Green refuses any box but 2 pi
    cfg = dict(_SMALL_PERIODIC_SWEEP, grid="16x16", extent="4x4", initial={"kind": "taylor-green"}, nus=[1e-2, 1e-3])
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "sweep.initial: Taylor-Green requires extent 2*pi" in err and "internal error" not in err
    assert _no_output(out)


def test_sweep_fractional_initial_field_takes_the_sweeps_box(tmp_path):
    # the sweep's extent is the one the initial field is generated on; "initial" repeats no grid key
    cfg = dict(_SMALL_PERIODIC_SWEEP, grid="16x16", extent="1x1", initial={"kind": "fractional", "alpha": 0.5},
               nus=[1e-2, 1e-3], dt=0.001, t_end=0.005)
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) in (0, 2)
    assert fieldio.load_input(out / "traj_nu0.01").grid == make_grid((16, 16), (1.0, 1.0))


def test_gen_taylor_green_on_another_box_exit_code(tmp_path, capsys):
    # the extent is read for every kind, so a Taylor-Green field is not written on 2 pi under a 1 x 1 label
    out = tmp_path / "tg"
    assert main(["gen", "--kind", "taylor-green", "--grid", "16x16", "--extent", "1x1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "gen: Taylor-Green requires extent 2*pi" in err and "internal error" not in err
    assert _no_output(out)


@pytest.mark.parametrize("alpha, kind", [("auto", "fractional"), ("0.6", "fractional"), ("auto", "constant")],
                         ids=["auto", "0.6", "constant"])
def test_diagnose_runs_one_holder_survey(tmp_path, monkeypatch, alpha, kind):
    grid = make_grid((64, 64), (TWO_PI, TWO_PI))
    f = synth.fractional_field(0.6, None, 2, grid)
    if kind == "constant":  # no increments: a degenerate estimate, read at exponent 1
        f = Snapshot(grid, np.full((2, *grid.dims), 0.5))
    field = fieldio.write_snapshot(tmp_path / "f.oflx", f)
    log = tmp_path / "surveys.log"  # the survey runs in a worker process, so its calls are counted in a file
    monkeypatch.setattr(synth, "_increment_survey", _logged(synth._increment_survey, log))
    out = tmp_path / "d"
    assert main(["diagnose", "--in", str(field), "--alpha", alpha, "--out", str(out)]) in (0, 2)
    assert _calls(log) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["holder_seminorm"] == synth.holder_norm(f, summary["alpha"])


def test_diagnose_survey_refusal_in_the_worker_exits_3(tmp_path, monkeypatch, capsys):
    # 32²: the Hölder estimate's fit window holds too few separation rungs
    grid = make_grid((32, 32), (TWO_PI, TWO_PI))
    field = fieldio.write_snapshot(tmp_path / "f.oflx", fractional_field(0.4, None, 0, grid))
    log = tmp_path / "survey.pid"
    real = synth.estimate_holder_exponent

    def logged(*args, **kwargs):
        log.write_text(str(os.getpid()))
        return real(*args, **kwargs)

    monkeypatch.setattr(synth, "estimate_holder_exponent", logged)
    out = tmp_path / "d"
    assert main(["diagnose", "--in", str(field), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "error: diagnose.alpha: 'auto' cannot estimate the Hölder exponent on the 32x32 grid" in err
    assert "internal error" not in err and _no_output(out)
    assert int(log.read_text()) != os.getpid()  # the survey ran in a worker process


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_diagnose_survey_worker_failure_exits_1(tmp_path, monkeypatch, capsys, failure):
    grid = make_grid((64, 64), (TWO_PI, TWO_PI))
    field = fieldio.write_snapshot(tmp_path / "f.oflx", fractional_field(0.4, None, 0, grid))
    command = os.getpid()

    def failing_survey(*args, **kwargs):
        if os.getpid() == command:
            pytest.fail("the survey ran in the command's own process")
        if failure == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("survey failed (injected)")

    monkeypatch.setattr(synth, "estimate_holder_exponent", failing_survey)
    out = tmp_path / "d"
    assert main(["diagnose", "--in", str(field), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "internal error" in err
    assert ("RuntimeError: survey failed (injected)" if failure == "raises" else f"signal {signal.SIGKILL}") in err
    assert _no_output(out)


def test_diagnose_refusal_beside_a_running_survey_reaps_the_worker(tmp_path, monkeypatch, capsys):
    # the probe's rungs are refused in the command's process once the survey has started in its worker
    grid = make_grid((64, 64), (TWO_PI, TWO_PI))
    field = fieldio.write_snapshot(tmp_path / "f.oflx", fractional_field(0.4, None, 0, grid))
    log = tmp_path / "survey.log"

    def slow_survey(*args, **kwargs):
        log.write_text("started")
        time.sleep(60)
        log.write_text("finished")

    def refused_rungs(*args, **kwargs):
        while not (log.exists() and log.read_text() == "started"):  # the file is created before it is written
            time.sleep(0.01)
        raise PreconditionError("rungs refused (injected)")

    monkeypatch.setattr(synth, "estimate_holder_exponent", slow_survey)
    monkeypatch.setattr(commutator, "probe_rungs", refused_rungs)
    out = tmp_path / "d"
    start = time.monotonic()
    assert main(["diagnose", "--in", str(field), "--out", str(out)]) == 3
    assert time.monotonic() - start < 30  # the worker was killed, not waited for
    err = capsys.readouterr().err
    assert "rungs refused (injected)" in err and "internal error" not in err
    assert _no_output(out) and log.read_text() == "started"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # reaped


@pytest.mark.parametrize("field_kind", ["fractional", "zero"])
@pytest.mark.parametrize("dims, flags, reason", [
    ((63, 63), ["--phi-inner", "0.01"], "inner region must be nonempty"),
    ((64, 64), ["--phi-inner", "0.79", "--phi-outer", "0.8"], "zero-width transition"),
], ids=["empty-inner", "zero-width"])
def test_diagnose_phi_the_grid_cannot_hold_names_its_keys(tmp_path, monkeypatch, capsys, field_kind, dims, flags,
                                                          reason):
    # phi is built once, before the zero-field exit and before any worker is forked
    grid = make_grid(dims, (TWO_PI, TWO_PI))
    snap = fractional_field(0.4, None, 0, grid)
    if field_kind == "zero":
        snap = Snapshot(grid, np.zeros_like(snap.velocity))
    field = fieldio.write_snapshot(tmp_path / "f.oflx", snap)
    monkeypatch.setattr(cli, "_Workers", lambda: pytest.fail("a worker set was made"))
    out = tmp_path / "d"
    assert main(["diagnose", "--in", str(field), *flags, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"diagnose.phi_inner, diagnose.phi_outer: {reason}" in err and "internal error" not in err
    assert _no_output(out)


def test_diagnose_fits_are_the_library_probes_at_the_surveyed_alpha(tmp_path):
    # the command measures the rungs beside the survey and fits them once alpha is known
    from oflux.energy_balance import ChiWindow, TestFunction, dr_convergence_sweep
    from oflux.mollify import full_box_chain

    grid = make_grid((64, 64), (TWO_PI, TWO_PI))
    traj = Trajectory(tuple(Snapshot(grid, fractional_field(0.6, None, 1, grid).velocity, None, 0.1 * i)
                            for i in range(3)), 0.1)
    fieldio.write_trajectory(tmp_path / "traj", traj)
    out = tmp_path / "d"
    assert main(["diagnose", "--in", str(tmp_path / "traj"), "--out", str(out)]) in (0, 2)
    summary = json.loads((out / "summary.json").read_text())
    snap, alpha = traj.snapshots[1], summary["alpha"]
    ladder = cli._default_ladder(grid)
    phi = cli._diag_phi(grid, 0.4, 0.8)
    assert alpha == synth.estimate_holder_exponent(snap, seed=0, fit_window=(min(ladder), 2 * max(ladder))).exponent
    probe = commutator.scaling_probe(snap, alpha, ladder, phi=phi)
    test, chain = TestFunction(ChiWindow(*traj.t_range), phi), full_box_chain(grid, eta=4.0 * max(ladder))
    sweep = dr_convergence_sweep(pressure.fill_pressures(traj), ladder, test, alpha, chain)
    assert summary["fits"] == json.loads(canonical_json(probe.fits))
    assert summary["dr_sweep"]["fit"] == json.loads(canonical_json(sweep.fit))


@pytest.mark.parametrize("kappa", [None, 0.2])
def test_diagnose_trajectory_measures_the_probe_once(tmp_path, monkeypatch, kappa):
    # without a time radius the weak identity mollifies the probed snapshot as it is, so the probe is
    # read off its rungs; a time radius smooths that snapshot, and the probe runs on its own
    grid = make_grid((64, 64), (TWO_PI, TWO_PI))
    vel = fractional_field(0.6, None, 1, grid).velocity
    fieldio.write_trajectory(tmp_path / "traj", Trajectory(tuple(Snapshot(grid, vel, None, 0.1 * i)
                                                                 for i in range(5)), 0.1))
    calls, real = [], commutator.probe_rungs
    monkeypatch.setattr(commutator, "probe_rungs", lambda *a, **k: calls.append(1) or real(*a, **k))
    kappa_flag = [] if kappa is None else ["--kappa", str(kappa)]
    assert main(["diagnose", "--in", str(tmp_path / "traj"), *kappa_flag, "--out", str(tmp_path / "d")]) in (0, 2)
    assert len(calls) == (0 if kappa is None else 1)


def test_diagnose_seminorm_of_a_clamped_exponent_is_the_largest_increment(tmp_path):
    # white noise: the fitted slope is negative and clamps to 0, where the
    # seminorm is the largest increment the survey sampled
    grid = make_grid((64, 64), (TWO_PI, TWO_PI))
    vel = np.random.default_rng(0).standard_normal((2, *grid.dims))
    field = fieldio.write_snapshot(tmp_path / "noise.oflx", Snapshot(grid, vel))
    out = tmp_path / "d"
    assert main(["diagnose", "--in", str(field), "--out", str(out)]) in (0, 2)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["alpha"] == 0.0 and summary["alpha_source"]["estimated"]
    points, _, _ = synth._increment_survey(vel, grid, None, 0)
    assert summary["holder_seminorm"] == points[:, 1].max()


@pytest.mark.parametrize("damage", ["truncated", "missing"])
def test_diagnose_bad_field_file_exit_code(tmp_path, capsys, damage):
    gen_out = tmp_path / "g"
    assert main(["gen", "--kind", "taylor-green", "--grid", "16x16", "--out", str(gen_out)]) == 0
    field = gen_out / "field.oflx"
    if damage == "truncated":
        field.write_bytes(field.read_bytes()[:100])
    else:
        field.unlink()
    assert main(["diagnose", "--in", str(field), "--out", str(tmp_path / "d")]) == 3
    err = capsys.readouterr().err
    assert str(field) in err and "internal error" not in err


def _write_fractional_snapshots(directory, sizes):
    names = []
    for k, m in enumerate(sizes):
        grid = make_grid((m, m), (TWO_PI, TWO_PI))
        snap = fractional_field(0.4, None, k, grid)
        names.append(f"snap_{k:05d}.oflx")
        fieldio.write_snapshot(directory / names[-1], Snapshot(grid, snap.velocity, None, 0.1 * k))
    return names


@pytest.mark.parametrize("meta", ["{}", "[]", "not json", '{"files": FILES, "dt": "abc"}'])
def test_diagnose_bad_trajectory_json_exit_code(tmp_path, capsys, meta):
    traj = tmp_path / "traj"
    traj.mkdir()
    names = _write_fractional_snapshots(traj, (16, 16, 16))
    meta_path = traj / "trajectory.json"
    meta_path.write_text(meta.replace("FILES", json.dumps(names)))
    assert main(["diagnose", "--in", str(traj), "--out", str(tmp_path / "d")]) == 3
    err = capsys.readouterr().err
    assert str(meta_path) in err and "internal error" not in err


@pytest.mark.parametrize("sidecar", [b"[]", b'"x"', b'{"tags": "\xff"}', b'{"tags": 5}'],
                         ids=["list", "string", "not utf-8", "tags not an object"])
def test_diagnose_bad_sidecar_exit_code(tmp_path, capsys, sidecar):
    field = fieldio.write_snapshot(tmp_path / "f.oflx", taylor_green(make_grid((16, 16), (TWO_PI, TWO_PI))))
    side = tmp_path / "f.oflx.json"
    side.write_bytes(sidecar)
    assert main(["diagnose", "--in", str(field), "--out", str(tmp_path / "d")]) == 3
    err = capsys.readouterr().err
    assert str(side) in err and "internal error" not in err


def test_diagnose_trajectory_on_mixed_grids_exit_code(tmp_path, capsys):
    traj = tmp_path / "traj"
    traj.mkdir()
    names = _write_fractional_snapshots(traj, (32, 64, 32))
    (traj / "trajectory.json").write_text(json.dumps({"dt": 0.1, "files": names}))
    assert main(["diagnose", "--in", str(traj), "--out", str(tmp_path / "d")]) == 3
    err = capsys.readouterr().err
    assert "grid" in err and "internal error" not in err


def _no_output(out):
    return not out.exists() or not any(out.iterdir())


def test_sweep_unknown_geometry_exit_code(tmp_path, capsys):
    out = tmp_path / "s"
    cfg = dict(_SMALL_PERIODIC_SWEEP, geometry="torus")
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    assert "sweep.geometry" in capsys.readouterr().err
    assert _no_output(out)


@pytest.mark.parametrize("etas", [[5, -1], [0.4, 0.2, -0.1], [0.4, 0.3, 0.01]],
                         ids=["two shells", "negative", "under-resolved"])
def test_sweep_bad_shell_ladder_exits_before_integrating(tmp_path, monkeypatch, capsys, etas):
    cfg = {"geometry": "channel", "grid": "16x17", "initial": {"kind": "poiseuille"},
           "nus": [1e-2, 5e-3], "dt": 0.001, "t_end": 0.005, "etas": etas}
    log = tmp_path / "steps.log"
    monkeypatch.setattr(solver, "step", _logged(solver.step, log))
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    assert "sweep.etas" in capsys.readouterr().err
    assert _calls(log) == 0
    assert _no_output(out)


def test_sweep_negative_viscosity_exit_code(tmp_path, capsys):
    out = tmp_path / "s"
    cfg = dict(_SMALL_PERIODIC_SWEEP, nus=[1e-2, -1e-3])
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    assert "sweep.nus" in capsys.readouterr().err
    assert _no_output(out)


def test_gen_negative_viscosity_exit_code(tmp_path, capsys):
    out = tmp_path / "tg"
    code = main(["gen", "--kind", "taylor-green", "--nu", "-1", "--grid", "16x16", "--out", str(out)])
    assert code == 3
    assert "gen.nu" in capsys.readouterr().err
    assert _no_output(out)


def test_sweep_negative_initial_viscosity_exit_code(tmp_path, capsys):
    out = tmp_path / "s"
    cfg = dict(_SMALL_PERIODIC_SWEEP, initial={"kind": "taylor-green", "nu": -0.5})
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    assert "sweep.initial.nu" in capsys.readouterr().err
    assert _no_output(out)


@pytest.mark.parametrize("initial, key", [({"kind": "taylor-green", "nu": "abc"}, "nu"),
                                          ({"kind": "fractional", "alpha": "x"}, "alpha")])
def test_sweep_initial_wrong_type_exit_code(tmp_path, capsys, initial, key):
    out = tmp_path / "s"
    cfg = dict(_SMALL_PERIODIC_SWEEP, grid="16x16", initial=initial)
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"sweep.initial.{key}" in err and "internal error" not in err
    assert _no_output(out)


@pytest.mark.parametrize("nus", [[0.01, 0.01], [0.01, 0.0100000001]], ids=["repeated", "same file name"])
def test_sweep_repeated_viscosity_exits_before_integrating(tmp_path, monkeypatch, capsys, nus):
    cfg = {"geometry": "channel", "grid": "16x65", "initial": {"kind": "poiseuille"},
           "nus": nus, "dt": 0.001, "t_end": 0.005, "etas": [0.4, 0.3, 0.2]}
    log = tmp_path / "steps.log"
    monkeypatch.setattr(solver, "step", _logged(solver.step, log))
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "sweep.nus" in err and "internal error" not in err
    assert _calls(log) == 0
    assert _no_output(out)


def test_sweep_failing_flux_criterion_writes_nothing(tmp_path, monkeypatch, capsys):
    cfg = {"geometry": "channel", "grid": "16x33", "initial": {"kind": "poiseuille"},
           "nus": [1e-2, 5e-3], "dt": 0.001, "t_end": 0.005, "etas": [0.4, 0.3, 0.2]}

    def failing_criterion(runs, etas):
        raise PreconditionError("shell flux failed (injected)")

    monkeypatch.setattr(solver, "viscous_flux_criterion", failing_criterion)
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    assert "injected" in capsys.readouterr().err
    assert _no_output(out)


@pytest.mark.parametrize("geometry, nus, why", [("periodic", [1e-2, 5e-3], "a periodic sweep with 2"),
                                                ("channel", [1e-2], "a channel sweep with 1")])
def test_sweep_unused_etas_exit_before_integrating(tmp_path, monkeypatch, capsys, geometry, nus, why):
    # the ladder is admissible on the 16x33 channel, so only the unused-ladder check can reject it
    cfg = {"geometry": geometry, "grid": "16x16" if geometry == "periodic" else "16x33",
           "initial": {"kind": "taylor-green" if geometry == "periodic" else "poiseuille"},
           "nus": nus, "dt": 0.001, "t_end": 0.005, "etas": [0.4, 0.3, 0.2]}
    log = tmp_path / "steps.log"
    monkeypatch.setattr(solver, "step", _logged(solver.step, log))
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "sweep.etas" in err and why in err
    assert _calls(log) == 0
    assert _no_output(out)


def test_sweep_initial_out_exit_code(tmp_path, capsys):
    # a sweep writes its initial state nowhere, so a generator's "out" is refused
    out, elsewhere = tmp_path / "s", tmp_path / "elsewhere"
    cfg = dict(_SMALL_PERIODIC_SWEEP, grid="16x16",
               initial={"kind": "taylor-green", "out": str(elsewhere), "seed": 3})
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "sweep.initial.out" in err and "internal error" not in err
    assert _no_output(out) and not elsewhere.exists()


@pytest.mark.parametrize("name, text", [("manifest.json", "{not json"), ("manifest.json", "[]"),
                                        ("config.json", "{not json"), ("config.json", '"text"'),
                                        ("summary.json", "[1,2]"), ("verdict.json", "7")],
                         ids=["manifest-invalid", "manifest-list", "config-invalid", "config-string",
                              "summary-list", "verdict-number"])
def test_report_malformed_json_exit_code(tmp_path, capsys, name, text):
    gen_out = tmp_path / "g"
    assert main(["gen", "--kind", "taylor-green", "--grid", "16x16", "--out", str(gen_out)]) == 0
    (gen_out / name).write_text(text)
    capsys.readouterr()
    assert main(["report", "--in", str(gen_out)]) == 3
    err = capsys.readouterr().err
    assert name in err and "internal error" not in err


def test_sweep_missing_config_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "none.json"
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(missing), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(missing) in err and "internal error" not in err
    assert _no_output(out)


def test_report_manifest_hash_not_a_string_exit_code(tmp_path, capsys):
    gen_out = tmp_path / "g"
    assert main(["gen", "--kind", "taylor-green", "--grid", "16x16", "--out", str(gen_out)]) == 0
    (gen_out / "manifest.json").write_text('{"config_sha256": 5}')
    capsys.readouterr()
    assert main(["report", "--in", str(gen_out)]) == 3
    err = capsys.readouterr().err
    assert "config_sha256" in err and "manifest.json" in err and "internal error" not in err


@pytest.mark.parametrize("command, cfg, key", [
    ("diagnose", {"epsilons": []}, "diagnose.epsilons"),
    ("diagnose", {"seed": -1}, "diagnose.seed"),
    ("boundary", {"seed": -1}, "boundary.seed"),
    ("diagnose", {"phi_outer": 2.0}, "diagnose.phi_outer"),
    ("diagnose", {"phi_inner": 0.8}, "diagnose.phi_inner"),
    ("diagnose", {"phi_inner": 0}, "diagnose.phi_inner"),
    ("boundary", {"energy_tol": -1}, "boundary.energy_tol"),
    ("diagnose", {"alpha": 1.5}, "diagnose.alpha"),
    ("diagnose", {"alpha": 0}, "diagnose.alpha"),
    ("diagnose", {"alpha": "half"}, "diagnose.alpha"),
    ("diagnose", {"kappa": -1}, "diagnose.kappa"),
    ("diagnose", {"epsilons": [0.8, -0.4]}, "diagnose.epsilons"),
    ("diagnose", {"phi_outer": 0}, "diagnose.phi_outer"),
    ("boundary", {"etas": []}, "boundary.etas"),
    ("boundary", {"etas": [0.2, 0.1, 0]}, "boundary.etas"),
    ("boundary", {"gamma": 0}, "boundary.gamma"),
    ("boundary", {"beta": -0.5}, "boundary.beta"),
])
def test_bad_request_exits_before_reading_input(tmp_path, monkeypatch, capsys, command, cfg, key):
    # the input is a single field, so a request that diagnose ignores there must still be refused
    field = fieldio.write_snapshot(tmp_path / "in.oflx", taylor_green(make_grid((16, 16), (TWO_PI, TWO_PI))))
    loads = []
    monkeypatch.setattr(fieldio, "load_input", lambda path: loads.append(path))
    out = tmp_path / "o"
    code = main([command, "--config", _write(tmp_path, cfg), "--in", str(field), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert key in err and "internal error" not in err
    assert loads == [] and _no_output(out)


@pytest.mark.parametrize("command, cfg, key", [
    ("gen", {"kind": "vortex"}, "gen.kind"),
    ("gen", {"alpha": 1.0}, "gen.alpha"),
    ("gen", {"cutoff": 0}, "gen.cutoff"),
    ("gen", {"seed": -1}, "gen.seed"),
    ("gen", {"kind": "taylor-green", "nu": -1}, "gen.nu"),
    ("gen", {"grid": ""}, "gen.grid"),
    ("sweep", {"geometry": "torus"}, "sweep.geometry"),
    ("sweep", {"nus": []}, "sweep.nus"),
    ("sweep", {"nus": [1e-2, -1e-3]}, "sweep.nus"),
    ("sweep", {"dt": 0}, "sweep.dt"),
    ("sweep", {"t_end": -0.1}, "sweep.t_end"),
    ("sweep", {"t_star": 0}, "sweep.t_star"),
    ("sweep", {"snapshot_stride": 0}, "sweep.snapshot_stride"),
    ("sweep", {"cfl_limit": 0.6}, "sweep.cfl_limit"),
    ("sweep", {"etas": [0.4, 0.3, -0.2]}, "sweep.etas"),
    ("sweep", {"seed": -1}, "sweep.seed"),
    ("sweep", {"initial": {"kind": "vortex"}}, "sweep.initial.kind"),
    ("sweep", {"initial": {"kind": "fractional", "alpha": 1.2}}, "sweep.initial.alpha"),
    ("sweep", {"initial": {"kind": "fractional", "alpha": 0.4, "cutoff": 0}}, "sweep.initial.cutoff"),
    ("sweep", {"initial": {"kind": "poiseuille"}}, "sweep.initial.kind"),  # a channel profile on the box
    # the initial field is generated on the sweep's own grid, so it takes no grid keys of its own
    ("sweep", {"initial": {"kind": "taylor-green", "grid": "16x16"}}, "sweep.initial.grid"),
    ("sweep", {"initial": {"kind": "taylor-green", "extent": f"{TWO_PI!r}x{TWO_PI!r}"}}, "sweep.initial.extent"),
    # shear fields are 3D and the solver is 2D
    ("sweep", {"initial": {"kind": "taylor-green", "u_amp": 1.0}}, "sweep.initial.u_amp"),
    ("sweep", {"initial": {"kind": "taylor-green", "w_amp": 1.0}}, "sweep.initial.w_amp"),
    ("sweep", {"initial": {"kind": "shear"}}, "sweep.initial.kind"),
])
def test_bad_request_exits_before_any_step(tmp_path, monkeypatch, capsys, command, cfg, key):
    monkeypatch.setattr(solver, "step", lambda *a: pytest.fail("a solver step ran"))
    monkeypatch.setattr(fieldio, "load_input", lambda path: pytest.fail("an input was read"))
    base = {"kind": "fractional", "alpha": 0.4, "grid": "16x16"} if command == "gen" else \
        dict(_SMALL_PERIODIC_SWEEP, grid="16x16")
    out = tmp_path / "o"
    assert main([command, "--config", _write(tmp_path, {**base, **cfg}), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert key in err and "internal error" not in err
    assert _no_output(out)


@pytest.mark.parametrize("argv, key", [
    (["gen", "--kind", "fractional", "--alpha", "0.4", "--grid", "16x16", "--seed", "-1"], "gen.seed"),
    (["gen", "--kind", "taylor-green", "--grid", "16x16", "--seed", "-1"], "gen.seed"),
    (["sweep", "--config", {"initial": {"kind": "fractional", "alpha": 0.4, "seed": -1}}], "sweep.initial.seed"),
    (["sweep", "--config", {"initial": {"kind": "taylor-green", "seed": -1}}], "sweep.initial.seed"),
    (["sweep", "--config", {"geometry": "channel", "grid": "16x17", "initial": {"kind": "poiseuille", "seed": -1}}],
     "sweep.initial.seed"),
    (["sweep", "--config", {"seed": -1}], "sweep.seed"),
], ids=["gen-fractional", "gen-taylor-green", "sweep-initial-fractional", "sweep-initial-taylor-green",
        "sweep-initial-poiseuille", "sweep"])
def test_negative_seed_exit_code(tmp_path, monkeypatch, capsys, argv, key):
    monkeypatch.setattr(solver, "step", lambda *a: pytest.fail("a solver step ran"))
    if argv[0] == "sweep":
        argv = ["sweep", "--config", _write(tmp_path, {**_SMALL_PERIODIC_SWEEP, "grid": "16x16", **argv[2]})]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert key in err and "internal error" not in err
    assert _no_output(out)


@pytest.mark.parametrize("n", [16, 32])
def test_diagnose_auto_alpha_on_a_coarse_grid_names_the_key(tmp_path, capsys, n):
    # too few separation rungs for the Hölder estimate (16²) or inside its fit window (32²)
    grid = make_grid((n, n), (TWO_PI, TWO_PI))
    field = fieldio.write_snapshot(tmp_path / "f.oflx", fractional_field(0.4, None, 0, grid))
    out = tmp_path / "d"
    assert main(["diagnose", "--in", str(field), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "diagnose.alpha" in err and f"{n}x{n} grid" in err and "an explicit alpha runs" in err
    assert _no_output(out)
    assert main(["diagnose", "--in", str(field), "--alpha", "0.4", "--out", str(out)]) in (0, 2)


@pytest.mark.parametrize("ny, code", [(65, 3), (114, 0)])
def test_boundary_default_shells_need_114_points_across(tmp_path, capsys, ny, code):
    # the default ladder's 56h reaches the half-width of a channel with fewer points across
    grid = channel_grid(16, ny)
    _, y = grid.meshes()
    u = np.stack([np.broadcast_to(np.sin(np.pi * y) ** 2, grid.dims).copy(), np.zeros(grid.dims)])
    traj = Trajectory(tuple(Snapshot(grid, u, None, 0.1 * i) for i in range(3)), 0.1)
    fieldio.write_trajectory(tmp_path / "traj", traj)
    out = tmp_path / "b"
    assert main(["boundary", "--in", str(tmp_path / "traj"), "--out", str(out)]) == code
    if code == 3:
        err = capsys.readouterr().err
        assert "boundary.etas" in err and "114 points across" in err and f"16x{ny} grid" in err
        assert _no_output(out)


@pytest.mark.parametrize("frames", [1, 2])
def test_diagnose_kappa_without_a_weak_identity_exit_code(tmp_path, monkeypatch, capsys, frames):
    # a time radius smooths only the weak identity, which needs a trajectory of 3 snapshots
    monkeypatch.setattr(synth, "estimate_holder_exponent", lambda *a, **k: pytest.fail("survey ran"))
    monkeypatch.setattr(synth, "holder_norm", lambda *a, **k: pytest.fail("survey ran"))
    data = tmp_path / "traj"
    data.mkdir()
    names = _write_fractional_snapshots(data, (16,) * frames)
    if frames == 1:
        data = data / names[0]
    else:
        (data / "trajectory.json").write_text(json.dumps({"dt": 0.1, "files": names}))
    out = tmp_path / "d"
    assert main(["diagnose", "--in", str(data), "--alpha", "0.4", "--kappa", "123", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "diagnose.kappa" in err and f"holds {frames}" in err and "internal error" not in err
    assert _no_output(out)


def test_boundary_inadmissible_etas_exit_before_any_solve(tmp_path, monkeypatch, capsys):
    # 0.008 is about one spacing of the 64x129 channel: too few planes fall in its shell
    grid = channel_grid(64, 129)
    _, y = grid.meshes()
    u = np.stack([np.broadcast_to(np.sin(np.pi * y) ** 2, grid.dims), np.zeros(grid.dims)])
    traj = Trajectory(tuple(Snapshot(grid, u, None, 0.1 * i) for i in range(4)), 0.1)
    fieldio.write_trajectory(tmp_path / "traj", traj)
    log = tmp_path / "solves.log"
    monkeypatch.setattr(pressure, "solve_pressure_channel", _logged(pressure.solve_pressure_channel, log))
    out = tmp_path / "b"
    assert main(["boundary", "--in", str(tmp_path / "traj"), "--etas", "0.01,0.009,0.008", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "boundary.etas" in err and "shell under-resolved" in err and "internal error" not in err
    assert _calls(log) == 0 and _no_output(out)


def test_diagnose_time_radius_past_the_trajectory_exits_before_work(tmp_path, monkeypatch, capsys):
    # kappa = 1e9 asked the time kernel for 2e10 offsets before its reach was compared
    from oflux import mollify

    monkeypatch.setattr(mollify, "time_kernel", lambda *a: pytest.fail("time kernel built"))
    monkeypatch.setattr(synth, "estimate_holder_exponent", lambda *a, **k: pytest.fail("survey ran"))
    traj = tmp_path / "traj"
    traj.mkdir()
    names = _write_fractional_snapshots(traj, (16, 16, 16))
    (traj / "trajectory.json").write_text(json.dumps({"dt": 0.1, "files": names}))
    out = tmp_path / "d"
    cfg = _write(tmp_path, {"kappa": 1e9})
    assert main(["diagnose", "--config", cfg, "--in", str(traj), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "diagnose.kappa: trajectory too short for the requested time radius" in err
    assert "internal error" not in err and _no_output(out)


def test_sweep_non_finite_final_state_exit_code(tmp_path, capsys, monkeypatch):
    # no step starts from the last state, so only the final-state check sees its NaN
    cfg = {
        "geometry": "periodic",
        "grid": "16x16",
        "initial": {"kind": "taylor-green"},
        "nus": [1e-2, 1e-3],
        "dt": 0.01,
        "t_end": 0.1,
        "snapshot_stride": 5,
    }
    real_step = solver.step

    def blowing_up(state, c, *args):
        new, diss, loss = real_step(state, c, *args)
        if c.nu == 1e-3 and state.t + c.dt >= c.t_end - 1e-12:
            new = replace(new, u=np.full_like(new.u, np.nan))
        return new, diss, loss

    monkeypatch.setattr(solver, "step", blowing_up)
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "non-finite velocity entering step 11" in err and "internal error" not in err
    assert not out.exists()


def test_readme_request_table_matches_the_schemas():
    # one row per command and key, sweep.initial's included, with the key's type, range and whether it is required
    rows = {}
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 5:
            rows[cells[0].strip("`"), cells[1].strip("`")] = cells[2:]
    types = {str: "string", int: "integer", float: "number", list: "list of numbers"}
    expected = {}
    for command, schema in [*cli._SCHEMAS.items(), ("sweep.initial", cli._SCHEMAS["sweep"]["initial"].kind)]:
        for key, spec in schema.items():
            required = "yes" if spec.required else ""
            if isinstance(spec.kind, dict):  # a nested object: its range is prose
                expected[command, key] = ["object", rows.get((command, key), [None] * 3)[1], required]
            else:
                rng = spec.range_text()
                expected[command, key] = [types[spec.kind], f"`{rng}`" if rng else "", required]
    assert sorted(rows) == sorted(expected)
    assert rows == expected
    # every row of a command but an object's is a flag: --<key> with hyphens, --in for input; its value stays text
    parser = cli.build_parser()
    for (command, key), (kind, _, _) in rows.items():
        if command not in cli._SCHEMAS:  # a key of sweep.initial is set in the config only
            continue
        flag = "--in" if key == "input" else "--" + key.replace("_", "-")
        if kind == "object":
            with pytest.raises(SystemExit):
                parser.parse_args([command, f"{flag}=1"])
        else:
            assert vars(parser.parse_args([command, f"{flag}=1"])) == {"command": command, key: "1"}
