import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oflux import fieldio, solver
from oflux.cli import main
from oflux.grids import Domain, Snapshot, make_grid
from oflux.reports import canonical_json, config_hash, write_csv
from oflux.solver import SolverConfig, dissipation_sweep, run
from oflux.synth import fractional_field, taylor_green

from conftest import TWO_PI, channel_domain


def _read_all_bytes(directory):
    out = {}
    for p in sorted(Path(directory).rglob("*")):
        if p.is_file():
            out[str(p.relative_to(directory))] = p.read_bytes()
    return out


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


def test_boundary_command_steady_and_leak(tmp_path):
    dom = channel_domain(128, 129)
    _, y = dom.grid.meshes()
    prof = np.sin(np.pi * y) ** 2
    from oflux.grids import Snapshot, Trajectory

    u = np.stack([np.broadcast_to(prof, dom.grid.dims).copy(), np.zeros(dom.grid.dims)])
    p = np.zeros(dom.grid.dims)
    traj = Trajectory(tuple(Snapshot(dom.grid, u, p, 0.1 * i) for i in range(3)), 0.1)
    tdir = tmp_path / "steady"
    fieldio.write_trajectory(tdir, traj)
    code = main(["boundary", "--in", str(tdir), "--out", str(tmp_path / "bs")])
    assert code == 0
    verdict = json.loads((tmp_path / "bs" / "verdict.json").read_text())
    assert verdict["verdict"]["exit_code"] == 0

    d = dom.distance_field()
    sgn = dom.normal_sign_field()
    leak = np.where(d < 0.3, 0.1 * sgn, 0.0)
    u2 = np.stack([np.broadcast_to(prof, dom.grid.dims).copy(), leak])
    p2 = np.ones(dom.grid.dims)
    traj2 = Trajectory(tuple(Snapshot(dom.grid, u2, p2, 0.1 * i) for i in range(3)), 0.1)
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
    p = solve_pressure_periodic(f).pressure
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
    """A CLI sweep config on a small grid with its solver domain and initial state."""
    if geometry == "periodic":
        cfg = dict(_SMALL_PERIODIC_SWEEP, t_end=0.2, snapshot_stride=4)  # t_end on a snapshot
        grid = make_grid((32, 32), (TWO_PI, TWO_PI))
        return cfg, Domain(grid, "periodic"), taylor_green(grid, 0.0, 0.01)
    cfg = {"geometry": "channel", "grid": "32x33", "initial": {"kind": "poiseuille"},
           "nus": [2e-2, 1e-2], "dt": 0.005, "t_end": 0.1, "snapshot_stride": 3}  # t_end between snapshots
    dom = channel_domain(32, 33, ly=1.0)
    x, y = dom.grid.meshes()
    prof = np.sin(np.pi * y / dom.grid.extents[1]) ** 2
    u0 = np.ascontiguousarray(np.broadcast_to(prof, dom.grid.dims) + 0.05 * np.sin(2 * x) * prof)
    return cfg, dom, Snapshot(dom.grid, np.stack([u0, np.zeros(dom.grid.dims)]))


@pytest.mark.parametrize("ratio", [0.65, 1.0, 1.5], ids=["t_star<t_end", "t_star=t_end", "t_star>t_end"])
@pytest.mark.parametrize("geometry", ["periodic", "channel"])
def test_sweep_integrates_each_viscosity_once(tmp_path, monkeypatch, geometry, ratio):
    cfg, _, _ = _small_sweep(geometry)
    cfg["t_star"] = ratio * cfg["t_end"]
    calls = []
    real_step = solver.step

    def counting_step(*args):
        calls.append(args[0].t)
        return real_step(*args)

    monkeypatch.setattr(solver, "step", counting_step)
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "s")]) in (0, 2)
    steps = round(max(cfg["t_end"], cfg["t_star"]) / cfg["dt"])
    assert len(calls) == len(cfg["nus"]) * steps


@pytest.mark.parametrize("ratio", [0.65, 1.5], ids=["t_star<t_end", "t_star>t_end"])
@pytest.mark.parametrize("geometry", ["periodic", "channel"])
def test_sweep_outputs_match_separate_runs(tmp_path, geometry, ratio):
    cfg, dom, initial = _small_sweep(geometry)
    t_star = cfg["t_star"] = ratio * cfg["t_end"]
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) in (0, 2)
    base = SolverConfig(dom, cfg["nus"][0], cfg["dt"], cfg["t_end"], initial,
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
            raise solver.CFLViolation("CFL violation (injected)", 0.0)
        return real_step(state, scfg, *args)

    monkeypatch.setattr(solver, "step", failing_step)
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    assert "injected" in capsys.readouterr().err
    assert not out.exists()


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
    _, dom, initial = _small_sweep("periodic")
    worst = max(
        float(run(SolverConfig(dom, nu, cfg["dt"], cfg["t_star"], initial))[1].leray_residual.max())
        for nu in cfg["nus"]
    )
    assert json.loads((out / "verdict.json").read_text())["max_leray_residual"] == worst


@pytest.mark.parametrize("alpha", ["auto", "0.6"])
def test_diagnose_runs_one_holder_survey(tmp_path, monkeypatch, alpha):
    from oflux import synth

    f = synth.fractional_field(0.6, None, 2, make_grid((64, 64), (TWO_PI, TWO_PI)))
    field = fieldio.write_snapshot(tmp_path / "f.oflx", f)
    calls = []
    real_survey = synth._increment_survey

    def counting_survey(*args):
        calls.append(args)
        return real_survey(*args)

    monkeypatch.setattr(synth, "_increment_survey", counting_survey)
    out = tmp_path / "d"
    assert main(["diagnose", "--in", str(field), "--alpha", alpha, "--out", str(out)]) in (0, 2)
    assert len(calls) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["holder_seminorm"] == synth.holder_norm(f, summary["alpha"])


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
    steps = []
    real_step = solver.step

    def counting_step(*args):
        steps.append(args[0].t)
        return real_step(*args)

    monkeypatch.setattr(solver, "step", counting_step)
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    assert "sweep.etas" in capsys.readouterr().err
    assert steps == []
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


@pytest.mark.parametrize("geometry, nus, why", [("periodic", [1e-2, 5e-3], "a periodic sweep with 2"),
                                                ("channel", [1e-2], "a channel sweep with 1")])
def test_sweep_unused_etas_exit_before_integrating(tmp_path, monkeypatch, capsys, geometry, nus, why):
    # the ladder is admissible on the 16x33 channel, so only the unused-ladder check can reject it
    cfg = {"geometry": geometry, "grid": "16x16" if geometry == "periodic" else "16x33",
           "initial": {"kind": "taylor-green" if geometry == "periodic" else "poiseuille"},
           "nus": nus, "dt": 0.001, "t_end": 0.005, "etas": [0.4, 0.3, 0.2]}
    steps = []
    real_step = solver.step

    def counting_step(*args):
        steps.append(args[0].t)
        return real_step(*args)

    monkeypatch.setattr(solver, "step", counting_step)
    out = tmp_path / "s"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "sweep.etas" in err and why in err
    assert steps == []
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
])
def test_bad_request_exits_before_reading_input(tmp_path, monkeypatch, capsys, command, cfg, key):
    loads = []
    monkeypatch.setattr(fieldio, "load_input", lambda path: loads.append(path))
    out = tmp_path / "o"
    code = main([command, "--config", _write(tmp_path, cfg), "--in", str(tmp_path / "in"), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert key in err and "internal error" not in err
    assert loads == [] and _no_output(out)


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


def test_diagnose_time_radius_past_the_trajectory_exits_before_work(tmp_path, monkeypatch, capsys):
    # kappa = 1e9 asked the time kernel for 2e10 offsets before its reach was compared
    from oflux import cli, mollify

    monkeypatch.setattr(mollify, "time_kernel", lambda *a: pytest.fail("time kernel built"))
    monkeypatch.setattr(cli, "estimate_holder_exponent", lambda *a, **k: pytest.fail("survey ran"))
    traj = tmp_path / "traj"
    traj.mkdir()
    names = _write_fractional_snapshots(traj, (16, 16, 16))
    (traj / "trajectory.json").write_text(json.dumps({"dt": 0.1, "files": names}))
    out = tmp_path / "d"
    cfg = _write(tmp_path, {"kappa": 1e9})
    assert main(["diagnose", "--config", cfg, "--in", str(traj), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "time radius" in err and "internal error" not in err
    assert _no_output(out)


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
