"""Tests of the benchmark's layer trace: self-time arithmetic, rebinding,
and that every per-layer metric BENCHMARK.json names can be produced.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _span(i, name, parent, start, end):
    return {"id": i, "name": name, "parent": parent, "cmd": "c", "start": start, "end": end}


def test_self_time_is_duration_minus_direct_children():
    spans = [
        _span(0, "a", None, 0.0, 10.0),
        _span(1, "b", 0, 1.0, 4.0),
        _span(2, "c", 0, 5.0, 9.0),
        _span(3, "d", 2, 6.0, 7.0),
        _span(4, "a", 2, 7.5, 8.5),  # recursion: a inside c inside a
    ]
    agg = layertrace.aggregate(spans)
    assert agg["a"]["calls"] == 2
    assert agg["a"]["self_s"] == (10.0 - 3.0 - 4.0) + 1.0
    assert agg["a"]["total_s"] == 10.0  # the nested call is not counted twice
    assert agg["b"]["self_s"] == 3.0
    assert agg["c"]["self_s"] == 4.0 - 1.0 - 1.0
    assert agg["c"]["total_s"] == 4.0
    assert agg["d"]["self_s"] == agg["d"]["total_s"] == 1.0


def test_install_rebinds_every_namespace_and_restores(tmp_path):
    import oflux
    import oflux.cli as cli
    import oflux.grids as grids
    import oflux.solver as solver

    originals = (cli._COMMANDS["gen"], cli.run, solver.run, grids.deriv, oflux.make_grid, np.fft.fft)
    tracer = layertrace.Tracer("t0")
    restore = layertrace.install(tracer)
    try:
        assert cli._COMMANDS["gen"].__wrapped__ is originals[0]
        assert cli.run is solver.run and solver.run.__wrapped__ is originals[2]
        assert oflux.make_grid.__wrapped__ is originals[4]
        code = cli.main(["gen", "--kind", "taylor-green", "--grid", "16x16", "--out", str(tmp_path / "g")])
        grid = grids.make_grid((16, 8), (2 * np.pi, 1.0))
        grids.deriv(np.ones((16, 8)), 0, grid)
    finally:
        restore()
    assert code == 0
    assert (cli._COMMANDS["gen"], cli.run, solver.run, grids.deriv, oflux.make_grid, np.fft.fft) == originals

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    main, = by_name["cli.main"]
    gen, = by_name["cli.cmd_gen"]
    assert main["parent"] is None and gen["parent"] == main["id"]
    assert by_name["synth.taylor_green"][0]["parent"] == gen["id"]  # private helpers are not spans
    write, = by_name["fieldio.write_snapshot"]
    assert write["bytes_written"] == (tmp_path / "g" / "field.oflx").stat().st_size + \
        (tmp_path / "g" / "field.oflx.json").stat().st_size
    deriv = by_name["grids.deriv"][-1]
    assert (deriv["fft_calls"], deriv["fft_points"]) == (2, 2 * 16 * 8)
    assert all(s["cmd"] == "t0" for s in tracer.spans)


def test_every_per_layer_metric_has_a_source():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    derived = set(run.layer_metrics("sweep-channel", []))
    derived |= {f"{c}_s" for c in workloads.COMMAND_NAMES} | {"trace.overhead_s"}
    stats = {"calls", "self_s", "total_s", "fft_calls", "fft_points", "fft_bytes"}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in derived:
            continue
        layer, fn, stat = name.split(".")
        module = __import__(f"oflux.{layer}", fromlist=["_"])
        assert fn in layertrace.public_functions(module) and stat in stats, name
    mapped = {n for group in json.loads((BENCH / "layer_map.json").read_text())["map"] for n in group["metrics"]}
    assert mapped <= {m["name"] for m in spec["per_layer"]}
