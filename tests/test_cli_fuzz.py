"""In-process fuzzing of ``cli.main`` with requests drawn from ``cli._SCHEMAS``.

A value outside its key's type or range, in the config or as its flag's
text, or a missing required key, must exit 3 and name ``<cmd>.<key>``
before any input is read, any solver step runs or any file is written; a
malformed command line exits 3 too.  A flag and the same value in the
config make the same request.  A request inside every range, on inputs of
8-16 points per side (a channel trajectory for ``boundary`` runs to 65
points across), must end in 0, 2 or 3, never in an internal error.  The
exit-3 rule: a refused request writes nothing, and a completed command
whose verdict has code 3 writes its report with ``"exit_code": 3``; so
``report`` on whatever a command wrote returns the command's code.
Every size-like value is bounded (grid sides, ladder length, stride, at
most 20 solver steps per viscosity), so no request allocates more than a
few MB; nothing starts a process.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oflux import cli, fieldio, solver
from oflux.cli import Key, main
from oflux.grids import Snapshot, Trajectory, make_grid
from oflux.reports import canonical_json
from oflux.synth import fractional_field

# derandomized, so every run draws the same requests; raise max_examples to search further
FUZZ = settings(max_examples=40, deadline=None, database=None, derandomize=True)
SIDES = st.integers(8, 16)


def _keys():
    """Every (config path, Key) of the table, sweep.initial's included."""
    for command, schema in cli._SCHEMAS.items():
        for key, spec in schema.items():
            yield f"{command}.{key}", spec
    for key, spec in cli._SCHEMAS["sweep"]["initial"].kind.items():
        yield f"sweep.initial.{key}", spec


def _flag(key: str) -> str:
    return "--in" if key == "input" else "--" + key.replace("_", "-")


def _flag_text(value) -> str:
    """``value`` as a flag's text: a ladder comma-separated, a float by repr."""
    if isinstance(value, list):
        return ",".join(map(_flag_text, value))
    return repr(value) if isinstance(value, float) else str(value)


def _text_admitted(spec: Key, text: str) -> bool:
    """Whether ``spec`` takes ``text`` as a flag value: a free string takes any
    non-empty text, a number key the text of a finite number in its range."""
    if spec.kind is list:
        return all(_text_admitted(Key(float, spec.range), rung) for rung in text.split(","))
    if text in spec.words:
        return True
    if spec.kind is str:
        return not spec.words and text != ""
    try:
        value = spec.kind(text)
    except ValueError:
        return False
    return math.isfinite(value) and (not spec.range or cli._RANGES[spec.range](value))


def _outside(spec: Key):
    """Values that ``spec`` refuses: another type, a non-finite number, a number outside the range."""
    if isinstance(spec.kind, dict):
        return st.sampled_from([[], "x", 1.0])
    if spec.kind is list:
        rung = _outside(Key(float, spec.range))
        return st.just([]) | st.lists(rung, min_size=1, max_size=3) | st.sampled_from(["0.1", {}])
    if spec.kind is str:
        other = st.text("abcxyz-", max_size=6).filter(lambda w: w not in spec.words) if spec.words else st.just("")
        return other | st.sampled_from([1, None, ["a"]])
    if spec.kind is int:
        return st.integers(-3, 3).filter(lambda x: not cli._RANGES[spec.range](x)) | st.sampled_from([1.5, True, "1"])
    bad = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, None, [0.5], "x"])
    if spec.range:
        bad |= st.floats(-3.0, 3.0).filter(lambda x: not cli._RANGES[spec.range](x))
    return bad


OUT = "<out>"  # replaced by the example's output directory
BASE = {  # the smallest valid request of each command; "input" paths need not exist
    "gen": {"kind": "taylor-green", "grid": "8x8", "out": OUT},
    "diagnose": {"input": "missing.oflx", "out": OUT},
    "boundary": {"input": "missing", "out": OUT},
    "sweep": {"grid": "8x8", "nus": [0.01], "dt": 0.01, "t_end": 0.02, "out": OUT},
    "report": {"input": "missing"},
}


@st.composite
def refused_requests(draw):
    """(command, request, the config path its error must name): one key is
    out of its type or range, or a required key is left out."""
    path, spec = draw(st.sampled_from(list(_keys())))
    command, *keys = path.split(".")
    request = dict(BASE[command])
    if spec.required and draw(st.booleans()):
        if keys == ["initial", "kind"]:
            request["initial"] = {"nu": 0.01}
        else:
            del request[keys[0]]
    elif len(keys) == 2:  # a key of sweep.initial
        request["initial"] = {"kind": "taylor-green", keys[1]: draw(_outside(spec))}
    else:
        request[keys[0]] = draw(_outside(spec))
    return command, request, path


def test_refused_request_does_no_work(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fieldio, "load_input", lambda path: pytest.fail("an input was read"))
    monkeypatch.setattr(solver, "step", lambda *a: pytest.fail("a solver step ran"))
    monkeypatch.delenv("OFLUX_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)  # a default output directory would land here
    config = tmp_path / "request.json"

    def refused(command, request, path, *flags):
        config.write_text(json.dumps(request))
        assert main([command, "--config", str(config), *flags]) == 3
        err = capsys.readouterr().err
        assert path in err and "internal error" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["request.json"]

    @settings(FUZZ, max_examples=300)
    @given(case=refused_requests())
    def check(case):
        command, request, path = case
        request = {k: str(tmp_path / "out") if v == OUT else v for k, v in request.items()}
        refused(command, request, path)
        key = path.split(".")[1]
        spec = cli._SCHEMAS[command][key]
        if key in request and path.count(".") == 1 and not isinstance(spec.kind, dict):
            text = _flag_text(request.pop(key))  # the same value as its flag's text
            if not _text_admitted(spec, text):  # "None" is a string, "1" an integer
                refused(command, request, path, f"{_flag(key)}={text}")  # "=": a text may start with "-"

    check()


def _inside(spec: Key):
    """Values that ``spec`` takes, integers included where a float widens."""
    if spec.kind is list:
        return st.lists(_inside(Key(float, spec.range)), min_size=1, max_size=3)
    if spec.kind is str:
        return st.sampled_from(spec.words) if spec.words else st.text("abcxyz019-.", min_size=1, max_size=6)
    number = st.integers(-3, 3) if spec.kind is int else st.integers(-3, 3) | st.floats(-3.0, 3.0)
    if spec.range:
        number = number.filter(cli._RANGES[spec.range])
    return number | st.sampled_from(spec.words) if spec.words else number


def test_flag_and_config_make_the_same_request(tmp_path, monkeypatch):
    # the request a command receives, as config.json would hold it, but with "out" kept
    seen = []
    for command in cli._SCHEMAS:
        monkeypatch.setitem(cli._COMMANDS, command, lambda cfg: seen.append(canonical_json(cfg)) or 0)
    monkeypatch.delenv("OFLUX_OUTPUT_DIR", raising=False)
    flags = [(command, key, spec) for command, schema in cli._SCHEMAS.items()
             for key, spec in schema.items() if not isinstance(spec.kind, dict)]
    by_config, by_flag = tmp_path / "config.json", tmp_path / "flag.json"

    @FUZZ
    @given(case=st.sampled_from(flags).flatmap(lambda c: st.tuples(st.just(c), _inside(c[2]))))
    def check(case):
        (command, key, _), value = case
        seen.clear()
        base = {k: "o" if v == OUT else v for k, v in BASE[command].items()}
        by_config.write_text(json.dumps({**base, key: value}))
        by_flag.write_text(json.dumps(base))
        assert main([command, "--config", str(by_config)]) == 0
        assert main([command, "--config", str(by_flag), f"{_flag(key)}={_flag_text(value)}"]) == 0
        assert seen[0] == seen[1]

    check()


@pytest.mark.parametrize("argv, code", [
    (["diagnose", "--bogus", "1"], 3), (["gen", "--cut", "3"], 3), (["sweep", "--dt"], 3), ([], 3), (["nope"], 3),
    (["sweep", "--help"], 0),
], ids=["unknown-flag", "abbreviated-flag", "flag-without-value", "no-command", "unknown-command", "help"])
def test_usage_errors_exit_3_and_help_exits_0(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert "usage: oflux" in capsys.readouterr()[code == 3]  # the help goes to stdout, an error to stderr
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# requests inside every range
# ---------------------------------------------------------------------------


SEEDS = st.integers(0, 2**32 - 1)
FRACTIONS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# Each case is drawn "plain" (values a run can complete with) three times in
# four, and otherwise from anywhere in the key's range.
PLAIN = st.integers(0, 3).map(bool)


def _sides(draw, ndim):
    return tuple(draw(SIDES) for _ in range(ndim))


def _shells(draw, plain, ny):
    """On a unit-height channel of ``ny`` points: distinct multiples of h from
    9h to below the half-width (shells ``shell_ladder`` admits), or any rungs."""
    h = 1.0 / (ny - 1)
    top = int(0.5 / h) - 1
    if plain and top >= 12:
        return [m * h for m in sorted(draw(st.sets(st.integers(9, top), min_size=3, max_size=4)), reverse=True)]
    return draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=4))


@st.composite
def gen_cases(draw):
    kind = draw(st.sampled_from(cli._SCHEMAS["gen"]["kind"].words))
    ndim = {"taylor-green": 2, "shear": 3}.get(kind) or draw(st.sampled_from([2, 3]))
    request = {"kind": kind, "grid": "x".join(map(str, _sides(draw, ndim)))}
    if kind == "fractional" and draw(PLAIN):  # fractional fields need an alpha
        request["alpha"] = draw(FRACTIONS)
    request |= draw(st.fixed_dictionaries({}, optional={
        "cutoff": st.integers(1, 32), "seed": SEEDS, "nu": st.floats(0.0, 1.0), "t": st.floats(-1.0, 1.0),
        "u_amp": st.floats(-2.0, 2.0), "w_amp": st.floats(-2.0, 2.0),
        "extent": st.lists(st.floats(0.5, 8.0), min_size=ndim, max_size=ndim).map(lambda e: "x".join(map(repr, e))),
    }))
    return request, None


@st.composite
def diagnose_cases(draw):
    """A request and its input: a periodic field, or a frozen trajectory of 3 or 7 snapshots."""
    plain, sides, frames = draw(PLAIN), _sides(draw, 2), draw(st.sampled_from([1, 3, 7]))
    request = draw(st.fixed_dictionaries({}, optional={"seed": SEEDS, "phi_inner": FRACTIONS, "phi_outer": FRACTIONS}))
    if plain:  # Hölder estimates need more separations than these grids hold; a radius of 2 steps needs 7 snapshots
        request |= {"alpha": draw(st.floats(0.05, 1.0)), "phi_inner": 0.4, "phi_outer": 0.8}
        rungs = draw(st.sets(st.integers(2, 6), min_size=4, max_size=5))  # above the 2h floor
        request["epsilons"] = [m * 2 * np.pi / min(sides) for m in sorted(rungs, reverse=True)]
        if frames == 7:
            request["kappa"] = draw(st.floats(0.2, 0.35))
    else:
        request |= draw(st.fixed_dictionaries({}, optional={
            "alpha": st.just("auto") | st.floats(0.0, 1.0, exclude_min=True),
            "epsilons": st.lists(st.floats(0.0, 8.0, exclude_min=True), min_size=1, max_size=5),
            "kappa": st.floats(0.0, 2.0, exclude_min=True),
        }))
    return request, ("periodic", sides, frames)


@st.composite
def boundary_cases(draw):
    """A request and a steady channel trajectory.  The interior Hölder survey and
    three admissible shells need 49 or so points across the channel, so that
    side runs to 65 (16 x 65 nodes at most)."""
    plain = draw(PLAIN)
    nx, ny = draw(SIDES), draw(st.integers(49, 65) if plain else st.integers(8, 65))
    request = draw(st.fixed_dictionaries({"etas": st.just(_shells(draw, plain, ny))}, optional={
        "gamma": st.floats(0.1, 0.45) if plain else st.floats(0.0, 1.0, exclude_min=True),
        "beta": st.floats(0.0, 3.0), "energy_tol": st.floats(0.0, 1.0), "seed": SEEDS,
    }))
    return request, ("channel", (nx, ny), 3)


@st.composite
def sweep_cases(draw):
    """At most 20 steps per viscosity; plain cases start from a field that suits
    the geometry, at a dt the CFL limit admits."""
    plain, geometry, sides = draw(PLAIN), draw(st.sampled_from(["periodic", "channel"])), _sides(draw, 2)
    kinds = cli._SCHEMAS["sweep"]["initial"].kind["kind"].words
    if plain:
        kind = "poiseuille" if geometry == "channel" else "taylor-green"
        dt, nus = draw(st.floats(0.002, 0.02)), draw(st.lists(st.floats(0.0, 0.05), min_size=1, max_size=3))
    else:
        kind, dt = draw(st.sampled_from(kinds)), draw(st.floats(0.002, 0.2))
        nus = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    request = {
        "geometry": geometry, "grid": "x".join(map(str, sides)), "dt": dt, "nus": nus,
        "t_end": draw(st.integers(1, 20)) * dt,
        "initial": {"kind": kind, "alpha": draw(FRACTIONS)} if kind == "fractional" else {"kind": kind},
    }
    request |= draw(st.fixed_dictionaries({}, optional={
        "t_star": st.integers(1, 20).map(lambda n: n * dt), "snapshot_stride": st.integers(1, 5),
        "cfl_limit": st.floats(0.25, 0.5) if plain else st.floats(0.0, 0.5, exclude_min=True), "seed": SEEDS,
    }))
    if draw(st.integers(0, 3)) == 0:
        request["etas"] = _shells(draw, plain, sides[1])
    return request, None


def _write_input(directory, geometry, sides, frames):
    """A periodic fractional field (frozen over ``frames`` snapshots when more
    than one), or a steady channel flow u = sin(pi y)^2 with zero pressure."""
    if geometry == "periodic":
        grid = make_grid(sides, (2 * np.pi, 2 * np.pi))
        velocity, pressure = fractional_field(0.4, None, 0, grid).velocity, None
    else:
        grid = make_grid(sides, (2 * np.pi, 1.0), ("periodic", "wall"))
        _, y = grid.meshes()
        velocity = np.stack([np.broadcast_to(np.sin(np.pi * y) ** 2, grid.dims), np.zeros(grid.dims)])
        pressure = np.zeros(grid.dims)
    if frames == 1:
        return fieldio.write_snapshot(directory / "field.oflx", Snapshot(grid, velocity, pressure))
    snaps = tuple(Snapshot(grid, velocity, pressure, 0.1 * i) for i in range(frames))
    return fieldio.write_trajectory(directory / "traj", Trajectory(snaps, 0.1))


CASES = {"gen": gen_cases(), "diagnose": diagnose_cases(), "boundary": boundary_cases(),
         "sweep": sweep_cases(), "report": st.sampled_from(["gen", "gen/field.oflx", "missing"]).map(
             lambda name: ({"input": name}, None))}


@pytest.mark.parametrize("command", sorted(CASES))
def test_admitted_request_never_exits_1(tmp_path, capsys, command):
    assert main(["gen", "--kind", "taylor-green", "--grid", "8x8", "--out", str(tmp_path / "gen")]) == 0
    runs = itertools.count()

    @FUZZ
    @given(case=CASES[command])
    def check(case):
        request, source = case
        work = tmp_path / str(next(runs))
        work.mkdir()
        if source is not None:
            request = {**request, "input": str(_write_input(work, *source))}
        if command == "report":
            request = {"input": str(tmp_path / request["input"])}
        else:
            request = {**request, "out": str(work / "out")}
        config = work / "request.json"
        config.write_text(json.dumps(request))
        code = main([command, "--config", str(config)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), err
        if command != "report":
            assert (work / "out").is_dir() or code == 3  # only a refused request writes nothing
            if (work / "out").is_dir():  # a verdict's 3 is written, as 0 and 2 are
                assert main(["report", "--in", str(work / "out")]) == code  # the stored code is the command's own

    check()

