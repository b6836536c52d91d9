import struct

import numpy as np
import pytest

from oflux import fieldio
from oflux.errors import PreconditionError
from oflux.grids import Snapshot, Trajectory, make_grid
from oflux.synth import fractional_field, taylor_green

from conftest import TWO_PI


def test_snapshot_roundtrip(tmp_path, box64):
    snap = taylor_green(box64, 0.3, 0.01)
    path = fieldio.write_snapshot(tmp_path / "tg.oflx", snap)
    back = fieldio.read_snapshot(path)
    assert np.array_equal(back.velocity, snap.velocity)
    assert np.array_equal(back.pressure, snap.pressure)
    assert back.time == snap.time
    assert back.grid == snap.grid
    assert back.tags["generator"]["kind"] == "taylor_green"


def test_snapshot_without_pressure(tmp_path, box64):
    snap = fractional_field(0.5, None, 1, box64)
    back = fieldio.read_snapshot(fieldio.write_snapshot(tmp_path / "f.oflx", snap))
    assert back.pressure is None
    assert np.array_equal(back.velocity, snap.velocity)


def test_channel_grid_roundtrip(tmp_path):
    g = make_grid((32, 33), (TWO_PI, 1.0), ("periodic", "wall"))
    snap = Snapshot(g, np.zeros((2, *g.dims)), None, 1.5)
    back = fieldio.read_snapshot(fieldio.write_snapshot(tmp_path / "c.oflx", snap))
    assert back.grid.axis_kinds == ("periodic", "wall")
    assert back.grid.extents[1] == pytest.approx(1.0)


def test_write_is_deterministic(tmp_path, box64):
    snap = fractional_field(0.4, None, 7, box64)
    p1 = fieldio.write_snapshot(tmp_path / "a.oflx", snap)
    p2 = fieldio.write_snapshot(tmp_path / "b.oflx", snap)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.oflx.json").read_text() == (tmp_path / "b.oflx.json").read_text()


def test_magic_rejected(tmp_path):
    bad = tmp_path / "bad.oflx"
    bad.write_bytes(b"NOPE!" + b"\x00" * 64)
    with pytest.raises(PreconditionError, match="OFLX1"):
        fieldio.read_snapshot(bad)


def test_trajectory_roundtrip(tmp_path, box64):
    base = taylor_green(box64)
    snaps = tuple(
        Snapshot(box64, base.velocity, base.pressure, 0.25 * i) for i in range(4)
    )
    traj = Trajectory(snaps, 0.25)
    d = fieldio.write_trajectory(tmp_path / "traj", traj, tags={"note": "steady"})
    back = fieldio.read_trajectory(d)
    assert len(back) == 4
    assert back.dt == 0.25
    assert np.array_equal(back.snapshots[2].velocity, snaps[2].velocity)
    assert fieldio.load_input(d).dt == 0.25


def test_scalar_field_roundtrip(tmp_path, box64):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(box64.dims)
    path = fieldio.write_scalar_field(tmp_path / "d.oflx", box64, vals, 0.7,
                                      name="dissipation_defect", tags={"epsilon": 0.3})
    grid, comps, time, sidecar = fieldio._read_field(path)
    assert grid == box64
    assert np.array_equal(comps, vals[np.newaxis])
    assert time == 0.7
    assert sidecar["fields"] == ["dissipation_defect"]
    assert sidecar["tags"]["epsilon"] == 0.3


def _written(tmp_path, reader):
    """A 16^2 Taylor-Green file of the reader's kind: (path, reader)."""
    snap = taylor_green(make_grid((16, 16), (TWO_PI, TWO_PI)))
    if reader is fieldio.read_snapshot:
        return fieldio.write_snapshot(tmp_path / "tg.oflx", snap), reader
    return fieldio.write_scalar_field(tmp_path / "p.oflx", snap.grid, snap.pressure), reader


def _rejects(path, reader, what):
    with pytest.raises(PreconditionError, match=what) as err:
        reader(path)
    assert str(path) in str(err.value)


READERS = pytest.mark.parametrize("reader", [fieldio.read_snapshot, fieldio._read_field],
                                  ids=["snapshot", "scalar"])


@READERS
def test_truncated_file_rejected(tmp_path, reader):
    path, reader = _written(tmp_path, reader)
    path.write_bytes(path.read_bytes()[:100])
    _rejects(path, reader, "payload")
    path.write_bytes(path.read_bytes()[:30])
    _rejects(path, reader, "truncated header")


@READERS
def test_unknown_kind_code_rejected(tmp_path, reader):
    path, reader = _written(tmp_path, reader)
    raw = bytearray(path.read_bytes())
    raw[9 + 16] = 7  # the kind byte of axis 0
    path.write_bytes(bytes(raw))
    _rejects(path, reader, "kind code 7")


@READERS
def test_trailing_bytes_rejected(tmp_path, reader):
    path, reader = _written(tmp_path, reader)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    _rejects(path, reader, "payload")


@READERS
def test_component_count_rejected(tmp_path, reader):
    path, reader = _written(tmp_path, reader)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 9 + 2 * 17, 5)  # five components declared on two axes
    path.write_bytes(bytes(raw))
    _rejects(path, reader, "components")


@READERS
def test_non_finite_payload_rejected(tmp_path, reader):
    path, reader = _written(tmp_path, reader)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, len(raw) - 8, float("nan"))  # the last node of the last component
    path.write_bytes(bytes(raw))
    _rejects(path, reader, "non-finite")


@pytest.mark.parametrize("damage", ["nan velocity", "inf pressure", "nan time", "inf scalar"])
def test_non_finite_field_is_not_written(tmp_path, damage):
    snap = taylor_green(make_grid((16, 16), (TWO_PI, TWO_PI)))
    path = tmp_path / "f.oflx"
    with pytest.raises(PreconditionError, match="non-finite") as err:
        if damage == "nan velocity":
            fieldio.write_snapshot(path, Snapshot(snap.grid, np.full_like(snap.velocity, np.nan), snap.pressure))
        elif damage == "inf pressure":
            fieldio.write_snapshot(path, Snapshot(snap.grid, snap.velocity, np.full_like(snap.pressure, np.inf)))
        elif damage == "nan time":
            fieldio.write_snapshot(path, Snapshot(snap.grid, snap.velocity, snap.pressure, float("nan")))
        else:
            fieldio.write_scalar_field(path, snap.grid, np.full(snap.grid.dims, -np.inf))
    assert str(path) in str(err.value)
    assert not path.exists() and not (tmp_path / "f.oflx.json").exists()


@pytest.mark.parametrize("sidecar", [None, b"{}"], ids=["missing", "empty object"])
def test_sidecar_may_be_missing_or_empty(tmp_path, sidecar):
    snap = taylor_green(make_grid((16, 16), (TWO_PI, TWO_PI)))
    path = fieldio.write_snapshot(tmp_path / "tg.oflx", snap)
    side = tmp_path / "tg.oflx.json"
    side.unlink() if sidecar is None else side.write_bytes(sidecar)
    back = fieldio.read_snapshot(path)
    assert np.array_equal(back.pressure, snap.pressure) and back.tags == {}


@pytest.mark.parametrize("sidecar", [b'{"tags": 5}', b'{"tags": ["seed"]}', b'{"has_pressure": 1}',
                                     b'{"has_pressure": null}'],
                         ids=["tags a number", "tags a list", "pressure flag a number", "pressure flag null"])
def test_sidecar_of_the_wrong_type_rejected(tmp_path, sidecar):
    path = fieldio.write_snapshot(tmp_path / "tg.oflx", taylor_green(make_grid((16, 16), (TWO_PI, TWO_PI))))
    side = tmp_path / "tg.oflx.json"
    side.write_bytes(sidecar)
    with pytest.raises(PreconditionError) as err:
        fieldio.read_snapshot(path)
    assert str(side) in str(err.value)
