"""Shared binary field format and JSON sidecars.

Layout (little-endian):
  magic "OFLX1" | u32 axis count | per axis: u64 dims, f64 spacing, u8 kind
  | u32 component count | f64 time | payload: components in C-order, f64.

Axis kind: 0 = periodic, 1 = wall.  Velocity components come first; an
optional trailing component holds the pressure, as declared by the sidecar.
The sidecar ``<file>.json`` carries tags (divergence-free, impermeable,
generator provenance, seed) and is written with ``reports.canonical_json``
(sorted keys, numpy scalars made plain) so that reruns are byte-identical.
Reading is strict: a file that does not parse exactly raises a
PreconditionError naming it.

A trajectory is a directory of snapshot files plus ``trajectory.json``.
"""

from __future__ import annotations

import math
import reprlib
import struct
from pathlib import Path

import numpy as np

from .errors import PreconditionError
from .grids import PERIODIC, WALL, Grid, Snapshot, Trajectory
from .reports import canonical_json, read_object

MAGIC = b"OFLX1"
_KIND_CODE = {PERIODIC: 0, WALL: 1}
_CODE_KIND = {0: PERIODIC, 1: WALL}
_AXIS = struct.Struct("<Qd B")  # dims, spacing, kind
_TAIL = struct.Struct("<Id")  # component count, time


def _write_field(path: str | Path, grid: Grid, comps, time: float, sidecar: dict) -> Path:
    """Header, payload and canonical sidecar of one field file; non-finite
    data is refused, as the reader refuses it, before anything is written."""
    path = Path(path)
    if not (math.isfinite(time) and all(np.isfinite(c).all() for c in comps)):
        raise PreconditionError(f"{path}: non-finite time or field values")
    parts = [MAGIC, struct.pack("<I", grid.ndim)]
    for m, h, kind in zip(grid.dims, grid.spacing, grid.axis_kinds):
        parts.append(_AXIS.pack(m, h, _KIND_CODE[kind]))
    parts.append(_TAIL.pack(len(comps), float(time)))
    parts += [np.ascontiguousarray(c, dtype="<f8").tobytes() for c in comps]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"".join(parts))
    Path(str(path) + ".json").write_text(canonical_json(sidecar), encoding="utf-8")
    return path


def _read_field(path: Path):
    """Strictly parse a field file: (grid, components (ncomp, *dims), time, sidecar).

    Rejects a missing file, a bad magic, axis count or kind code, a
    non-positive spacing, a component count that fits neither a snapshot nor
    a scalar field, a payload of the wrong length (truncated or trailing
    bytes) and non-finite values, always with a PreconditionError naming the
    file.
    """
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise PreconditionError(f"{path}: cannot read the field file ({exc.strerror})") from exc
    if raw[:5] != MAGIC:
        raise PreconditionError(f"{path}: not an OFLX1 field file")
    naxes = struct.unpack_from("<I", raw, 5)[0] if len(raw) >= 9 else 2  # too short: truncated below
    if naxes not in (2, 3):
        raise PreconditionError(f"{path}: axis count {naxes}, expected 2 or 3")
    off = 9 + naxes * _AXIS.size + _TAIL.size
    if len(raw) < off:
        raise PreconditionError(f"{path}: truncated header ({len(raw)} bytes, need {off})")
    dims, spacing, kinds = [], [], []
    for a in range(naxes):
        m, h, code = _AXIS.unpack_from(raw, 9 + a * _AXIS.size)
        if code not in _CODE_KIND:
            raise PreconditionError(f"{path}: unknown kind code {code} on axis {a}")
        if not (math.isfinite(h) and h > 0):
            raise PreconditionError(f"{path}: spacing {h} on axis {a} is not a positive number")
        dims.append(int(m))
        spacing.append(h)
        kinds.append(_CODE_KIND[code])
    ncomp, time = _TAIL.unpack_from(raw, off - _TAIL.size)
    if ncomp not in (1, naxes, naxes + 1):
        raise PreconditionError(f"{path}: {ncomp} components do not fit {naxes} axes")
    want = ncomp * math.prod(dims) * 8
    if len(raw) - off != want:
        raise PreconditionError(f"{path}: payload is {len(raw) - off} bytes, the header declares {want}")
    extents = [m * h if k == PERIODIC else (m - 1) * h for m, h, k in zip(dims, spacing, kinds)]
    try:
        grid = Grid(tuple(dims), tuple(extents), tuple(kinds))
    except PreconditionError as exc:
        raise PreconditionError(f"{path}: {exc}") from exc
    comps = np.frombuffer(raw, dtype="<f8", offset=off).reshape(ncomp, *dims).copy()
    if not (math.isfinite(time) and np.isfinite(comps).all()):
        raise PreconditionError(f"{path}: non-finite time or field values")
    sidecar_path = Path(str(path) + ".json")
    sidecar = read_object(sidecar_path) if sidecar_path.exists() else {}
    return grid, comps, time, sidecar


def write_snapshot(path: str | Path, snap: Snapshot) -> Path:
    has_pressure = snap.pressure is not None
    sidecar = {
        "fields": [f"u{c}" for c in range(snap.grid.ndim)] + (["p"] if has_pressure else []),
        "has_pressure": has_pressure,
        "tags": snap.tags,
    }
    comps = [*snap.velocity, snap.pressure] if has_pressure else list(snap.velocity)
    return _write_field(path, snap.grid, comps, snap.time, sidecar)


def read_snapshot(path: str | Path) -> Snapshot:
    path = Path(path)
    grid, comps, time, sidecar = _read_field(path)
    ncomp, naxes = len(comps), grid.ndim
    has_pressure = sidecar.get("has_pressure", ncomp == naxes + 1)
    tags = sidecar.get("tags", {})
    if not isinstance(has_pressure, bool):
        raise PreconditionError(f"{path}.json: 'has_pressure' must be true or false, got {reprlib.repr(has_pressure)}")
    if not isinstance(tags, dict):
        raise PreconditionError(f"{path}.json: 'tags' must be an object, got {reprlib.repr(tags)}")
    if has_pressure:
        if ncomp != naxes + 1:
            raise PreconditionError(f"{path}: component count inconsistent with pressure flag")
        velocity, pressure = comps[:-1], comps[-1]
    else:
        if ncomp != naxes:
            raise PreconditionError(f"{path}: component count does not match axis count")
        velocity, pressure = comps, None
    return Snapshot(grid, velocity, pressure, time, tags)


def write_scalar_field(path: str | Path, grid: Grid, values: np.ndarray, time: float = 0.0,
                       name: str = "scalar", tags: dict | None = None) -> Path:
    """Write a single-component field (e.g. a dissipation defect) in the
    shared format; the sidecar names the component."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.dims:
        raise PreconditionError("scalar field shape does not match the grid")
    sidecar = {"fields": [name], "has_pressure": False, "tags": tags or {}}
    return _write_field(path, grid, [values], time, sidecar)


def write_trajectory(directory: str | Path, traj: Trajectory, tags: dict | None = None) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for i, snap in enumerate(traj.snapshots):
        name = f"snap_{i:05d}.oflx"
        write_snapshot(directory / name, snap)
        files.append(name)
    meta = {
        "dt": traj.dt,
        "times": [float(s.time) for s in traj.snapshots],
        "files": files,
        "tags": tags or {},
    }
    (directory / "trajectory.json").write_text(canonical_json(meta), encoding="utf-8")
    return directory


def read_trajectory(directory: str | Path) -> Trajectory:
    directory = Path(directory)
    meta_path = directory / "trajectory.json"
    meta = read_object(meta_path)
    files = meta.get("files")
    if not isinstance(files, list) or not all(isinstance(name, str) for name in files):
        raise PreconditionError(f"{meta_path}: 'files' must be a list of file names")
    try:
        dt = float(meta.get("dt"))
    except (TypeError, ValueError):
        dt = float("nan")
    if not math.isfinite(dt):
        raise PreconditionError(f"{meta_path}: 'dt' must be a finite number, got {meta.get('dt')!r}")
    snaps = tuple(read_snapshot(directory / name) for name in files)
    return Trajectory(snaps, dt)


def load_input(path: str | Path):
    """Read either a single snapshot file or a trajectory directory."""
    path = Path(path)
    if path.is_dir():
        return read_trajectory(path)
    return read_snapshot(path)
