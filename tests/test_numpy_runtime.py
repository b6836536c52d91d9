"""The package runs on numpy alone; scipy serves here as the oracle.

The real-to-real transforms of ``oflux.grids`` are checked against
``scipy.fft`` and the closed-form box distances of ``oflux.mollify`` against
``scipy.ndimage`` on the periodically tiled mask.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

import oflux
from oflux import grids, mollify
from oflux.errors import PreconditionError
from oflux.grids import box_axes, make_grid, wall_distance
from oflux.mollify import block_mask

from mollify_oracle import distance_to_set, distance_via_tiling

PROPERTY = settings(max_examples=60, deadline=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
TRANSFORMS = [(name, kind) for name in ("dct", "idct", "dst", "idst") for kind in (1, 2)]


@st.composite
def transform_cases(draw):
    """An array of 2 or 3 axes whose transformed axis (0, 1 or -1) has 2-33 points."""
    ndim = draw(st.sampled_from([2, 3]))
    axis = draw(st.sampled_from([0, 1, -1]))
    shape = [draw(st.integers(1, 4)) for _ in range(ndim)]
    shape[axis] = draw(st.integers(2, 33))
    return tuple(shape), axis


@PROPERTY
@given(case=transform_cases(), transform=st.sampled_from(TRANSFORMS), seed=seeds)
def test_r2r_matches_scipy_fft(case, transform, seed):
    shape, axis = case
    name, kind = transform
    x = np.random.default_rng(seed).standard_normal(shape)
    want = getattr(sfft, name)(x, type=kind, axis=axis)
    got = getattr(grids, name)(x, kind, axis)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("name, kind", TRANSFORMS)
def test_r2r_matches_scipy_fft_at_every_length(name, kind):
    rng = np.random.default_rng(kind)
    for m in range(2, 34):
        x = rng.standard_normal((3, m))
        want = getattr(sfft, name)(x, type=kind)
        assert np.abs(getattr(grids, name)(x, kind) - want).max() <= 1e-13 * np.abs(want).max()


def test_r2r_rejects_other_types():
    with pytest.raises(PreconditionError):
        grids.dct(np.ones(8), 3)


axis_kinds = st.sampled_from(["periodic", "wall"])


def _outside_distance(box, grid):
    """The package's distance from every node to the complement of a box, the least of its per-axis lines."""
    lines = [q.reshape([-1 if b == a else 1 for b in range(grid.ndim)])
             for a, q in enumerate(mollify._outside_sq(box_axes(box, grid), grid))]
    return np.sqrt(functools.reduce(np.minimum, lines))


@st.composite
def distance_cases(draw):
    """A 2D or 3D grid of periodic and wall axes, anisotropic, and a box on it: a block
    (rolled on its periodic axes, so it may wrap), or a wall collar's interior, or on
    one wall axis the collar itself."""
    ndim = draw(st.sampled_from([2, 3]))
    dims = tuple(draw(st.integers(8, 17 if ndim == 2 else 11)) for _ in range(ndim))
    kinds = tuple(draw(axis_kinds) for _ in range(ndim))
    extents = tuple(draw(st.floats(0.5, 7.0)) for _ in range(ndim))
    grid = make_grid(dims, extents, kinds)
    if "wall" in kinds and draw(st.booleans()):
        near = draw(st.floats(0.05, 0.45)) * max(extents)  # may take the whole grid, leaving no interior
        collar = np.broadcast_to(wall_distance(grid), dims) < near
        return grid, (collar if kinds.count("wall") == 1 and draw(st.booleans()) else ~collar)
    lo = [draw(st.floats(0.0, 0.6)) for _ in range(ndim)]
    hi = [l + draw(st.floats(0.15, 0.4)) for l in lo]
    shift = [draw(st.integers(0, m - 1)) if kind == "periodic" else 0 for m, kind in zip(dims, kinds)]
    return grid, np.roll(block_mask(grid, lo, hi), shift, axis=tuple(range(ndim)))


@PROPERTY
@given(case=distance_cases())
def test_distance_transform_matches_ndimage_on_tiled_mask(case):
    grid, box = case
    got = _outside_distance(box, grid)
    assert got.tobytes() == distance_to_set(~box, grid).tobytes()  # the exact transform's, bit for bit
    if box.all():
        assert np.all(np.isinf(got))
        return
    want = distance_via_tiling(~box, grid)
    assert np.abs(got - want).max() <= 1e-15 * max(grid.extents)


@pytest.mark.parametrize("kinds", ["periodic", "wall", ("periodic", "wall", "periodic")])
def test_distance_to_empty_set_is_infinite(kinds):
    # the whole grid is a box with no node outside it, on every axis
    dims = (8, 9) if isinstance(kinds, str) else (8, 9, 10)
    grid = make_grid(dims, (1.0,) * len(dims), kinds)
    assert np.all(np.isinf(_outside_distance(np.ones(dims, dtype=bool), grid)))
    assert np.all(np.isinf(distance_to_set(np.zeros(dims, dtype=bool), grid)))


def test_cli_import_loads_no_scipy():
    src = str(Path(oflux.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, oflux.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def _modules_after(code: str) -> list[str]:
    """The oflux, multiprocessing and concurrent modules a fresh interpreter holds after ``code``."""
    src = str(Path(oflux.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code += ("; import sys; print(' '.join(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('oflux', 'multiprocessing', 'concurrent'))))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1].split()  # after whatever the commands printed


COMMON = ["oflux", "oflux.cli", "oflux.errors", "oflux.fieldio", "oflux.grids", "oflux.reports"]


def test_cli_import_loads_no_process_pool():
    # cli forks its workers itself, and each command imports its own modules, so importing cli loads
    # no process pool and none of the modules a command may not need
    assert _modules_after("import oflux.cli") == COMMON
    from oflux import cli, solver

    assert cli.run is solver.run  # read through cli, as the benchmark's layer trace does, it loads the solver


def test_each_command_loads_only_its_modules(tmp_path):
    gen = f"from oflux.cli import main; main(['gen', '--kind', 'fractional', '--alpha', '0.4', '--grid', '16x16', " \
          f"'--out', {str(tmp_path / 'g')!r}])"
    assert _modules_after(gen) == sorted(COMMON + ["oflux.synth"])
    diagnose = gen + f"; main(['diagnose', '--in', {str(tmp_path / 'g' / 'field.oflx')!r}, '--alpha', '0.4', " \
                     f"'--epsilons', '2,1.8,1.6,1.4', '--out', {str(tmp_path / 'd')!r}])"
    # a single field runs no weak identity, so neither the pressure nor the weak-identity module loads
    assert _modules_after(diagnose) == sorted(COMMON + ["oflux.commutator", "oflux.mollify", "oflux.synth"])
    assert (tmp_path / "d" / "summary.json").is_file()
