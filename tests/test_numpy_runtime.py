"""The package runs on numpy alone; scipy serves here as the oracle.

The real-to-real transforms of ``oflux.grids`` are checked against
``scipy.fft`` and the exact distance transform of ``oflux.mollify`` against
``scipy.ndimage`` on the periodically tiled mask.
"""

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
from oflux import grids
from oflux.errors import PreconditionError
from oflux.grids import make_grid
from oflux.mollify import _distance_to_set, block_mask

from mollify_oracle import distance_via_tiling

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


@st.composite
def distance_cases(draw):
    ndim = draw(st.sampled_from([2, 3]))
    dims = tuple(draw(st.integers(8, 17 if ndim == 2 else 11)) for _ in range(ndim))
    kinds = tuple(draw(axis_kinds) for _ in range(ndim))
    extents = tuple(draw(st.floats(0.5, 7.0)) for _ in range(ndim))
    grid = make_grid(dims, extents, kinds)
    if draw(st.booleans()):
        lo = [draw(st.floats(0.0, 0.6)) for _ in range(ndim)]
        hi = [l + draw(st.floats(0.15, 0.4)) for l in lo]
        mask = block_mask(grid, lo, hi)
        if draw(st.booleans()):
            mask = ~mask
    else:
        density = draw(st.sampled_from([0.01, 0.05, 0.3]))
        mask = np.random.default_rng(draw(seeds)).random(dims) < density
    return grid, mask


@PROPERTY
@given(case=distance_cases())
def test_distance_transform_matches_ndimage_on_tiled_mask(case):
    grid, mask = case
    got = _distance_to_set(mask, grid)
    if not mask.any():
        assert np.all(np.isinf(got))
        return
    want = distance_via_tiling(mask, grid)
    assert np.abs(got - want).max() <= 1e-15 * max(grid.extents)


@pytest.mark.parametrize("kinds", ["periodic", "wall", ("periodic", "wall", "periodic")])
def test_distance_to_empty_set_is_infinite(kinds):
    dims = (8, 9) if isinstance(kinds, str) else (8, 9, 10)
    grid = make_grid(dims, (1.0,) * len(dims), kinds)
    assert np.all(np.isinf(_distance_to_set(np.zeros(dims, dtype=bool), grid)))


def test_cli_import_loads_no_scipy():
    src = str(Path(oflux.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, oflux.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # only sweep starts worker processes; every other command pays nothing for the pool's modules
    src = str(Path(oflux.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, oflux.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
    from oflux import cli, solver

    assert cli.run is solver.run  # the benchmark's layer trace rebinds it in cli's namespace
