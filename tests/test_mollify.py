import numpy as np
import pytest

from oflux import mollify
from oflux.errors import PreconditionError
from oflux.grids import make_grid
from oflux.mollify import (
    block_mask,
    bump,
    bump_cdf,
    cutoff_region,
    field_spectrum,
    make_mollifier,
    mollify_field,
    mollify_spectrum,
    nested_regions,
    set_distance,
    time_kernel,
    time_mollify,
    time_reach,
)

from conftest import TWO_PI
from mollify_oracle import convolve_stencil


def test_kernel_normalization(box64):
    for m in (2.0, 3.5, 8.0):
        mol = make_mollifier(m * box64.max_spacing, box64)
        vol = box64.cell_volume()
        assert abs(np.sum(mol.weights) * vol - 1.0) <= 1e-15


def test_stencil_size_eps_2h(box64):
    # closed disk of radius 2 cells: 13 lattice points (the bounding ring
    # carries zero weight since the bump vanishes at |s| = 1)
    mol = make_mollifier(2.0 * box64.max_spacing, box64)
    cells = np.array([(i, j) for i in range(-2, 3) for j in range(-2, 3)])
    oracle = sum(1 for i, j in cells if i * i + j * j <= 4)
    assert oracle == 13
    assert len(mol.weights) == 13
    ring = np.sqrt(np.sum(mol.offsets**2, axis=1)) >= 2.0 - 1e-12
    assert np.all(mol.weights[ring] == 0.0)


def test_under_resolved_kernel(box64):
    with pytest.raises(PreconditionError, match="under-resolved kernel"):
        make_mollifier(box64.max_spacing, box64)


def test_constant_field_exact(box64):
    mol = make_mollifier(4 * box64.max_spacing, box64)
    c = np.full(box64.dims, 3.7)
    out = mollify_field(c, mol, box64)
    assert np.abs(out - 3.7).max() <= 1e-14


def test_single_mode_spectral_vs_stencil(box64):
    x, y = box64.meshes()
    f = np.cos(3 * x + 2 * y) + 0 * y
    mol = make_mollifier(5 * box64.max_spacing, box64)
    a = mollify_field(f, mol, box64)
    b = convolve_stencil(f, mol, box64)
    assert np.abs(a - b).max() <= 1e-12
    # the mode is scaled by the kernel transform at its wavenumber
    khat = mol.transfer(box64)
    scale = khat[3, 2].real
    assert np.abs(a - scale * f).max() <= 1e-12


def test_linear_field_exact_interior():
    g = make_grid((48, 48), (1.0, 1.0), ("wall", "wall"))
    x, _ = g.meshes()
    f = np.broadcast_to(x, g.dims).copy()
    eps = 4 * g.max_spacing
    mol = make_mollifier(eps, g)
    region = np.zeros(g.dims, bool)
    region[8:40, 8:40] = True
    out = mollify_field(f, mol, g, region=region)
    assert np.abs((out - f)[region]).max() <= 1e-13


def test_margin_violation_lists_nodes():
    g = make_grid((32, 33), (TWO_PI, 1.0), ("periodic", "wall"))
    region = np.ones(g.dims, bool)
    mol = make_mollifier(3 * g.max_spacing, g)
    with pytest.raises(PreconditionError, match=r"margin violation: 8\+ region nodes .* e\.g\. \[\(0, 0\), "):
        mollify_field(np.zeros(g.dims), mol, g, region=region)


def test_cutoff_commutation_invariant(box64):
    # mollify(I * w) == mollify(w) on Q3: the cutoff is invisible where the
    # kernel never sees it
    rng = np.random.default_rng(0)
    w = rng.standard_normal(box64.dims)
    support = block_mask(box64, 0.4, 0.6)
    eta = 6 * box64.max_spacing
    chain = nested_regions(support, eta, box64)
    cut = cutoff_region(box64, chain.q2, chain.q1)
    mol = make_mollifier(0.5 * eta, box64)
    a = mollify_field(cut.values * w, mol, box64)
    b = mollify_field(w, mol, box64)
    assert np.abs((a - b)[chain.q3]).max() <= 1e-13


def test_derivative_transfer(box64):
    from oflux.grids import deriv

    rng = np.random.default_rng(1)
    spec = np.zeros(box64.dims, complex)
    spec[:6, :6] = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    w = np.fft.ifftn(spec).real
    mol = make_mollifier(4 * box64.max_spacing, box64)
    a = deriv(mollify_field(w, mol, box64), 0, box64)
    b = mollify_field(deriv(w, 0, box64), mol, box64)
    assert np.abs(a - b).max() <= 1e-12


def test_positivity(box64):
    rng = np.random.default_rng(2)
    w = rng.uniform(0.0, 1.0, box64.dims)
    mol = make_mollifier(3 * box64.max_spacing, box64)
    assert mollify_field(w, mol, box64).min() >= -1e-15


def test_nested_regions_distances(box64):
    support = block_mask(box64, 0.375, 0.625)  # central 16^2-ish block
    eta = 4 * box64.max_spacing
    chain = nested_regions(support, eta, box64)
    # brute-force nearest-pair oracle on the coarse masks
    for inner, outer in ((chain.q3, chain.q2), (chain.q2, chain.q1), (chain.q1, chain.qtilde)):
        gap = set_distance(inner, ~outer, box64)
        a = np.argwhere(inner) * box64.max_spacing
        b = np.argwhere(~outer) * box64.max_spacing
        # subsample the brute-force check to keep it quadratic but small
        a = a[:: max(1, len(a) // 400)]
        b = b[:: max(1, len(b) // 400)]
        brute = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)).min()
        assert gap >= eta - 1e-9
        assert brute >= gap - 1e-9


def test_nested_regions_rejects_zero_margin(box64):
    with pytest.raises(PreconditionError):
        nested_regions(block_mask(box64, 0.4, 0.6), 0.0, box64)


def test_nested_regions_whole_periodic_box(box64):
    chain = nested_regions(np.ones(box64.dims, bool), 4 * box64.max_spacing, box64)
    assert chain.q3.all() and chain.qtilde.all()


def test_nested_regions_wall_margin_error():
    g = make_grid((32, 33), (TWO_PI, 1.0), ("periodic", "wall"))
    support = block_mask(g, 0.45, 0.55)
    with pytest.raises(PreconditionError, match="maximal feasible eta"):
        nested_regions(support, 0.2, g)


def test_cutoff_region_values(box64):
    inner = block_mask(box64, 0.4, 0.6)
    outer = block_mask(box64, 0.25, 0.75)
    cut = cutoff_region(box64, inner, outer)
    assert np.all(cut.values[inner] == 1.0)
    assert np.all(cut.values[~outer] == 0.0)
    assert cut.values.min() >= 0.0 and cut.values.max() <= 1.0


@pytest.mark.parametrize("kinds", ["periodic", ("periodic", "wall")])
def test_cutoff_region_runs_one_distance_transform(monkeypatch, kinds):
    grid = make_grid((32, 33), (TWO_PI, 1.0), kinds)
    inner, outer = block_mask(grid, 0.35, 0.65), block_mask(grid, 0.2, 0.8)
    gap = set_distance(inner, ~outer, grid)
    calls = []
    real = mollify._distance_to_set

    def counting(mask, g):
        calls.append(mask)
        return real(mask, g)

    monkeypatch.setattr(mollify, "_distance_to_set", counting)
    cf = cutoff_region(grid, inner, outer)
    assert len(calls) == 1
    assert cf.width == gap


@pytest.mark.parametrize("chunk", [1 << 20, 1 << 10])
@pytest.mark.parametrize("dims, kinds", [((64, 65), "periodic"), ((64, 65), ("periodic", "wall")),
                                         ((24, 25, 26), "periodic")])
def test_cutoff_region_is_bitwise_the_same_at_any_distance_block(monkeypatch, chunk, dims, kinds):
    # the candidate block bounds the distance pass's memory, not its minima: all rows
    # of a line pass at once (2^20), a few (the module's 2^16) or one (2^10)
    grid = make_grid(dims, (TWO_PI, 1.0, 2.0)[: len(dims)], kinds)
    inner, outer = block_mask(grid, 0.35, 0.65), block_mask(grid, 0.2, 0.8)
    want = cutoff_region(grid, inner, outer)
    monkeypatch.setattr(mollify, "_EDT_CHUNK", chunk)
    got = cutoff_region(grid, inner, outer)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.width == want.width


@pytest.mark.parametrize("lead, dims", [((), (64, 64)), ((1,), (64, 64)), ((3,), (64, 64)),
                                        ((5,), (256, 256)), ((2, 3), (8, 9, 10))])
def test_mollify_spectrum_matches_the_stacked_inverse_bitwise(lead, dims):
    # one inverse transform per component, written into one output, keeps every bit
    grid = make_grid(dims, (TWO_PI,) * len(dims))
    f = np.random.default_rng(len(lead) + sum(lead)).standard_normal(lead + dims)
    spectrum = field_spectrum(f, grid)
    transfer = make_mollifier(3.0 * grid.max_spacing, grid).transfer(grid)
    want = np.fft.irfftn(spectrum * transfer, s=dims, axes=tuple(range(len(lead), f.ndim)))
    got = mollify_spectrum(spectrum, transfer, grid)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_cutoff_region_zero_width_error(box64):
    inner = block_mask(box64, 0.4, 0.6)
    with pytest.raises(PreconditionError, match="zero-width"):
        cutoff_region(box64, inner, inner)


def test_cutoff_second_differences(box64):
    # concentric blocks with an 8h gap: |second difference| <= C / width^2,
    # and doubling the gap roughly halves the worst second difference
    def max_d2(gap_cells):
        lo = 0.375 - gap_cells / 64
        cut = cutoff_region(box64, block_mask(box64, 0.375, 0.625), block_mask(box64, lo, 1 - lo))
        v = cut.values
        h = box64.max_spacing
        d2x = np.abs(v[2:, :] - 2 * v[1:-1, :] + v[:-2, :]) / h**2
        d2y = np.abs(v[:, 2:] - 2 * v[:, 1:-1] + v[:, :-2]) / h**2
        return max(d2x.max(), d2y.max()), cut.width

    m8, w8 = max_d2(8)
    m16, _ = max_d2(16)
    assert m8 <= 30.0 / w8**2
    assert m8 / m16 >= 1.6


def test_time_kernel_normalized():
    offs, w = time_kernel(0.05, 0.01)
    assert abs(np.sum(w) * 0.01 - 1.0) <= 1e-14


def test_time_mollify_constant_and_linear(box64):
    x, _ = box64.meshes()
    base = np.stack([np.broadcast_to(np.sin(x), box64.dims).copy(), np.zeros(box64.dims)])
    dt, n, kappa = 0.02, 11, 0.05
    # time-constant sequence: every retained array is the constant
    idx, smoothed = time_mollify([base] * n, kappa, dt)
    assert idx == range(2, n - 2)
    for f in smoothed:
        assert np.abs(f - base).max() <= 1e-13

    # linear in t: the even time kernel has zero first moment
    idx, smoothed = time_mollify([base * (1.0 + 0.5 * i * dt) for i in range(n)], kappa, dt)
    for i, f in zip(idx, smoothed):
        assert np.abs(f - base * (1.0 + 0.5 * i * dt)).max() <= 1e-13


def test_time_mollify_matches_dense_1d_oracle(box64):
    # sinusoidal-in-t sequence vs a per-node 1D discrete convolution oracle
    x, _ = box64.meshes()
    dt, n, kappa = 0.02, 15, 0.06
    amp = np.broadcast_to(np.sin(x), box64.dims)
    arrays = [np.stack([amp * np.cos(3.0 * i * dt), np.zeros(box64.dims)]) for i in range(n)]
    idx, smoothed = time_mollify(arrays, kappa, dt)
    offs, w = time_kernel(kappa, dt)
    for i, f in zip(idx, smoothed):
        coef = sum(wm * dt * np.cos(3.0 * (i - m) * dt) for m, wm in zip(offs, w))
        assert np.abs(f[0] - coef * amp).max() <= 1e-12
        assert not f[1].any()


def test_time_reach_is_checked_before_the_kernel_is_built(monkeypatch):
    # a radius past the trajectory is refused before any offset is allocated
    monkeypatch.setattr(mollify, "time_kernel", lambda *a: pytest.fail("time kernel built"))
    for kappa, dt in ((1e9, 0.1), (1e300, 1e-300)):  # the second ratio overflows a float
        with pytest.raises(PreconditionError, match="too short"):
            time_mollify([np.zeros(2)] * 3, kappa, dt)
    with pytest.raises(PreconditionError, match="under-resolved time kernel"):
        time_reach(0.01, 0.01, 3)
    assert time_reach(0.05, 0.02, 5) == 2
    with pytest.raises(PreconditionError, match="too short"):
        time_reach(0.05, 0.02, 4)


def test_bump_cdf_endpoints():
    assert bump_cdf(-1.0) == 0.0
    assert bump_cdf(1.0) == pytest.approx(1.0, abs=1e-14)
    assert bump(1.0) == 0.0 and bump(0.0) == pytest.approx(np.exp(-1.0))


def test_bump_cdf_matches_quad_oracle():
    from scipy.integrate import quad

    mass, _ = quad(lambda t: float(bump(t)), -1.0, 1.0, epsabs=1e-14, epsrel=1e-14, limit=200)
    ts = np.concatenate([np.linspace(-0.999, 0.999, 41), [-0.95, -0.5 + 1e-9, 0.3333, 0.98]])
    want = np.array([quad(lambda t: float(bump(t)), -1.0, x, epsabs=1e-14, epsrel=1e-14, limit=200)[0]
                     for x in ts]) / mass
    got = bump_cdf(ts)
    assert np.abs(got - want).max() <= 1e-12
    grid = np.linspace(-1.5, 1.5, 20001)
    vals = bump_cdf(grid)
    assert np.all(np.diff(vals) >= -1e-15)  # monotone up to round-off
    assert np.all(vals[grid <= -1.0] == 0.0) and np.all(vals[grid >= 1.0] == 1.0)


def test_derivative_transfer_channel_interior():
    # central differences commute with the stencil convolution away from walls
    from oflux.grids import make_grid

    g = make_grid((48, 49), (1.0, 1.0), ("periodic", "wall"))
    x, y = g.meshes()
    w = np.sin(2 * np.pi * x) * np.sin(np.pi * y) + 0 * x
    eps = 3 * g.max_spacing
    mol = make_mollifier(eps, g)
    region = np.broadcast_to((y > 0.3) & (y < 0.7), g.dims).copy()
    wide = np.broadcast_to((y > 0.2) & (y < 0.8), g.dims).copy()

    hy = g.spacing[1]
    dy = np.zeros_like(w)
    dy[:, 1:-1] = (w[:, 2:] - w[:, :-2]) / (2 * hy)
    a = mollify_field(dy, mol, g, region=region)
    mw = mollify_field(w, mol, g, region=wide)
    b = np.zeros_like(mw)
    b[:, 1:-1] = (mw[:, 2:] - mw[:, :-2]) / (2 * hy)
    assert np.abs((a - b)[region]).max() <= 1e-10


def test_written_out_gauss_legendre_rule_is_numpys():
    # the bump CDF table integrates with this rule; written out, it must be numpy's to the bit
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert nodes.tobytes() == mollify._GL8_NODES.tobytes()
    assert weights.tobytes() == mollify._GL8_WEIGHTS.tobytes()
