import numpy as np
import pytest

from oflux.errors import PreconditionError
from oflux.commutator import commutator_stress, contraction_grad, fit_loglog, scaling_probe
from oflux.energy_balance import ChiWindow, TestFunction, weak_energy_identity
from oflux.grids import Snapshot, Trajectory, make_grid
from oflux.mollify import block_mask, cutoff_region, full_box_chain, make_mollifier, mollify_field
from oflux.synth import fractional_field

from conftest import TWO_PI
from mollify_oracle import commutator_via_increments


def _flux(vel, mol, phi, grid):
    """<R_eps : grad(phi u^eps)>, the weak identity's contraction at one time."""
    return contraction_grad(commutator_stress(vel, mol, grid), mollify_field(vel, mol, grid), phi, grid)


@pytest.fixture(scope="module")
def phi128(box128):
    return cutoff_region(box128, block_mask(box128, 0.3, 0.7), block_mask(box128, 0.1, 0.9))


def test_constant_field_zero_stress(box64):
    vel = np.stack([np.full(box64.dims, 1.5), np.full(box64.dims, -2.0)])
    mol = make_mollifier(4 * box64.max_spacing, box64)
    assert np.abs(commutator_stress(vel, mol, box64)).max() <= 1e-14
    assert np.abs(commutator_via_increments(vel, mol, box64)).max() <= 1e-14


def test_linear_field_kernel_second_moment():
    # (u ox u)^eps - u^eps ox u^eps for affine u equals the kernel second moment
    g = make_grid((48, 48), (1.0, 1.0), ("wall", "wall"))
    x, y = g.meshes()
    vel = np.stack(
        [np.broadcast_to(x, g.dims).copy(), np.broadcast_to(-y, g.dims).copy()]
    )
    mol = make_mollifier(4 * g.max_spacing, g)
    region = np.zeros(g.dims, bool)
    region[12:36, 12:36] = True
    stress = commutator_stress(vel, mol, g, region=region)
    z = mol.offsets * np.asarray(mol.spacing)
    m2 = np.einsum("k,ki,kj->ij", mol.weights * g.cell_volume(), z, z)  # sum_o w_o h^n (o h) ox (o h)
    pred = [m2[0, 0], -m2[0, 1], m2[1, 1]]  # rows R_00, R_01, R_11
    for k in range(3):
        assert np.abs(stress[k][region] - pred[k]).max() <= 1e-12


def test_single_mode_dense_quadrature_oracle():
    # brute-force convolution oracle on a small grid
    g = make_grid((16, 16), (TWO_PI, TWO_PI))
    x, y = g.meshes()
    vel = np.stack([np.cos(x + 2 * y) + 0 * y, np.sin(2 * x - y) + 0 * y])
    eps = 2.5 * g.max_spacing
    mol = make_mollifier(eps, g)
    vol = g.cell_volume()

    def conv(f):
        out = np.zeros_like(f)
        for (oi, oj), w in zip(mol.offsets, mol.weights):
            out += w * vol * np.roll(np.roll(f, oi, axis=0), oj, axis=1)
        return out

    ue = np.stack([conv(vel[0]), conv(vel[1])])
    oracle = np.stack([conv(vel[i] * vel[j]) - ue[i] * ue[j] for i, j in [(0, 0), (0, 1), (1, 1)]])
    stress = commutator_stress(vel, mol, g)
    assert np.abs(stress - oracle).max() <= 1e-12


def test_identity_paths_randomized(box128):
    # master test: direct and increment routes agree for random admissible cases
    rng = np.random.default_rng(42)
    h = box128.max_spacing
    for _ in range(5):
        alpha = rng.uniform(0.3, 0.7)
        seed = int(rng.integers(0, 1000))
        eps = rng.uniform(2.0, 12.0) * h
        f = fractional_field(alpha, None, seed, box128)
        mol = make_mollifier(eps, box128)
        a = commutator_stress(f, mol)
        b = commutator_via_increments(f, mol)
        assert np.abs(a - b).max() <= 1e-12


def test_identity_terms_individually_nonzero(box128):
    f = fractional_field(0.4, None, 5, box128)
    eps = 8 * box128.max_spacing
    mol = make_mollifier(eps, box128)
    from oflux.mollify import mollify_field

    fluct = f.velocity - mollify_field(f.velocity, mol, box128)
    assert np.abs(fluct).max() > 1e-3  # the Reynolds-type term is nonzero
    a = commutator_stress(f, mol)
    b = commutator_via_increments(f, mol)
    assert np.abs(a - b).max() <= 1e-12


def test_translation_equivariance(box64):
    f = fractional_field(0.5, None, 4, box64)
    mol = make_mollifier(4 * box64.max_spacing, box64)
    s0 = commutator_stress(f, mol)
    shifted = np.roll(f.velocity, shift=(5, -3), axis=(1, 2))
    s1 = commutator_stress(shifted, mol, box64)
    assert np.abs(np.roll(s0, shift=(5, -3), axis=(1, 2)) - s1).max() <= 1e-12


def test_amplitude_scaling(box64):
    # lambda = 2 scales bitwise through the floating-point pipeline
    f = fractional_field(0.5, None, 6, box64)
    mol = make_mollifier(4 * box64.max_spacing, box64)
    phi = cutoff_region(box64, block_mask(box64, 0.3, 0.7), block_mask(box64, 0.1, 0.9))
    lam = 2.0
    s1 = commutator_stress(f, mol)
    s2 = commutator_stress(lam * f.velocity, mol, box64)
    assert np.abs(s2 - lam**2 * s1).max() <= 1e-13
    f1 = _flux(f.velocity, mol, phi, box64)
    f2 = _flux(lam * f.velocity, mol, phi, box64)
    assert f2 == pytest.approx(lam**3 * f1, rel=1e-13)


def test_flux_constant_field(box64):
    phi = cutoff_region(box64, block_mask(box64, 0.3, 0.7), block_mask(box64, 0.1, 0.9))
    vel = np.stack([np.full(box64.dims, 2.0), np.full(box64.dims, 1.0)])
    assert abs(_flux(vel, make_mollifier(4 * box64.max_spacing, box64), phi, box64)) <= 1e-14


def test_flux_parity(box128, phi128):
    f = fractional_field(0.4, None, 11, box128)
    mol = make_mollifier(8 * box128.max_spacing, box128)
    fp = _flux(f.velocity, mol, phi128, box128)
    fm = _flux(-f.velocity, mol, phi128, box128)
    assert fp == -fm


def test_flux_term_trajectory_weighting(box64):
    # the weak identity's rhs sums chi(t_k) <R : grad(phi u)> with trapezoid weights in time
    phi = cutoff_region(box64, block_mask(box64, 0.3, 0.7), block_mask(box64, 0.1, 0.9))
    test = TestFunction(ChiWindow(-0.1, 0.3), phi)  # chi = 0.5, 1, 0.5 at t = 0, 0.1, 0.2
    chain = full_box_chain(box64, eta=10.0)
    vel = fractional_field(0.4, None, 11, box64).velocity
    eps = 6 * box64.max_spacing

    def rhs(times):
        snaps = tuple(Snapshot(box64, vel, np.zeros(box64.dims), t) for t in times)
        return weak_energy_identity(Trajectory(snaps, 0.1), test, eps, chain).rhs

    single = rhs([0.1])
    assert abs(single) > 1e-6
    assert rhs([0.0, 0.1, 0.2]) == pytest.approx(0.15 * single, rel=1e-12)


def test_smooth_field_flux_decay(box128, phi128):
    # band-limited fields: measured flux slope >= 1.8 with r^2 >= 0.95
    f = fractional_field(0.5, 2, 3, box128)
    h = box128.max_spacing
    res = scaling_probe(f, 1.0, [16 * h, 12 * h, 9 * h, 7 * h, 5 * h, 4 * h], phi=phi128)
    assert res.flux.slope >= 1.8
    assert res.flux.r2 >= 0.95


def test_probe_rejects_short_ladder(box64):
    phi = cutoff_region(box64, block_mask(box64, 0.3, 0.7), block_mask(box64, 0.1, 0.9))
    f = fractional_field(0.4, None, 1, box64)
    h = box64.max_spacing
    with pytest.raises(PreconditionError):
        scaling_probe(f, 0.4, [8 * h, 6 * h, 4 * h], phi=phi)
    with pytest.raises(PreconditionError):
        scaling_probe(f, 0.4, [8 * h, 6 * h, 4 * h, 1 * h], phi=phi)


def test_fit_loglog_gates():
    eps = [0.8, 0.4, 0.2, 0.1]
    vals = [e**1.5 for e in eps]
    fit = fit_loglog(eps, vals, predicted=1.4, quantity="demo")
    assert fit.slope == pytest.approx(1.5, abs=1e-12)
    assert fit.passes is True
    fit2 = fit_loglog(eps, vals, predicted=1.8, quantity="demo")
    assert fit2.passes is False
    noisy = [1.0, 0.9, 1.1, 0.2]
    fit3 = fit_loglog(eps, noisy, predicted=0.0, quantity="demo")
    assert fit3.r2 < 0.9 and fit3.passes is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_loglog_non_finite_not_assessable(bad):
    eps = [0.8, 0.4, 0.2, 0.1, 0.05]
    vals = [e**1.5 for e in eps]
    vals[2] = bad  # four finite positive rungs remain
    fit = fit_loglog(eps, vals, predicted=1.4, quantity="demo")
    assert fit.passes is None
    assert "non-finite" in fit.note
