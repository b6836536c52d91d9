import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oflux.boundary import interior_region
from oflux.errors import PreconditionError
from oflux.grids import divergence, energy, make_grid
from oflux.synth import (
    _canonical_half,
    _increment_survey,
    _offset_max_increment,
    _shell_orbits,
    estimate_holder_exponent,
    fractional_field,
    holder_norm,
    shear_flow,
    taylor_green,
)

from conftest import TWO_PI
from survey_oracle import canonical_half_loop, shell_orbits_loop

U_SIN = lambda s: np.sin(s)
W_TRIG = lambda a, b: np.cos(a) * (1.0 + 0.5 * np.sin(b))


@pytest.fixture(scope="module")
def box32_3d():
    return make_grid((32, 32, 32), (TWO_PI, TWO_PI, TWO_PI))


def test_shear_flow_requires_3d(box64):
    with pytest.raises(PreconditionError, match="3D"):
        shear_flow(U_SIN, W_TRIG, 0.0, box64)


def test_shear_flow_zero_u_profile(box32_3d):
    s0 = shear_flow(lambda s: 0.0 * s, W_TRIG, 0.0, box32_3d)
    s1 = shear_flow(lambda s: 0.0 * s, W_TRIG, 5.0, box32_3d)
    assert np.array_equal(s0.velocity, s1.velocity)
    assert np.abs(s0.velocity[0]).max() == 0.0
    assert np.abs(s0.velocity[1]).max() == 0.0


def test_shear_flow_node_value(box32_3d):
    # U(s)=sin s, W(a,b)=cos a at t=1: node (0, pi/2, 0) -> (1, 0, cos(-1))
    snap = shear_flow(U_SIN, lambda a, b: np.cos(a), 1.0, box32_3d)
    j = 8  # pi/2 at 32 points over 2 pi
    assert box32_3d.axis_coords(1)[j] == pytest.approx(np.pi / 2)
    vel = snap.velocity[:, 0, j, 0]
    assert vel[0] == pytest.approx(1.0, abs=1e-15)
    assert vel[1] == 0.0
    assert vel[2] == pytest.approx(np.cos(-1.0), abs=1e-14)


def test_shear_flow_divergence_free(box32_3d):
    snap = shear_flow(U_SIN, W_TRIG, 0.7, box32_3d)
    assert np.abs(divergence(snap)).max() <= 1e-12


def test_shear_flow_energy_stationary(box32_3d):
    # |u|^2 = U^2 + W^2 composed with a volume-preserving shift; for
    # band-limited profiles the node sums are shift-invariant exactly
    e0 = energy(shear_flow(U_SIN, W_TRIG, 0.0, box32_3d))
    for t in np.linspace(0.0, 10.0, 10):
        et = energy(shear_flow(U_SIN, W_TRIG, float(t), box32_3d))
        assert abs(et - e0) <= 1e-12 * e0


def test_taylor_green_values(box64):
    snap = taylor_green(box64, 0.0, 0.37)
    i = 16  # x = pi/2
    assert box64.axis_coords(0)[i] == pytest.approx(np.pi / 2)
    assert snap.velocity[0, i, 0] == pytest.approx(1.0)
    assert snap.velocity[1, i, 0] == pytest.approx(0.0, abs=1e-16)


def test_taylor_green_energy_decay(box64):
    nu = 0.01
    e0 = energy(taylor_green(box64, 0.0, nu))
    for t in (0.3, 1.0, 2.5):
        et = energy(taylor_green(box64, t, nu))
        assert et == pytest.approx(e0 * np.exp(-4 * nu * t), rel=1e-12)


def test_taylor_green_steady_euler_divergence(box64):
    assert np.abs(divergence(taylor_green(box64, 1.0, 0.0))).max() <= 1e-12


def test_taylor_green_momentum_balance(box64):
    # (u . grad) u + grad p = 0 for the steady field (sign convention check)
    from oflux.grids import deriv

    s = taylor_green(box64)
    adv0 = s.velocity[0] * deriv(s.velocity[0], 0, box64) + s.velocity[1] * deriv(s.velocity[0], 1, box64)
    assert np.abs(adv0 + deriv(s.pressure, 0, box64)).max() <= 1e-12


def test_fractional_deterministic(box128):
    a = fractional_field(0.4, None, 7, box128)
    b = fractional_field(0.4, None, 7, box128)
    assert np.array_equal(a.velocity, b.velocity)


def test_fractional_divergence_and_mean(box128):
    f = fractional_field(0.4, None, 7, box128)
    assert np.abs(divergence(f)).max() <= 1e-12
    for c in range(2):
        assert abs(f.velocity[c].mean()) <= 1e-13


def test_fractional_rejects_bad_alpha(box64):
    with pytest.raises(PreconditionError):
        fractional_field(1.2, None, 0, box64)


def test_estimator_on_target_field(box256):
    # structure-function slope oracle on the generated field
    est = estimate_holder_exponent(fractional_field(0.4, None, 7, box256))
    assert abs(est.exponent - 0.4) <= 0.08


def test_estimator_seed_mean(box256):
    vals = [
        estimate_holder_exponent(fractional_field(0.4, None, s, box256)).exponent
        for s in (1, 2, 3)
    ]
    assert 0.32 <= np.mean(vals) <= 0.48


def test_estimator_band_limited(box256):
    # a single resolved shell is Lipschitz at resolved scales
    est = estimate_holder_exponent(fractional_field(0.4, 1, 5, box256))
    assert est.exponent >= 0.95


def test_estimator_constant_degenerate(box64):
    c = np.stack([np.full(box64.dims, 2.0), np.full(box64.dims, 2.0)])
    est = estimate_holder_exponent(c, grid=box64)
    assert est.exponent == 1.0
    assert est.seminorm == 0.0
    assert est.degenerate == "degenerate: zero increments"


def test_estimator_invariances(box256):
    f = fractional_field(0.4, None, 2, box256)
    e0 = estimate_holder_exponent(f).exponent
    shifted = estimate_holder_exponent(f.velocity + 5.0, grid=box256).exponent
    assert abs(shifted - e0) <= 0.02
    permuted = np.transpose(f.velocity[::-1], (0, 2, 1))
    ep = estimate_holder_exponent(permuted, grid=box256).exponent
    assert abs(ep - e0) <= 0.02


def test_holder_norm_constant(box64):
    c = np.stack([np.full(box64.dims, 1.0), np.zeros(box64.dims)])
    assert holder_norm(c, 0.5, grid=box64) == 0.0


def test_holder_norm_lipschitz_sine(box64):
    x, _ = box64.meshes()
    u = np.stack([np.broadcast_to(np.sin(x), box64.dims).copy(), np.zeros(box64.dims)])
    val = holder_norm(u, 1.0, grid=box64)
    assert abs(val - 1.0) <= 0.02


def test_holder_norm_refinement_stability(box128, box256):
    # seminorm of the same generator stays within +-10% under refinement
    n1 = holder_norm(fractional_field(0.4, 60, 9, box128), 0.4)
    n2 = holder_norm(fractional_field(0.4, 60, 9, box256), 0.4)
    assert abs(n2 - n1) <= 0.10 * max(n1, n2)


def test_holder_norm_region_too_small(box64):
    region = np.zeros(box64.dims, bool)
    region[4:7, 4:7] = True
    with pytest.raises(PreconditionError):
        holder_norm(np.zeros((2, *box64.dims)), 0.5, region=region, grid=box64)


# ---------------------------------------------------------------------------
# the survey's maskless route and vectorized orbits against their references
# ---------------------------------------------------------------------------

SURVEY = settings(max_examples=10, deadline=None)
_survey_grids = st.one_of(
    st.tuples(st.integers(24, 33), st.integers(24, 33)),
    st.tuples(st.integers(24, 27), st.integers(24, 27), st.integers(24, 27)),
).flatmap(lambda dims: st.tuples(
    st.just(dims),
    st.sampled_from([(TWO_PI,) * len(dims), (1.3, 0.9, 1.1)[: len(dims)]]),
))


@SURVEY
@given(spec=_survey_grids, seed=st.integers(0, 2**32 - 1))
def test_maskless_survey_matches_all_true_region(spec, seed):
    dims, extents = spec
    grid = make_grid(dims, extents)
    vel = np.random.default_rng(seed).standard_normal((grid.ndim, *dims))
    maskless = estimate_holder_exponent(vel, grid=grid, seed=seed % 7)
    masked = estimate_holder_exponent(vel, np.ones(dims, dtype=bool), grid=grid, seed=seed % 7)
    assert repr(maskless) == repr(masked)


@SURVEY
@given(
    spec=st.one_of(
        st.tuples(st.just("box"), st.integers(24, 48), st.integers(24, 48)),
        st.tuples(st.just("channel"), st.integers(16, 40), st.sampled_from([65, 97, 129])),
    ),
    rough=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_survey_gives_the_exponent_and_the_seminorm(spec, rough, seed):
    kind, nx, ny = spec
    grid = make_grid((nx, ny), (TWO_PI, 1.0 if kind == "channel" else TWO_PI),
                     ("periodic", "wall") if kind == "channel" else ("periodic", "periodic"))
    region = interior_region(grid) if kind == "channel" else None
    vel = np.random.default_rng(seed).standard_normal((2, nx, ny))
    if not rough:  # a random walk along each axis: an exponent above 0
        vel = np.cumsum(np.cumsum(vel, axis=1), axis=2)
    _, rung_pts, _ = _increment_survey(vel, grid, region, seed % 7)
    assert np.all(np.diff(rung_pts[:, 0]) > 0)  # the shells are disjoint: no sort needed
    est = estimate_holder_exponent(vel, region, grid=grid, seed=seed % 7)
    if est.exponent > 0:
        assert est.seminorm == holder_norm(vel, est.exponent, region, grid=grid, seed=seed % 7)


@settings(max_examples=25, deadline=None)
@given(
    dims=st.one_of(st.tuples(st.integers(8, 40), st.integers(8, 40)),
                   st.tuples(st.integers(8, 16), st.integers(8, 16), st.integers(8, 16))),
    isotropic=st.booleans(),
    lo=st.floats(1.5, 6.0),
    width=st.floats(1.0, 2.0),
)
def test_shell_orbits_match_the_loop(dims, isotropic, lo, width):
    if isotropic:
        dims = (dims[0],) * len(dims)
    grid = make_grid(dims, (0.05 * dims[0],) * len(dims) if isotropic else (1.3, 0.9, 1.1)[: len(dims)])
    r_lo = lo * min(grid.spacing)
    got = _shell_orbits(grid, r_lo, width * r_lo)
    want = shell_orbits_loop(grid, r_lo, width * r_lo)
    assert [o.tolist() for o in got] == [o.tolist() for o in want]


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 3), reach=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_canonical_half_matches_the_loop(n, reach, seed):
    axes = [np.arange(-reach, reach + 1)] * n
    offs = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    offs = np.random.default_rng(seed).permutation(offs)
    assert np.array_equal(_canonical_half(offs), canonical_half_loop(offs))


@SURVEY
@given(spec=_survey_grids, seed=st.integers(0, 2**32 - 1))
def test_offset_increment_matches_the_array_formula(spec, seed):
    dims, extents = spec
    grid = make_grid(dims, extents)
    rng = np.random.default_rng(seed)
    vel = rng.standard_normal((grid.ndim, *dims))
    for o in rng.integers(-5, 6, size=(4, grid.ndim)):
        shifted = np.roll(vel, shift=tuple(o), axis=tuple(range(1, vel.ndim)))
        want = float(np.sqrt(np.sum((vel - shifted) ** 2, axis=0).max()))
        assert _offset_max_increment(vel, o) == want
