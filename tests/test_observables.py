"""Observables: quadrature variance, squeezing degree, Wigner grids,
negativity volume and Uhlmann fidelity.

The separable Wigner kernel is checked against the textbook brute-force
form (2/pi) Tr[D^dag(a) rho D(a) P] with explicitly built displacement
matrices, against a per-point displaced-parity oracle at twice the pad the
kernel chose, and against closed-form Gaussians for vacuum and squeezed
vacuum.  The Fock |1> negativity volume 2 e^{-1/2} - ... = 0.21306
makes a sharp quantitative anchor for the negative-part integral.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsqueeze import observables
from magsqueeze.errors import DimensionError, NumericalError
from magsqueeze.observables import (
    WignerGrid,
    default_axes,
    gaussian_overlap,
    gaussian_wigner,
    min_quadrature_variance,
    squeezing_db,
    wigner,
    wigner_negativity_volume,
)
from magsqueeze.qops import annihilation, density_from_vector
from magsqueeze.states import squeezed_vacuum_dyad, squeezed_vacuum_fock
from test_qops import (  # test-local oracles
    displacement_operator,
    fock_state,
    matrix_sqrt_psd,
    parity_operator,
)


# test-local oracles: the package itself needs neither


def uhlmann_fidelity(rho1, rho2):
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)), in [0, 1]."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise DimensionError(f"shape mismatch {rho1.shape} vs {rho2.shape}")
    s1 = matrix_sqrt_psd(rho1, neg_tol=1e-6)
    inner = s1 @ rho2 @ s1
    evals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    evals = np.clip(evals, 0.0, None)
    return float(np.sum(np.sqrt(evals)))


def fock_populations(rho_magnon):
    """Diagonal of the magnon state in the Fock basis."""
    return np.real(np.diagonal(np.asarray(rho_magnon))).copy()


# ---------------------------------------------------------------------------
# quadrature variance and dB scale


def test_variance_vacuum_and_fock():
    vac = density_from_vector(fock_state(0, 20))
    out = min_quadrature_variance(vac)
    assert out.value == pytest.approx(1.0, abs=1e-12)
    assert out.raw == pytest.approx(0.5, abs=1e-12)
    # Fock |n|: isotropic, variance 2n+1
    one = density_from_vector(fock_state(1, 20))
    assert min_quadrature_variance(one).value == pytest.approx(3.0, abs=1e-12)


@given(r=st.floats(0.05, 1.0), phase=st.floats(-math.pi, math.pi))
def test_variance_squeezed_vacuum(r, phase):
    xi = r * np.exp(1j * phase)
    psi = squeezed_vacuum_fock(xi, 120)
    out = min_quadrature_variance(density_from_vector(psi))
    assert out.value == pytest.approx(math.exp(-2.0 * r), rel=1e-8)
    # reported angle is the squeezed quadrature: phase/2 mod pi (real xi
    # squeezes the position quadrature in this convention)
    expected_angle = (phase / 2.0) % math.pi
    diff = abs(out.angle % math.pi - expected_angle)
    assert min(diff, math.pi - diff) < 1e-7


def test_variance_displacement_invariant():
    # variance subtracts first moments, so a displaced squeezed state keeps
    # the squeezed variance
    dim = 80
    psi = squeezed_vacuum_fock(0.6, dim)
    d = displacement_operator(1.2 - 0.4j, dim)
    out = min_quadrature_variance(density_from_vector(d @ psi))
    assert out.value == pytest.approx(math.exp(-1.2), rel=1e-6)


def test_variance_thermal():
    n_bar = 0.35
    dim = 60
    pops = (n_bar / (1 + n_bar)) ** np.arange(dim) / (1 + n_bar)
    rho = np.diag(pops / pops.sum()).astype(complex)
    assert min_quadrature_variance(rho).value == pytest.approx(
        1.0 + 2.0 * n_bar, rel=1e-6
    )


@given(dim=st.integers(2, 15), seed=st.integers(0, 2**32 - 1))
def test_variance_moments_match_dense_operators(dim, seed):
    # the moments read off the (sub-)diagonals against Tr(rho O) with the
    # dense m, m^2 and m^dag m
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    m = annihilation(dim)
    m_exp = np.trace(rho @ m)
    c = np.trace(rho @ m @ m) - m_exp**2
    n_exp = np.trace(rho @ m.conj().T @ m).real
    out = min_quadrature_variance(rho)
    assert out.n_mean == pytest.approx(n_exp, rel=1e-12, abs=1e-12)
    assert out.value == pytest.approx(
        1.0 + 2.0 * (n_exp - abs(m_exp) ** 2) - 2.0 * abs(c), rel=1e-12, abs=1e-12)
    # theta* = arg(c)/2 + pi/2, compared modulo pi
    assert abs(np.exp(2j * out.angle) + c / abs(c)) < 1e-9


def test_squeezing_db_scale():
    assert squeezing_db(1.0) == 0.0
    assert squeezing_db(0.1) == pytest.approx(10.0)
    r = 0.7
    assert squeezing_db(math.exp(-2 * r)) == pytest.approx(
        20.0 * r / math.log(10.0)
    )  # 8.686 r
    with pytest.raises(NumericalError):
        squeezing_db(0.0)


# ---------------------------------------------------------------------------
# Wigner function


def brute_force_wigner(rho, alphas):
    """(2/pi) Tr[D^dag(a) rho D(a) P] with dense displacement matrices."""
    n = rho.shape[0]
    par = parity_operator(n)
    out = []
    for a in alphas:
        d = displacement_operator(a, n)
        out.append((2.0 / math.pi) * np.trace(d.conj().T @ rho @ d @ par).real)
    return np.array(out)


def per_point_wigner(state, re_axis, im_axis, fock_dim, weight_floor=1e-13):
    """Displaced parity point by point: W = (2/pi) sum_k <z_k| P |z_k> with
    z_k = D(a)^dag u_k, D(a) = R_phi D(|a|) R_phi^dag split into phase
    rotations and one radial displacement diagonalised once, the state
    zero-padded to ``fock_dim`` first."""
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        basis = arr[:, None]
    else:
        pops, vecs = np.linalg.eigh(0.5 * (arr + arr.conj().T))
        keep = pops > weight_floor
        basis = vecs[:, keep] * np.sqrt(pops[keep])
    padded = np.zeros((fock_dim, basis.shape[1]), dtype=complex)
    padded[: basis.shape[0]] = basis
    m = annihilation(fock_dim)
    lam, v = np.linalg.eigh(1.0j * (m.conj().T - m))     # D(s) = e^{-i s G}
    vh = v.conj().T
    parity = (-1.0) ** np.arange(fock_dim)
    fock_idx = np.arange(fock_dim)
    values = np.empty((len(im_axis), len(re_axis)))
    for iy, y in enumerate(im_axis):
        for ix, x in enumerate(re_axis):
            cols = np.exp(-1.0j * math.atan2(y, x) * fock_idx)[:, None] * padded
            z = v @ (np.exp(1.0j * math.hypot(x, y) * lam)[:, None] * (vh @ cols))
            values[iy, ix] = (2.0 / math.pi) * float(parity @ np.sum(np.abs(z) ** 2, axis=1))
    return values


def test_wigner_matches_brute_force(rng):
    dim = 40
    psi = squeezed_vacuum_fock(0.5 * np.exp(0.8j), dim)
    rho = 0.7 * density_from_vector(psi) + 0.3 * density_from_vector(
        fock_state(1, dim)
    )
    pts_x = rng.uniform(-1.5, 1.5, size=9)
    pts_y = rng.uniform(-1.5, 1.5, size=9)
    # scattered points inside the state's support, not a grid that holds it
    with pytest.warns(UserWarning, match="boundary"):
        grid = wigner(rho, pts_x, pts_y)
    # the dense oracle truncates D(a) itself; at dimension 40 that costs it
    # up to 2e-8, so it acts on rho zero-padded to 80
    rho_pad = np.zeros((80, 80), dtype=complex)
    rho_pad[:dim, :dim] = rho
    expected = np.empty((9, 9))
    for iy, y in enumerate(pts_y):
        expected[iy, :] = brute_force_wigner(rho_pad, pts_x + 1j * y)
    np.testing.assert_allclose(grid.values, expected, atol=1e-10)


@st.composite
def low_rank_states(draw):
    dim = draw(st.integers(20, 60))
    rank = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    weights = rng.uniform(0.1, 1.0, size=rank)
    rho = (cols * weights) @ cols.conj().T
    return rho / np.trace(rho).real


def grid_axis(draw, count):
    lo = draw(st.floats(-2.5, 1.0))
    return np.linspace(lo, lo + draw(st.floats(0.3, 2.0)), count)


@st.composite
def rectangular_grids(draw):
    nx = draw(st.integers(2, 7))
    ny = draw(st.integers(2, 7).filter(lambda n: n != nx))
    return grid_axis(draw, nx), grid_axis(draw, ny)


@pytest.mark.filterwarnings("ignore:Wigner support reaches the grid boundary")
@given(rho=low_rank_states(), axes=rectangular_grids())
@settings(max_examples=12, deadline=None)
def test_wigner_matches_per_point_oracle(rho, axes):
    re_axis, im_axis = axes
    grid = wigner(rho, re_axis, im_axis)
    assert grid.values.shape == (len(im_axis), len(re_axis))
    expected = per_point_wigner(rho, re_axis, im_axis, 2 * grid.meta["fock_dim"])
    np.testing.assert_allclose(grid.values, expected, rtol=0, atol=1e-9)


def test_wigner_vacuum_gaussian():
    ax = np.linspace(-5.0, 5.0, 101)
    ket = fock_state(0, 40)
    grid = wigner(ket, ax, ax)
    xs, ys = np.meshgrid(ax, ax)
    expected = (2.0 / math.pi) * np.exp(-2.0 * (xs**2 + ys**2))
    np.testing.assert_allclose(grid.values, expected, atol=1e-8)
    assert grid.values[50, 50] == pytest.approx(2.0 / math.pi, abs=1e-12)
    assert grid.normalization() == pytest.approx(1.0, abs=1e-4)


def test_wigner_squeezed_gaussian():
    # real xi narrows the position axis: variance e^{-2r} in x, e^{+2r} in y
    r = 0.6
    ax = np.linspace(-4.0, 4.0, 81)
    ket = squeezed_vacuum_fock(r, 120)
    grid = wigner(ket, ax, ax)
    xs, ys = np.meshgrid(ax, ax)
    expected = (2.0 / math.pi) * np.exp(
        -2.0 * math.exp(2 * r) * xs**2 - 2.0 * math.exp(-2 * r) * ys**2
    )
    np.testing.assert_allclose(grid.values, expected, atol=1e-7)


def test_wigner_ket_equals_density_path():
    ket = squeezed_vacuum_fock(0.4, 60)
    ax = np.linspace(-4.5, 4.5, 31)
    g1 = wigner(ket, ax, ax)
    g2 = wigner(density_from_vector(ket), ax, ax)
    np.testing.assert_allclose(g1.values, g2.values, atol=1e-12)
    assert g2.meta["rank"] == 1


def test_wigner_pad_matches_native_dimension():
    ket = np.zeros(50, dtype=complex)
    ket[2] = 1.0
    ax = np.linspace(-3.0, 3.0, 31)
    native = wigner(ket, ax, ax)
    extended = wigner(np.concatenate([ket, np.zeros(400)]), ax, ax)
    np.testing.assert_allclose(extended.values, native.values, atol=1e-12)
    assert extended.meta["fock_dim"] == native.meta["fock_dim"]
    assert native.meta["pad_tail"] < observables.WIGNER_PAD_TAIL


def test_wigner_pad_cap(monkeypatch):
    # displacing to |alpha| = 30 needs about (60 + 3.5)^2 levels
    with pytest.raises(NumericalError, match="Fock levels"):
        wigner(fock_state(0, 4), np.linspace(-30.0, 30.0, 3), np.zeros(2))
    # a state longer than the cap is refused before anything is displaced
    with pytest.raises(NumericalError, match="Fock levels"):
        wigner(np.ones(observables.WIGNER_PAD_CAP + 1), np.zeros(2), np.zeros(3))
    # a tail that never passes grows the pad up to the cap, then raises
    monkeypatch.setattr(observables, "WIGNER_PAD_CAP", 120)
    monkeypatch.setattr(observables, "WIGNER_PAD_TAIL", 0.0)
    with pytest.raises(NumericalError, match="more than 120 Fock levels"):
        wigner(fock_state(0, 4), np.linspace(-1.0, 1.0, 3), np.zeros(2))


def test_wigner_pad_cap_on_the_cli_grid(monkeypatch):
    # the CLI's grids span |alpha| <= 8: the vacuum needs about 380 levels
    monkeypatch.setattr(observables, "WIGNER_PAD_CAP", 200)
    with pytest.raises(NumericalError, match="more than 200 Fock levels"):
        wigner(fock_state(0, 80), np.linspace(-8.0, 8.0, 201), np.linspace(-8.0, 8.0, 201))


def test_wigner_weight_floor_drops_noise():
    dim = 30
    rho = 0.999 * density_from_vector(fock_state(0, dim))
    rho += (0.001 / dim) * np.eye(dim)
    grid = wigner(rho, np.linspace(-4, 4, 5), np.linspace(-4, 4, 5), weight_floor=1e-2)
    assert grid.meta["rank"] == 1
    with pytest.raises(NumericalError):
        wigner(np.zeros((8, 8), dtype=complex))


def test_wigner_boundary_warning():
    # a strongly squeezed state on a too-small grid leaks support
    ket = squeezed_vacuum_fock(1.0, 160)
    ax = np.linspace(-1.5, 1.5, 11)
    with pytest.warns(UserWarning, match="boundary"):
        wigner(ket, ax, ax)


def per_row_csv(grid):
    """Test-local oracle: the grid CSV written one f-string row at a time."""
    lines = ["re_alpha,im_alpha,wigner\n"]
    for iy, y in enumerate(grid.im_axis):
        for ix, x in enumerate(grid.re_axis):
            lines.append(f"{x:.12e},{y:.12e},{grid.values[iy, ix]:.12e}\n")
    return "".join(lines).encode("utf-8")


# signed zeros, NaN, infinities, the smallest subnormal and the exponent extremes
_CSV_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                    1e300, -1e300, 1e-300, -1e-300]
csv_floats = st.one_of(st.floats(), st.sampled_from(_CSV_EDGE_FLOATS))


@st.composite
def csv_grids(draw):
    """An outer axis, an inner axis and values of shape (outer, inner), 1 to 9 each."""
    n_out, n_in = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    outer = np.array(draw(st.lists(st.floats(), min_size=n_out, max_size=n_out)))
    inner = np.array(draw(st.lists(st.floats(), min_size=n_in, max_size=n_in)))
    values = draw(st.lists(csv_floats, min_size=n_out * n_in, max_size=n_out * n_in))
    return outer, inner, np.array(values).reshape(n_out, n_in)


@given(csv_grids())
@settings(max_examples=200)
def test_wigner_grid_csv_matches_the_per_row_writer(tmp_path, grid_data):
    im_axis, re_axis, values = grid_data
    grid = WignerGrid(re_axis, im_axis, values)
    grid.to_csv(tmp_path / "grid.csv")
    assert (tmp_path / "grid.csv").read_bytes() == per_row_csv(grid)


def test_wigner_grid_csv_refuses_values_off_its_axes(tmp_path):
    axis = np.linspace(-1.0, 1.0, 3)
    for values in (np.zeros((2, 3)), np.zeros((3, 4)), np.zeros((3, 3, 1)), np.zeros(9)):
        with pytest.raises(DimensionError, match="do not match"):
            WignerGrid(axis, axis, values).to_csv(tmp_path / "grid.csv")
    WignerGrid(axis, axis[:2], np.zeros((2, 3))).to_csv(tmp_path / "grid.csv")


@pytest.mark.parametrize("zeta", [0.0, 0.8, 1.1 * np.exp(0.7j)])
def test_gaussian_wigner_matches_displaced_parity(zeta):
    # S(zeta)|0>: <n> = sinh^2 r, <m^2> = -e^{i arg zeta} sinh r cosh r
    r = abs(zeta)
    a = -np.exp(1.0j * np.angle(zeta)) * math.sinh(r) * math.cosh(r)
    ax = np.linspace(-6.0, 6.0, 25)
    values = gaussian_wigner(1.0, a, np.conj(a), math.sinh(r) ** 2, ax, ax)
    oracle = wigner(squeezed_vacuum_fock(zeta, 200), ax, ax)
    # displaced parity carries ~2e-11 of round-off at r = 1.1 far out
    np.testing.assert_allclose(values.real, oracle.values, rtol=0, atol=1e-10)
    np.testing.assert_allclose(values.imag, 0.0, atol=1e-15)


@given(r=st.tuples(st.floats(0.0, 1.3), st.floats(0.0, 1.3)),
       phase=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
       signs=st.tuples(*[st.sampled_from([1, -1])] * 4))
@settings(max_examples=30)
def test_gaussian_overlap_matches_fock_traces(r, phase, signs):
    # Tr(X Y) for the non-Hermitian X = |chi_k><chi_j|, Y = |chi_l><chi_i| of
    # two squeezed-vacuum pairs is <chi_i|chi_k><chi_j|chi_l>
    zetas = [ri * np.exp(1.0j * ph) for ri, ph in zip(r, phase)]
    (k, j), (l, i) = signs[:2], signs[2:]
    ket = {(z, s): squeezed_vacuum_fock(s * zetas[z], 300) for z in (0, 1) for s in (1, -1)}
    oracle = np.vdot(ket[1, i], ket[0, k]) * np.vdot(ket[0, j], ket[1, l])
    value = gaussian_overlap(squeezed_vacuum_dyad(zetas[0], k, j),
                             squeezed_vacuum_dyad(zetas[1], l, i))
    assert abs(value - oracle) < 1e-12


def test_gaussian_overlap_of_vacuum_is_one():
    assert gaussian_overlap((1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)) == 1.0


def test_negativity_volume_fock_one():
    # closed form: the negative lobe of W_{|1>} integrates to 0.21306
    ax = np.linspace(-5.0, 5.0, 201)
    ket = fock_state(1, 8)
    grid = wigner(ket, ax, ax)
    assert wigner_negativity_volume(grid) == pytest.approx(0.21306, abs=2e-3)
    # vacuum is nonnegative everywhere
    vac_grid = wigner(fock_state(0, 8), ax, ax)
    assert wigner_negativity_volume(vac_grid) == pytest.approx(0.0, abs=1e-10)


def test_wigner_grid_io(tmp_path):
    ax = np.linspace(-1.0, 1.0, 5)
    with pytest.warns(UserWarning, match="boundary"):
        grid = wigner(fock_state(0, 12), ax, ax)
    csv_path = tmp_path / "grid.csv"
    grid.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "re_alpha,im_alpha,wigner"
    assert len(lines) == 1 + 25
    json_path = tmp_path / "grid.json"
    grid.to_json(json_path)
    import json

    desc = json.loads(json_path.read_text())
    assert desc["re_axis"] == [-1.0, 1.0, 5]
    assert "normalization" in desc
    assert desc["fock_dim"] == grid.meta["fock_dim"]
    assert desc["pad_tail"] == grid.meta["pad_tail"]


def test_default_axes():
    x, y = default_axes()
    assert len(x) == 201 and x[0] == -5.0 and x[-1] == 5.0
    assert x is not y


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_pure_states():
    psi = fock_state(0, 12)
    phi = (fock_state(0, 12) + fock_state(2, 12)) / math.sqrt(2)
    f = uhlmann_fidelity(density_from_vector(psi), density_from_vector(phi))
    # Tr sqrt(...) convention: pure-pure gives |<psi|phi>|, not the square
    assert f == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)


def test_fidelity_pure_vs_mixed():
    psi = fock_state(1, 10)
    rho = 0.6 * density_from_vector(fock_state(1, 10)) + 0.4 * density_from_vector(
        fock_state(3, 10)
    )
    f = uhlmann_fidelity(density_from_vector(psi), rho)
    assert f == pytest.approx(math.sqrt(0.6), abs=1e-10)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_fidelity_properties(seed):
    rng = np.random.default_rng(seed)

    def random_state(dim):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        return rho / np.trace(rho).real

    r1, r2 = random_state(8), random_state(8)
    f12 = uhlmann_fidelity(r1, r2)
    f21 = uhlmann_fidelity(r2, r1)
    assert 0.0 <= f12 <= 1.0 + 1e-9
    assert f12 == pytest.approx(f21, abs=1e-8)
    assert uhlmann_fidelity(r1, r1) == pytest.approx(1.0, abs=1e-8)


def test_fidelity_guards():
    with pytest.raises(DimensionError):
        uhlmann_fidelity(np.eye(4) / 4, np.eye(6) / 6)
    with pytest.raises(NumericalError):
        uhlmann_fidelity(np.diag([1.5, -0.5]).astype(complex), np.eye(2) / 2)


def test_fock_populations():
    rho = 0.25 * density_from_vector(fock_state(0, 6)) + 0.75 * density_from_vector(
        fock_state(4, 6)
    )
    pops = fock_populations(rho)
    np.testing.assert_allclose(pops, [0.25, 0, 0, 0, 0.75, 0], atol=1e-14)
