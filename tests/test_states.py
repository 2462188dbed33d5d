"""Analytic state constructions: squeezed vacua, their even/odd
superpositions, and the fourfold-symmetric codewords.

The recurrence-built squeezed vacuum is checked against the exponentiated
squeeze operator column by column, and the superposition normalization
settles the sign of the overlap exponent: the raw norm follows
2[1 +- cosh^{-1/2}(2r)], not the +1/2 power (the two differ at the percent
level already for r ~ 1).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsqueeze.errors import DimensionError, TruncationError
from magsqueeze.qops import annihilation, fock_state, number_op, parity_operator
from magsqueeze.states import (
    gaussian_fock_populations,
    joint_initial_state,
    squeezed_vacuum_dyad,
    squeezed_vacuum_fock,
    superposition_pm,
)
from test_model import squeeze_operator  # test-local oracle


# test-local oracles: the package itself needs none of these


def squeezed_overlap(r):
    """Overlap <{-xi}|{xi}> of opposite squeezed vacua, = cosh(2r)^{-1/2}.

    Independent of the squeezing phase: the relative phase pi between the
    two parameters always lands on this real positive value.
    """
    return 1.0 / math.sqrt(math.cosh(2.0 * r))


def logical_codewords(r, fock_dim):
    """(|0_L>, |1_L>) = even/odd superpositions at real squeezing r > 0.

    Orthogonal by disjoint Fock support ({4m} vs {4m+2})."""
    if r <= 0:
        raise ValueError("codewords need r > 0")
    return (
        superposition_pm(r, +1, fock_dim),
        superposition_pm(r, -1, fock_dim),
    )


def state_vector_to_csv(psi, path):
    """Dump a state vector as CSV rows (index, Re, Im)."""
    psi = np.asarray(psi)
    with open(path, "w", newline="\n") as fh:
        fh.write("fock_index,re_amplitude,im_amplitude\n")
        for k, a in enumerate(psi):
            fh.write(f"{k},{a.real:.12e},{a.imag:.12e}\n")


@given(
    r=st.floats(0.05, 1.2),
    phase=st.floats(-math.pi, math.pi),
)
def test_recurrence_matches_squeeze_operator(r, phase):
    xi = r * np.exp(1j * phase)
    dim = 120
    recur = squeezed_vacuum_fock(xi, dim)
    brute = squeeze_operator(xi, dim) @ fock_state(0, dim)
    # the exponentiated operator is only faithful away from the truncation
    # edge; the recurrence is exact everywhere
    np.testing.assert_allclose(recur[:60], brute[:60], atol=1e-9)
    np.testing.assert_allclose(recur, brute, atol=1e-5)


def test_squeezed_vacuum_basics():
    psi = squeezed_vacuum_fock(1.0, 100)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    # even Fock support only
    assert np.max(np.abs(psi[1::2])) == 0.0
    # mean occupation sinh^2 r
    n_mean = float(np.real(psi.conj() @ (number_op(100) @ psi)))
    assert n_mean == pytest.approx(math.sinh(1.0) ** 2, rel=1e-9)


def test_squeezed_vacuum_truncation_guard():
    with pytest.raises(TruncationError):
        squeezed_vacuum_fock(1.5, 40)


@pytest.mark.parametrize("n_bar", [0.0, 0.05, 0.7, 3.7])
def test_gaussian_populations_of_a_thermal_state(n_bar):
    # s = 0 is the thermal state: p_n = n_bar^n / (n_bar + 1)^(n + 1)
    n = np.arange(60)
    p = gaussian_fock_populations(n_bar, 0.0, 60)
    np.testing.assert_allclose(p, n_bar ** n / (n_bar + 1.0) ** (n + 1), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 1.6])
def test_gaussian_populations_of_a_squeezed_vacuum(r):
    # <n> = sinh^2 r and |<m^2>| = sinh r cosh r: p_0 = 1/cosh r, and every
    # p_n and the tail beyond 60 levels are those of the recurrence's ket
    # at 2000 levels, which holds all but 1e-300 of it
    p = gaussian_fock_populations(math.sinh(r) ** 2, math.sinh(r) * math.cosh(r), 60)
    assert p[0] == pytest.approx(1.0 / math.cosh(r), rel=1e-13)
    weights = np.abs(squeezed_vacuum_fock(r, 2000)) ** 2
    np.testing.assert_allclose(p, weights[:60], rtol=0.0, atol=1e-14)
    assert 1.0 - p.sum() == pytest.approx(weights[60:].sum(), rel=1e-9, abs=1e-15)


def test_gaussian_populations_broadcast_over_samples():
    n = np.array([[0.0, 0.5], [2.0, 3.0]])
    s = np.array([0.0, 0.4])
    p = gaussian_fock_populations(n, s, 30)
    assert p.shape == (2, 2, 30)
    for i in range(2):
        for j in range(2):
            np.testing.assert_allclose(p[i, j], gaussian_fock_populations(n[i, j], s[j], 30),
                                       rtol=0.0, atol=1e-15)


def fft_fock_populations(n_mean, s_abs, fock_dim):
    """Oracle: the p_n as the Fourier coefficients of G(z) = Tr rho z^{m^dag m}
    = 1 / ((1 - z) sqrt((n + 1/2 + l)^2 - |s|^2)), l = (1 + z) / (2 (1 - z)),
    on the circle |z| = 1 - 32/K with K = 32 fock_dim points.  The
    coefficients that alias onto them are weighted by (1 - 32/K)^K < e^-32."""
    k = 32 * fock_dim
    radius = 1.0 - 32.0 / k
    z = radius * np.exp(2.0j * np.pi * np.arange(k) / k)
    lam = (1.0 + z) / (2.0 * (1.0 - z))
    n = np.asarray(n_mean, dtype=float)[..., None]
    s = np.asarray(s_abs, dtype=float)[..., None]
    g = 1.0 / ((1.0 - z) * np.sqrt((n + 0.5 + lam) ** 2 - s ** 2))
    return np.fft.fft(g, axis=-1)[..., :fock_dim].real / (k * radius ** np.arange(fock_dim))


@given(
    n_unit=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3),
    scale=st.sampled_from([1.0, 1e-3, 1e-6]),
    purity=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    fock_dim=st.integers(1, 200),
)
@settings(max_examples=60, deadline=None)
def test_gaussian_populations_match_an_oversampled_fft(n_unit, scale, purity, fock_dim):
    # (cell, 1) occupations against (time,) |<m^2>| up to the purest state
    # that the coldest cell allows, |s|^2 <= n (n + 1)
    n = scale * np.array(n_unit)[:, None]
    n_min = n.min()
    s = np.array(purity) * math.sqrt(n_min * (n_min + 1.0))
    p = gaussian_fock_populations(n, s, fock_dim)
    assert p.shape == (len(n_unit), len(purity), fock_dim)
    np.testing.assert_allclose(p, fft_fock_populations(n, s, fock_dim), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_gaussian_populations_of_a_squeezed_vacuum_have_no_odd_levels(j):
    # sinh r = (4^(j-1) - 1)/2^j and cosh r = (4^(j-1) + 1)/2^j are dyadic
    # (j = 1 is the vacuum), so n = sinh^2 r and |s| = sinh r cosh r hold
    # |s|^2 = n (n + 1) exactly
    sh, ch = (4 ** (j - 1) - 1) / 2 ** j, (4 ** (j - 1) + 1) / 2 ** j
    p = gaussian_fock_populations(sh * sh, sh * ch, 120)
    assert np.all(p[1::2] == 0.0)
    weights = np.abs(squeezed_vacuum_fock(math.asinh(sh), 2000)) ** 2
    np.testing.assert_allclose(p, weights[:120], rtol=0.0, atol=1e-14)


def dyad_moments(ket, bra):
    """(Tr, <m^2>, <m^dag^2>, <m^dag m>) of |ket><bra| from Fock amplitudes,
    <A> = <bra|A|ket> / <bra|ket>."""
    m = annihilation(len(ket))
    tr = np.vdot(bra, ket)
    return (tr, np.vdot(bra, m @ m @ ket) / tr, np.vdot(m @ m @ bra, ket) / tr,
            np.vdot(m @ bra, m @ ket) / tr)


@given(r=st.floats(0.0, 1.3), phase=st.floats(-math.pi, math.pi),
       ket_sign=st.sampled_from([1, -1]), bra_sign=st.sampled_from([1, -1]))
@settings(max_examples=30)
def test_squeezed_vacuum_dyad_matches_the_kets(r, phase, ket_sign, bra_sign):
    zeta = r * np.exp(1.0j * phase)
    kets = {s: squeezed_vacuum_fock(s * zeta, 300) for s in (1, -1)}
    np.testing.assert_allclose(squeezed_vacuum_dyad(zeta, ket_sign, bra_sign),
                               dyad_moments(kets[ket_sign], kets[bra_sign]),
                               rtol=1e-12, atol=1e-13)


def test_squeezed_vacuum_dyad_keeps_its_digits_at_large_r():
    # tanh(20) rounds to 1, so 1 - tanh^2 r would be 0: sech^2 r keeps D
    r, phase = 20.0, np.exp(0.3j)
    sc = math.sinh(r) * math.cosh(r)
    tr, a, b, n = squeezed_vacuum_dyad(r * phase, 1, 1)
    assert tr == pytest.approx(1.0, rel=1e-15)
    assert n == pytest.approx(math.sinh(r) ** 2, rel=1e-14)
    assert a == pytest.approx(-phase * sc, rel=1e-14)
    assert b == pytest.approx(-phase.conjugate() * sc, rel=1e-14)
    # <chi_-|chi_+> = cosh(2r)^{-1/2}, and |chi_+><chi_-| has <m^dag m> = -sinh^2 r / cosh 2r
    tr, a, b, n = squeezed_vacuum_dyad(r * phase, 1, -1)
    assert tr == pytest.approx(math.cosh(2.0 * r) ** -0.5, rel=1e-14)
    assert n == pytest.approx(-math.sinh(r) ** 2 / math.cosh(2.0 * r), rel=1e-14)
    assert a == pytest.approx(-phase * sc / math.cosh(2.0 * r), rel=1e-14)


@given(r=st.floats(0.05, 1.5))
@settings(max_examples=40)
def test_overlap_oracle(r):
    # brute-force Fock sum against the closed form cosh^{-1/2}(2r)
    dim = 260
    plus = squeezed_vacuum_fock(r, dim)
    minus = squeezed_vacuum_fock(-r, dim)
    overlap = complex(np.vdot(minus, plus))
    assert overlap.imag == pytest.approx(0.0, abs=1e-10)
    assert overlap.real == pytest.approx(squeezed_overlap(r), abs=1e-8)
    assert squeezed_overlap(r) == pytest.approx(1.0 / math.sqrt(math.cosh(2 * r)))


def test_overlap_phase_independent():
    dim = 200
    for phase in (0.3, 1.2, -2.0):
        xi = 0.9 * np.exp(1j * phase)
        overlap = np.vdot(squeezed_vacuum_fock(-xi, dim), squeezed_vacuum_fock(xi, dim))
        assert complex(overlap) == pytest.approx(squeezed_overlap(0.9), abs=1e-8)


@pytest.mark.parametrize("sign,residue", [(+1, 0), (-1, 2)])
def test_superposition_support(sign, residue):
    xi = 1.3657j  # the working-point squeezing scale
    psi = superposition_pm(xi, sign, 200)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    idx = np.arange(200)
    off = idx % 4 != residue
    assert float(np.sum(np.abs(psi[off]) ** 2)) < 1e-20


def test_superposition_norm_resolves_exponent():
    # raw (unnormalized) norm^2 = 2[1 +- <(-xi)|xi>]; with the overlap equal
    # to cosh^{-1/2}(2r) the minus-1/2 exponent is forced and the +1/2
    # alternative is excluded by orders of magnitude
    r = 1.1
    dim = 220
    plus = squeezed_vacuum_fock(r, dim)
    minus = squeezed_vacuum_fock(-r, dim)
    for sign in (+1, -1):
        raw = plus + minus if sign == +1 else plus - minus
        norm_sq = float(np.vdot(raw, raw).real)
        candidate_neg = 2.0 * (1.0 + sign * math.cosh(2 * r) ** -0.5)
        candidate_pos = 2.0 * (1.0 + sign * math.cosh(2 * r) ** +0.5)
        assert norm_sq == pytest.approx(candidate_neg, abs=1e-8)
        assert abs(norm_sq - candidate_pos) > 0.5


@given(r=st.floats(0.2, 1.3), phase=st.floats(-math.pi, math.pi))
def test_fourfold_rotation_eigenstates(r, phase):
    # exp(i pi n / 2) fixes the even-class state and flips the odd-class one;
    # both are +1 parity eigenstates
    xi = r * np.exp(1j * phase)
    dim = 200
    rot = np.exp(0.5j * math.pi * np.arange(dim))
    par = np.diagonal(parity_operator(dim)).real
    for sign in (+1, -1):
        psi = superposition_pm(xi, sign, dim)
        np.testing.assert_allclose(rot * psi, sign * psi, atol=1e-9)
        np.testing.assert_allclose(par * psi, psi, atol=1e-12)


def test_superposition_guards():
    with pytest.raises(ValueError):
        superposition_pm(0.5, 0, 80)
    with pytest.raises(ValueError):
        superposition_pm(0.0, -1, 80)


def test_logical_codewords():
    zero, one = logical_codewords(1.0, 160)
    assert abs(np.vdot(zero, one)) < 1e-14  # disjoint Fock support
    assert np.linalg.norm(zero) == pytest.approx(1.0)
    assert np.linalg.norm(one) == pytest.approx(1.0)
    idx = np.arange(160)
    assert float(np.sum(np.abs(zero[idx % 4 != 0]) ** 2)) < 1e-20
    assert float(np.sum(np.abs(one[idx % 4 != 2]) ** 2)) < 1e-20
    with pytest.raises(ValueError):
        logical_codewords(0.0, 80)


def test_joint_initial_state_structure():
    state = joint_initial_state(qubit="plus_x", fock_dim=10)
    assert state.frame == "lab"
    assert state.time == 0.0
    rho = state.matrix
    assert np.trace(rho) == pytest.approx(1.0)
    # magnon factor is vacuum: population only in the first 2x2 qubit block
    assert np.max(np.abs(rho[2:, 2:])) == 0.0
    qubit_block = rho[:2, :2]
    np.testing.assert_allclose(
        qubit_block, np.full((2, 2), 0.5, dtype=complex), atol=1e-14
    )
    # the equal mix of the two sb_x states collapses to |g>
    g_state = joint_initial_state(qubit="plus_plus_minus", fock_dim=6)
    np.testing.assert_allclose(
        g_state.matrix[:2, :2], np.diag([1.0, 0.0]).astype(complex), atol=1e-14
    )


def test_joint_initial_state_guards():
    with pytest.raises(DimensionError):
        joint_initial_state(qubit="plus_y")


def test_state_vector_csv(tmp_path):
    psi = squeezed_vacuum_fock(0.5, 40)
    path = tmp_path / "state.csv"
    state_vector_to_csv(psi, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "fock_index,re_amplitude,im_amplitude"
    assert len(lines) == 41
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(psi[0].real)
