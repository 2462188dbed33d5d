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
from magsqueeze.qops import fock_state, number_op, parity_operator
from magsqueeze.states import (
    joint_initial_state,
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
