"""Loop-field and collective-coupling geometry checks.

The finite-segment closed form is validated against the infinite-wire and
dipole far-field limits and the square-loop center value 2 sqrt(2) mu0 I /
(pi L).  volume_avg_field and the volume coupling map take the field at
the sphere's center (mean-value property of the harmonic field
components); they are checked against a test-local Gauss-Legendre
quadrature of the sphere average (loop_field at every node, then the
weighted sum), and their clearance guard against spheres that touch a
wire.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magsqueeze.constants import H_PLANCK, MU0, MU_B
from magsqueeze.coupling import (
    YIG,
    CouplingResult,
    LoopGeometry,
    MaterialSpec,
    SphereSpec,
    coupling_map,
    coupling_strength,
    loop_field,
    segment_field,
    spin_count,
    volume_avg_field,
)
from magsqueeze.errors import ConfigError, NumericalError

GEOM = LoopGeometry(side_length=10.0, current=0.4)


def center_field_magnitude(geometry):
    """Test-local oracle: closed-form center field 2 sqrt(2) mu0 I / (pi L),
    tesla."""
    return (
        2.0
        * math.sqrt(2.0)
        * MU0
        * geometry.current
        / (math.pi * geometry.side_length)
    )


def spherical_nodes(radius, orders):
    """Gauss-Legendre tensor nodes, as offsets from the sphere center, and
    normalized weights for a sphere average; orders are (radial, polar,
    azimuthal)."""
    n_r, n_mu, n_phi = orders
    x_r, w_r = np.polynomial.legendre.leggauss(n_r)
    rad = 0.5 * radius * (x_r + 1.0)
    w_rad = 0.5 * radius * w_r * rad**2
    mu, w_mu = np.polynomial.legendre.leggauss(n_mu)
    x_phi, w_phi = np.polynomial.legendre.leggauss(n_phi)
    phi = math.pi * (x_phi + 1.0)
    w_phi = math.pi * w_phi

    rad_g, mu_g, phi_g = np.meshgrid(rad, mu, phi, indexing="ij")
    w = (
        w_rad[:, None, None] * w_mu[None, :, None] * w_phi[None, None, :]
    ).ravel()
    sin_th = np.sqrt(1.0 - mu_g**2)
    offsets = np.stack(
        [
            rad_g * mu_g,                      # x along the loop normal
            rad_g * sin_th * np.cos(phi_g),
            rad_g * sin_th * np.sin(phi_g),
        ],
        axis=-1,
    ).reshape(-1, 3)
    volume = 4.0 * math.pi * radius**3 / 3.0
    return offsets, w / volume


def per_node_average(geometry, center, radius, orders=(32, 32, 64)):
    """Oracle: loop_field at every quadrature node, then the weighted sum;
    the sphere-averaged 3-vector, tesla."""
    offsets, w = spherical_nodes(radius, orders)
    return w @ loop_field(geometry, np.asarray(center, dtype=float) + offsets)


def test_geometry_validation():
    with pytest.raises(ConfigError):
        LoopGeometry(side_length=-1.0, current=0.4)
    with pytest.raises(ConfigError):
        LoopGeometry(side_length=10.0, current=0.0)
    with pytest.raises(ConfigError):
        SphereSpec(center=(0, 0, 0), radius=0.0)
    with pytest.raises(ConfigError):
        MaterialSpec(spin_density=-1.0, spin=2.5)


def test_segment_field_antisymmetry():
    p1 = np.array([0.0, -3.0, 0.0])
    p2 = np.array([0.0, 4.0, 0.0])
    r = np.array([1.0, 0.5, -2.0])
    fwd = segment_field(p1, p2, 0.4, r)
    rev = segment_field(p2, p1, 0.4, r)
    np.testing.assert_allclose(fwd, -rev, atol=1e-25)


def test_segment_field_rejects_on_wire_points():
    p1 = np.array([0.0, -1.0, 0.0])
    p2 = np.array([0.0, 1.0, 0.0])
    with pytest.raises(NumericalError):
        segment_field(p1, p2, 1.0, np.array([0.0, 0.3, 0.0]))


def test_segment_field_infinite_wire_limit():
    # very long wire along z, field point at distance d: B -> mu0 I / (2 pi d)
    half = 5.0e4
    p1 = np.array([0.0, 0.0, -half])
    p2 = np.array([0.0, 0.0, +half])
    current = 0.7
    d = 2.0
    b = segment_field(p1, p2, current, np.array([d, 0.0, 0.0]))
    expected = MU0 * current / (2.0 * math.pi * d)
    # right-hand rule: current +z, point +x -> field +y
    assert b[1] == pytest.approx(expected, rel=1e-3)
    assert abs(b[0]) < 1e-30 and abs(b[2]) < 1e-30


def test_segment_field_linearity_in_current():
    p1 = np.array([0.0, -2.0, 1.0])
    p2 = np.array([0.0, 3.0, 1.0])
    r = np.array([1.5, 0.0, 0.0])
    b1 = segment_field(p1, p2, 1.0, r)
    b3 = segment_field(p1, p2, 3.0, r)
    np.testing.assert_allclose(b3, 3.0 * b1, rtol=1e-13)


def test_center_field_closed_form():
    b = loop_field(GEOM, np.array([0.0, 0.0, 0.0]))
    expected = center_field_magnitude(GEOM)
    assert b[0] == pytest.approx(expected, rel=1e-12)
    assert abs(b[1]) < 1e-28 and abs(b[2]) < 1e-28
    # numeric anchor for the working-point geometry: ~45.3 nT
    assert expected == pytest.approx(4.5255e-8, rel=1e-4)


def test_loop_field_far_field_dipole_decay():
    # on the loop axis far away the field falls off as 1/x^3
    b1 = loop_field(GEOM, np.array([100.0, 0.0, 0.0]))[0]
    b2 = loop_field(GEOM, np.array([200.0, 0.0, 0.0]))[0]
    assert b1 / b2 == pytest.approx(8.0, rel=2e-2)
    # and matches the dipole moment m = I L^2 prefactor mu0 m / (2 pi x^3)
    dipole = MU0 * GEOM.current * GEOM.side_length**2 / (2.0 * math.pi * 100.0**3)
    assert b1 == pytest.approx(dipole, rel=2e-3)


def test_loop_field_mirror_symmetry():
    pt = np.array([1.3, 0.7, -0.4])
    b = loop_field(GEOM, pt)
    b_my = loop_field(GEOM, pt * np.array([1.0, -1.0, 1.0]))
    b_mz = loop_field(GEOM, pt * np.array([1.0, 1.0, -1.0]))
    # x-component even under either mirror
    assert b_my[0] == pytest.approx(b[0], rel=1e-12)
    assert b_mz[0] == pytest.approx(b[0], rel=1e-12)


def test_volume_avg_point_sphere_limit():
    sphere = SphereSpec(center=(0.0, 0.0, 0.0), radius=GEOM.side_length / 100.0)
    avg = volume_avg_field(GEOM, sphere)
    center = loop_field(GEOM, np.array([0.0, 0.0, 0.0]))[0]
    assert abs(avg - center) / center < 1e-3
    # transverse components of the averaged vector vanish by symmetry
    vec = per_node_average(GEOM, sphere.center, sphere.radius)
    assert abs(vec[1]) < 1e-12 * center and abs(vec[2]) < 1e-12 * center


def test_volume_avg_clearance_guard():
    touching = SphereSpec(center=(0.0, 5.0, 0.0), radius=1.0)
    with pytest.raises(NumericalError):
        volume_avg_field(GEOM, touching)


def test_spin_count_anchor():
    n = spin_count(SphereSpec(center=(0, 0, 0), radius=0.5), YIG)
    assert n == pytest.approx(1.0996e10, rel=1e-3)


def test_coupling_strength_working_point():
    sphere = SphereSpec(center=(0.0, 0.0, 0.0), radius=0.5)
    res = coupling_strength(GEOM, sphere, YIG, point_approx=True)
    assert isinstance(res, CouplingResult)
    assert res.point_approx
    assert res.b_eff_tesla == pytest.approx(4.5255e-8, rel=1e-4)
    assert res.g_ghz == pytest.approx(0.15, rel=0.05)
    # full average at this tiny R/L barely differs
    res_avg = coupling_strength(GEOM, sphere, YIG)
    assert res_avg.g_ghz == pytest.approx(res.g_ghz, rel=2e-3)


def test_coupling_scalings():
    sphere = SphereSpec(center=(0.0, 0.0, 0.0), radius=0.5)
    g1 = coupling_strength(GEOM, sphere, YIG, point_approx=True).g_ghz
    double_i = LoopGeometry(side_length=10.0, current=0.8)
    assert coupling_strength(double_i, sphere, YIG, point_approx=True).g_ghz == pytest.approx(
        2.0 * g1, rel=1e-12
    )
    # g ~ B sqrt(N) ~ R^{3/2} in the point approximation
    big = SphereSpec(center=(0.0, 0.0, 0.0), radius=1.0)
    assert coupling_strength(GEOM, big, YIG, point_approx=True).g_ghz == pytest.approx(
        g1 * 2.0**1.5, rel=1e-12
    )


def test_coupling_map_point_mode(tmp_path):
    axes = {"R": np.array([0.3, 0.5]), "I_p": np.array([0.2, 0.4, 0.6])}
    res = coupling_map(GEOM, YIG, axes, mode="point_sphere")
    assert res.axis_names == ("R_um", "I_p_uA")
    assert res.g_ghz.shape == (2, 3)
    # monotone in both axes
    assert np.all(np.diff(res.g_ghz, axis=0) > 0)
    assert np.all(np.diff(res.g_ghz, axis=1) > 0)
    path = tmp_path / "map.csv"
    res.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "R_um,I_p_uA,g_ghz"
    assert len(lines) == 1 + 6


def test_coupling_map_volume_mode():
    axes = {"R": np.array([0.4]), "x0": np.array([0.0, 1.0, 2.0])}
    res = coupling_map(GEOM, YIG, axes, mode="volume_avg")
    assert res.axis_names == ("R_um", "x0_um")
    # field (and hence g) decays moving the sphere off the loop plane
    g_row = res.g_ghz[0]
    assert g_row[0] > g_row[1] > g_row[2]
    with pytest.raises(ConfigError):
        coupling_map(GEOM, YIG, axes, mode="sideways")


@given(
    side=st.floats(2.0, 20.0),
    current=st.floats(0.05, 2.0),
    center_frac=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
    radius_frac=st.floats(0.05, 0.6),
)
def test_sphere_average_is_center_field(side, current, center_frac, radius_frac):
    geom = LoopGeometry(side_length=side, current=current)
    center = tuple(side * c for c in center_frac)
    # the center projects inside the square, so its nearest wire point lies
    # on the nearest side's line
    clearance = math.hypot(center[0], side / 2.0 - max(abs(center[1]), abs(center[2])))
    sphere = SphereSpec(center=center, radius=radius_frac * clearance)
    # the quadrature's own error grows as the ball nears the wire (worst of
    # 150 draws: 1.3e-14 relative up to 0.6 of the clearance, 1.4e-13 up to
    # 0.7, 2.2e-10 up to 0.8, 9.0e-5 up to 0.95); the center field is exact
    # at any radius, so radius_frac stops at 0.6
    want = per_node_average(geom, center, sphere.radius)
    atol = 1e-12 * abs(want[0])
    np.testing.assert_allclose(loop_field(geom, np.asarray(center)), want, rtol=0.0, atol=atol)
    assert abs(volume_avg_field(geom, sphere) - want[0]) <= atol


def test_coupling_map_volume_matches_per_node_quadrature():
    r_vals = np.array([0.3, 0.6, 0.9])
    x_vals = np.array([0.0, 1.0, 2.0, 3.0])
    res = coupling_map(GEOM, YIG, {"R": r_vals, "x0": x_vals}, mode="volume_avg")
    assert res.g_ghz.shape == (3, 4)
    for i, rad in enumerate(r_vals):
        n_spins = spin_count(SphereSpec(center=(0.0, 0.0, 0.0), radius=rad), YIG)
        for j, x0 in enumerate(x_vals):
            b_x = per_node_average(GEOM, (x0, 0.0, 0.0), rad)[0]
            g = YIG.lande_g * MU_B * b_x * math.sqrt(n_spins * YIG.spin / 2.0) / H_PLANCK * 1e-9
            assert res.g_ghz[i, j] == pytest.approx(g, rel=1e-12)


def test_sphere_average_wire_guard():
    # center 0.5 um from the y = +5 wire, radius 1: the sphere crosses it
    with pytest.raises(NumericalError):
        volume_avg_field(GEOM, SphereSpec(center=(0.0, 4.5, 0.0), radius=1.0))
    volume_avg_field(GEOM, SphereSpec(center=(5.0, 4.5, 0.0), radius=1.0))
    # on the axis the wires are sqrt(x0^2 + 25) um away; at R = 5.5 the
    # x0 = 5 center clears them and x0 = 0 does not, and one clear center
    # (or radius) in a row does not hide an offending one
    for axes in ({"R": [5.5], "x0": [5.0, 0.0]},
                 {"R": [5.5], "x0": [0.0, 5.0]},
                 {"R": [1.0, 5.5], "x0": [5.0, 0.0]}):
        with pytest.raises(NumericalError):
            coupling_map(GEOM, YIG, axes, mode="volume_avg")
    coupling_map(GEOM, YIG, {"R": [1.0, 5.5], "x0": [5.0]}, mode="volume_avg")
