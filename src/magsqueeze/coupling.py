"""Coupling strength between the flux-qubit loop and the YIG sphere.

The square loop lies in the y-z plane, centered at the origin, with its
normal along x; positive current circulates so the center field points
along +x.  Fields come from the closed-form finite-segment Biot-Savart
law; the sphere average uses tensor-product Gauss-Legendre quadrature in
spherical coordinates.

One averaging kernel serves volume_avg_field (a row of one center) and
the volume coupling map (one row per radius): it builds the nodes once for
a row of centers that differ only in x0 and precomputes each segment's
x0-independent terms, so each further center costs a few 1-D operations
per segment.  Its guard against nodes on a wire is the triangle
inequality dist(node, wire) >= dist(center, wire) - r_max, with r_max the
outermost node radius; segment_field keeps a per-point guard for arbitrary
points.  The collective coupling is

    g = g_e mu_B B_eff sqrt(N S / 2) / h

with N the number of spins in the sphere, returned as a linear frequency.

Units at the interface: lengths um, currents uA, fields tesla, g in GHz.
With those choices the Biot-Savart prefactor is just mu0/(4 pi): the
1e-6 A and 1e+6 m^-1 conversions cancel.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import constants
from .errors import ConfigError, NumericalError


@dataclass(frozen=True)
class LoopGeometry:
    side_length: float          # um
    current: float              # uA

    def __post_init__(self):
        if self.side_length <= 0 or self.current <= 0:
            raise ConfigError("loop side length and current must be positive")

    def segments(self):
        """Corner pairs (p1, p2) with circulation giving +x center field."""
        h = self.side_length / 2.0
        corners = [
            (0.0, +h, -h),
            (0.0, +h, +h),
            (0.0, -h, +h),
            (0.0, -h, -h),
        ]
        return [
            (np.array(corners[i]), np.array(corners[(i + 1) % 4]))
            for i in range(4)
        ]


@dataclass(frozen=True)
class SphereSpec:
    center: tuple               # (x0, y0, z0) um
    radius: float               # um

    def __post_init__(self):
        if self.radius <= 0:
            raise ConfigError("sphere radius must be positive")


@dataclass(frozen=True)
class MaterialSpec:
    spin_density: float         # cm^-3
    spin: float                 # spin quantum number S
    lande_g: float = constants.G_E

    def __post_init__(self):
        if self.spin_density <= 0 or self.spin <= 0 or self.lande_g <= 0:
            raise ConfigError("material parameters must be positive")


YIG = MaterialSpec(spin_density=2.1e22, spin=2.5)

# (radial, polar, azimuthal) Gauss-Legendre orders of the sphere average
_ORDERS = (16, 16, 32)


def _segment_distance(p1, p2, points):
    """Distance from each point to the segment p1-p2 (broadcasts over points)."""
    seg = p2 - p1
    seg_len_sq = float(seg @ seg)
    rel = points - p1
    t = np.clip((rel @ seg) / seg_len_sq, 0.0, 1.0)
    closest = p1 + t[..., None] * seg
    return np.linalg.norm(points - closest, axis=-1)


def segment_field(p1, p2, current, r):
    """Field of a finite straight segment carrying current from p1 to p2.

    Closed form: B = (mu0 I / 4 pi) (a x b)(|a| + |b|) / (|a||b|(|a||b| + a.b))
    with a = r - p1, b = r - p2.  Vectorized over a trailing-axis-3 array
    of field points; raises on points within 1e-12 um of the segment.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(_segment_distance(p1, p2, r) < 1e-12):
        raise NumericalError("field point lies on the wire segment")
    a = r - p1
    b = r - p2
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    cross = np.cross(a, b)
    denom = na * nb * (na * nb + np.einsum("...i,...i->...", a, b))
    pref = constants.MU0 / (4.0 * math.pi) * current
    return pref * cross * ((na + nb) / denom)[..., None]


def loop_field(geometry, r):
    """Total field of the four loop segments at point(s) r, tesla."""
    total = None
    for p1, p2 in geometry.segments():
        b = segment_field(p1, p2, geometry.current, r)
        total = b if total is None else total + b
    return total


def center_field_magnitude(geometry):
    """Closed-form center field 2 sqrt(2) mu0 I / (pi L), tesla."""
    return (
        2.0
        * math.sqrt(2.0)
        * constants.MU0
        * geometry.current
        / (math.pi * geometry.side_length)
    )


def _spherical_nodes(radius, orders):
    """Gauss-Legendre tensor nodes, as offsets from the sphere center, and
    normalized weights for a sphere average."""
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


def _wire_distance(geometry, centers):
    """Distance from each center (rows of an (n, 3) array) to the nearest wire."""
    return np.min(
        [_segment_distance(p1, p2, centers) for p1, p2 in geometry.segments()], axis=0
    )


def _check_clearance(geometry, centers, radius):
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    if np.any(_wire_distance(geometry, centers) <= radius):
        raise NumericalError("sphere intersects a loop wire segment")


def _row_average(geometry, radius, y0, z0, x0s, orders):
    """Sphere-averaged loop field at the centers (x0, y0, z0), x0 in x0s,
    on one set of quadrature orders; shape (len(x0s), 3).

    The loop lies in x = 0, so with a = r - p1 and b = r - p2 the
    closed-form segment term splits into parts that depend only on the
    node's (y, z), computed once per row, and the shared x = x0 + dx:
    (a x b)_x = a_y b_z - a_z b_y, (a x b)_(y,z) = x (p2_z - p1_z, p1_y - p2_y),
    |a|^2 = x^2 + |a_yz|^2, a.b = x^2 + a_yz.b_yz.
    """
    offsets, w = _spherical_nodes(radius, orders)
    # dist(node, wire) >= dist(center, wire) - r_max: no node within 1e-12 um
    # of a wire unless this bound allows it
    r_max = math.sqrt(float(np.max(np.einsum("ij,ij->i", offsets, offsets))))
    centers = np.column_stack(
        [x0s, np.full(len(x0s), float(y0)), np.full(len(x0s), float(z0))]
    )
    if np.any(_wire_distance(geometry, centers) - r_max < 1e-12):
        raise NumericalError("a quadrature node may lie on a wire segment")

    dx = offsets[:, 0]
    y = y0 + offsets[:, 1]
    z = z0 + offsets[:, 2]
    terms = []
    for p1, p2 in geometry.segments():
        ay, az = y - p1[1], z - p1[2]
        by, bz = y - p2[1], z - p2[2]
        terms.append((
            w * (ay * bz - az * by),             # weighted (a x b)_x
            ay * ay + az * az,                   # |a_yz|^2
            by * by + bz * bz,                   # |b_yz|^2
            ay * by + az * bz,                   # a_yz . b_yz
            np.array([p2[2] - p1[2], p1[1] - p2[1]]),
        ))

    out = np.zeros((len(x0s), 3))
    for k, x0 in enumerate(x0s):
        x = x0 + dx
        x2 = x * x
        wx = w * x
        for w_cx, a2, b2, ab, yz_dir in terms:
            na = np.sqrt(x2 + a2)
            nb = np.sqrt(x2 + b2)
            nab = na * nb
            f = (na + nb) / (nab * (nab + (x2 + ab)))
            # einsum sums in its own loop; a BLAS dot of this size keeps a
            # second thread busy for little gain
            out[k, 0] += np.einsum("i,i->", w_cx, f)
            out[k, 1:] += np.einsum("i,i->", wx, f) * yz_dir
    return constants.MU0 / (4.0 * math.pi) * geometry.current * out


def _sphere_averages(geometry, radius, y0, z0, x0s, orders):
    """Sphere-averaged loop field for a row of centers (x0, y0, z0), one per
    x0 in x0s; shape (len(x0s), 3), tesla.

    The average is taken at doubled orders; the change from the given
    orders is the quadrature error estimate (Richardson-style), and a
    warning is emitted for each center where it exceeds 1e-4 relative.
    """
    x0s = np.asarray(x0s, dtype=float)
    coarse = _row_average(geometry, radius, y0, z0, x0s, orders)
    fine = _row_average(geometry, radius, y0, z0, x0s, tuple(2 * o for o in orders))
    scale = np.maximum(np.abs(fine[:, 0]), 1e-300)
    for rel in np.abs(fine[:, 0] - coarse[:, 0]) / scale:
        if rel > 1e-4:
            warnings.warn(
                f"sphere-average quadrature estimate {rel:.2e} relative; increase orders",
                stacklevel=3,
            )
    return fine


def volume_avg_field(geometry, sphere, orders=_ORDERS, full_vector=False):
    """Sphere-averaged x-component of the loop field, tesla.

    The quadrature error is estimated by doubling all orders
    (Richardson-style); a warning is emitted if the relative estimate
    exceeds 1e-4.  full_vector=True returns the averaged 3-vector instead
    (diagnostic; the coupling uses only the x-component).
    """
    _check_clearance(geometry, sphere.center, sphere.radius)
    x0, y0, z0 = (float(c) for c in sphere.center)
    fine = _sphere_averages(geometry, sphere.radius, y0, z0, [x0], orders)[0]
    return fine if full_vector else float(fine[0])


@dataclass(frozen=True)
class CouplingResult:
    g_ghz: float
    n_spins: float
    b_eff_tesla: float
    point_approx: bool


def spin_count(sphere, material):
    """Number of spins N = rho (4 pi R^3 / 3) with rho in cm^-3, R in um."""
    volume_cm3 = 4.0 * math.pi * (sphere.radius * 1e-4) ** 3 / 3.0
    return material.spin_density * volume_cm3


def _g_ghz(material, b_eff, n_spins):
    """g = g_e mu_B B_eff sqrt(N S / 2) / h in linear GHz (b_eff may be an array)."""
    energy = (
        material.lande_g
        * constants.MU_B
        * b_eff
        * math.sqrt(n_spins * material.spin / 2.0)
    )
    return energy / constants.H_PLANCK * 1e-9


def coupling_strength(geometry, sphere, material, point_approx=False, orders=_ORDERS):
    """Collective coupling g = g_e mu_B B_eff sqrt(N S / 2) / h, linear GHz.

    point_approx=True evaluates the field at the sphere center instead of
    volume-averaging (the point-sphere approximation).
    """
    if point_approx:
        b_eff = float(loop_field(geometry, np.asarray(sphere.center, dtype=float))[0])
    else:
        b_eff = volume_avg_field(geometry, sphere, orders=orders)
    n_spins = spin_count(sphere, material)
    return CouplingResult(
        g_ghz=_g_ghz(material, b_eff, n_spins),
        n_spins=n_spins,
        b_eff_tesla=b_eff,
        point_approx=point_approx,
    )


@dataclass
class CouplingMapResult:
    axis_names: tuple
    axis_values: tuple           # (values_axis0, values_axis1)
    g_ghz: np.ndarray            # shape (len(axis0), len(axis1))
    meta: dict = field(default_factory=dict)

    def to_csv(self, path):
        a0, a1 = self.axis_names
        with open(path, "w", newline="\n") as fh:
            fh.write(f"{a0},{a1},g_ghz\n")
            for i, v0 in enumerate(self.axis_values[0]):
                for j, v1 in enumerate(self.axis_values[1]):
                    fh.write(f"{v0:.12e},{v1:.12e},{self.g_ghz[i, j]:.12e}\n")


def coupling_map(geometry, material, axes, mode):
    """Sweep the coupling over a 2D grid.

    mode "point_sphere": axes {"R": ..., "I_p": ...}, field at the center,
    sphere centered at the origin (radius-limited placements are the
    caller's concern in this approximation).
    mode "volume_avg": axes {"R": ..., "x0": ...}, sphere on the loop axis
    at (x0, 0, 0), full volume average.
    """
    if mode == "point_sphere":
        names = ("R_um", "I_p_uA")
        r_vals = np.asarray(axes["R"], dtype=float)
        i_vals = np.asarray(axes["I_p"], dtype=float)
        g = np.empty((len(r_vals), len(i_vals)))
        for i, rad in enumerate(r_vals):
            for j, cur in enumerate(i_vals):
                geom = LoopGeometry(side_length=geometry.side_length, current=cur)
                sph = SphereSpec(center=(0.0, 0.0, 0.0), radius=rad)
                g[i, j] = coupling_strength(geom, sph, material, point_approx=True).g_ghz
        values = (r_vals, i_vals)
    elif mode == "volume_avg":
        names = ("R_um", "x0_um")
        r_vals = np.asarray(axes["R"], dtype=float)
        x_vals = np.asarray(axes["x0"], dtype=float)
        g = np.empty((len(r_vals), len(x_vals)))
        centers = np.column_stack([x_vals, np.zeros((len(x_vals), 2))])
        for i, rad in enumerate(r_vals):
            n_spins = spin_count(SphereSpec(center=(0.0, 0.0, 0.0), radius=rad), material)
            _check_clearance(geometry, centers, rad)
            b_eff = _sphere_averages(geometry, rad, 0.0, 0.0, x_vals, _ORDERS)[:, 0]
            g[i] = _g_ghz(material, b_eff, n_spins)
        values = (r_vals, x_vals)
    else:
        raise ConfigError(f"unknown coupling map mode {mode!r}")
    return CouplingMapResult(
        axis_names=names,
        axis_values=values,
        g_ghz=g,
        meta={
            "mode": mode,
            "side_length_um": geometry.side_length,
            "material": {
                "spin_density_cm3": material.spin_density,
                "spin": material.spin,
                "lande_g": material.lande_g,
            },
        },
    )
