"""Coupling strength between the flux-qubit loop and the YIG sphere.

The square loop lies in the y-z plane, centered at the origin, with its
normal along x; positive current circulates so the center field points
along +x.  Fields come from the closed-form finite-segment Biot-Savart
law.

The sphere average needs no quadrature.  Away from the current,
div B = curl B = 0, so each Cartesian component of B is harmonic, and by
the mean-value property its average over a ball that clears the wire
equals its value at the ball's center (Jackson, Classical
Electrodynamics, problem 1.10).  volume_avg_field is therefore the
clearance check plus loop_field at the center.  Each coupling map makes
one field evaluation: the volume map one loop_field call over its x0
axis, with one clearance test for its whole (R, x0) grid, and the point
map one pass over the four segments at the origin for its whole I_p
axis, since the current enters the field only through the Biot-Savart
prefactor.  The radius enters only through the spin count and the
clearance test.  The collective coupling is

    g = g_e mu_B B_eff sqrt(N S / 2) / h

with N the number of spins in the sphere, returned as a linear frequency.

Units at the interface: lengths um, currents uA, fields tesla, g in GHz.
With those choices the Biot-Savart prefactor is just mu0/(4 pi): the
1e-6 A and 1e+6 m^-1 conversions cancel.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import constants
from .errors import ConfigError, DimensionError, NumericalError


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
    current may be an array: it enters only through the prefactor, and its
    shape broadcasts against r's leading axes, so an (n,) array of currents
    at one point gives an (n, 3) field, each row bit for bit the field of
    that current alone.
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
    pref = constants.MU0 / (4.0 * math.pi) * np.asarray(current, dtype=float)
    return pref[..., None] * cross * ((na + nb) / denom)[..., None]


def _segments_field(geometry, current, r):
    """Sum of the four segment fields of geometry's loop carrying current."""
    total = None
    for p1, p2 in geometry.segments():
        b = segment_field(p1, p2, current, r)
        total = b if total is None else total + b
    return total


def loop_field(geometry, r):
    """Total field of the four loop segments at point(s) r, tesla."""
    return _segments_field(geometry, geometry.current, r)


def _check_clearance(geometry, centers, radius):
    """Raise unless every sphere of radius (one, or an array of radii) at
    every one of centers clears every wire: one test per (center, radius)
    pair, the same comparison as a test per radius."""
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    radius = np.asarray(radius, dtype=float).reshape(-1)
    for p1, p2 in geometry.segments():
        if np.any(_segment_distance(p1, p2, centers)[:, None] <= radius):
            raise NumericalError("sphere intersects a loop wire segment")


def volume_avg_field(geometry, sphere, orders=None):
    """Sphere-averaged x-component of the loop field, tesla.

    By the mean-value property this is the x-component at the sphere's
    center, once the sphere is checked to clear every wire.  orders is
    accepted and ignored, because benchmark/tests/test_checks.py still
    passes the quadrature orders this closed form made unnecessary.
    """
    _check_clearance(geometry, sphere.center, sphere.radius)
    return float(loop_field(geometry, np.asarray(sphere.center, dtype=float))[0])


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


def coupling_strength(geometry, sphere, material, point_approx=False):
    """Collective coupling g = g_e mu_B B_eff sqrt(N S / 2) / h, linear GHz.

    point_approx=True evaluates the field at the sphere center without
    checking that the sphere clears the wire (the point-sphere
    approximation); otherwise volume_avg_field does both.
    """
    if point_approx:
        b_eff = float(loop_field(geometry, np.asarray(sphere.center, dtype=float))[0])
    else:
        b_eff = volume_avg_field(geometry, sphere)
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
        """One (axis0, axis1, g) row per point, axis 0 outer, %.12e, LF endings."""
        a0, a1 = self.axis_names
        v0s, v1s = self.axis_values
        shape = (len(v0s), len(v1s))
        if np.shape(self.g_ghz) != shape:
            raise DimensionError(f"coupling map of shape {np.shape(self.g_ghz)} "
                                 f"does not match the ({a0}, {a1}) axes {shape}")
        # each axis value is formatted once: one template per axis-0 row, with
        # "@" standing for the row's axis-0 value and %.12e for each g
        row = "".join("@,%.12e,%%.12e\n" % x for x in v1s.tolist())
        text = "".join(row.replace("@", "%.12e" % v0) % tuple(gs)
                       for v0, gs in zip(v0s.tolist(), self.g_ghz.tolist()))
        with open(path, "w", newline="\n") as fh:
            fh.write(f"{a0},{a1},g_ghz\n")
            fh.write(text)


def coupling_map(geometry, material, axes, mode):
    """Sweep the coupling over a 2D grid.

    mode "point_sphere": axes {"R": ..., "I_p": ...}, field at the center,
    sphere centered at the origin (radius-limited placements are the
    caller's concern in this approximation).  The loop keeps geometry's
    side length and carries each I_p in turn; one segment pass at the
    origin gives the field for the whole I_p axis, after one check that
    every I_p is positive (ConfigError, as LoopGeometry raises).
    mode "volume_avg": axes {"R": ..., "x0": ...}, sphere on the loop axis
    at (x0, 0, 0), volume average (the center field of a cleared sphere):
    one loop_field call over the x0 axis and one clearance test over the
    whole (R, x0) grid, which refuses any map with a sphere that touches a
    wire.
    Either map is bit for bit the map built one cell at a time.
    """
    if mode == "point_sphere":
        names = ("R_um", "I_p_uA")
        r_vals = np.asarray(axes["R"], dtype=float)
        i_vals = np.asarray(axes["I_p"], dtype=float)
        if np.any(i_vals <= 0):
            raise ConfigError("loop side length and current must be positive")
        g = np.empty((len(r_vals), len(i_vals)))
        b_eff = _segments_field(geometry, i_vals, np.zeros(3))[:, 0]
        for i, rad in enumerate(r_vals):
            n_spins = spin_count(SphereSpec(center=(0.0, 0.0, 0.0), radius=rad), material)
            g[i] = _g_ghz(material, b_eff, n_spins)
        values = (r_vals, i_vals)
    elif mode == "volume_avg":
        names = ("R_um", "x0_um")
        r_vals = np.asarray(axes["R"], dtype=float)
        x_vals = np.asarray(axes["x0"], dtype=float)
        g = np.empty((len(r_vals), len(x_vals)))
        centers = np.column_stack([x_vals, np.zeros((len(x_vals), 2))])
        b_eff = loop_field(geometry, centers)[:, 0]
        _check_clearance(geometry, centers, r_vals)
        for i, rad in enumerate(r_vals):
            n_spins = spin_count(SphereSpec(center=(0.0, 0.0, 0.0), radius=rad), material)
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
