"""Physical constants (CODATA 2018 exact/recommended values) and unit helpers.

Internal convention used throughout the package:

* frequencies entering Hamiltonians are angular, in rad/ns
* times are in ns
* user-facing parameters are linear frequencies (GHz / MHz / kHz),
  temperatures in mK, lengths in um, currents in uA

1 GHz (linear) corresponds to 2*pi rad/ns, so the conversion between the
user-facing and internal units is a bare factor of 2*pi.
"""

import math

# CODATA 2018
MU0 = 1.25663706212e-6       # vacuum permeability, T m / A
MU_B = 9.2740100783e-24      # Bohr magneton, J / T
H_PLANCK = 6.62607015e-34    # Planck constant, J s (exact)
K_B = 1.380649e-23           # Boltzmann constant, J / K (exact)

G_E = 2.0                    # electron g-factor used for the YIG spins

TWO_PI = 2.0 * math.pi

# k_B / h in GHz/K: converts temperature to a linear frequency scale.
KB_OVER_H_GHZ_PER_K = K_B / H_PLANCK * 1e-9


def ghz_to_rad_ns(f_ghz):
    """Linear frequency in GHz -> angular frequency in rad/ns."""
    return TWO_PI * f_ghz


def thermal_occupation(f_ghz, temperature_mk):
    """Bose-Einstein occupation of a mode at linear frequency f_ghz (GHz)
    for a bath at temperature_mk (mK).

    Returns 0 for non-positive temperature (the T -> 0 limit).
    """
    if temperature_mk <= 0.0:
        return 0.0
    t_k = temperature_mk * 1e-3
    x = f_ghz / (KB_OVER_H_GHZ_PER_K * t_k)
    # guard against overflow for large frequency / low temperature
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)
