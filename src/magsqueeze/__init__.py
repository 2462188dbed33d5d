"""Hybrid flux-qubit / magnon toolkit: conditional squeezing, superposition
states, and the supporting coupling, dynamics, and observable machinery."""

__version__ = "0.1.0"

from .constants import thermal_occupation
from .coupling import (
    LoopGeometry,
    MaterialSpec,
    SphereSpec,
    YIG,
    coupling_map,
    coupling_strength,
    loop_field,
    volume_avg_field,
)
from .dynamics import (
    LindbladSpec,
    SolverConfig,
    TrajectoryResult,
    build_dissipators_full,
    conditional_squeezing_run,
    evolve_master,
    postselect_qubit,
    sector_covariance_squeezing,
)
from .errors import (
    ConfigError,
    DimensionError,
    FrameError,
    MagsqueezeError,
    NumericalError,
    StiffnessError,
    TruncationError,
)
from .model import (
    DerivedParams,
    PhysicalParams,
    SplitHamiltonian,
    build_H_cs,
    build_H_rot,
    derive,
    frame_transform,
    squeezing_parameter,
)
from .observables import (
    WignerGrid,
    min_quadrature_variance,
    squeezing_db,
    wigner,
    wigner_negativity_volume,
)
from .qops import StateDensity
from .states import (
    joint_initial_state,
    squeezed_vacuum_fock,
    superposition_pm,
)
