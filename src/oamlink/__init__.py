"""Simulation of UCA-based line-of-sight OAM radio links under misalignment,
with electronic-only and hybrid mechanical + electronic beam steering."""

from .channel import (
    ChannelMatrix,
    channel_matrices,
    channel_matrix,
    oam_effective,
    partial_dft,
    simulate_reception,
)
from .config import CarrierGrid, LinkConfig, default_link
from .geometry import (
    ArrayGeometry,
    Pose,
    alpha_from,
    distances,
    phi_azimuth,
    psi_from,
    rotation_matrix,
)
from .metrics import asymptotic_sir, capacity, sinr, sir
from .optimizer import (
    SaParams,
    SaTrace,
    capacity_objective,
    capacity_profile,
    grid_search_roll,
    optimize_roll,
    roll_objective,
)
from .pipeline import HybridResult, hybrid_pipeline
from .servo import ServoConfig, execute_rotation
from .steering import (
    mechanical_pitch_yaw,
    mechanical_roll,
    phases_e1,
    phases_e2,
    phases_eo,
)
from .complexity import ComplexityParams, cost_electronic, cost_hybrid

__version__ = "0.1.0"
