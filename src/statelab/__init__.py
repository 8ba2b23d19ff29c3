"""statelab: numerical laboratory for classical mechanics in quantum state space."""

from .numerics import (
    Grid, NumericalBreakdownError, RngStream, StateVector,
    inner_l2, quadrature, spectral_derivative,
)
from .geometry import (
    GaussianParams, KernelSpace,
    completeness_rank, delta_path_projection, embed_point,
    fs_distance, fs_metric_restriction_check, gram_matrix, grid_delta,
    h_norm_velocity, kernel_inner, realize,
)
from .dynamics import (
    PhysicsParams, PotentialSpec, VelocityDecomposition,
    anticommutator_identity_check, apply_hamiltonian, apply_momentum,
    closed_form_decomposition, constrained_motion_check, ehrenfest_check,
    expect_p, expect_x, newton_integrate, projective_speed, propagate,
    velocity_decomposition, wavepacket_trajectory,
)
from .reconstruct import (
    OperatorTriple, ReconstructionResult,
    build_operators, constraint_residuals, kernel_of_constraints,
    solve_hamiltonian,
)
from .diffusion import (
    ComponentDecomposition, DensityEstimate, DiffusionConfig,
    decompose_state, density_functional, random_superposition,
    random_unitary, simulate_state_diffusion, solid_com_diffusion,
    verify_diffusion_pde,
)

__version__ = "0.1.0"
