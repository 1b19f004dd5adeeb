"""Numerical laboratory for scattering on rotationally symmetric surfaces
with several ends: stationary phases, limiting resolvents, distorted
Fourier transforms, scattering matrices and comparison dynamics."""

from .config import (
    ConfigError,
    ExperimentConfig,
    GridConfig,
    RunConfig,
    default_config,
    load_config,
    parse_config,
)
from .dynamics import (
    SpectralProfile,
    comparison_state,
    dollard_state,
    eikonal,
    hamilton_jacobi_residual,
    leading_term,
    phase_modifier,
    state_norm,
    stationary_point,
)
from .fourier import ScatteringData, distorted_ft, scattering_matrix, scattering_sweep
from .geometry import (
    EndProfile,
    ManifoldModel,
    classify_potential,
    eta,
    phase_a,
    phase_b,
    riccati_residual,
)
from .mode_reduction import ModeOperator, RadialGrid, besov_norm
from .oracle import (
    closed_form_scattering,
    dense_hamiltonian_2d,
    free_green,
    small_eps_resolvent,
)
from .presets import by_name, model_a, model_b, model_c, model_d, model_free
from .propagator import (
    EvolutionConfig,
    Propagator,
    adjoint_identity_check,
    end_projection,
    evolve,
    transmission_experiment,
    wave_operator,
)
from .resolvent import (
    JostPair,
    JostSetup,
    jost_pair,
    jost_setups,
    limiting_resolvent,
    march_pair,
    radiation_residual,
)

__version__ = "0.1.0"
