"""gibbslines: discrete Gibbsian line ensembles, log-gamma polymers, grand
monotone couplings, and KPZ-scaled statistics."""

from .bridge import (
    BridgeSpec,
    HrwSpec,
    hrw_density,
    n_step_density,
    sample_bridge_sequential,
    sample_bridges_mcmc,
    sample_bridges_sequential,
)
from .coupling import (
    BoundaryTriple,
    GrandCouplingEngine,
    continuity_check,
    grand_coupling_sample,
    log_partition,
    monotonicity_check,
)
from .ensembles import DiscreteLineEnsemble
from .errors import PrecisionError, ResourceLimitError
from .gibbs import (
    EnsembleSpec,
    Hamiltonian,
    InteractionSpec,
    acceptance_probability,
    boltzmann_weight,
    gibbs_invariance_check,
    log_boltzmann_weight,
    sample_ensemble_mcmc,
    sample_ensemble_rejection,
    sample_ensembles_mcmc,
    sample_ensembles_rejection,
    window_spec_from_ensemble,
)
from .grids import GridDensity
from .polymer import (
    PartitionTable,
    WeightField,
    build_partition_table,
    polymer_line_ensemble,
    sample_top_curves,
    sample_weight_field,
    single_path_partition,
    tau_bruteforce,
    tau_lgv,
    z_array,
)
from .reports import EmpiricalCDF, StatReport, ks_distance, ks_two_sample_critical
from .special import (
    ScalingConstants,
    digamma,
    g_theta,
    g_theta_inv,
    h_theta,
    log_gamma,
    scaling_constants,
    trigamma,
)
from .stats import (
    ParabolaFit,
    ScaledEnsemble,
    gap_and_acceptance_diagnostics,
    gue_tw_oracle,
    kpz_scale,
    modulus_of_continuity,
    parabola_fit,
    profile_points,
    tw_statistic,
    tw_statistics_from_values,
    window_extrema,
)

__version__ = "0.1.0"
