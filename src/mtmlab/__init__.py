"""mtmlab: a numerical laboratory for the massive Thirring model."""

__version__ = "0.1.0"

from .fields import (  # noqa: F401
    Grid,
    SpinorField,
    combined_l2_distance,
    inner_product,
    l2_norm,
    l2_norm_sq,
    read_field_csv,
    read_lax_csv,
    write_field_csv,
    write_lax_csv,
)
from .solitons import (  # noqa: F401
    SpectralParameter,
    free_lax_vector,
    lorentz_boost,
    soliton_eigenvector,
    soliton_field,
    stationary_soliton,
)
from .lax import (  # noqa: F401
    EigenResult,
    JostPair,
    assemble_A,
    assemble_L,
    eigenvector_remainder,
    evans_function,
    find_eigenvalue,
    gauge_transform,
    null_vectors,
    project_P,
    resolvent_solve,
    s_constant,
    solve_jost,
    solve_time_bvp,
)
from .backlund import (  # noqa: F401
    backlund_transform,
    down_map,
    pushforward_eigenvector,
    riccati_residual,
    up_map,
)
from .evolution import charge, evolve, step  # noqa: F401
from .stability import (  # noqa: F401
    ExperimentConfig,
    ExperimentRecord,
    make_perturbed_initial,
    modulated_distance,
    run_experiment,
    sweep,
)
