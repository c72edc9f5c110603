"""Multidataset independent subspace analysis.

Joint estimation of block-diagonal unmixing transforms across datasets that
render prescribed source subspaces independent, with Kotz-distribution
likelihoods, relative-gradient quasi-Newton optimization, combinatorial
local-minimum escape, reconstruction-error data reduction, synthetic
benchmark generation, and separation metrics.
"""

from .errors import (
    ConfigError,
    DefinitenessError,
    DomainError,
    MisaError,
    ParseError,
    RankError,
    ShapeError,
)
from .model import (
    PSI_GAUSS,
    PSI_LAPLACE,
    BlockTransform,
    DispersionChoice,
    KotzParams,
    MultiDataset,
    SubspaceAssignment,
    kotz_from_psi,
    kotz_log_pdf,
)
from .objective import (
    ObjectiveContext,
    ObjectiveReport,
    evaluate,
    relative_gradient,
)
from .optimizer import (
    OptimOptions,
    Solution,
    Status,
    minimize,
    random_row_orthonormal,
)
from .reduction import (
    ReductionResult,
    gpca_init,
    pre_gradient,
    pre_value,
    reduce_data,
)
from .combinatorics import (
    gp,
    hungarian,
    match,
    misa_gp_mdm,
    run_misa,
    subspace_perm,
)
from .simgen import (
    GroundTruth,
    SimSpec,
    build_instance,
    gen_mixing,
    sample_copula_sources,
    sample_mvlaplace,
    snr_scale,
    toeplitz_corr,
)
from .metrics import (
    MISI_EXCELLENT,
    MISI_GOOD,
    interference_matrix,
    misi,
    misi_from_interference,
    mmse,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    config_from_dict,
    correlation_summary,
    load_config,
    preset,
    run_experiment,
    summarize,
    write_results,
)
from .io import load_matrix, save_matrix

__version__ = "0.1.0"
