"""Multidataset independent subspace analysis.

Joint estimation of block-diagonal unmixing transforms across datasets that
render prescribed source subspaces independent, with Kotz-distribution
likelihoods, relative-gradient quasi-Newton optimization, combinatorial
local-minimum escape, reconstruction-error data reduction, synthetic
benchmark generation, and separation metrics.

Each public name is imported from its module on first use, so that
``import misa`` loads no numpy and leaves the BLAS thread count alone.
"""

import importlib

_modules = {
    "errors": ["ConfigError", "DefinitenessError", "DomainError", "MisaError", "ParseError",
               "RankError", "ShapeError"],
    "model": ["PSI_GAUSS", "PSI_LAPLACE", "BlockTransform", "DispersionChoice", "KotzParams",
              "MultiDataset", "SubspaceAssignment", "kotz_from_psi", "kotz_log_pdf"],
    "objective": ["ObjectiveContext", "ObjectiveReport", "evaluate", "relative_gradient"],
    "optimizer": ["OptimOptions", "Solution", "Status", "minimize", "random_row_orthonormal"],
    "reduction": ["ReductionResult", "gpca_init", "pre_gradient", "pre_value", "reduce_data"],
    "combinatorics": ["gp", "hungarian", "match", "misa_gp_mdm", "run_misa", "subspace_perm"],
    "simgen": ["GroundTruth", "SimSpec", "build_instance", "gen_mixing",
               "sample_copula_sources", "sample_mvlaplace", "snr_scale", "toeplitz_corr"],
    "metrics": ["MISI_EXCELLENT", "MISI_GOOD", "interference_matrix", "misi",
                "misi_from_interference", "mmse"],
    "harness": ["ExperimentConfig", "RunRecord", "config_from_dict", "correlation_summary",
                "load_config", "preset", "run_experiment", "summarize", "write_results"],
    "io": ["load_matrix", "save_matrix"],
}
# each public name -> the module that defines it
_exports = {name: module for module, names in _modules.items() for name in names}
__all__ = sorted(_exports)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _exports:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_exports[name]}", __name__), name)
    globals()[name] = value  # later reads skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
