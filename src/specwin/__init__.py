"""specwin: spectral-window regularization parameter learning.

Generalized Tikhonov solvers diagonalized by the GSVD (dense) or the DCT-II
(reflexive-boundary deblurring), spectral windows with one parameter per
window, predictive-risk / cross-validation / supervised objectives for
learning those parameters from multiple data sets, and an experiment CLI.
"""

from .errors import (ConfigError, EmptyWindowError, InfeasibleError,
                     JointNullSpaceError, KernelSymmetryError,
                     SaturatedTraceError, SpecwinError)
from .spectral import (DiagonalizationReport, FilterDiagonal, SpectralSystem,
                       dct_decompose, diag_to_gsvd_check, filter_factors,
                       gsvd, laplacian_spectrum, reflexive_kernel)
from .windows import (KINDS, WindowSet, cosine_windows, indicator_windows,
                      make_partitions, make_windows, trivial_window)
from .solver import (ParamVector, RegularizedSolution, phi_windowed,
                     residual_norm_windowed, solve_scalar, solve_windowed,
                     trace_windowed)
from .estimators import (DataPool, GcvObjective, MseObjective, NoiseModel,
                         UpreObjective, estimate_sigma2, gcv_md_scalar,
                         gcv_scalar, gcv_windowed_decoupled, gcv_windowed_true,
                         gcv_windowed_true_md, mse_learning, upre_md_windowed,
                         upre_scalar, upre_window_separable)
from .optimize import (BOUNDARY_RTOL, ScalarSearchResult, SearchConfig,
                       VectorSearchResult, minimize_scalar, minimize_vector)
from .problems import (DataSet, add_noise, blur, blur_spectrum, gaussian_psf,
                       iter_datasets, make_dataset, make_datasets,
                       read_pgm, synthetic_image, write_pgm)

__version__ = "0.1.0"

__all__ = [
    "SpecwinError", "ConfigError", "JointNullSpaceError",
    "KernelSymmetryError", "EmptyWindowError", "SaturatedTraceError",
    "InfeasibleError",
    "SpectralSystem", "FilterDiagonal", "DiagonalizationReport", "gsvd",
    "dct_decompose", "filter_factors", "diag_to_gsvd_check",
    "reflexive_kernel", "laplacian_spectrum",
    "KINDS", "WindowSet", "make_partitions", "make_windows",
    "indicator_windows", "cosine_windows", "trivial_window",
    "ParamVector", "RegularizedSolution", "solve_scalar", "solve_windowed",
    "phi_windowed", "residual_norm_windowed", "trace_windowed",
    "NoiseModel", "upre_scalar", "upre_md_windowed",
    "upre_window_separable", "gcv_scalar", "gcv_md_scalar",
    "gcv_windowed_true", "gcv_windowed_true_md", "gcv_windowed_decoupled",
    "DataPool", "UpreObjective", "GcvObjective", "MseObjective",
    "mse_learning", "estimate_sigma2",
    "SearchConfig", "ScalarSearchResult", "VectorSearchResult",
    "minimize_scalar", "minimize_vector", "BOUNDARY_RTOL",
    "DataSet", "gaussian_psf", "blur", "blur_spectrum",
    "add_noise", "make_dataset", "make_datasets", "iter_datasets",
    "synthetic_image",
    "read_pgm", "write_pgm",
]
